"""Request model and compute path of the campaign service.

This module is the service's *logic* layer, deliberately free of any
transport detail: :func:`parse_request` turns a decoded JSON body into a
validated :class:`CampaignRequest`, and :func:`run_request` — the
blocking function the server dispatches to its worker pool — resolves
the request against the content-addressed result cache or computes it
with the existing pipeline (scenario build → ``run_campaign`` →
``full_report`` → cache write).  Keeping it transport-free is what lets
the fault-injection suite drive the exact production compute path with
injected failures, and the server swap in a faulty runner without
touching HTTP code.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.engine import ENGINES
from repro.core.report import full_report
from repro.origins import followup_origins, paper_origins
from repro.serve import resultcache
from repro.sim.campaign import campaign_fingerprint, run_campaign
from repro.sim.executor import BACKENDS
from repro.sim.scenario import (followup_scenario, paper_scenario,
                                paper_sharded_scenario)
from repro.sim.shard import run_sharded_campaign
from repro.telemetry.context import current as _telemetry
from repro.telemetry.manifest import config_hash, world_fingerprint
from repro.topology.asn import PROTOCOLS

#: Scenario name → (world, origins, config) builder.
SCENARIOS = {
    "paper": paper_scenario,
    "followup": followup_scenario,
}

#: Scenario name → its full origin-name universe, in scenario order.
#: Requests may select a *subset* of these, but the campaign is always
#: observed under the full universe — shared burst outages are drawn
#: against the complete origin list, so this is what makes a subset
#: request the exact restriction of the full campaign (and what lets
#: the plane cache reuse units across subsets).
SCENARIO_ORIGINS = {
    "paper": tuple(o.name for o in paper_origins()),
    "followup": tuple(o.name for o in followup_origins()),
}

#: Report surfaces: ``full`` renders :func:`repro.core.report.full_report`
#: from a materialized dataset; ``grid`` renders the streaming paper grid
#: (:meth:`~repro.core.streaming.StreamingCampaignResult.report`) and is
#: served incrementally through the plane cache.
REPORT_SURFACES = ("full", "grid")

#: Validation bounds: requests are untrusted input.
MAX_SEED = 2**32
MAX_TRIALS = 16
MIN_SCALE, MAX_SCALE = 1e-3, 2.0
MAX_SHARDS = 64


class BadRequest(Exception):
    """The request body is malformed or out of bounds (an HTTP 400)."""


@dataclass(frozen=True)
class CampaignRequest:
    """A validated campaign/report request.

    The *request spec* deliberately names scenario inputs (scenario,
    seed, scale) rather than raw worlds: the world itself is recovered
    through the content-addressed world cache, and the result key is
    then derived from the *built* world's fingerprint — so two specs
    that produce the same world share cache entries, and a spec whose
    world construction changed (new builder version) can never alias a
    stale result.
    """

    scenario: str = "paper"
    seed: int = 0
    scale: float = 0.05
    protocols: Tuple[str, ...] = PROTOCOLS
    n_trials: int = 3
    engine: Optional[str] = None
    #: ``> 1`` builds the world as a sharded world
    #: (``paper_sharded_scenario``) that the campaign driver streams one
    #: shard at a time — same bytes, bounded memory, one
    #: ``shard.stream`` span per shard.
    shards: int = 1
    #: ``None`` scans with every scenario origin; otherwise a subset of
    #: :data:`SCENARIO_ORIGINS` (normalized to scenario order).  Either
    #: way the campaign is observed under the full scenario universe.
    origins: Optional[Tuple[str, ...]] = None
    #: Report surface, one of :data:`REPORT_SURFACES`.
    report: str = "full"

    def canonical(self) -> str:
        """The canonical JSON identity (single-flight / memo key)."""
        return json.dumps({
            "scenario": self.scenario, "seed": self.seed,
            "scale": self.scale, "protocols": list(self.protocols),
            "n_trials": self.n_trials, "engine": self.engine,
            "shards": self.shards,
            "origins": list(self.origins) if self.origins else None,
            "report": self.report,
        }, sort_keys=True, separators=(",", ":"))

    def to_json(self) -> dict:
        return json.loads(self.canonical())


def parse_request(payload: object) -> CampaignRequest:
    """Validate an untrusted JSON body into a :class:`CampaignRequest`."""
    if not isinstance(payload, dict):
        raise BadRequest("request body must be a JSON object")
    unknown = set(payload) - {"scenario", "seed", "scale", "protocols",
                              "n_trials", "engine", "shards", "origins",
                              "report"}
    if unknown:
        raise BadRequest(f"unknown request fields: {sorted(unknown)}")

    scenario = payload.get("scenario", "paper")
    if scenario not in SCENARIOS:
        raise BadRequest(f"unknown scenario {scenario!r}; "
                         f"expected one of {sorted(SCENARIOS)}")

    seed = payload.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) \
            or not 0 <= seed < MAX_SEED:
        raise BadRequest(f"seed must be an integer in [0, {MAX_SEED})")

    scale = payload.get("scale", 0.05)
    if isinstance(scale, int) and not isinstance(scale, bool):
        scale = float(scale)
    if not isinstance(scale, float) or not MIN_SCALE <= scale <= MAX_SCALE:
        raise BadRequest(
            f"scale must be a number in [{MIN_SCALE}, {MAX_SCALE}]")

    protocols = payload.get("protocols", list(PROTOCOLS))
    if not isinstance(protocols, (list, tuple)) or not protocols \
            or not all(p in PROTOCOLS for p in protocols) \
            or len(set(protocols)) != len(protocols):
        raise BadRequest(
            f"protocols must be a non-empty subset of {list(PROTOCOLS)}")
    # Normalize to canonical protocol order so request identity (and
    # therefore dedup/cache keys) ignores listing order.
    protocols = tuple(p for p in PROTOCOLS if p in protocols)

    n_trials = payload.get("n_trials", 3)
    if not isinstance(n_trials, int) or isinstance(n_trials, bool) \
            or not 1 <= n_trials <= MAX_TRIALS:
        raise BadRequest(f"n_trials must be an integer in [1, {MAX_TRIALS}]")

    engine = payload.get("engine")
    if engine is not None and engine not in ENGINES:
        raise BadRequest(f"unknown engine {engine!r}; "
                         f"expected one of {list(ENGINES)}")

    shards = payload.get("shards", 1)
    if not isinstance(shards, int) or isinstance(shards, bool) \
            or not 1 <= shards <= MAX_SHARDS:
        raise BadRequest(f"shards must be an integer in [1, {MAX_SHARDS}]")
    if shards > 1 and scenario != "paper":
        raise BadRequest("sharded serving is only available for the "
                         "'paper' scenario")

    origins = payload.get("origins")
    if origins is not None:
        universe = SCENARIO_ORIGINS[scenario]
        if not isinstance(origins, (list, tuple)) or not origins \
                or not all(o in universe for o in origins) \
                or len(set(origins)) != len(origins):
            raise BadRequest(
                f"origins must be a non-empty subset of {list(universe)}")
        # Normalize to scenario order: request identity (and cache keys)
        # must ignore listing order, like protocols.
        origins = tuple(o for o in universe if o in origins)
        if origins == universe:
            origins = None  # the full set is spelled "None"

    surface = payload.get("report", "full")
    if surface not in REPORT_SURFACES:
        raise BadRequest(f"unknown report surface {surface!r}; "
                         f"expected one of {list(REPORT_SURFACES)}")

    return CampaignRequest(scenario=scenario, seed=seed, scale=scale,
                           protocols=protocols, n_trials=n_trials,
                           engine=engine, shards=shards, origins=origins,
                           report=surface)


@dataclass
class ResultPayload:
    """What one compute produces: the report plus serving metadata.

    ``source`` records how the bytes were obtained — ``"hit"`` (cache
    read), ``"miss"`` (computed cold), or ``"repair"`` (corrupt entry
    detected, recomputed, overwritten).  The server maps these onto the
    ``serve.cache_*`` counters and response metadata.
    """

    key: str
    report: str
    meta: dict
    source: str
    #: Trace ID of the request whose compute produced these bytes (the
    #: server fills it in; cache hits reuse the requesting trace).
    trace: str = ""


@dataclass
class ServeState:
    """Shared, thread-safe compute-side state of one server instance.

    Holds a small LRU of built worlds (a warm request must not pay a
    world rebuild just to derive its cache key) and a memo from
    canonical request spec to result key (so a repeat request resolves
    its key without touching the world at all).  Both caches only ever
    *accelerate*: every value is a pure function of the spec.
    """

    cache_dir: Optional[str] = None
    executor: Optional[str] = None
    workers: Optional[int] = None
    #: Plane-granular incremental recomputation on the ``grid``-surface
    #: miss path.  ``None`` defers to ``REPRO_PLANE_CACHE`` (on by
    #: default); ``False`` forces the non-incremental reference path.
    #: Deliberately *not* part of the request spec: served bytes are
    #: identical either way.
    plane_cache: Optional[bool] = None
    world_lru: int = 4
    _worlds: "OrderedDict[str, tuple]" = field(default_factory=OrderedDict)
    _keys: Dict[str, str] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def __post_init__(self) -> None:
        if self.executor is not None and self.executor not in BACKENDS:
            raise ValueError(f"unknown executor backend {self.executor!r}; "
                             f"expected one of {BACKENDS}")

    def world_for(self, request: CampaignRequest) -> tuple:
        """(world, origins, config) for a request, via the world LRU.

        ``shards > 1`` builds a :class:`~repro.sim.shard.ShardedWorld`
        through :func:`~repro.sim.scenario.paper_sharded_scenario`
        instead of a monolithic world; the LRU key includes the shard
        count so the two never alias.
        """
        # sort_keys keeps the key canonical: semantically identical
        # requests must never split LRU slots on field ordering.
        lru_key = json.dumps(
            {"scenario": request.scenario, "seed": request.seed,
             "scale": request.scale, "shards": request.shards},
            sort_keys=True)
        with self._lock:
            hit = self._worlds.get(lru_key)
            if hit is not None:
                self._worlds.move_to_end(lru_key)
                return hit
        if request.shards > 1:
            built = paper_sharded_scenario(seed=request.seed,
                                           scale=request.scale,
                                           n_shards=request.shards)
        else:
            built = SCENARIOS[request.scenario](seed=request.seed,
                                                scale=request.scale)
        with self._lock:
            self._worlds[lru_key] = built
            while len(self._worlds) > self.world_lru:
                self._worlds.popitem(last=False)
        return built

    def result_key(self, request: CampaignRequest) -> str:
        """The content address of a request's result (memoized)."""
        spec = request.canonical()
        with self._lock:
            key = self._keys.get(spec)
        if key is not None:
            return key
        world, origins, config = self.world_for(request)
        selected, _ = _select_origins(request, origins)
        surface = "report" if request.report == "full" else "grid"
        key = campaign_fingerprint(
            world, config, selected, request.protocols, request.n_trials,
            extra={"engine": request.engine or "", "surface": surface})
        with self._lock:
            self._keys[spec] = key
        return key


def _select_origins(request: CampaignRequest, origins: tuple):
    """(selected origin subset, full universe names) for a request."""
    universe = tuple(o.name for o in origins)
    if request.origins is None:
        return tuple(origins), universe
    chosen = set(request.origins)
    return tuple(o for o in origins if o.name in chosen), universe


def run_request(request: CampaignRequest, state: ServeState) -> ResultPayload:
    """The blocking compute path: cache hit, or compute-and-repair.

    Runs on a worker thread under a request-local telemetry context (the
    server adopts its snapshot afterwards).  The served bytes are
    byte-identical between the hit and miss paths by construction: the
    miss path renders ``full_report`` once and stores those exact bytes;
    the hit path streams them back out of the CRC-checked snapshot.
    """
    tel = _telemetry()
    key = state.result_key(request)
    source = "miss"
    if resultcache.cache_enabled():
        try:
            entry = resultcache.load(key, state.cache_dir)
        except resultcache.CorruptEntry:
            source = "repair"
        else:
            if entry is not None:
                return ResultPayload(key=key, report=entry.report,
                                     meta=dict(entry.meta), source="hit")

    world, origins, config = state.world_for(request)
    selected, universe = _select_origins(request, origins)
    with tel.span("serve.compute", key=key[:12],
                  scenario=request.scenario, seed=request.seed,
                  shards=request.shards, surface=request.report):
        run = dict(protocols=request.protocols, n_trials=request.n_trials,
                   executor=state.executor, workers=state.workers,
                   origin_universe=universe)
        plane_stats = None
        dataset = None
        if request.report == "grid":
            # Streaming grid surface: plane-granular and incremental —
            # the run probes the plane cache per (protocol, origin,
            # shard, trial) unit and dispatches only the misses.
            result = run_sharded_campaign(
                world, selected, config, plane_cache=state.plane_cache,
                plane_extra={"engine": request.engine or ""},
                plane_dir=state.cache_dir, **run)
            plane_stats = result.metadata.get("plane_cache")
            report = json.dumps(result.report(), sort_keys=True,
                                indent=2, default=str) + "\n"
        else:
            dataset = run_campaign(world, selected, config, **run)
            report = full_report(dataset, engine=request.engine)
    meta = {
        "request": request.to_json(),
        "seed": int(config.seed),
        "config_hash": config_hash(config),
        "world": world_fingerprint(world),
        "origins": [o.name for o in selected],
        "protocols": list(request.protocols),
        "n_trials": request.n_trials,
        "engine": request.engine,
        "report_nbytes": len(report.encode("utf-8")),
    }
    if plane_stats is not None:
        meta["plane_cache"] = plane_stats
    if resultcache.cache_enabled():
        resultcache.store(key, report, dataset, meta=meta,
                          directory=state.cache_dir)
    return ResultPayload(key=key, report=report, meta=meta, source=source)
