"""Synchronized multi-origin campaign execution.

A campaign is the paper's experimental unit: N trials × M protocols, all
origins scanning the same addresses at approximately the same time with a
shared ZMap seed.  One driver runs every campaign.  It streams a world
shard by shard — a plain :class:`~repro.sim.world.World` is its own
single shard, a :class:`~repro.sim.shard.ShardedWorld` loads one shard at
a time — and dispatches one :class:`~repro.sim.executor.TrialBatchJob`
per (protocol, origin) through a pluggable executor backend
(:mod:`repro.sim.executor`).  Each shard's outputs are then folded one of
two ways:

* **collect mode** (:func:`run_campaign`) stacks the observations into
  :class:`~repro.core.dataset.TrialData` tables, giving the
  :class:`~repro.core.dataset.CampaignDataset` the analysis pipeline
  reads;
* **plane-only mode** (:func:`repro.sim.shard.run_sharded_campaign`)
  first probes the plane cache (:mod:`repro.serve.planecache`), so only
  missing (protocol, origin, shard, trial) units are dispatched, and
  reduces the planes into :class:`~repro.core.streaming.StreamingTrial`
  accumulators.

Every job carries its trial-reseeded configs and the origin's
``first_trial``, and outputs are reassembled in job-index order, so the
result is bit-identical regardless of backend, scheduling or sharding.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import hashlib
import json
import os
import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.dataset import CampaignDataset, TrialData
from repro.core.streaming import StreamingCampaignResult, StreamingTrial
from repro.origins import Origin
from repro.scanner.zmap import ZMapConfig
from repro.sim.executor import Executor, ExecutionReport, ProgressCallback, \
    TrialBatchJob, make_executor
from repro.sim.world import Observation, World
from repro.telemetry.context import Telemetry, current as _telemetry, use
from repro.telemetry.manifest import build_manifest
from repro.telemetry.tracing import new_trace_id
from repro.topology.asn import PROTOCOLS

#: A run's telemetry: a journal path (a collector is opened and closed
#: around the run), a caller-owned collector, or ``None`` for whatever
#: context is ambient (usually none — zero overhead).
TelemetryArg = Union[str, os.PathLike, Telemetry, None]


@dataclass
class Campaign:
    """A runnable campaign description.

    ``executor`` selects the execution backend (a name from
    :data:`repro.sim.executor.BACKENDS` or an :class:`Executor` instance);
    ``workers`` sizes the thread/process pool.  Both default to the
    ``REPRO_EXECUTOR`` / ``REPRO_WORKERS`` environment, then to serial.
    """

    world: World
    origins: Tuple[Origin, ...]
    zmap: ZMapConfig
    protocols: Tuple[str, ...] = PROTOCOLS
    n_trials: int = 3
    executor: Union[str, Executor, None] = None
    workers: Optional[int] = None
    #: Telemetry for the run (see :data:`TelemetryArg`).
    telemetry: TelemetryArg = None

    def __post_init__(self) -> None:
        if self.n_trials < 1:
            raise ValueError("a campaign needs at least one trial")
        names = [o.name for o in self.origins]
        if len(set(names)) != len(names):
            raise ValueError("origin names must be unique")

    def run(self) -> CampaignDataset:
        return run_campaign(self.world, self.origins, self.zmap,
                            self.protocols, self.n_trials,
                            executor=self.executor, workers=self.workers,
                            telemetry=self.telemetry)


def _universe_names(origins: Sequence[Origin],
                    origin_universe: Optional[Sequence[str]]
                    ) -> Tuple[str, ...]:
    """The origin-name universe jobs observe under.

    Shared burst outages are drawn against the *full* origin-name list
    (:mod:`repro.conditions.outages`), so observing a subset of origins
    under the full universe — what the serving layer's ``origins``
    filter does — must pass that universe explicitly; otherwise the
    universe is simply the origins being run.
    """
    if origin_universe is None:
        return tuple(o.name for o in origins)
    universe = tuple(origin_universe)
    missing = [o.name for o in origins if o.name not in universe]
    if missing:
        raise ValueError(
            f"origins {missing} are not part of the origin universe "
            f"{list(universe)}")
    return universe


def build_trial_batches(origins: Sequence[Origin], zmap: ZMapConfig,
                        protocols: Sequence[str], n_trials: int,
                        plane_only: bool = False,
                        origin_universe: Optional[Sequence[str]] = None
                        ) -> List[TrialBatchJob]:
    """Flatten the campaign into (protocol, origin) trial batches.

    One job per (protocol, origin) carrying every trial the origin
    participates in, each with its trial-reseeded config
    (``seed + trial``), and the origin's ``first_trial`` — computed once
    here, not per worker, because a worker cannot recover it without the
    full origin participation schedule.  Jobs come out protocol-major in
    campaign origin order, so flattening their trials recovers each
    (protocol, trial) cell's origin order.
    """
    origin_names = _universe_names(origins, origin_universe)
    first_trials = {o.name: _first_trial(o, n_trials) for o in origins}

    jobs: List[TrialBatchJob] = []
    for protocol in protocols:
        for trial in range(n_trials):
            if not any(o.participates(trial) for o in origins):
                raise ValueError(
                    f"no origin scanned {protocol} trial {trial}")
        for origin in origins:
            trials = tuple(t for t in range(n_trials)
                           if origin.participates(t))
            configs = tuple(dataclasses.replace(zmap, seed=zmap.seed + t)
                            for t in trials)
            jobs.append(TrialBatchJob(
                index=len(jobs), protocol=protocol, origin=origin,
                trials=trials, configs=configs,
                first_trial=first_trials[origin.name],
                origin_names=origin_names, plane_only=plane_only))
    return jobs


def run_campaign(world, origins: Sequence[Origin],
                 zmap: ZMapConfig,
                 protocols: Sequence[str] = PROTOCOLS,
                 n_trials: int = 3,
                 executor: Union[str, Executor, None] = None,
                 workers: Optional[int] = None,
                 progress: Optional[ProgressCallback] = None,
                 telemetry: TelemetryArg = None,
                 origin_universe: Optional[Sequence[str]] = None
                 ) -> CampaignDataset:
    """Execute every (protocol, trial, origin) scan and collect results.

    Each trial re-seeds the shared permutation (``seed + trial``), exactly
    as independent scan waves would; within a trial every origin uses the
    same seed, as §2 specifies.

    ``executor`` picks the execution backend (``"serial"``, ``"thread"``,
    ``"process"``, or an :class:`Executor`); ``workers`` sizes its pool;
    ``progress`` is called as ``(jobs_done, jobs_total, job)`` after each
    trial batch completes.  Output is bit-identical across backends; the
    :class:`~repro.sim.executor.ExecutionReport` (including per-stage
    kernel timings) lands in ``metadata["execution"]``.

    ``world`` may also be a :class:`~repro.sim.shard.ShardedWorld`: its
    shards stream one at a time under the memory-budget check and their
    tables concatenate into exactly the dataset the monolithic world
    yields.

    ``telemetry`` turns on run instrumentation: pass a journal path (an
    NDJSON journal plus run manifest is written there), a live
    :class:`~repro.telemetry.context.Telemetry` (the caller keeps
    ownership; the manifest is still emitted), or ``None`` to inherit the
    ambient context — usually the disabled no-op, which costs nothing.
    """
    return _stream_campaign(world, origins, zmap, protocols, n_trials,
                           collect=True, executor=executor,
                           workers=workers, progress=progress,
                           telemetry=telemetry,
                           origin_universe=origin_universe)


def _stream_campaign(world, origins: Sequence[Origin], zmap: ZMapConfig,
                    protocols: Sequence[str], n_trials: int, *,
                    collect: bool,
                    executor: Union[str, Executor, None] = None,
                    workers: Optional[int] = None,
                    progress: Optional[ProgressCallback] = None,
                    telemetry: TelemetryArg = None,
                    origin_universe: Optional[Sequence[str]] = None,
                    budget: Optional[int] = None,
                    plane_cache: Optional[bool] = None,
                    plane_extra: Optional[Mapping] = None,
                    plane_dir: Union[str, os.PathLike, None] = None):
    """The campaign driver behind :func:`run_campaign` and
    :func:`~repro.sim.shard.run_sharded_campaign`.

    Streams ``world`` shard by shard (a plain ``World`` is one shard;
    a ``ShardedWorld`` is first checked against the memory ``budget``).
    With ``collect`` it returns a :class:`CampaignDataset`; otherwise
    jobs run plane-only, every unit is probed against the plane cache
    (``plane_cache``/``plane_extra``/``plane_dir``, see
    :func:`repro.serve.planecache.session_for`) and a
    :class:`~repro.core.streaming.StreamingCampaignResult` comes back.
    """
    sharded = not isinstance(world, World)
    n_shards = world.n_shards if sharded else 1
    with contextlib.ExitStack() as stack:
        tel = _activate_telemetry(telemetry, stack)
        if sharded:
            world.check_budget(len(origins), n_trials, budget)
        jobs = build_trial_batches(origins, zmap, protocols, n_trials,
                                   plane_only=not collect,
                                   origin_universe=origin_universe)
        session = None
        if not collect:
            from repro.serve import planecache
            session = planecache.session_for(
                world, zmap, _universe_names(origins, origin_universe),
                n_shards=n_shards, enabled=plane_cache,
                directory=plane_dir, extra=plane_extra)
        backend = make_executor(executor, workers)
        cells = [(protocol, trial) for protocol in protocols
                 for trial in range(n_trials)]
        # Per cell: the shards' tables (collect) or one accumulator.
        if collect:
            folded = {cell: [] for cell in cells}
        else:
            n_ases = len(world.topology.ases)
            folded = {cell: StreamingTrial(protocol=cell[0], trial=cell[1],
                                           n_ases=n_ases)
                      for cell in cells}
        reports: List[ExecutionReport] = []
        with tel.span("shard.run_campaign" if sharded else "campaign.run",
                      seed=zmap.seed, protocols=list(protocols),
                      n_trials=n_trials, origins=[o.name for o in origins],
                      n_shards=n_shards, plane_only=not collect):
            for index in range(n_shards):
                shard = world.shard_world(index) if sharded else world
                with tel.span("shard.stream", shard=index,
                              rows=len(shard.hosts)):
                    outputs = _dispatch(shard, index, jobs, protocols,
                                        backend, progress, session,
                                        reports)
                    with tel.span("campaign.assemble",
                                  n_tables=len(cells)):
                        for cell, (names, items) in _by_cell(
                                jobs, outputs, cells).items():
                            if collect:
                                folded[cell].append(_stack(
                                    cell[0], cell[1], names, items,
                                    zmap.n_probes))
                            else:
                                _reduce_planes(folded[cell], names, items)
                    tel.count("shard.shards_processed", 1)
                del shard, outputs

        metadata: Dict[str, object] = {
            "seed": zmap.seed,
            "n_probes": zmap.n_probes,
            "probe_spacing_s": zmap.probe_spacing_s,
            "pps": zmap.pps,
            "scan_duration_s": zmap.scan_duration_s,
            "origins": [o.name for o in origins],
            "n_trials": n_trials,
        }
        if sharded:
            metadata["sharded"] = world.manifest.to_meta()
        # A fully cached plane run dispatches nothing: its manifest
        # still records the backend, with zero jobs.
        report = ExecutionReport.merged(reports) if reports else \
            ExecutionReport(backend=backend.name, workers=backend.workers,
                            n_jobs=0, wall_s=0.0, job_wall_s=(),
                            workers_used=0)
        execution = report.to_metadata() if reports else {}
        if sharded and reports:
            execution["n_shards"] = len(reports)
        metadata["execution"] = execution
        if session is not None:
            metadata["plane_cache"] = session.stats()
        if tel.enabled:
            manifest = build_manifest(world, zmap, origins, protocols,
                                      n_trials, report, tel)
            tel.emit({"t": "manifest", **manifest})
            metadata["telemetry"] = {"journal": tel.journal_path,
                                     "manifest": manifest}
    if not collect:
        return StreamingCampaignResult(folded, metadata=metadata)
    return CampaignDataset(
        [parts[0] if len(parts) == 1 else _concat_tables(parts)
         for parts in folded.values()], metadata=metadata)


def _activate_telemetry(telemetry: TelemetryArg,
                        stack: contextlib.ExitStack):
    """The run's collector, made current for the life of ``stack``.

    A journal path opens a collector that ``stack`` closes; a live
    :class:`Telemetry` stays the caller's; ``None`` keeps the ambient
    context.  An enabled collector without a trace gets one minted, but
    a trace already set (a serve request's) is never overwritten.
    """
    if telemetry is None:
        tel = _telemetry()
    elif isinstance(telemetry, Telemetry):
        tel = stack.enter_context(use(telemetry))
    else:
        tel = stack.enter_context(Telemetry(journal=telemetry))
    if tel.enabled and getattr(tel, "trace_id", None) is None:
        tel.trace_id = new_trace_id()
    return tel


def _dispatch(shard: World, index: int, jobs: Sequence[TrialBatchJob],
              protocols: Sequence[str], backend: Executor,
              progress: Optional[ProgressCallback], session,
              reports: List[ExecutionReport]) -> Dict[int, Sequence]:
    """Run one shard's share of the grid; ``job.index`` → outputs.

    Jobs of a protocol the shard holds no hosts of are skipped (their
    cells fold as zero rows).  With a plane-cache ``session`` every
    (protocol, origin, trial) unit is probed first, only the misses are
    dispatched, and fresh units are stored as they stream through.
    """
    present = {p: len(shard.hosts.for_protocol(p)) > 0 for p in protocols}
    live = [job for job in jobs if present[job.protocol]]
    cached: Dict[int, Dict[int, object]] = {}
    dispatch = live
    if session is not None:
        dispatch, cached = _probe_plane_units(
            live, lambda job, trial: session.probe(
                job.protocol, job.origin.name, trial, shard_index=index))
    outputs: Dict[int, Sequence] = {}
    if dispatch:
        results, report = backend.run_grid(shard, dispatch,
                                           progress=progress)
        reports.append(report)
        outputs = dict(zip((job.index for job in dispatch), results))
    if session is None:
        return outputs
    return _merge_plane_outputs(
        live, outputs, cached,
        store=lambda job, trial, plane: session.store(
            job.protocol, job.origin.name, trial, plane,
            shard_index=index))


def _by_cell(jobs: Sequence[TrialBatchJob], outputs: Mapping[int, Sequence],
             cells: Sequence[Tuple[str, int]]) -> Dict[Tuple[str, int],
                                                       Tuple[list, list]]:
    """(origin names, outputs-or-None) per (protocol, trial) cell.

    Jobs are protocol-major in campaign origin order, so each cell lists
    its participating origins in campaign order; a job without outputs
    (its protocol is absent from the shard) contributes ``None``.
    """
    by_cell = {cell: ([], []) for cell in cells}
    for job in jobs:
        per_trial = outputs.get(job.index)
        for k, trial in enumerate(job.trials):
            names, items = by_cell[(job.protocol, trial)]
            names.append(job.origin.name)
            items.append(None if per_trial is None else per_trial[k])
    return by_cell


def _probe_plane_units(jobs: Sequence[TrialBatchJob], probe):
    """Split batch jobs into cached units and a reduced live dispatch.

    ``probe(job, trial)`` returns the cached
    :class:`~repro.sim.batch.PlaneSlice` for one unit or ``None``.
    Returns ``(live, cached)``: ``live`` holds the jobs still worth
    dispatching — a job whose trials all hit disappears entirely, a
    partial hit is re-issued via :func:`dataclasses.replace` with only
    its missing trials (and their matching reseeded configs) while
    keeping its ``index`` (executors map results by index) and its
    origin's *true* ``first_trial`` (the scanned world's IDS/persistence
    state depends on it, not on which trials this dispatch happens to
    run).  ``cached`` maps ``job.index`` → ``{trial: PlaneSlice}``.
    """
    live: List[TrialBatchJob] = []
    cached: Dict[int, Dict[int, object]] = {}
    for job in jobs:
        hits: Dict[int, object] = {}
        for trial in job.trials:
            plane = probe(job, trial)
            if plane is not None:
                hits[trial] = plane
        cached[job.index] = hits
        if not hits:
            live.append(job)
            continue
        keep = [k for k, trial in enumerate(job.trials)
                if trial not in hits]
        if not keep:
            continue  # full hit: nothing to dispatch
        live.append(dataclasses.replace(
            job,
            trials=tuple(job.trials[k] for k in keep),
            configs=tuple(job.configs[k] for k in keep)))
    return live, cached


def _merge_plane_outputs(jobs: Sequence[TrialBatchJob],
                         by_index: Mapping[int, Sequence],
                         cached: Mapping[int, Dict[int, object]],
                         store=None) -> Dict[int, List]:
    """Reassemble cached hits + fresh planes per original job.

    Returns ``job.index`` → per-trial outputs in ``job.trials`` order —
    exactly the shape an un-cached dispatch produces — and hands every
    *fresh* unit to ``store(job, trial, plane)`` on the way through.
    """
    merged: Dict[int, List] = {}
    for job in jobs:
        hits = cached.get(job.index, {})
        fresh = by_index.get(job.index)
        fresh_by_trial: Dict[int, object] = {}
        if fresh is not None:
            missing = [t for t in job.trials if t not in hits]
            fresh_by_trial = dict(zip(missing, fresh))
        outputs: List = []
        for trial in job.trials:
            if trial in hits:
                outputs.append(hits[trial])
                continue
            plane = fresh_by_trial.get(trial)
            outputs.append(plane)
            if store is not None and plane is not None:
                store(job, trial, plane)
        merged[job.index] = outputs
    return merged


def campaign_fingerprint(world: World, zmap: ZMapConfig,
                         origins: Sequence[Origin],
                         protocols: Sequence[str] = PROTOCOLS,
                         n_trials: int = 3,
                         extra: Optional[Mapping] = None) -> str:
    """The content address of a campaign run (64 hex chars).

    Two :func:`run_campaign` invocations with equal fingerprints produce
    byte-identical datasets: the simulator is a pure function of the
    world, the scanner configuration, and the grid shape, and every
    component here pins one of those inputs — the ``config_hash`` /
    ``world_fingerprint`` pair the telemetry manifest already emits, the
    world's own seed, the origin set, and the (protocols × trials) grid.
    The serving layer keys its content-addressed result cache and its
    in-flight request deduplication on this value; ``extra`` folds in
    serving-side parameters (e.g. the analysis engine) that change the
    rendered output without changing the dataset.
    """
    from repro.telemetry.manifest import config_hash, world_fingerprint

    payload = {
        "config": config_hash(zmap),
        "seed": int(zmap.seed),
        "world": world_fingerprint(world),
        "world_seed": int(world.seed),
        "origins": [o.name for o in origins],
        "protocols": list(protocols),
        "n_trials": int(n_trials),
    }
    if extra:
        payload["extra"] = dict(extra)
    blob = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class SingleFlight:
    """Keyed single-flight execution: identical concurrent work runs once.

    ``begin(key)`` returns ``(future, leader)``: exactly one concurrent
    caller per key is the leader (``leader=True``) and must eventually
    call ``finish(key, ...)``; everyone else shares the same future and
    simply waits.  The synchronous :meth:`run` wraps the whole protocol
    for blocking callers; async callers (the serving layer) drive
    ``begin``/``finish`` themselves and await the future however suits
    their event loop.

    Thread-safe; keys are whatever hashable identity makes two requests
    "the same work" — the serving layer uses the canonical request spec,
    whose executions converge on :func:`campaign_fingerprint`-keyed
    cache entries.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: Dict[object, concurrent.futures.Future] = {}

    def begin(self, key) -> Tuple[concurrent.futures.Future, bool]:
        """Join or open the flight for ``key``; True means "you lead"."""
        with self._lock:
            future = self._flights.get(key)
            if future is not None:
                return future, False
            future = concurrent.futures.Future()
            self._flights[key] = future
            return future, True

    def finish(self, key, result=None,
               error: Optional[BaseException] = None) -> None:
        """Resolve ``key``'s flight, waking every joined waiter."""
        with self._lock:
            future = self._flights.pop(key)
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)

    def run(self, key, fn) -> Tuple[object, bool]:
        """Blocking convenience: ``(fn(), False)`` for the leader, or
        ``(shared result, True)`` after joining an in-flight call."""
        future, leader = self.begin(key)
        if not leader:
            return future.result(), True
        try:
            value = fn()
        except BaseException as exc:
            self.finish(key, error=exc)
            raise
        self.finish(key, result=value)
        return value, False

    def in_flight(self) -> int:
        with self._lock:
            return len(self._flights)


def _first_trial(origin: Origin, n_trials: int) -> int:
    """The first trial this origin participates in."""
    for trial in range(n_trials):
        if origin.participates(trial):
            return trial
    raise ValueError(f"origin {origin.name} participates in no trial")


def _stack(protocol: str, trial: int, origins: List[str],
           observations: List[Optional[Observation]],
           n_probes: int) -> TrialData:
    """Combine aligned per-origin observations into one TrialData.

    ``None`` entries stand for a shard without hosts of the protocol and
    stack as zero rows.
    """
    observations = [obs if obs is not None
                    else _empty_observation(protocol, trial, name)
                    for name, obs in zip(origins, observations)]
    reference = observations[0]
    for obs in observations[1:]:
        if not np.array_equal(obs.ip, reference.ip):
            raise AssertionError(
                "origins disagree on the scanned service set — churn or "
                "blocklists are origin-dependent, which violates the "
                "synchronized-campaign invariant")
    return TrialData(
        protocol=protocol,
        trial=trial,
        origins=origins,
        ip=reference.ip.copy(),
        as_index=reference.as_index.copy(),
        country_index=reference.country_index.copy(),
        geo_index=reference.geo_index.copy(),
        probe_mask=np.stack([o.probe_mask for o in observations]),
        l7=np.stack([o.l7 for o in observations]),
        time=np.stack([o.time for o in observations]),
        n_probes=n_probes)


def _empty_observation(protocol: str, trial: int,
                       origin: str) -> Observation:
    """A zero-row observation for a shard with no hosts of a protocol."""
    return Observation(
        protocol=protocol, trial=trial, origin=origin,
        ip=np.zeros(0, dtype=np.uint32),
        as_index=np.zeros(0, dtype=np.int64),
        country_index=np.zeros(0, dtype=np.int64),
        geo_index=np.zeros(0, dtype=np.int64),
        probe_mask=np.zeros(0, dtype=np.uint8),
        l7=np.zeros(0, dtype=np.uint8),
        time=np.zeros(0, dtype=np.float32))


def _reduce_planes(acc: StreamingTrial, names: List[str],
                   slices: List) -> None:
    """Stream one cell's plane slices into an accumulator.

    ``slices`` holds one :class:`~repro.sim.batch.PlaneSlice` per origin
    (campaign order), or ``None`` entries when the shard has no hosts of
    the protocol (reduced as zero rows).
    """
    reference = next((s for s in slices if s is not None), None)
    if reference is None:
        acc.add_shard_planes(names, np.zeros(0, dtype=np.int64),
                             np.zeros((len(names), 0), dtype=bool))
        return
    for plane_slice in slices:
        if not np.array_equal(plane_slice.ip, reference.ip):
            raise AssertionError(
                "origins disagree on the scanned service set — churn or "
                "blocklists are origin-dependent, which violates the "
                "synchronized-campaign invariant")
    acc.add_shard_planes(names, reference.as_index,
                         np.stack([s.accessible for s in slices]))


def _concat_tables(parts: Sequence[TrialData]) -> TrialData:
    """Column-wise concatenation of one trial's per-shard tables."""
    first = parts[0]
    return TrialData(
        protocol=first.protocol, trial=first.trial,
        origins=list(first.origins),
        ip=np.concatenate([p.ip for p in parts]),
        as_index=np.concatenate([p.as_index for p in parts]),
        country_index=np.concatenate([p.country_index for p in parts]),
        geo_index=np.concatenate([p.geo_index for p in parts]),
        probe_mask=np.concatenate([p.probe_mask for p in parts], axis=1),
        l7=np.concatenate([p.l7 for p in parts], axis=1),
        time=np.concatenate([p.time for p in parts], axis=1),
        n_probes=first.n_probes)
