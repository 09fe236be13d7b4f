"""Sharded, out-of-core worlds: stream big synthetic Internets.

A monolithic :class:`~repro.sim.world.World` is built, held, and
observed as one in-memory object, which caps world size at RAM.  This
module partitions the synthetic Internet into contiguous per-AS-group
*shards*, each generated independently and streamed through
observe/execute/analyze on a fixed memory budget:

* **Independent generation.**  Every per-AS draw in
  :func:`repro.hosts.population.populate` is keyed only on the AS
  index, and prefix allocation in :mod:`repro.topology.generator` is
  sequential in spec order — so shard K's host columns are buildable
  without shards 0..K-1, and per-shard tables concatenated in shard
  order equal the monolithic :class:`~repro.hosts.table.HostTable`
  byte for byte (each AS's address range is disjoint from and above
  its predecessors').
* **Columnar segments.**  Shard host tables persist as content-addressed
  ``hosts`` snapshots in the world cache
  (:func:`repro.io.worldcache.cached_build_shard`); a warm shard load
  is an mmap, and :meth:`ShardedWorld.shard_world` wraps one shard's
  columns in a full-topology ``World`` — every blocking/loss/churn
  draw is elementwise in (host, AS, trial, origin), so the shard
  world's observation equals the monolithic observation restricted to
  the shard's rows.
* **Streaming execution.**  The campaign driver
  (:mod:`repro.sim.campaign`) runs the (protocol × trial × origin) grid
  one shard at a time through the ordinary executor backends;
  :func:`run_sharded_campaign` reduces each shard's planes into
  :mod:`repro.core.streaming` accumulators immediately, so resident
  state is one shard plus bit-plane accumulators.  A memory-budget
  model (``REPRO_MEMORY_BUDGET``, default 512 MB) rejects shard plans
  whose single-shard footprint cannot fit.

Differential guarantees are pinned by ``tests/test_shard_world.py``:
materialized shard tables equal the monolithic build, streamed packed
planes equal the monolithic engine's, and the streamed paper-grid
numbers equal the dataset-level analyses — at seed scale, across
executor backends.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.streaming import StreamingCampaignResult, StreamingTrial
from repro.hosts.population import populate
from repro.hosts.table import HostTable
from repro.origins import Origin
from repro.rng import CounterRNG
from repro.scanner.zmap import ZMapConfig
from repro.sim.world import World, WorldDefaults
from repro.topology.asn import PROTOCOLS
from repro.topology.generator import Topology, build_topology
from repro.topology.geo import default_countries

#: Environment variable bounding resident memory during streaming runs
#: (bytes; suffix-free integer).  The default models a small container.
ENV_MEMORY_BUDGET = "REPRO_MEMORY_BUDGET"
DEFAULT_MEMORY_BUDGET = 512 * 2 ** 20

#: Default shard granularity: target host rows per shard.  Constant (not
#: budget-derived) so shard boundaries — and therefore per-shard cache
#: keys — are stable across machines and budget settings.
DEFAULT_SHARD_ROWS = 131_072

#: Footprint model constants (see docs/SCALING.md): bytes per resident
#: host-table row, and bytes per observed row per (trial, origin) job
#: held between observation and reduction.
_ROW_BYTES = 21
_OBS_ROW_BYTES = 34
#: Fixed overhead reserved for the interpreter, numpy, the topology and
#: the plane accumulators.
_BASE_OVERHEAD = 192 * 2 ** 20


class MemoryBudgetError(RuntimeError):
    """A shard plan cannot run within the configured memory budget."""


def memory_budget(budget: Optional[int] = None) -> int:
    """Resolve the streaming memory budget: argument > env > default."""
    if budget is not None:
        return int(budget)
    env = os.environ.get(ENV_MEMORY_BUDGET)
    if env:
        return int(env)
    return DEFAULT_MEMORY_BUDGET


@dataclass(frozen=True)
class ShardManifest:
    """The partition of one world into contiguous AS-index groups.

    ``boundaries`` has ``n_shards + 1`` entries; shard *i* covers dense
    AS indices ``[boundaries[i], boundaries[i+1])``.  ``n_hosts`` is the
    exact per-shard service-row count (populate places exactly the
    spec'd counts, so this is known without building).  ``base_key`` is
    the :func:`repro.io.worldcache.world_key` of the monolithic inputs;
    together with the boundaries it content-addresses every segment.
    """

    seed: int
    boundaries: Tuple[int, ...]
    n_hosts: Tuple[int, ...]
    base_key: str

    @property
    def n_shards(self) -> int:
        return len(self.boundaries) - 1

    def as_range(self, index: int) -> Tuple[int, int]:
        return (self.boundaries[index], self.boundaries[index + 1])

    def digest(self) -> str:
        """A short stable identity of the partition (16 hex chars)."""
        payload = json.dumps(
            {"seed": self.seed, "boundaries": list(self.boundaries),
             "n_hosts": list(self.n_hosts), "base_key": self.base_key},
            sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def to_meta(self) -> dict:
        return {"seed": self.seed, "n_shards": self.n_shards,
                "boundaries": list(self.boundaries),
                "n_hosts": list(self.n_hosts),
                "digest": self.digest()}


def _per_as_rows(topology: Topology) -> np.ndarray:
    """Exact service-row counts per dense AS index (from the specs)."""
    systems = list(topology.ases)
    return np.array([sum(s.spec.hosts_for(p) for p in PROTOCOLS)
                     for s in systems], dtype=np.int64)


def plan_shards(topology: Topology,
                n_shards: Optional[int] = None,
                max_hosts: Optional[int] = None) -> Tuple[int, ...]:
    """Partition AS indices into contiguous groups of bounded size.

    Greedy first-fit in index order: a shard closes once it holds at
    least ``target`` rows (``max_hosts``, or total/``n_shards``), so
    every shard except possibly the last is non-empty and no AS is
    split.  Deterministic in the topology alone.
    """
    rows = _per_as_rows(topology)
    total = int(rows.sum())
    if n_shards is not None and max_hosts is not None:
        raise ValueError("pass n_shards or max_hosts, not both")
    if n_shards is not None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        target = max(1, -(-total // n_shards))
    else:
        target = max_hosts if max_hosts is not None else DEFAULT_SHARD_ROWS
        if target < 1:
            raise ValueError("max_hosts must be >= 1")
    boundaries = [0]
    acc = 0
    for index, count in enumerate(rows):
        acc += int(count)
        if acc >= target and index + 1 < len(rows):
            boundaries.append(index + 1)
            acc = 0
    boundaries.append(len(rows))
    # Greedy accumulation can overshoot the requested shard count by
    # one; merge the smallest tail shard back in that case.
    if n_shards is not None:
        while len(boundaries) - 1 > n_shards:
            boundaries.pop(-2)
    return tuple(boundaries)


class ShardedWorld:
    """A world partitioned into independently-generated host shards.

    Holds the (small) full topology and defaults, one host-less world
    whose per-topology models every shard shares, and one loader per
    shard; host columns materialize shard-at-a-time, normally as mmap'd
    views over content-addressed columnar segments.  Use
    :meth:`shard_world` for streaming observation and
    :meth:`materialize` for the monolithic equivalent (differential
    tests; small worlds only).
    """

    def __init__(self, topology: Topology, seed: int,
                 defaults: Optional[WorldDefaults],
                 manifest: ShardManifest,
                 loaders: Sequence[Callable[[], HostTable]]) -> None:
        if len(loaders) != manifest.n_shards:
            raise ValueError("one loader per shard, exactly")
        self.topology = topology
        self.seed = seed
        self.defaults = defaults if defaults is not None else WorldDefaults()
        self.manifest = manifest
        self._loaders = list(loaders)
        no_hosts = np.empty(0)
        self._models = World(
            topology, HostTable.from_sorted_columns(*[no_hosts] * 4),
            seed, defaults=self.defaults)

    @property
    def n_shards(self) -> int:
        return self.manifest.n_shards

    def shard_hosts(self, index: int) -> HostTable:
        """One shard's host table (fresh load; nothing retained here)."""
        return self._loaders[index]()

    def shard_world(self, index: int) -> World:
        """A full-topology world holding only shard ``index``'s hosts.

        Identical seed and models to the monolithic world; every
        stochastic draw is elementwise in (host, AS, trial, origin), so
        observing this world yields exactly the monolithic observation
        rows whose IPs fall in the shard.  Every shard world shares this
        world's models (:meth:`World.with_hosts`), so per-topology work
        such as drawing burst-outage windows happens once, not once per
        shard; host caches and plans stay per shard and go with it.
        """
        return self._models.with_hosts(self.shard_hosts(index))

    def materialize(self) -> World:
        """Concatenate every shard into one monolithic world.

        Shard address ranges are disjoint and increasing, so adopting
        the concatenated columns via ``from_sorted_columns`` both
        avoids a re-sort and *asserts* the ordering invariant.
        """
        tables = [self.shard_hosts(i) for i in range(self.n_shards)]
        hosts = HostTable.from_sorted_columns(
            ip=np.concatenate([t.ip for t in tables]),
            protocol=np.concatenate([t.protocol for t in tables]),
            as_index=np.concatenate([t.as_index for t in tables]),
            country_index=np.concatenate([t.country_index for t in tables]))
        return World(self.topology, hosts, self.seed,
                     defaults=self.defaults)

    def counts_by_protocol(self) -> Dict[str, int]:
        """Total spec'd services per protocol (no shard materialized)."""
        totals: Dict[str, int] = {}
        for system in self.topology.ases:
            for protocol in PROTOCOLS:
                count = system.spec.hosts_for(protocol)
                if count:
                    totals[protocol] = totals.get(protocol, 0) + count
        return totals

    def fingerprint_payload(self) -> Dict[str, object]:
        """World identity for manifests and campaign fingerprints.

        Matches the monolithic ``world_fingerprint`` fields and adds the
        shard-manifest digest, so sharded and monolithic runs of the
        same world are distinguishable cache keys while two runs of the
        same partition collide (and share results).
        """
        return {
            "seed": self.seed,
            "n_ases": len(self.topology.ases),
            "services": self.counts_by_protocol(),
            "shards": {"n": self.n_shards,
                       "digest": self.manifest.digest()},
        }

    def shard_footprint(self, index: int, n_origins: int,
                        n_trials: int) -> int:
        """Modelled peak resident bytes while streaming shard ``index``.

        One shard's host columns plus every (protocol, trial, origin)
        observation of it held between execution and reduction — the
        model behind :meth:`check_budget` (see docs/SCALING.md for the
        derivation).
        """
        rows = self.manifest.n_hosts[index]
        return rows * _ROW_BYTES \
            + rows * _OBS_ROW_BYTES * n_origins * n_trials

    def check_budget(self, n_origins: int, n_trials: int,
                     budget: Optional[int] = None) -> None:
        """Raise :class:`MemoryBudgetError` — before any memory is
        committed — unless every shard's modelled footprint fits
        ``budget`` (default ``REPRO_MEMORY_BUDGET``)."""
        limit = memory_budget(budget)
        for index in range(self.n_shards):
            footprint = self.shard_footprint(index, n_origins, n_trials)
            if footprint + _BASE_OVERHEAD > limit:
                raise MemoryBudgetError(
                    f"shard {index} needs ~{footprint // 2 ** 20} MiB "
                    f"(+{_BASE_OVERHEAD // 2 ** 20} MiB base) against a "
                    f"{limit // 2 ** 20} MiB budget; rebuild with more "
                    f"shards (smaller max_hosts) or raise "
                    f"{ENV_MEMORY_BUDGET}")


def build_sharded_world(specs: Sequence, seed: int,
                        defaults: Optional[WorldDefaults] = None,
                        n_shards: Optional[int] = None,
                        max_hosts: Optional[int] = None,
                        cache: Union[bool, str, None] = None
                        ) -> ShardedWorld:
    """Plan and wire a sharded world from an AS spec list.

    The topology (small: registries and prefix tries, no host columns)
    is built eagerly; host shards stay virtual until streamed.  With the
    cache enabled (the default, honoring ``REPRO_WORLD_CACHE``), each
    shard loader round-trips a content-addressed columnar segment —
    first touch populates and writes, later touches mmap.
    """
    from repro.io import worldcache

    countries = default_countries()
    topology = build_topology(list(specs), countries)
    boundaries = plan_shards(topology, n_shards=n_shards,
                             max_hosts=max_hosts)
    rows = _per_as_rows(topology)
    n_hosts = tuple(int(rows[start:stop].sum())
                    for start, stop in zip(boundaries, boundaries[1:]))
    base_key = worldcache.world_key(list(specs), seed, defaults,
                                    countries)
    manifest = ShardManifest(seed=seed, boundaries=boundaries,
                             n_hosts=n_hosts, base_key=base_key)

    directory = None
    if isinstance(cache, (str, os.PathLike)):
        directory, cache = cache, True
    use_cache = worldcache.cache_enabled() if cache is None else bool(cache)

    def make_loader(index: int) -> Callable[[], HostTable]:
        as_range = manifest.as_range(index)

        def build() -> HostTable:
            rng = CounterRNG(seed, "scenario").derive("population")
            return populate(topology, rng, as_range=as_range)

        if not use_cache:
            return build
        return lambda: worldcache.cached_build_shard(
            base_key, index, boundaries, build, directory=directory)

    loaders = [make_loader(i) for i in range(manifest.n_shards)]
    world_defaults = defaults if defaults is not None else WorldDefaults()
    return ShardedWorld(topology, seed, world_defaults, manifest, loaders)


# ----------------------------------------------------------------------
# Streaming campaign execution
# ----------------------------------------------------------------------

def run_sharded_campaign(sharded: Union[ShardedWorld, World],
                         origins: Sequence[Origin],
                         zmap: ZMapConfig,
                         protocols: Sequence[str] = PROTOCOLS,
                         n_trials: int = 3,
                         executor=None,
                         workers: Optional[int] = None,
                         budget: Optional[int] = None,
                         collect: bool = False,
                         origin_universe: Optional[Sequence[str]] = None,
                         plane_cache: Optional[bool] = None,
                         plane_extra=None,
                         plane_dir=None,
                         telemetry=None):
    """Stream the full campaign grid shard-by-shard into bit planes.

    Runs the (protocol × trial × origin) grid one shard at a time through
    an ordinary executor backend (:func:`repro.sim.executor.make_executor`)
    with the kernel in *plane-only* mode: it emits
    :class:`~repro.sim.batch.PlaneSlice` columns that stream straight
    into packed bit-plane accumulators before the next shard loads, so
    peak memory is one shard's footprint plus the accumulators —
    independent of world size.  Shards whose modelled footprint exceeds
    ``budget`` (default ``REPRO_MEMORY_BUDGET``) raise
    :class:`MemoryBudgetError` with a re-sharding hint *before* any
    memory is committed.  A plain :class:`~repro.sim.world.World` streams
    as its own single shard.

    Every (protocol, origin, shard, trial) unit is probed against the
    plane cache (:mod:`repro.serve.planecache`) before dispatch, so a
    warm re-run with one new origin recomputes only that origin's
    batches; ``plane_cache=False`` (or ``REPRO_PLANE_CACHE=0``) forces
    the non-incremental reference path.  ``origin_universe`` pins the
    origin-name list that shared outage draws see, letting origin
    *subsets* reuse units computed under the full scenario universe.
    ``telemetry`` works as in :func:`repro.sim.campaign.run_campaign`.

    Returns a :class:`~repro.core.streaming.StreamingCampaignResult`;
    with ``collect=True`` returns ``(result, dataset)`` where ``dataset``
    is the fully materialized :class:`~repro.core.dataset.CampaignDataset`
    — byte-identical to ``run_campaign`` on the monolithic world, and only
    sensible at small scale (it is exactly the memory the streaming path
    avoids) — and ``result`` is reduced from it.
    """
    from repro.sim.campaign import _stream_campaign

    run = dict(executor=executor, workers=workers, budget=budget,
               origin_universe=origin_universe, telemetry=telemetry)
    if not collect:
        return _stream_campaign(sharded, origins, zmap, protocols,
                                n_trials, collect=False,
                                plane_cache=plane_cache,
                                plane_extra=plane_extra,
                                plane_dir=plane_dir, **run)
    dataset = _stream_campaign(sharded, origins, zmap, protocols,
                               n_trials, collect=True, **run)
    n_ases = len(sharded.topology.ases)
    accumulators: Dict[Tuple[str, int], StreamingTrial] = {}
    for table in dataset:
        acc = StreamingTrial(protocol=table.protocol, trial=table.trial,
                             n_ases=n_ases)
        acc.add_shard(table)
        accumulators[(table.protocol, table.trial)] = acc
    result = StreamingCampaignResult(accumulators,
                                     metadata=dict(dataset.metadata))
    return result, dataset
