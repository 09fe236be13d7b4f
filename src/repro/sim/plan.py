"""Compiled observation state for the observation kernel.

The kernel (:func:`repro.sim.batch.observe_trial_batch`) reads three
kinds of precomputed state:

* :class:`HostCaches`, once per protocol: a **CSR-style AS-grouping
  index** over the protocol view, so "which kept services belong to AS
  *i*" is a slice lookup instead of an ``as_idx == i`` scan, plus every
  persistent (origin/trial-independent) per-host draw the blocking
  models make (churn stability, L7 deadness/flakiness, MaxStartups
  membership) and the GeoIP translation;
* :class:`ObservationPlan`, once per (protocol, scanner configuration):
  the scanner's eligibility mask and probe-schedule base times;
* **per-origin policy compilation**, cached on the plan: for each
  origin, the dense list of (AS, coverage, rng stream key) entries of
  the firewalls/policies/IDSes that block it, so coverage draws run over
  concatenated member indices in a handful of vectorized operations.

Every cached draw is a pure function of ``(seed, stream key,
counters)``, so slicing a full-view cache by a trial's ``keep`` subset
reproduces exactly the draws a direct evaluation makes on the subset
(differential suite: ``tests/test_plan_equivalence.py``, against the
reference path in ``tests/observe_oracle.py``).

Plans are picklable, but :class:`~repro.sim.world.World` deliberately
drops its plan cache when pickled (process-executor payloads stay small;
workers rebuild plans lazily and, because every draw is counter-addressed,
rebuild them identically).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

#: Kernel stage names in reporting order (used by profile rendering);
#: ``emit`` is the final row/plane materialization.
STAGES = ("filter", "schedule", "l4_static", "l4_ids", "path", "l7",
          "emit")


class ObserveProfile:
    """Per-stage wall-time accumulator for the observation kernel.

    Callers may pass one to :meth:`~repro.sim.world.World.observe` or
    :func:`~repro.sim.batch.observe_trial_batch` to meter their calls;
    each observed trial counts as one observation.  The executor
    aggregates per-job profiles into
    ``metadata["execution"]["stages"]`` so benchmark regressions can be
    attributed to a stage.
    """

    __slots__ = ("stage_s", "stage_calls", "n_observations", "n_services")

    def __init__(self) -> None:
        self.stage_s: Dict[str, float] = {}
        self.stage_calls: Dict[str, int] = {}
        self.n_observations = 0
        self.n_services = 0

    def add(self, stage: str, seconds: float) -> None:
        self.stage_s[stage] = self.stage_s.get(stage, 0.0) + seconds
        self.stage_calls[stage] = self.stage_calls.get(stage, 0) + 1

    def count_observation(self, n_services: int) -> None:
        self.n_observations += 1
        self.n_services += int(n_services)

    def merge(self, other: "ObserveProfile") -> None:
        for stage, seconds in other.stage_s.items():
            self.add(stage, seconds)
            self.stage_calls[stage] += other.stage_calls[stage] - 1
        self.n_observations += other.n_observations
        self.n_services += other.n_services

    @property
    def total_s(self) -> float:
        return float(sum(self.stage_s.values()))

    def to_metadata(self) -> Dict[str, float]:
        """Stage → seconds, JSON-able, in canonical stage order."""
        ordered = [s for s in STAGES if s in self.stage_s]
        ordered += [s for s in self.stage_s if s not in STAGES]
        return {s: round(self.stage_s[s], 6) for s in ordered}

    def render(self) -> str:
        """A small human-readable table (used by ``repro profile``)."""
        lines = [f"{'stage':<12} {'calls':>7} {'total s':>10} {'share':>7}"]
        total = self.total_s or 1.0
        for stage in self.to_metadata():
            seconds = self.stage_s[stage]
            lines.append(f"{stage:<12} {self.stage_calls[stage]:>7} "
                         f"{seconds:>10.4f} {seconds / total:>6.1%}")
        lines.append(f"{'total':<12} {self.n_observations:>7} "
                     f"{self.total_s:>10.4f} "
                     f"({self.n_services} services)")
        return "\n".join(lines)


class _StageTimer:
    """Stamps stage boundaries into one or more profiles.

    When an enabled telemetry context is passed, every stamp also emits
    an ``observe.batched.<stage>`` child span (wall + CPU time) into it
    — the stage spans of the run journal and the :class:`ObserveProfile`
    numbers come from the same boundary, so they can never disagree.
    """

    __slots__ = ("profiles", "_last", "_tel", "_cpu_last")

    def __init__(self, *profiles: Optional[ObserveProfile],
                 tel=None) -> None:
        self.profiles = [p for p in profiles if p is not None]
        self._tel = tel if tel is not None and tel.enabled else None
        self._last = time.perf_counter()
        self._cpu_last = time.process_time() if self._tel else 0.0

    def stamp(self, stage: str) -> None:
        now = time.perf_counter()
        elapsed = now - self._last
        for profile in self.profiles:
            profile.add(stage, elapsed)
        self._last = now
        if self._tel is not None:
            cpu_now = time.process_time()
            self._tel.span_event(f"observe.batched.{stage}", elapsed,
                                 cpu_now - self._cpu_last)
            self._cpu_last = cpu_now

    def finish(self, n_services: int) -> None:
        for profile in self.profiles:
            profile.count_observation(n_services)


class ASGrouping:
    """CSR-style index: AS index → member row positions.

    Rows are grouped by AS once (a single stable argsort); membership for
    any AS is then an O(group size) slice instead of an O(n_rows) equality
    scan.  Only ASes that actually own rows occupy a group.
    """

    __slots__ = ("n_rows", "order", "starts", "group_of")

    def __init__(self, as_indices: np.ndarray, n_ases: int) -> None:
        as_indices = np.asarray(as_indices, dtype=np.int64)
        self.n_rows = len(as_indices)
        self.order = np.argsort(as_indices, kind="stable")
        present, first = np.unique(as_indices[self.order],
                                   return_index=True)
        self.starts = np.concatenate(
            [first, [self.n_rows]]).astype(np.int64)
        self.group_of = np.full(n_ases, -1, dtype=np.int64)
        self.group_of[present] = np.arange(len(present), dtype=np.int64)

    def members(self, as_index: int) -> np.ndarray:
        """Row positions belonging to ``as_index`` (ascending)."""
        group = int(self.group_of[as_index]) \
            if 0 <= as_index < len(self.group_of) else -1
        if group < 0:
            return _EMPTY_INT64
        rows = self.order[self.starts[group]:self.starts[group + 1]]
        # The stable argsort preserves row order within a group, so the
        # slice is already ascending — same order a boolean scan yields.
        return rows

    def members_in(self, as_index: int,
                   position_of_row: np.ndarray) -> np.ndarray:
        """Member positions within a subset.

        ``position_of_row`` maps full row index → position in the subset
        (-1 when the row was filtered out).  Equivalent to
        ``np.flatnonzero(subset_as_idx == as_index)``.
        """
        positions = position_of_row[self.members(as_index)]
        return positions[positions >= 0]


_EMPTY_INT64 = np.array([], dtype=np.int64)


@dataclass(frozen=True)
class PolicyEntry:
    """One compiled static-L4 blocking rule of one AS against one origin."""

    as_index: int
    #: Pre-derived rng stream key for the coverage draw
    #: (``rng.derive("firewall-coverage", label, as_index)``).
    stream_key: int
    coverage: float
    #: Reputation-firewall ramp: trial from which coverage becomes 1.0
    #: (-1 when the rule does not ramp).
    full_coverage_from_trial: int
    #: True → TCP completes but the handshake is dropped (block pages);
    #: False → silent L4 drop.
    to_l7_drop: bool
    #: Blocking cause for telemetry attribution
    #: (``reputation`` / ``static`` / ``regional``).
    cause: str = "static"

    def coverage_in_trial(self, trial: int) -> float:
        if self.full_coverage_from_trial > 0 \
                and trial >= self.full_coverage_from_trial:
            return 1.0
        return self.coverage


@dataclass(frozen=True)
class IDSEntry:
    """One compiled rate-IDS rule of one AS against one origin."""

    as_index: int
    stream_key: int
    coverage: float
    persistent: bool
    #: Seconds into the origin's first trial when detection fires; the
    #: draw is trial-independent, so it compiles per (origin, AS).
    detection_time: float


@dataclass(frozen=True)
class CompiledOriginPolicy:
    """Everything static-L4 about one origin, compiled once."""

    static_entries: Tuple[PolicyEntry, ...]
    ids_entries: Tuple[IDSEntry, ...]


@dataclass
class HostCaches:
    """Per-protocol observation state independent of the scanner config.

    Everything here is a pure function of the world (seed, topology,
    blocking specs) and the protocol — none of it depends on the scanner
    seed, shard, or schedule.  A campaign reseeds the scanner per trial
    (``seed + trial``), which keys a fresh :class:`ObservationPlan` per
    trial; hoisting these arrays into one shared cache keeps the
    per-trial plan build cheap (eligibility + schedule only) and lets
    the kernel gather host state once for a whole trial axis.  The lazy
    ``persist_u`` per-origin dict is scanner-independent by
    construction, so it lives here too.
    """

    protocol: str
    n_view: int
    n_ases: int
    #: :attr:`repro.topology.geo.GeoIPDatabase.version` at build time; a
    #: mismatch on fetch rebuilds the caches (stale ``geo_full``).
    geo_version: Tuple[int, int]
    grouping: ASGrouping
    geo_full: np.ndarray
    host_ids_full: np.ndarray       # uint64
    stable_full: np.ndarray         # bool (churn stability class)
    dead_full: np.ndarray           # bool (persistently L7-dead)
    flaky_full: np.ndarray          # bool (transiently flaky membership)
    drop_full: np.ndarray           # bool (failure style: drop vs close)
    ms_affected_full: Optional[np.ndarray]   # bool, SSH only
    ms_probs_full: Optional[np.ndarray]      # float64, SSH only
    ms_style_full: Optional[np.ndarray]      # bool, SSH only (RST vs FIN)
    # Spec-declaring AS lists (the only ASes the policy loops visit).
    static_systems: Tuple[int, ...]
    ids_systems: Tuple[int, ...]
    temporal_systems: Tuple[int, ...]
    #: Per-origin persistent-loss draws, keyed by origin name (draws are
    #: keyed by origin state group and host id only).
    persist_u: Dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class ObservationPlan:
    """The scanner-dependent state of one (protocol, scanner config).

    Built by :meth:`repro.sim.world.World.plan`; reused across every
    origin that observes with the config.  All fields are plain data
    (picklable).
    """

    protocol: str
    eligible_full: np.ndarray       # bool
    base_first_full: np.ndarray     # float64, drift-free first-probe times
    #: Lazy per-origin compiled policies (identical on rebuild: draws
    #: are pure).
    origin_policies: Dict[str, CompiledOriginPolicy] = \
        field(default_factory=dict)

    def position_of_row(self, keep: np.ndarray) -> np.ndarray:
        """Full-view row index → position in the kept subset (-1 if cut)."""
        positions = np.full(len(self.eligible_full), -1, dtype=np.int64)
        positions[keep] = np.arange(len(keep), dtype=np.int64)
        return positions


def sorted_membership_mask(sorted_ips: np.ndarray,
                           targets: np.ndarray) -> np.ndarray:
    """``np.isin(sorted_ips, targets)`` via binary search.

    The protocol view's ``ip`` column is sorted (the host table lexsorts
    by address), so membership is two ``searchsorted`` passes instead of
    an O(n·m) or sort-per-call scan.
    """
    targets = np.unique(np.asarray(targets, dtype=np.uint32))
    if len(targets) == 0:
        return np.zeros(sorted_ips.shape, dtype=bool)
    pos = np.searchsorted(targets, sorted_ips)
    pos_clipped = np.minimum(pos, len(targets) - 1)
    return (pos < len(targets)) & (targets[pos_clipped] == sorted_ips)
