"""Short-lived, localized burst outages (§5.3).

The paper finds that 14–36 % of transient host loss coincides with burst
outages: windows of complete loss between one origin and one destination AS,
detectable as outliers in the per-hour time series of transiently missing
hosts.  We model these directly: for each (origin, destination AS, trial) a
Poisson number of outage windows is drawn, each with an exponential duration,
during which every probe on that path is lost.

Roughly 60 % of bursts affect a single origin; the remainder are drawn from
a shared "event pool" visible to a random subset of origins, reproducing the
paper's finding that ≥91 % of bursts hit three origins or fewer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.rng import CounterRNG, fold_keys, fold_uniform


@dataclass(frozen=True)
class BurstOutageSpec:
    """Burst-outage configuration for one destination AS."""

    #: Expected number of single-origin outage windows per (origin, trial).
    events_per_origin_trial: float = 0.02
    #: Expected number of shared events per trial (visible to 2-3 origins).
    shared_events_per_trial: float = 0.005
    #: Mean outage duration in seconds.
    duration_mean_s: float = 1800.0
    #: Per-origin multipliers on the single-origin event rate.  The paper
    #: finds Australia is the single-origin burst victim 30–40 % of the
    #: time; scenarios express that here.
    origin_multipliers: Mapping[str, float] = field(
        default_factory=lambda: {})

    def __post_init__(self) -> None:
        if self.duration_mean_s <= 0:
            raise ValueError("duration_mean_s must be positive")
        if self.events_per_origin_trial < 0 or self.shared_events_per_trial < 0:
            raise ValueError("event rates must be non-negative")

    def rate_for(self, origin_name: str) -> float:
        """Single-origin event rate for one origin."""
        return self.events_per_origin_trial \
            * self.origin_multipliers.get(origin_name, 1.0)


@dataclass(frozen=True)
class Outage:
    """One outage window on an (origin, AS) path."""

    as_index: int
    origin_name: str
    trial: int
    start: float
    end: float

    def covers(self, time: float) -> bool:
        return self.start <= time < self.end


class BurstOutageModel:
    """Draws and evaluates outage windows for a whole campaign.

    Windows are drawn lazily per (AS, trial) and cached; evaluation produces
    a per-host lost mask given probe times.
    """

    def __init__(self, rng: CounterRNG, origin_names: Sequence[str],
                 scan_duration_s: float) -> None:
        if scan_duration_s <= 0:
            raise ValueError("scan_duration_s must be positive")
        self._rng = rng.derive("burst-outages")
        self.origin_names = list(origin_names)
        self.scan_duration_s = scan_duration_s
        self._cache: dict = {}

    # ------------------------------------------------------------------
    # Window generation
    # ------------------------------------------------------------------

    def windows(self, as_index: int, spec: BurstOutageSpec,
                trial: int) -> List[Outage]:
        """All outage windows for one AS in one trial (all origins).

        Single-origin windows come first, in origin order, then the
        shared ones.
        """
        key = (as_index, trial)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        self._fill(trial, [as_index], [spec])
        return self._cache[key]

    def _fill(self, trial: int, as_indices: Sequence[int],
              specs: Sequence[BurstOutageSpec]) -> None:
        """Draw and cache the windows of ``as_indices`` in one trial.

        Each (AS, origin) stream's Poisson count is drawn for all ASes
        at once, and so are the start and length uniforms of every
        single-origin event; only the exponential lengths and the shared
        events (start, length, origin subset) are drawn per event.
        Every draw is a pure function of its stream, so two threads
        filling the same AS at once store equal windows.
        """
        ases = np.asarray(as_indices, dtype=np.int64)
        root = np.full(len(ases), self._rng.key, dtype=np.uint64)
        single = fold_keys(root, "single", ases, trial)
        shape = (len(ases), len(self.origin_names))
        streams = np.empty(shape, dtype=np.uint64)
        counts = np.empty(shape, dtype=np.int64)
        for oi, origin in enumerate(self.origin_names):
            streams[:, oi] = fold_keys(single, origin)
            counts[:, oi] = _poisson_counts(
                fold_uniform(streams[:, oi], "poisson"),
                np.array([spec.rate_for(origin) for spec in specs]))
        shared = _poisson_counts(
            fold_uniform(fold_keys(root, "shared", ases, trial), "poisson"),
            np.array([spec.shared_events_per_trial for spec in specs]))

        # Every single-origin event in (AS, origin, k) order, where event
        # k of a stream draws its start and length at counter k.
        duration = self.scan_duration_s
        per_stream = counts.ravel()
        keys = np.repeat(streams.ravel(), per_stream)
        ks = np.arange(len(keys)) - np.repeat(
            np.cumsum(per_stream) - per_stream, per_stream)
        events = zip((fold_uniform(keys, "start", ks) * duration).tolist(),
                     fold_uniform(keys, "len", ks).tolist())

        drawn = {(int(as_index), trial): [] for as_index in as_indices}
        for i in np.flatnonzero(counts.any(axis=1) | (shared > 0)):
            as_index = int(ases[i])
            mean = specs[i].duration_mean_s
            out = drawn[(as_index, trial)]
            for oi in np.flatnonzero(counts[i]):
                origin = self.origin_names[oi]
                for _ in range(int(counts[i, oi])):
                    start, u = next(events)
                    length = -mean * float(np.log1p(-u))
                    out.append(Outage(as_index, origin, trial, start,
                                      min(start + length, duration)))
            sub = self._rng.derive("shared", as_index, trial)
            for k in range(int(shared[i])):
                start = sub.uniform("start", k) * duration
                length = sub.exponential(mean, "len", k)
                width = 2 + (sub.bits("width", k) % 2)  # 2 or 3 origins
                for origin in sub.shuffled(self.origin_names, k)[:width]:
                    out.append(Outage(as_index, origin, trial, start,
                                      min(start + length, duration)))
        self._cache.update(drawn)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def active_windows(self, origin_name: str, trial: int,
                       specs_by_as: dict) -> dict:
        """AS index → [(start, end), ...] windows hitting this origin.

        Computed once per (origin, trial, specs) and cached; only a small
        fraction of ASes have any windows, so downstream evaluation loops
        stay short.  The cache hits only for the very ``specs_by_as``
        object it was filled from (callers pass a world's one specs dict):
        each entry keeps that object alive, so no other dict can come to
        share its ``id``.  A miss draws the trial's windows for every AS
        not drawn yet and files them under every origin at once.
        """
        key = ("active", origin_name, trial, id(specs_by_as))
        cached = self._cache.get(key)
        if cached is not None and cached[0] is specs_by_as:
            return cached[1]
        cache = self._cache
        missing = [as_index for as_index in specs_by_as
                   if (int(as_index), trial) not in cache]
        if missing:
            self._fill(trial, missing,
                       [specs_by_as[as_index] for as_index in missing])
        by_origin: Dict[str, dict] = {
            name: {} for name in (*self.origin_names, origin_name)}
        for as_index in specs_by_as:
            as_index = int(as_index)
            for window in cache[(as_index, trial)]:
                by_origin[window.origin_name].setdefault(
                    as_index, []).append((window.start, window.end))
        for name, active in by_origin.items():
            cache[("active", name, trial, id(specs_by_as))] = \
                (specs_by_as, active)
        return by_origin[origin_name]

    def lost_mask(self, origin_name: str, trial: int, as_idx: np.ndarray,
                  times: np.ndarray, specs_by_as: dict) -> np.ndarray:
        """Boolean mask of probes lost to a burst outage.

        ``specs_by_as`` maps AS index → :class:`BurstOutageSpec`; ASes absent
        from the map have no burst behaviour.
        """
        as_idx = np.asarray(as_idx, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        lost = np.zeros(as_idx.shape, dtype=bool)
        active = self.active_windows(origin_name, trial, specs_by_as)
        for as_index, windows in active.items():
            members = as_idx == as_index
            if not np.any(members):
                continue
            member_times = times[members]
            hit = np.zeros(member_times.shape, dtype=bool)
            for start, end in windows:
                hit |= (member_times >= start) & (member_times < end)
            lost[members] = hit
        return lost

    def lost_one(self, origin_name: str, trial: int, as_index: int,
                 time: float, spec: BurstOutageSpec) -> bool:
        """Scalar counterpart of :meth:`lost_mask` for one probe."""
        return any(w.covers(time)
                   for w in self.windows(as_index, spec, trial)
                   if w.origin_name == origin_name)


def _poisson_counts(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Small-λ Poisson variates by inversion, one per uniform ``u[i]``.

    Element *i* is the least k ≤ 1000 whose CDF at rate ``lam[i]``
    reaches ``u[i]`` (0 where ``lam[i]`` ≤ 0).  The CDF is summed in the
    scalar order, and e^-λ is taken once per distinct rate with the
    scalar ``np.exp``, so the counts do not depend on how many
    variates are drawn together.
    """
    counts = np.zeros(len(u), dtype=np.int64)
    live = np.flatnonzero(lam > 0)
    if len(live) == 0:
        return counts
    u = u[live]
    lam = lam[live]
    rates, which = np.unique(lam, return_inverse=True)
    p = np.array([float(np.exp(-float(rate))) for rate in rates])[which]
    cdf = p.copy()
    rows = np.flatnonzero(u > cdf)
    k = 0
    while len(rows) and k < 1000:
        k += 1
        counts[live[rows]] = k
        p[rows] *= lam[rows] / k
        cdf[rows] += p[rows]
        rows = rows[u[rows] > cdf[rows]]
    return counts
