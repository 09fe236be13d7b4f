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
from typing import List, Mapping, Sequence

import numpy as np

from repro.rng import CounterRNG


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
        """All outage windows for one AS in one trial (all origins)."""
        key = (as_index, trial)
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        out: List[Outage] = []
        # Single-origin events.
        for oi, origin in enumerate(self.origin_names):
            sub = self._rng.derive("single", as_index, trial, origin)
            count = _poisson(sub, spec.rate_for(origin))
            for k in range(count):
                start = sub.uniform("start", k) * self.scan_duration_s
                length = sub.exponential(spec.duration_mean_s, "len", k)
                out.append(Outage(as_index, origin, trial, start,
                                  min(start + length, self.scan_duration_s)))
        # Shared events visible to 2-3 origins.
        sub = self._rng.derive("shared", as_index, trial)
        count = _poisson(sub, spec.shared_events_per_trial)
        for k in range(count):
            start = sub.uniform("start", k) * self.scan_duration_s
            length = sub.exponential(spec.duration_mean_s, "len", k)
            width = 2 + (sub.bits("width", k) % 2)  # 2 or 3 origins
            chosen = sub.shuffled(self.origin_names, k)[:width]
            for origin in chosen:
                out.append(Outage(as_index, origin, trial, start,
                                  min(start + length, self.scan_duration_s)))
        self._cache[key] = out
        return out

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
        share its ``id``.
        """
        key = ("active", origin_name, trial, id(specs_by_as))
        cached = self._cache.get(key)
        if cached is not None and cached[0] is specs_by_as:
            return cached[1]
        active: dict = {}
        for as_index, spec in specs_by_as.items():
            relevant = [(w.start, w.end)
                        for w in self.windows(int(as_index), spec, trial)
                        if w.origin_name == origin_name]
            if relevant:
                active[int(as_index)] = relevant
        self._cache[key] = (specs_by_as, active)
        return active

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


def _poisson(rng: CounterRNG, lam: float) -> int:
    """A small-λ Poisson variate via inversion (λ ≤ ~30 in practice)."""
    if lam <= 0:
        return 0
    u = rng.uniform("poisson")
    p = float(np.exp(-lam))
    cdf = p
    k = 0
    while u > cdf and k < 1000:
        k += 1
        p *= lam / k
        cdf += p
    return k
