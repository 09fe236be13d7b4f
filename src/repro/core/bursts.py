"""Burst-outage detection in scan results (§5.3).

The paper detects short-lived outages as outliers in the hourly time
series of transiently missed hosts per (origin, destination AS): the
series is smoothed with a rolling window (4 h minimizes mean squared
error), the smoothed series subtracted, and hours whose residual exceeds
two standard deviations are bursts.  We implement the same detector over
simulated (or loaded) scan data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.classification import (
    MissCategory,
    breakdown_by_origin,
)
from repro.core.engine import AnalysisContext
from repro.core.dataset import CampaignDataset, align_ips

#: Detector parameters from §5.3.
BIN_SECONDS = 3600.0
SMOOTH_WINDOW_BINS = 4
SIGMA_THRESHOLD = 2.0


def rolling_mean(series: np.ndarray, window: int) -> np.ndarray:
    """Centered rolling mean with edge shrinkage (window ≥ 1).

    Runs along the last axis, so a 2-D ``series`` smooths every row.
    Each window is summed left to right from +0.0, which is how numpy
    sums fewer than 8 values: for windows below 8 the result is
    bit-identical to ``series[lo:hi].mean()`` per position.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    series = np.asarray(series, dtype=np.float64)
    n = series.shape[-1]
    half = window // 2
    total = np.zeros(series.shape)
    count = np.zeros(n)
    for shift in range(-half, window - half):
        lo, hi = max(0, -shift), min(n, n - shift)
        if lo < hi:
            total[..., lo:hi] += series[..., lo + shift:hi + shift]
            count[lo:hi] += 1
    return total / count


def detect_burst_bins(series: np.ndarray,
                      window: int = SMOOTH_WINDOW_BINS,
                      sigma: float = SIGMA_THRESHOLD) -> np.ndarray:
    """Indices of bins whose noise residual exceeds ``sigma`` deviations."""
    series = np.asarray(series, dtype=np.float64)
    if len(series) < 2 or series.sum() == 0:
        return np.array([], dtype=np.int64)
    return _hot_bins(series[np.newaxis], window, sigma)[0]


def _hot_bins(matrix: np.ndarray, window: int,
              sigma: float) -> List[np.ndarray]:
    """:func:`detect_burst_bins` of every row of a float ``matrix``.

    Rows must have at least two bins and a non-zero sum.  Each row's
    spread comes from one row-wise ``std``, which reduces every row in
    the same order as the row's own ``std()``.
    """
    noise = matrix - rolling_mean(matrix, window)
    return [np.array([], dtype=np.int64) if spread == 0
            else np.flatnonzero(row > sigma * spread)
            for row, spread in zip(noise, noise.std(axis=1))]


@dataclass
class BurstEvent:
    """One detected burst: an (origin, AS, trial, hour bin) outlier."""

    origin: str
    as_index: int
    trial_pos: int
    bin_index: int
    lost_hosts: int


@dataclass
class BurstReport:
    """Aggregate §5.3 statistics for one protocol."""

    protocol: str
    origins: List[str]
    events: List[BurstEvent]
    #: transient_total[o, t] and burst_coincident[o, t] host counts.
    transient_total: np.ndarray
    burst_coincident: np.ndarray
    #: ASes with ≥1 transient missing host / with ≥1 detected burst.
    ases_with_transient: int
    ases_with_burst: int

    def coincident_fraction(self) -> np.ndarray:
        """(o, t) fraction of transient loss inside detected burst hours."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.transient_total > 0,
                            self.burst_coincident
                            / np.maximum(self.transient_total, 1), 0.0)

    def simultaneity_histogram(self) -> Dict[int, int]:
        """#bursts by how many origins burst in the same (AS, trial, hour)."""
        groups: Dict[Tuple[int, int, int], set] = {}
        for event in self.events:
            key = (event.as_index, event.trial_pos, event.bin_index)
            groups.setdefault(key, set()).add(event.origin)
        histogram: Dict[int, int] = {}
        for members in groups.values():
            histogram[len(members)] = histogram.get(len(members), 0) + 1
        return histogram

    def single_origin_burst_shares(self) -> Dict[str, float]:
        """Among single-origin bursts, each origin's share (paper: AU wins)."""
        groups: Dict[Tuple[int, int, int], List[str]] = {}
        for event in self.events:
            key = (event.as_index, event.trial_pos, event.bin_index)
            groups.setdefault(key, []).append(event.origin)
        solo = [members[0] for members in groups.values()
                if len(set(members)) == 1]
        total = len(solo)
        return {origin: solo.count(origin) / total if total else 0.0
                for origin in self.origins}


def burst_report(dataset: CampaignDataset, protocol: str,
                 origins: Optional[Sequence[str]] = None,
                 min_misses: int = 5,
                 context: Optional[AnalysisContext] = None) -> BurstReport:
    """Run the §5.3 detector over every (origin, AS, trial).

    ``min_misses`` skips (origin, AS, trial) series with too few transient
    misses to support an hourly outlier search.
    """
    classifications = breakdown_by_origin(dataset, protocol,
                                          origins=origins, context=context)
    chosen = list(classifications.keys())
    first = classifications[chosen[0]]
    trials = dataset.trials_for(protocol)
    n_trials = len(first.trials)
    duration = float(dataset.metadata.get("scan_duration_s", 0.0))

    events: List[BurstEvent] = []
    transient_total = np.zeros((len(chosen), n_trials))
    burst_coincident = np.zeros((len(chosen), n_trials))
    transient_as: set = set()
    burst_as: set = set()

    for ti in range(n_trials):
        table = dataset.trial_data(protocol, trials[ti])
        pos = align_ips(first.ips, table.ip)
        n_bins_hint = int(duration // BIN_SECONDS) + 1 if duration else None
        for oi, origin in enumerate(chosen):
            cls = classifications[origin]
            mask = cls.mask(ti, MissCategory.TRANSIENT)
            transient_total[oi, ti] = int(mask.sum())
            picked = np.flatnonzero(mask & (pos >= 0))
            if len(picked) == 0:
                continue
            ases, as_rank, misses = np.unique(
                cls.as_index[picked], return_inverse=True,
                return_counts=True)
            transient_as.update(ases[ases >= 0].tolist())
            row = table.origin_row(origin)
            times = table.time[row][pos[picked]]
            bins = (times / BIN_SECONDS).astype(np.int64)
            n_bins = n_bins_hint or int(bins.max()) + 1
            # One hourly series per AS with enough misses: a matrix of
            # AS rank x hour bin, in ascending AS order.
            kept = np.flatnonzero((ases >= 0) & (misses >= min_misses))
            if len(kept) == 0 or n_bins < 2:
                continue
            row_of = np.full(len(ases), -1, dtype=np.int64)
            row_of[kept] = np.arange(len(kept))
            member_row = row_of[as_rank]
            counted = member_row >= 0
            cells = member_row[counted] * n_bins \
                + np.clip(bins[counted], 0, n_bins - 1)
            series = np.bincount(cells, minlength=len(kept) * n_bins) \
                .reshape(len(kept), n_bins)
            hot_rows = _hot_bins(series.astype(np.float64),
                                 SMOOTH_WINDOW_BINS, SIGMA_THRESHOLD)
            for as_index, counts, hot in zip(ases[kept].tolist(), series,
                                             hot_rows):
                if len(hot) == 0:
                    continue
                burst_as.add(as_index)
                hot_set = set(hot.tolist())
                burst_coincident[oi, ti] += sum(int(counts[h])
                                                for h in hot_set)
                for h in hot_set:
                    events.append(BurstEvent(
                        origin=origin, as_index=as_index,
                        trial_pos=ti, bin_index=h,
                        lost_hosts=int(counts[h])))

    return BurstReport(
        protocol=protocol, origins=chosen, events=events,
        transient_total=transient_total,
        burst_coincident=burst_coincident,
        ases_with_transient=len(transient_as),
        ases_with_burst=len(burst_as))
