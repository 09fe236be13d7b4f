"""Temporal analyses: diurnal patterns and scanner asynchrony.

§5.3 checks whether any origin's coverage varies with local time of day
(it doesn't, consistently); §2 reports the maximum asynchrony between
origins' L7 responses (2 h for HTTP at trial end, caused by the AU/BR
scanners falling behind).  Both are direct computations over the
timestamps the dataset carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.dataset import CampaignDataset, TrialData

#: Offset (hours) of each origin's local midnight from scan-start, used
#: to fold scan time into local time of day.  Scan start is taken as
#: 00:00 UTC; the offsets approximate the paper's origin time zones.
DEFAULT_UTC_OFFSETS = {
    "AU": 10.0, "BR": -3.0, "DE": 1.0, "JP": 9.0,
    "US1": -8.0, "US64": -8.0, "CEN": -8.0, "CARINET": -8.0,
    "HE": -6.0, "NTT": -6.0, "TELIA": -6.0,
}


@dataclass
class DiurnalProfile:
    """Per-origin miss rate by local hour of day."""

    protocol: str
    origins: List[str]
    #: miss_rate[o, h] — fraction of GT hosts probed in local hour h that
    #: the origin missed, pooled across trials.
    miss_rate: np.ndarray
    #: samples[o, h] — number of observations behind each cell.
    samples: np.ndarray

    def peak_to_trough(self, origin: str) -> float:
        """Max−min hourly miss rate for one origin (0 = perfectly flat)."""
        row = self.miss_rate[self.origins.index(origin)]
        valid = row[~np.isnan(row)]
        if len(valid) == 0:
            return float("nan")
        return float(valid.max() - valid.min())


def diurnal_profile(dataset: CampaignDataset, protocol: str,
                    origins: Optional[Sequence[str]] = None,
                    utc_offsets: Optional[Dict[str, float]] = None
                    ) -> DiurnalProfile:
    """Fold each origin's misses into local hour of day (§5.3)."""
    offsets = dict(DEFAULT_UTC_OFFSETS)
    if utc_offsets:
        offsets.update(utc_offsets)
    chosen = list(origins) if origins is not None \
        else dataset.origins_for(protocol)

    misses = np.zeros((len(chosen), 24))
    samples = np.zeros((len(chosen), 24))
    for trial in dataset.trials_for(protocol):
        table = dataset.trial_data(protocol, trial)
        truth = table.ground_truth()
        for oi, origin in enumerate(chosen):
            if not table.has_origin(origin):
                continue
            row = table.origin_row(origin)
            times_h = table.time[row][truth] / 3600.0
            # Floor to whole hours, then wrap on integers: a float ``% 24``
            # rounds a tiny negative local time up to 24.0 — a 25th bin.
            local_hour = np.floor(times_h + offsets.get(origin, 0.0)
                                  ).astype(np.int64) % 24
            missed = ~table.accessible(origin)[truth]
            samples[oi] += np.bincount(local_hour, minlength=24)
            misses[oi] += np.bincount(local_hour[missed], minlength=24)

    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.where(samples > 0, misses / np.maximum(samples, 1),
                        np.nan)
    return DiurnalProfile(protocol=protocol, origins=chosen,
                          miss_rate=rate, samples=samples)


@dataclass
class AsynchronyReport:
    """How far origins drift apart on the shared scan schedule (§2)."""

    protocol: str
    trial: int
    origins: List[str]
    #: max_lag_s[o] — the origin's largest schedule lag behind the
    #: earliest origin, over all shared hosts.
    max_lag_s: Dict[str, float]

    def overall_max(self) -> float:
        return max(self.max_lag_s.values()) if self.max_lag_s else 0.0

    def laggards(self, threshold_s: float = 600.0) -> List[str]:
        return [o for o, lag in self.max_lag_s.items()
                if lag >= threshold_s]


def asynchrony_report(trial_data: TrialData,
                      origins: Optional[Sequence[str]] = None
                      ) -> AsynchronyReport:
    """Per-origin maximum lag behind the fastest origin's schedule."""
    chosen = [o for o in (origins or trial_data.origins)
              if trial_data.has_origin(o)]
    if not chosen:
        raise ValueError("no origins to compare")
    times = np.stack([trial_data.time[trial_data.origin_row(o)]
                      for o in chosen])
    earliest = times.min(axis=0)
    lags = {origin: float((times[i] - earliest).max())
            for i, origin in enumerate(chosen)}
    return AsynchronyReport(protocol=trial_data.protocol,
                            trial=trial_data.trial, origins=chosen,
                            max_lag_s=lags)
