"""Statistical machinery used throughout the paper's analyses.

* McNemar's test over paired seen/not-seen outcomes per origin pair (§3),
  with Bonferroni correction for the multiple-comparison sweep.
* Spearman rank correlation (§4.4's country-size correlation, §5.2's
  drop-vs-loss correlations).

McNemar and Spearman are implemented directly (the math is a dozen lines
each); only the chi-squared, binomial and t distributions come from
scipy.  ``scipy.stats`` is imported by the functions that call it, not
by this module: it costs about a second and 60 MB, and most processes
that import :mod:`repro` (a sharded grid, the CLI's simulate) never run
a test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import CampaignDataset, TrialData


@dataclass(frozen=True)
class McNemarResult:
    """Result of one paired test between two origins."""

    origin_a: str
    origin_b: str
    #: Hosts seen by A but not B / by B but not A.
    b: int
    c: int
    statistic: float
    p_value: float

    def significant(self, alpha: float = 0.001) -> bool:
        return self.p_value < alpha


def mcnemar(b: int, c: int) -> Tuple[float, float]:
    """McNemar's chi-squared test with continuity correction.

    ``b`` and ``c`` are the discordant-pair counts.  Returns (statistic,
    p-value).  With no discordant pairs the test is degenerate and p = 1.
    """
    if b < 0 or c < 0:
        raise ValueError("discordant counts must be non-negative")
    n = b + c
    if n == 0:
        return 0.0, 1.0
    from scipy import stats

    statistic = (abs(b - c) - 1) ** 2 / n
    p_value = float(stats.chi2.sf(statistic, df=1))
    return statistic, p_value


def mcnemar_exact(b: int, c: int) -> float:
    """Exact binomial McNemar p-value (for small discordant counts)."""
    n = b + c
    if n == 0:
        return 1.0
    from scipy import stats

    k = min(b, c)
    # Two-sided exact binomial test at p = 0.5.
    cdf = float(stats.binom.cdf(k, n, 0.5))
    return min(1.0, 2.0 * cdf)


def pairwise_origin_tests(trial_data: TrialData,
                          origins: Optional[Sequence[str]] = None,
                          ) -> List[McNemarResult]:
    """McNemar over every origin pair's paired host outcomes (§3).

    For each pair, hosts in the trial's ground truth form the paired
    sample: seen/not-seen by each origin.
    """
    chosen = [o for o in (origins or trial_data.origins)
              if trial_data.has_origin(o)]
    truth = trial_data.ground_truth()
    results: List[McNemarResult] = []
    masks = {o: trial_data.accessible(o) & truth for o in chosen}
    for origin_a, origin_b in itertools.combinations(chosen, 2):
        a = masks[origin_a]
        b_mask = masks[origin_b]
        b = int((a & ~b_mask).sum())
        c = int((~a & b_mask).sum())
        statistic, p_value = mcnemar(b, c)
        results.append(McNemarResult(origin_a, origin_b, b, c,
                                     statistic, p_value))
    return results


def bonferroni(p_values: Sequence[float]) -> List[float]:
    """Bonferroni-corrected p-values (clamped at 1)."""
    m = len(p_values)
    return [min(1.0, p * m) for p in p_values]


def all_pairs_significant(dataset: CampaignDataset, protocol: str,
                          alpha: float = 0.001) -> bool:
    """§3's claim: every origin pair differs significantly in every trial,
    after Bonferroni correction across the whole sweep."""
    all_results: List[McNemarResult] = []
    for trial in dataset.trials_for(protocol):
        table = dataset.trial_data(protocol, trial)
        all_results.extend(pairwise_origin_tests(
            table, origins=dataset.origins_for(protocol)))
    corrected = bonferroni([r.p_value for r in all_results])
    return bool(all_results) and all(p < alpha for p in corrected)


def spearman(x: np.ndarray, y: np.ndarray) -> Tuple[float, float]:
    """Spearman rank correlation (ρ, p) implemented via rank + Pearson.

    Ties receive average ranks; the p-value uses the t-distribution
    approximation, adequate for the sample sizes in these analyses.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("x and y must have the same shape")
    n = len(x)
    if n < 3:
        return float("nan"), float("nan")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx * rx).sum() * (ry * ry).sum())
    if denom == 0:
        return float("nan"), float("nan")
    rho = float((rx * ry).sum() / denom)
    from scipy import stats

    # t-approximation for the null distribution.
    rho_clamped = min(max(rho, -0.9999999), 0.9999999)
    t = rho_clamped * np.sqrt((n - 2) / (1.0 - rho_clamped ** 2))
    p = float(2.0 * stats.t.sf(abs(t), df=n - 2))
    return rho, p


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks with ties averaged (1-based)."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.arange(1, len(values) + 1, dtype=np.float64)
    # Average the ranks of tied groups.
    sorted_vals = values[order]
    i = 0
    while i < len(sorted_vals):
        j = i
        while j + 1 < len(sorted_vals) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        if j > i:
            ranks[order[i:j + 1]] = ranks[order[i:j + 1]].mean()
        i = j + 1
    return ranks
