"""Bootstrap confidence intervals for coverage statistics.

The paper reports point estimates over a full-Internet sample, where
binomial noise is negligible.  Users running this pipeline on smaller
datasets (a sampled scan, a single /8, our 1/1000-scale world) need error
bars: this module provides host-resampling bootstrap CIs for per-origin
coverage and for coverage *differences* between origins — the quantity
that decides "is origin A actually better than origin B here?".

Resampling is driven by the deterministic counter RNG, so intervals are
reproducible for a given seed.  The ``packed`` engine pre-derives one
stream key per replicate and evaluates each replicate's draw vector
through preallocated buffers (:func:`repro.rng.keyed_bits_into`): no
per-replicate allocations, no redundant copies, and a working set that
stays cache-resident — the win over the reference per-replicate loop
is pure overhead elimination, since both perform the same splitmix64
arithmetic.  Once a replicate draws at least :data:`SPLIT_MIN_DRAWS`
indices, the replicates are split into contiguous parts, one per CPU
the process may run on, each computed on its own thread.  Both engines
produce bit-identical intervals, split or not: every replicate
statistic reduces the same values in the same order, and the boolean
case is an exact small-integer count in float64.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from threading import Thread
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.dataset import TrialData
from repro.core.engine import resolve_engine
from repro.rng import CounterRNG, fold_keys, keyed_bits_into

#: A replicate drawing at least this many indices splits the packed
#: replicate loop across the CPUs.  Every numpy call ends with an
#: interpreter-lock hand-off, and below ~2**15 elements a call is too
#: short for a second thread to pay for it.
SPLIT_MIN_DRAWS = 1 << 15


@dataclass(frozen=True)
class Interval:
    """A bootstrap percentile interval around a point estimate."""

    point: float
    low: float
    high: float
    confidence: float

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    def width(self) -> float:
        return self.high - self.low


def _resample_indices(rng: CounterRNG, n: int, replicate: int
                      ) -> np.ndarray:
    """Indices for one bootstrap replicate (sample n with replacement)."""
    draws = rng.bits_array(np.arange(n, dtype=np.uint64), replicate)
    return (draws % np.uint64(n)).astype(np.int64)


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _replicate_part(keys: np.ndarray, values: np.ndarray,
                    stats: np.ndarray, counters: np.ndarray,
                    draws: np.ndarray, scratch: np.ndarray,
                    gathered: np.ndarray) -> None:
    """Write replicate ``keys[r]``'s resampled count or sum to
    ``stats[r]``, drawing through the caller's buffers (``draws`` and
    ``scratch`` uint64, ``gathered`` of ``values``' dtype, each as long
    as ``counters``).  The gather checks its bounds, so ``values``
    shorter than ``counters`` raises :class:`IndexError`."""
    n_u64 = np.uint64(len(counters))
    # After the modulo every draw is < n < 2**63, so reading the buffer
    # as int64 is free and skips the uint64→intp cast a gather would
    # otherwise make per replicate.
    index_view = draws.view(np.int64)
    boolean = values.dtype == np.bool_
    for r, key in enumerate(keys):
        keyed_bits_into(key, counters, draws, scratch)
        # draws mod n, taken as draws - (draws // n) * n: exact in
        # uint64 (the product never exceeds draws), and numpy divides
        # by a scalar several times faster than it takes a remainder.
        np.floor_divide(draws, n_u64, out=scratch)
        np.multiply(scratch, n_u64, out=scratch)
        np.subtract(draws, scratch, out=draws)
        np.take(values, index_view, out=gathered)
        if boolean:
            stats[r] = np.count_nonzero(gathered)
        else:
            stats[r] = gathered.sum()


def _replicate_stats(rng: CounterRNG, values: np.ndarray, n: int,
                     replicates: int, engine: str) -> np.ndarray:
    """Per-replicate resampled means of ``values`` (length n).

    The packed engine derives one stream key per replicate — the same
    fold of the replicate counter the reference path performs — then
    draws each replicate's index vector through preallocated buffers
    (:func:`_replicate_part`).  From :data:`SPLIT_MIN_DRAWS` draws per
    replicate, the replicates split into contiguous parts, one per
    available CPU: the calling thread computes the first and one
    started thread each other part, every part into its own slice of
    the result through buffers allocated here.  Bit-identical to the
    reference, split or not: same draws, same reduction order (boolean
    values reduce to an exact integer count; float values reduce with
    the same pairwise sum ``mean()`` uses), same final division by
    ``n``.  A part's exception is raised here, after every started
    thread has been joined.
    """
    stats = np.empty(replicates)
    if engine == "reference":
        for r in range(replicates):
            idx = _resample_indices(rng, n, r)
            stats[r] = values[idx].mean()
        return stats
    keys = fold_keys(np.full(replicates, rng.key, dtype=np.uint64),
                     np.arange(replicates))
    counters = np.arange(n, dtype=np.uint64)
    parts = min(_available_cpus(), replicates) \
        if n >= SPLIT_MIN_DRAWS else 1
    bounds = [replicates * p // parts for p in range(parts + 1)]
    jobs = [(keys[lo:hi], values, stats[lo:hi], counters,
             np.empty(n, dtype=np.uint64), np.empty(n, dtype=np.uint64),
             np.empty(n, dtype=values.dtype))
            for lo, hi in zip(bounds, bounds[1:])]
    errors: List[BaseException] = []

    def run(job: tuple) -> None:
        try:
            _replicate_part(*job)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    started: List[Thread] = []
    try:
        for job in jobs[1:]:
            thread = Thread(target=run, args=(job,))
            thread.start()
            started.append(thread)
        _replicate_part(*jobs[0])
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
    stats /= n
    return stats


def _percentile_interval(point: float, stats: np.ndarray,
                         confidence: float) -> Interval:
    alpha = (1.0 - confidence) / 2.0
    low, high = np.percentile(stats, [100 * alpha, 100 * (1 - alpha)])
    return Interval(point=point, low=float(low), high=float(high),
                    confidence=confidence)


def coverage_interval(trial_data: TrialData, origin: str,
                      replicates: int = 500,
                      confidence: float = 0.95,
                      seed: int = 0,
                      single_probe: bool = False,
                      engine: Optional[str] = None) -> Interval:
    """Bootstrap CI for one origin's coverage of one trial's ground truth.

    Hosts (the ground-truth universe) are resampled with replacement;
    each replicate recomputes coverage over the resampled universe.
    """
    if replicates < 10:
        raise ValueError("need at least 10 replicates")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    engine = resolve_engine(engine)
    truth = trial_data.ground_truth(single_probe=single_probe)
    seen = trial_data.accessible(origin, single_probe=single_probe)[truth]
    n = int(truth.sum())
    if n == 0:
        return Interval(float("nan"), float("nan"), float("nan"),
                        confidence)
    point = float(seen.mean())

    rng = CounterRNG(seed, "bootstrap-coverage", origin,
                     trial_data.protocol, trial_data.trial)
    stats = _replicate_stats(rng, seen, n, replicates, engine)
    return _percentile_interval(point, stats, confidence)


def coverage_difference_interval(trial_data: TrialData, origin_a: str,
                                 origin_b: str, replicates: int = 500,
                                 confidence: float = 0.95,
                                 seed: int = 0,
                                 engine: Optional[str] = None) -> Interval:
    """Bootstrap CI for coverage(A) − coverage(B) on paired hosts.

    Pairing by host preserves the correlation between the origins'
    outcomes, giving much tighter intervals than differencing two
    independent CIs — the right tool for "did origin A really beat B?".
    An interval excluding 0 is a significant difference.
    """
    engine = resolve_engine(engine)
    truth = trial_data.ground_truth()
    a = trial_data.accessible(origin_a)[truth].astype(np.float64)
    b = trial_data.accessible(origin_b)[truth].astype(np.float64)
    n = int(truth.sum())
    if n == 0:
        return Interval(float("nan"), float("nan"), float("nan"),
                        confidence)
    delta = a - b
    point = float(delta.mean())

    rng = CounterRNG(seed, "bootstrap-diff", origin_a, origin_b,
                     trial_data.protocol, trial_data.trial)
    stats = _replicate_stats(rng, delta, n, replicates, engine)
    return _percentile_interval(point, stats, confidence)


def coverage_intervals(trial_data: TrialData,
                       origins: Optional[Sequence[str]] = None,
                       replicates: int = 500, confidence: float = 0.95,
                       seed: int = 0,
                       engine: Optional[str] = None) -> Dict[str, Interval]:
    """Per-origin coverage CIs for one trial."""
    chosen = [o for o in (origins or trial_data.origins)
              if trial_data.has_origin(o)]
    return {origin: coverage_interval(trial_data, origin,
                                      replicates=replicates,
                                      confidence=confidence, seed=seed,
                                      engine=engine)
            for origin in chosen}
