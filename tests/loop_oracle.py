"""Per-element reference loops for four array computations.

Figure 2's /24 split (:meth:`Classification.network_split`), the
burst-outage window draws (:class:`BurstOutageModel`), the §5.3 burst
detector (:func:`repro.core.bursts.burst_report`) and the paper world's
background AS specs (:func:`repro.sim.scenario.paper_specs`) run as
array code in ``src/``.  This module keeps the straightforward
formulations they replaced: one Python iteration per /24 block, per
(AS, origin) Poisson draw and window event, per window position, per AS
series and per background-AS draw.  It lives under ``tests/`` so that
no production path can reach it; the differential suite
(``tests/test_loop_equivalence.py``) compares the two byte for byte.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.blocking.firewall import ReputationFirewallSpec, StaticBlockSpec
from repro.blocking.flaky import L7FlakySpec
from repro.conditions.loss import LossDraw, PathLossSpec
from repro.conditions.outages import BurstOutageModel, BurstOutageSpec, Outage
from repro.core.bursts import (
    BIN_SECONDS,
    SIGMA_THRESHOLD,
    SMOOTH_WINDOW_BINS,
    BurstEvent,
    BurstReport,
)
from repro.core.classification import (
    Classification,
    MissCategory,
    breakdown_by_origin,
)
from repro.core.dataset import CampaignDataset, align_ips
from repro.core.engine import AnalysisContext
from repro.net.ipv4 import slash24_array
from repro.rng import CounterRNG
from repro.sim.scenario import (
    COUNTRY_SHARES,
    DEFAULT_LOSS,
    PROTOCOL_TOTALS,
    _named_specs,
)
from repro.topology.asn import ASKind, ASSpec


# ----------------------------------------------------------------------
# Figure 2: network- vs host-level misses
# ----------------------------------------------------------------------

def network_split(cls: Classification, trial_pos: int,
                  category: MissCategory) -> Dict[str, int]:
    """:meth:`Classification.network_split`, one /24 block at a time."""
    present_row = cls.present[trial_pos]
    cat_row = cls.category[trial_pos]
    target = cat_row == int(category)
    if not np.any(target):
        return {"host": 0, "network": 0}

    blocks = slash24_array(cls.ips)
    present_idx = np.flatnonzero(present_row)
    if len(present_idx) == 0:
        return {"host": 0, "network": 0}
    block_of_present = blocks[present_idx]
    order = np.argsort(block_of_present, kind="stable")
    sorted_blocks = block_of_present[order]
    sorted_idx = present_idx[order]
    boundaries = np.flatnonzero(
        np.diff(sorted_blocks.astype(np.int64)) != 0) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(sorted_blocks)]])

    network_hosts = 0
    host_hosts = 0
    for start, end in zip(starts, ends):
        members = sorted_idx[start:end]
        member_cats = cat_row[members]
        in_target = member_cats == int(category)
        n_target = int(in_target.sum())
        if n_target == 0:
            continue
        if len(members) >= 2 and np.all(member_cats == member_cats[0]):
            network_hosts += n_target
        else:
            host_hosts += n_target
    return {"host": host_hosts, "network": network_hosts}


# ----------------------------------------------------------------------
# Burst-outage windows
# ----------------------------------------------------------------------

def poisson(rng: CounterRNG, lam: float) -> int:
    """A small-λ Poisson variate via inversion, one scalar draw."""
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


def windows(model: BurstOutageModel, as_index: int,
            spec: BurstOutageSpec, trial: int) -> List[Outage]:
    """:meth:`BurstOutageModel.windows`, drawn per (AS, origin) stream.

    Reads only the model's stream, origins and duration; never its cache.
    """
    rng = model._rng
    duration = model.scan_duration_s
    out: List[Outage] = []
    for origin in model.origin_names:
        sub = rng.derive("single", as_index, trial, origin)
        count = poisson(sub, spec.rate_for(origin))
        for k in range(count):
            start = sub.uniform("start", k) * duration
            length = sub.exponential(spec.duration_mean_s, "len", k)
            out.append(Outage(as_index, origin, trial, start,
                              min(start + length, duration)))
    sub = rng.derive("shared", as_index, trial)
    count = poisson(sub, spec.shared_events_per_trial)
    for k in range(count):
        start = sub.uniform("start", k) * duration
        length = sub.exponential(spec.duration_mean_s, "len", k)
        width = 2 + (sub.bits("width", k) % 2)
        chosen = sub.shuffled(model.origin_names, k)[:width]
        for origin in chosen:
            out.append(Outage(as_index, origin, trial, start,
                              min(start + length, duration)))
    return out


def active_windows(model: BurstOutageModel, origin_name: str, trial: int,
                   specs_by_as: dict) -> dict:
    """:meth:`BurstOutageModel.active_windows`, filtered one AS at a time."""
    active: dict = {}
    for as_index, spec in specs_by_as.items():
        relevant = [(w.start, w.end)
                    for w in windows(model, int(as_index), spec, trial)
                    if w.origin_name == origin_name]
        if relevant:
            active[int(as_index)] = relevant
    return active


# ----------------------------------------------------------------------
# §5.3 burst detector
# ----------------------------------------------------------------------

def rolling_mean(series: np.ndarray, window: int) -> np.ndarray:
    """:func:`repro.core.bursts.rolling_mean` of a 1-D series, per bin."""
    if window < 1:
        raise ValueError("window must be >= 1")
    series = np.asarray(series, dtype=np.float64)
    n = len(series)
    out = np.empty(n)
    half = window // 2
    for i in range(n):
        lo = max(0, i - half)
        hi = min(n, i + window - half)
        out[i] = series[lo:hi].mean()
    return out


def detect_burst_bins(series: np.ndarray,
                      window: int = SMOOTH_WINDOW_BINS,
                      sigma: float = SIGMA_THRESHOLD) -> np.ndarray:
    """:func:`repro.core.bursts.detect_burst_bins` over the loop mean."""
    series = np.asarray(series, dtype=np.float64)
    if len(series) < 2 or series.sum() == 0:
        return np.array([], dtype=np.int64)
    noise = series - rolling_mean(series, window)
    spread = noise.std()
    if spread == 0:
        return np.array([], dtype=np.int64)
    return np.flatnonzero(noise > sigma * spread)


def burst_report(dataset: CampaignDataset, protocol: str,
                 origins: Optional[Sequence[str]] = None,
                 min_misses: int = 5,
                 context: Optional[AnalysisContext] = None) -> BurstReport:
    """:func:`repro.core.bursts.burst_report`, one AS series at a time."""
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
            as_of = cls.as_index[picked]
            transient_as.update(int(a) for a in np.unique(as_of) if a >= 0)
            row = table.origin_row(origin)
            times = table.time[row][pos[picked]]
            bins = (times / BIN_SECONDS).astype(np.int64)
            n_bins = n_bins_hint or int(bins.max()) + 1
            for as_index in np.unique(as_of):
                if as_index < 0:
                    continue
                members = as_of == as_index
                if int(members.sum()) < min_misses:
                    continue
                member_bins = bins[members]
                series = np.bincount(
                    np.clip(member_bins, 0, n_bins - 1),
                    minlength=n_bins)
                hot = detect_burst_bins(series)
                if len(hot) == 0:
                    continue
                burst_as.add(int(as_index))
                hot_set = set(int(h) for h in hot)
                coincident = sum(int(series[h]) for h in hot_set)
                burst_coincident[oi, ti] += coincident
                for h in hot_set:
                    events.append(BurstEvent(
                        origin=origin, as_index=int(as_index),
                        trial_pos=ti, bin_index=h,
                        lost_hosts=int(series[h])))

    return BurstReport(
        protocol=protocol, origins=chosen, events=events,
        transient_total=transient_total,
        burst_coincident=burst_coincident,
        ases_with_transient=len(transient_as),
        ases_with_burst=len(burst_as))


# ----------------------------------------------------------------------
# The paper world's background AS specs
# ----------------------------------------------------------------------

def paper_specs(seed: int = 0, scale: float = 1.0) -> List[ASSpec]:
    """:func:`repro.sim.scenario.paper_specs`, one scalar draw at a time."""
    rng = CounterRNG(seed, "scenario")
    named = _named_specs(scale)
    return named + background_specs(scale, named, rng)


def background_specs(scale: float, named: Sequence[ASSpec],
                     rng: CounterRNG) -> List[ASSpec]:
    """``repro.sim.scenario._background_specs``, drawing per AS."""
    taken: Dict[str, Dict[str, float]] = {}
    for spec in named:
        by_proto = taken.setdefault(spec.country, {})
        for proto, count in spec.hosts.items():
            by_proto[proto] = by_proto.get(proto, 0) + count

    share_total = sum(COUNTRY_SHARES.values())
    protocol_ratio = {
        proto: total / PROTOCOL_TOTALS["http"]
        for proto, total in PROTOCOL_TOTALS.items()
    }

    specs: List[ASSpec] = []
    origin_pool = ("AU", "BR", "DE", "JP", "US1", "US64", "CEN")
    for country, share in COUNTRY_SHARES.items():
        country_http = PROTOCOL_TOTALS["http"] * scale * share / share_total
        remaining = {}
        for proto, ratio in protocol_ratio.items():
            want = country_http * ratio
            have = taken.get(country, {}).get(proto, 0)
            remaining[proto] = max(0.0, want - have)
        if sum(remaining.values()) < 4:
            continue

        n_as = max(1, min(40, round(remaining["http"] / 55) + 1))
        weights = [1.0 / (i + 1) for i in range(n_as)]
        weight_total = sum(weights)
        sub = rng.derive("bg", country)
        for i in range(n_as):
            frac = weights[i] / weight_total
            hosts = {proto: max(0, round(remaining[proto] * frac))
                     for proto in remaining}
            hosts = {p: c for p, c in hosts.items() if c > 0}
            if not hosts:
                continue
            kind = sub.weighted_choice(
                (ASKind.ISP, ASKind.HOSTING, ASKind.ENTERPRISE,
                 ASKind.ACADEMIC, ASKind.GOVERNMENT),
                (0.4, 0.35, 0.15, 0.05, 0.05), "kind", i)
            spec_kwargs = {"path_loss": jittered_loss(sub, i)}
            roll = sub.uniform("behaviour", i)
            if roll < 0.025:
                spec_kwargs["reputation_firewall"] = ReputationFirewallSpec(
                    min_reputation=100.0,
                    coverage=0.4 + 0.6 * sub.uniform("cov", i))
            elif roll < 0.029:
                spec_kwargs["reputation_firewall"] = ReputationFirewallSpec(
                    min_reputation=1.0,
                    coverage=0.5 + 0.5 * sub.uniform("cov", i))
            elif roll < 0.040:
                first = sub.choice(origin_pool, "grudge1", i)
                blocked = {first}
                if sub.bernoulli(0.4, "grudge-two", i):
                    blocked.add(sub.choice(origin_pool, "grudge2", i))
                spec_kwargs["static_block"] = StaticBlockSpec(
                    origins=frozenset(blocked))
            elif roll < 0.050 and kind is ASKind.HOSTING:
                spec_kwargs["l7_flaky"] = L7FlakySpec(
                    flaky_fraction=0.06, fail_prob=0.3, drop_share=0.7,
                    dead_fraction=0.004)
            specs.append(ASSpec(
                f"{country} Network {i + 1:02d}", country, kind,
                hosts=hosts, **spec_kwargs))
    return specs


def jittered_loss(rng: CounterRNG, index: int) -> PathLossSpec:
    """``repro.sim.scenario._jittered_loss`` with its own scalar draws."""
    u = rng.uniform("loss-mult", index)
    epoch_mult = 0.28 * math.exp(2.7 * u)
    noise = 0.75 + 0.5 * rng.uniform("rand-noise", index)
    random_mult = (epoch_mult ** 0.9) * noise
    au_penalty = 6.0 if rng.bernoulli(0.12, "au-bad", index) else 1.0

    def scaled(draw: LossDraw, origin_key: str) -> LossDraw:
        au = au_penalty if origin_key == "AU" else 1.0
        return LossDraw(
            epoch_rate=min(0.5, draw.epoch_rate * epoch_mult * au),
            random_rate=min(0.2, draw.random_rate * random_mult
                            * (au if au > 1 else 1.0)),
            persistent_fraction=min(
                0.1, draw.persistent_fraction * epoch_mult ** 0.5),
            variability=draw.variability)

    per_origin = {key: scaled(draw, key)
                  for key, draw in DEFAULT_LOSS.per_origin.items()}
    return PathLossSpec(default=scaled(DEFAULT_LOSS.default, ""),
                        per_origin=per_origin)
