"""The observation kernel: fused trial-batched evaluation.

The campaign grid is (protocol × trial × origin).  Because every
stochastic draw in the simulator is a pure function of ``(seed, stream
key, counters)``, a whole *trial axis* can be drawn as a 2-D lattice with
bit-identical results: per-trial stream keys are pre-derived
(:func:`repro.rng.stream_keys`) and broadcast against the shared
per-host counter addresses (:func:`repro.rng.keyed_uniform_lattice`).
:func:`observe_trial_batch` exploits this to evaluate **all trials of one
(protocol, origin)** in a single vectorized pass:

* churn presence as an ``(n_trials, n_hosts)`` lattice,
* one shared targets mask and one hoisted host-state gather
  (:meth:`~repro.sim.world.World.host_caches`),
* the compiled origin policy and loss-parameter arrays fetched once,
* per-probe delivery draws batched over the trial axis
  (:meth:`~repro.conditions.loss.PathLossModel.delivered_lattice`),
* the L7 ladder assembled per trial from the pre-drawn lattices.

This is the simulator's only observation kernel:
:meth:`~repro.sim.world.World.observe` is a one-trial call of it, and
every campaign driver dispatches it through
:class:`~repro.sim.executor.TrialBatchJob`.  Output element *i* equals a
direct per-cell evaluation of ``trials[i]`` byte for byte (differential
suites: ``tests/test_batch_equivalence.py`` and
``tests/test_plan_equivalence.py``, against the reference path in
``tests/observe_oracle.py``).

In **plane-only mode** the kernel skips ``Observation`` row
materialization and returns :class:`PlaneSlice` objects — just the
columns the streaming reducers (:mod:`repro.core.streaming`) consume —
which streaming campaigns feed straight into packed bit planes.

Memory model: the trial lattice holds a handful of
``(n_trials, n_hosts)`` matrices at once (presence and failure lattices
as booleans, probe schedules and delivery draws as float64), so the
working set is roughly ``n_trials × n_hosts × (8 bytes × ~4 matrices)``
per (protocol, origin) batch — for the paper grid (3 trials, ≤ ~600 K
hosts per protocol) well under 60 MB, and per-shard views bound
``n_hosts`` in the out-of-core pipeline.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.blocking.firewall import covered_hosts_mask_keyed
from repro.core.records import L7Status
from repro.origins import Origin
from repro.rng import keyed_uniform_array, keyed_uniform_lattice, stream_keys
from repro.scanner.zmap import ZMapScanner
from repro.sim.plan import ObserveProfile, _StageTimer, \
    sorted_membership_mask
from repro.sim.world import Observation, World
from repro.telemetry.context import current as _telemetry


@dataclass
class PlaneSlice:
    """Plane-only batch output: the columns streamed analyses consume.

    ``accessible`` is the origin's success plane (``l7 == SUCCESS``);
    ``ip``/``as_index`` identify the kept rows (identical across the
    origins of one (protocol, trial) — the synchronized-campaign
    invariant the reducer validates).  No probe masks, timestamps, or
    geo columns are materialized.
    """

    protocol: str
    trial: int
    origin: str
    ip: np.ndarray          # uint32
    as_index: np.ndarray    # int64
    accessible: np.ndarray  # bool

    def __len__(self) -> int:
        return len(self.ip)


BatchOutput = Union[Observation, PlaneSlice]


def observe_trial_batch(world: World, protocol: str, origin: Origin,
                        trials: Sequence[int],
                        scanners: Sequence[ZMapScanner],
                        all_origin_names: Tuple[str, ...],
                        first_trial: int = 0,
                        targets: Optional[np.ndarray] = None,
                        plane_only: bool = False,
                        profile: Optional[ObserveProfile] = None
                        ) -> List[BatchOutput]:
    """Everything ``origin`` records for ``protocol`` in *all* ``trials``.

    ``scanners`` carries one trial-reseeded scanner per entry of
    ``trials`` (the campaign convention: ``seed + trial``); the configs
    must differ only in their seed.  Output element *i* is what
    ``origin`` records in ``trials[i]`` scanning with ``scanners[i]`` —
    as an :class:`~repro.sim.world.Observation`, or as a
    :class:`PlaneSlice` when ``plane_only`` is set.

    With telemetry enabled the call emits one ``batch.stream`` span with
    ``observe.batched.<stage>`` child events plus ``observe.batched.*``
    counters; the observation-level counters (``observe.calls``,
    ``observe.services``, ``observe.hosts_blocked``, …) count per grid
    cell.
    """
    tel = _telemetry()
    if tel.enabled:
        with tel.span("batch.stream", protocol=protocol,
                      origin=origin.name, n_trials=len(trials),
                      trials=[int(t) for t in trials],
                      plane_only=plane_only) as span:
            results = _observe_trial_batch(
                world, protocol, origin, trials, scanners,
                all_origin_names, first_trial, targets, plane_only,
                profile, tel)
            n = sum(len(r) for r in results)
            span.set(n_services=n)
            tel.count("observe.batched.calls", 1,
                      protocol=protocol, origin=origin.name)
            tel.count("observe.batched.trials", len(trials),
                      protocol=protocol, origin=origin.name)
            tel.count("observe.batched.services", n,
                      protocol=protocol, origin=origin.name)
            if plane_only:
                tel.count("observe.batched.plane_rows", n,
                          protocol=protocol, origin=origin.name)
            if scanners:
                tel.count("observe.probes_sent",
                          n * scanners[0].config.n_probes,
                          protocol=protocol, origin=origin.name)
            return results
    return _observe_trial_batch(world, protocol, origin, trials, scanners,
                                all_origin_names, first_trial, targets,
                                plane_only, profile, tel)


def _observe_trial_batch(world: World, protocol: str, origin: Origin,
                         trials: Sequence[int],
                         scanners: Sequence[ZMapScanner],
                         all_origin_names: Tuple[str, ...],
                         first_trial: int, targets: Optional[np.ndarray],
                         plane_only: bool,
                         profile: Optional[ObserveProfile],
                         tel) -> List[BatchOutput]:
    n_t = len(trials)
    if n_t != len(scanners):
        raise ValueError("one scanner per trial required "
                         f"({n_t} trials, {len(scanners)} scanners)")
    if n_t == 0:
        return []
    configs = [s.config for s in scanners]
    base = configs[0]
    for cfg in configs[1:]:
        if dataclasses.replace(cfg, seed=base.seed) != base:
            raise ValueError(
                "observe_trial_batch requires per-trial scanner configs "
                "that differ only in their seed (the campaign "
                "trial-reseeding convention)")
    counting = tel.enabled

    timer = _StageTimer(profile, tel=tel)
    view = world.hosts.for_protocol(protocol)
    caches = world.host_caches(protocol)
    plans = [world.plan(protocol, s) for s in scanners]
    as_full = view.as_index
    host_ids_full = caches.host_ids_full

    # --- filter: presence lattice + one shared targets mask -----------
    present = world.churn.present_lattice(view.ip, protocol, trials,
                                          stable=caches.stable_full)
    target_mask = sorted_membership_mask(view.ip, targets) \
        if targets is not None else None
    keeps = []
    kept_lattice = np.zeros_like(present)
    for ti in range(n_t):
        wanted = present[ti] & plans[ti].eligible_full
        if target_mask is not None:
            wanted &= target_mask
        keeps.append(np.flatnonzero(wanted))
        kept_lattice[ti] = wanted
    positions = [plans[ti].position_of_row(keeps[ti]) for ti in range(n_t)]
    counts: List[dict] = [dict() for _ in range(n_t)]
    timer.stamp("filter")

    # --- schedule: per-trial probe schedules as one (T, n) matrix -----
    first_full = np.stack([p.base_first_full for p in plans])
    if origin.drift:
        first_full = first_full * (1.0 + origin.drift)
    n_probes = base.n_probes
    probe_offsets = (np.arange(n_probes, dtype=np.float64)
                     * base.probe_spacing_s)
    first_times = [first_full[ti][keeps[ti]] for ti in range(n_t)]
    timer.stamp("schedule")

    # --- L4 static: coverage draws once, thresholds per trial ---------
    policy = world._origin_policy(plans[0], origin, scanners[0])
    silent_blocks = [np.zeros(len(k), dtype=bool) for k in keeps]
    l7_drop_blocks = [np.zeros(len(k), dtype=bool) for k in keeps]
    static_precomp = []
    for entry in policy.static_entries:
        members = caches.grouping.members(entry.as_index)
        if len(members) == 0:
            continue
        # The covered-subset draw is trial-independent; only the ramping
        # coverage threshold varies, so draw once and compare per trial.
        u = keyed_uniform_array(
            np.full(len(members), entry.stream_key, dtype=np.uint64),
            host_ids_full[members])
        static_precomp.append((entry, members, u))
    for ti in range(n_t):
        trial = trials[ti]
        pos_of = positions[ti]
        for entry, members, u in static_precomp:
            pos = pos_of[members]
            covered = (u < entry.coverage_in_trial(trial)) & (pos >= 0)
            if not covered.any():
                continue
            target = l7_drop_blocks[ti] if entry.to_l7_drop \
                else silent_blocks[ti]
            target[pos[covered]] = True
            if counting:
                c = counts[ti]
                c[entry.cause] = c.get(entry.cause, 0) \
                    + int(covered.sum())
    timer.stamp("l4_static")

    # --- L4 IDS: per-trial detection state over shared entries --------
    l4_filtered = []
    for ti in range(n_t):
        trial = trials[ti]
        ids_block = np.zeros(len(keeps[ti]), dtype=bool)
        host_ids_t = host_ids_full[keeps[ti]]
        for entry in policy.ids_entries:
            pos = caches.grouping.members_in(entry.as_index, positions[ti])
            if len(pos) == 0:
                continue
            if trial > first_trial and entry.persistent:
                hit = np.ones(len(pos), dtype=bool)
            elif trial == first_trial:
                hit = first_times[ti][pos] >= entry.detection_time
            else:
                continue
            if entry.coverage < 1.0:
                hit &= covered_hosts_mask_keyed(
                    np.full(len(pos), entry.stream_key, dtype=np.uint64),
                    host_ids_t[pos], np.full(len(pos), entry.coverage))
            ids_block[pos[hit]] = True
            if counting and hit.any():
                counts[ti]["ids"] = counts[ti].get("ids", 0) \
                    + int(hit.sum())
        l4_filtered.append(silent_blocks[ti] | ids_block)
    timer.stamp("l4_ids")

    # --- path: delivery draws batched over the trial axis -------------
    loss = world.loss_model(origin)
    epoch, random_, persistent, variability = \
        world._loss_param_arrays(origin)
    rate_matrix = loss.trial_epoch_rate_matrix(
        epoch, variability, np.arange(caches.n_ases, dtype=np.int64),
        trials)
    persist_full = caches.persist_u.get(origin.name)
    if persist_full is None:
        persist_full = loss.persistent_draws(host_ids_full)
        caches.persist_u[origin.name] = persist_full
    effective_full = rate_matrix[:, as_full]
    random_full = random_[as_full]
    persistent_full = persistent[as_full]

    delivered = []
    epoch_memo: dict = {}
    for k in range(n_probes):
        # Rows cut by the filter never contribute draws, but their times
        # would still enter the epoch-memo key — and a single cut row
        # crossing an epoch boundary between probes would defeat the
        # memo a direct evaluation gets on its kept subset.  Pin cut
        # rows to t=0 so the memo keys (and hits) depend on kept rows
        # only; kept rows' epoch addresses are untouched, so draws stay
        # byte-identical.
        times = np.where(kept_lattice, first_full + probe_offsets[k], 0.0)
        delivered.append(loss.delivered_lattice(
            host_ids_full, as_full, times,
            trials, k, effective_full, random_full, persistent_full,
            persist_full, epoch_memo=epoch_memo))

    wobble_full = None
    if world.defaults.churner_wobble > 0.0:
        wobble_keys = stream_keys(
            world._rng.derive("wobble"),
            [(protocol, origin.name, int(t)) for t in trials])
        wobble_full = keyed_uniform_lattice(wobble_keys, host_ids_full) \
            < world.defaults.churner_wobble

    outages = world._outages(all_origin_names, base.scan_duration_s)
    outage_specs = world.outage_specs()

    probe_masks = []
    path_counts = []
    for ti in range(n_t):
        trial = trials[ti]
        keep = keeps[ti]
        n = len(keep)
        active = outages.active_windows(origin.name, trial, outage_specs)
        active_members = []
        for as_index, windows in active.items():
            pos = caches.grouping.members_in(as_index, positions[ti])
            if len(pos):
                active_members.append((pos, windows))

        probe_mask = np.zeros(n, dtype=np.uint8)
        probes_lost = 0
        outage_lost = 0
        for k in range(n_probes):
            delivered_t = delivered[k][ti][keep]
            ok = delivered_t & ~l4_filtered[ti]
            if counting:
                probes_lost += n - int(delivered_t.sum())
            before_outages = int(ok.sum()) \
                if counting and active_members else 0
            for pos, windows in active_members:
                member_times = first_times[ti][pos] + probe_offsets[k]
                hit = np.zeros(len(pos), dtype=bool)
                for start, end in windows:
                    hit |= (member_times >= start) & (member_times < end)
                ok[pos[hit]] = False
            if counting and active_members:
                outage_lost += before_outages - int(ok.sum())
            probe_mask |= ok.astype(np.uint8) << np.uint8(k)

        wobbled = 0
        if wobble_full is not None:
            zeroed = ~caches.stable_full[keep] & wobble_full[ti][keep]
            probe_mask[zeroed] = 0
            if counting:
                wobbled = int(zeroed.sum())
        probe_masks.append(probe_mask)
        path_counts.append((len(epoch_memo) * n, probes_lost,
                            outage_lost, wobbled))
    timer.stamp("path")

    # --- L7 ladder per trial over the pre-drawn lattices --------------
    refusal_full = None
    if protocol == "ssh":
        refusal_full = world._maxstartups.refusal_uniform_lattice(
            host_ids_full, origin.name, trials)
    _, fail_p, _, _ = world._flaky_param_arrays()
    fail_full = world._flaky.fail_mask_lattice(
        fail_p[as_full], host_ids_full, protocol, origin.name, trials)

    l7s = []
    for ti in range(n_t):
        trial = trials[ti]
        keep = keeps[ti]
        n = len(keep)
        l4_success = probe_masks[ti] > 0

        l7 = np.full(n, int(L7Status.NO_L4), dtype=np.uint8)
        l7[l4_success] = int(L7Status.SUCCESS)
        l7[l4_success & l7_drop_blocks[ti]] = int(L7Status.L4_DROP)

        for i in caches.temporal_systems:
            pos = caches.grouping.members_in(i, positions[ti])
            if len(pos) == 0:
                continue
            pos = pos[l4_success[pos]]
            if len(pos) == 0:
                continue
            spec = world.topology.ases.by_index(i).spec.temporal_rst
            detect = world._temporal.detection_time(
                spec, origin, i, trial, protocol,
                configs[ti].scan_duration_s)
            if detect is None:
                continue
            hit = first_times[ti][pos] >= detect
            l7[pos[hit]] = int(L7Status.L4_CLOSE_RST)
            if counting and hit.any():
                counts[ti]["temporal_rst"] = \
                    counts[ti].get("temporal_rst", 0) + int(hit.sum())

        if protocol == "ssh":
            idx = np.flatnonzero(l7 == int(L7Status.SUCCESS))
            if len(idx):
                rows = keep[idx]
                refused = caches.ms_affected_full[rows] \
                    & (refusal_full[ti][rows] < caches.ms_probs_full[rows])
                close = np.where(caches.ms_style_full[rows],
                                 int(L7Status.L4_CLOSE_RST),
                                 int(L7Status.L4_CLOSE_FIN))
                l7[idx[refused]] = close[refused]
                if counting and refused.any():
                    counts[ti]["maxstartups"] = \
                        counts[ti].get("maxstartups", 0) \
                        + int(refused.sum())

        still_ok = l7 == int(L7Status.SUCCESS)
        l7[still_ok & caches.dead_full[keep]] = int(L7Status.L4_DROP)

        still_ok = l7 == int(L7Status.SUCCESS)
        fails = caches.flaky_full[keep] & fail_full[ti][keep]
        drops = fails & caches.drop_full[keep]
        l7[still_ok & fails & drops] = int(L7Status.L4_DROP)
        l7[still_ok & fails & ~drops] = int(L7Status.L4_CLOSE_FIN)
        l7s.append(l7)
    timer.stamp("l7")

    # --- emit: Observation rows or packed-plane columns ---------------
    results: List[BatchOutput] = []
    for ti in range(n_t):
        trial = trials[ti]
        keep = keeps[ti]
        ips = view.ip[keep]
        as_idx = view.as_index[keep]
        if plane_only:
            results.append(PlaneSlice(
                protocol=protocol, trial=int(trial), origin=origin.name,
                ip=ips, as_index=as_idx,
                accessible=l7s[ti] == int(L7Status.SUCCESS)))
        else:
            results.append(Observation(
                protocol=protocol, trial=int(trial), origin=origin.name,
                ip=ips, as_index=as_idx,
                country_index=view.country_index[keep],
                geo_index=caches.geo_full[keep],
                probe_mask=probe_masks[ti], l7=l7s[ti],
                time=first_times[ti].astype(np.float32)))
        if counting:
            n = len(keep)
            # One logical observe per grid cell: the observation-level
            # counters describe the output, so their totals are the same
            # however the trials were batched.
            tel.count("observe.calls", 1,
                      protocol=protocol, origin=origin.name)
            tel.count("observe.services", n,
                      protocol=protocol, origin=origin.name)
            tel.observe_value("observe.services_per_call", n,
                              protocol=protocol)
            for cause in sorted(counts[ti]):
                tel.count("observe.hosts_blocked", counts[ti][cause],
                          cause=cause, protocol=protocol,
                          origin=origin.name)
            loss_draws, probes_lost, outage_lost, wobbled = \
                path_counts[ti]
            tel.count("observe.loss_draws", loss_draws,
                      protocol=protocol, origin=origin.name)
            tel.count("observe.probes_lost", probes_lost,
                      protocol=protocol, origin=origin.name)
            if outage_lost:
                tel.count("observe.probes_outage_lost", outage_lost,
                          protocol=protocol, origin=origin.name)
            if wobbled:
                tel.count("observe.hosts_wobbled", wobbled,
                          protocol=protocol, origin=origin.name)
        timer.finish(len(keep))
    timer.stamp("emit")
    return results
