"""The reference observation path: the oracle every differential suite uses.

The simulator has one production kernel,
:func:`repro.sim.batch.observe_trial_batch` (``World.observe`` is a
one-trial call of it).  This module keeps the straightforward per-cell
formulation it replaced: no compiled plans, no cross-call caches, no
trial lattices — every draw is made directly on the kept subset, AS
membership is an ``as_idx == i`` scan, and blocking rules are read from
the specs on every call.  It lives under ``tests/`` so that no
production flag can route a campaign through it.

:func:`observe` answers one (protocol, trial, origin) cell;
:func:`run_campaign` runs a whole synchronized grid serially through it
and stacks each cell exactly as the production driver does, so the two
datasets can be compared byte for byte.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.blocking.firewall import covered_hosts_mask
from repro.core.dataset import CampaignDataset, TrialData
from repro.core.records import L7Status
from repro.origins import Origin
from repro.scanner.zmap import ZMapConfig, ZMapScanner
from repro.sim.plan import sorted_membership_mask
from repro.sim.world import Observation, World
from repro.topology.asn import PROTOCOLS


def _static_l4_masks(world: World, origin: Origin, trial: int,
                     ips: np.ndarray, as_idx: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """(silent_block, l7_drop_block) for static policies.

    ``silent_block`` suppresses SYN-ACKs entirely (firewall drop);
    ``l7_drop_block`` lets TCP complete but drops the application
    handshake (regional policies with ``responds_with_block_page``).
    """
    silent = np.zeros(ips.shape, dtype=bool)
    l7_drop = np.zeros(ips.shape, dtype=bool)
    host_ids = ips.astype(np.uint64)
    for system in world.topology.ases:
        spec = system.spec
        members = None

        def member_mask() -> np.ndarray:
            nonlocal members
            if members is None:
                members = as_idx == system.index
            return members

        fw = spec.reputation_firewall
        if fw is not None and fw.blocks(origin):
            m = member_mask()
            if np.any(m):
                coverage = fw.coverage_in_trial(trial)
                covered = covered_hosts_mask(
                    world._rng, host_ids[m], system.index, coverage,
                    "reputation")
                silent[np.flatnonzero(m)[covered]] = True

        sb = spec.static_block
        if sb is not None and sb.blocks(origin):
            m = member_mask()
            if np.any(m):
                covered = covered_hosts_mask(
                    world._rng, host_ids[m], system.index, sb.coverage,
                    "static")
                silent[np.flatnonzero(m)[covered]] = True

        rp = spec.regional_policy
        if rp is not None and rp.blocks(origin):
            m = member_mask()
            if np.any(m):
                covered = covered_hosts_mask(
                    world._rng, host_ids[m], system.index, rp.coverage,
                    "regional")
                target = l7_drop if rp.responds_with_block_page \
                    else silent
                target[np.flatnonzero(m)[covered]] = True
    return silent, l7_drop


def _ids_block_mask(world: World, origin: Origin, trial: int,
                    first_trial: int, protocol: str, as_idx: np.ndarray,
                    times: np.ndarray, ips: np.ndarray,
                    scanner: ZMapScanner) -> np.ndarray:
    """Hosts whose network's rate IDS has blocked this origin."""
    blocked = np.zeros(as_idx.shape, dtype=bool)
    host_ids = ips.astype(np.uint64)
    for system in world.topology.ases:
        spec = system.spec.rate_ids
        if spec is None:
            continue
        members = as_idx == system.index
        if not np.any(members):
            continue
        rate = scanner.probes_into_as_per_second(
            system.total_addresses(), origin)
        detect = world._ids.detection_time(
            spec, origin, system.index, rate, protocol)
        if detect is None:
            continue
        idx = np.flatnonzero(members)
        if trial > first_trial and spec.persistent:
            hit = np.ones(idx.shape, dtype=bool)
        elif trial == first_trial:
            hit = times[idx] >= detect
        else:
            continue
        if spec.coverage < 1.0:
            covered = covered_hosts_mask(
                world._rng, host_ids[idx], system.index, spec.coverage,
                "ids")
            hit &= covered
        blocked[idx[hit]] = True
    return blocked


def observe(world: World, protocol: str, trial: int, origin: Origin,
            scanner: ZMapScanner, all_origin_names: Tuple[str, ...],
            first_trial: int = 0,
            targets: Optional[np.ndarray] = None) -> Observation:
    """What ``origin`` records for one protocol in one trial.

    Same contract as :meth:`repro.sim.world.World.observe`; the
    differential suites require the two to agree in every field.
    """
    view = world.hosts.for_protocol(protocol)
    present = world.churn.present_mask(view.ip, protocol, trial)
    eligible = scanner.eligible_mask(view.ip)
    wanted = present & eligible
    if targets is not None:
        wanted &= sorted_membership_mask(view.ip, targets)
    keep = np.flatnonzero(wanted)

    ips = view.ip[keep]
    as_idx = view.as_index[keep]
    country_idx = view.country_index[keep]
    geo_idx = world.topology.geoip.geolocate_index_array(ips)
    host_ids = ips.astype(np.uint64)
    n = len(ips)
    n_probes = scanner.config.n_probes

    probe_times = scanner.probe_times(ips, origin)
    first_times = probe_times[0]

    # --- L4 static filtering -----------------------------------------
    silent_block, l7_drop_block = _static_l4_masks(
        world, origin, trial, ips, as_idx)
    ids_block = _ids_block_mask(
        world, origin, trial, first_trial, protocol, as_idx, first_times,
        ips, scanner)
    l4_filtered = silent_block | ids_block

    # --- Path: outages + correlated loss ------------------------------
    loss = world.loss_model(origin)
    epoch, random_, persistent, variability = \
        world._loss_param_arrays(origin)
    effective_epoch = loss.trial_epoch_rates(
        epoch[as_idx], variability[as_idx], as_idx, trial)
    persist_u = loss.persistent_draws(host_ids)

    outages = world._outages(all_origin_names,
                             scanner.config.scan_duration_s)
    outage_specs = world.outage_specs()

    probe_mask = np.zeros(n, dtype=np.uint8)
    for probe_no in range(n_probes):
        times_k = probe_times[probe_no]
        delivered = loss.probe_delivered(
            host_ids, as_idx, times_k, trial, probe_no,
            effective_epoch, random_[as_idx], persistent[as_idx],
            persist_u=persist_u)
        outage_lost = outages.lost_mask(
            origin.name, trial, as_idx, times_k, outage_specs)
        ok = delivered & ~outage_lost & ~l4_filtered
        probe_mask |= ok.astype(np.uint8) << np.uint8(probe_no)

    # Unstable (churning) services intermittently fail to answer even
    # while present: the raw material of the "unknown" bucket.
    if world.defaults.churner_wobble > 0.0:
        churners = world.churn.churner_mask(ips, protocol)
        wobble = world._rng.derive("wobble").bernoulli_array(
            world.defaults.churner_wobble, host_ids,
            protocol, origin.name, trial)
        probe_mask[churners & wobble] = 0

    l4_success = probe_mask > 0

    # --- L7 evaluation ------------------------------------------------
    l7 = np.full(n, int(L7Status.NO_L4), dtype=np.uint8)
    l7[l4_success] = int(L7Status.SUCCESS)

    # Regional block pages: TCP completes, handshake is dropped.
    drop_page = l4_success & l7_drop_block
    l7[drop_page] = int(L7Status.L4_DROP)

    # Temporal network-wide RST blocking (Alibaba, SSH).
    for system in world.topology.ases:
        spec = system.spec.temporal_rst
        if spec is None or protocol not in spec.protocols:
            continue
        members = l4_success & (as_idx == system.index)
        if not np.any(members):
            continue
        detect = world._temporal.detection_time(
            spec, origin, system.index, trial, protocol,
            scanner.config.scan_duration_s)
        if detect is None:
            continue
        idx = np.flatnonzero(members)
        hit = first_times[idx] >= detect
        l7[idx[hit]] = int(L7Status.L4_CLOSE_RST)

    # MaxStartups probabilistic refusal (SSH).
    if protocol == "ssh":
        ms_fraction, ms_mean, ms_spread, ms_solo = \
            world._maxstartups_param_arrays()
        candidates = l7 == int(L7Status.SUCCESS)
        idx = np.flatnonzero(candidates)
        if len(idx):
            refused = world._maxstartups.refused_mask_params(
                ms_fraction[as_idx[idx]], ms_mean[as_idx[idx]],
                ms_spread[as_idx[idx]], ms_solo[as_idx[idx]],
                host_ids[idx], origin.name, trial)
            # sshd closes the socket; roughly half the observations in
            # the paper are RST, half FIN-ACK.
            style_rst = world._rng.derive("ms-style").bernoulli_array(
                0.5, host_ids[idx])
            close = np.where(style_rst, int(L7Status.L4_CLOSE_RST),
                             int(L7Status.L4_CLOSE_FIN))
            l7[idx[refused]] = close[refused]

    # Persistent L7-dead hosts and transient flakiness.
    flaky_f, fail_p, drop_s, dead_f = world._flaky_param_arrays()
    still_ok = l7 == int(L7Status.SUCCESS)
    dead = world._flaky.dead_mask_params(
        dead_f[as_idx], host_ids, protocol)
    l7[still_ok & dead] = int(L7Status.L4_DROP)

    still_ok = l7 == int(L7Status.SUCCESS)
    fails, drops = world._flaky.failure_masks_params(
        flaky_f[as_idx], fail_p[as_idx], drop_s[as_idx],
        host_ids, protocol, origin.name, trial)
    l7[still_ok & fails & drops] = int(L7Status.L4_DROP)
    l7[still_ok & fails & ~drops] = int(L7Status.L4_CLOSE_FIN)

    return Observation(
        protocol=protocol, trial=trial, origin=origin.name,
        ip=ips, as_index=as_idx, country_index=country_idx,
        geo_index=geo_idx, probe_mask=probe_mask, l7=l7,
        time=first_times.astype(np.float32))


def run_campaign(world: World, origins: Sequence[Origin],
                 zmap: ZMapConfig,
                 protocols: Sequence[str] = PROTOCOLS,
                 n_trials: int = 3,
                 origin_universe: Optional[Sequence[str]] = None
                 ) -> CampaignDataset:
    """The synchronized grid, one :func:`observe` call per cell.

    Trial *t* scans with ``seed + t``; every origin that participates
    in a trial scans it, carrying its own first participating trial.
    Tables come out in (protocol, trial) order with origins in campaign
    order — the production driver's layout.
    """
    names = tuple(origin_universe) if origin_universe is not None \
        else tuple(o.name for o in origins)
    first_trials = {o.name: min(t for t in range(n_trials)
                                if o.participates(t))
                    for o in origins}
    tables: List[TrialData] = []
    for protocol in protocols:
        for trial in range(n_trials):
            scanner = ZMapScanner(dataclasses.replace(
                zmap, seed=zmap.seed + trial))
            members = [o for o in origins if o.participates(trial)]
            observations = [
                observe(world, protocol, trial, origin, scanner, names,
                        first_trial=first_trials[origin.name])
                for origin in members]
            reference = observations[0]
            tables.append(TrialData(
                protocol=protocol, trial=trial,
                origins=[o.name for o in members],
                ip=reference.ip, as_index=reference.as_index,
                country_index=reference.country_index,
                geo_index=reference.geo_index,
                probe_mask=np.stack([o.probe_mask for o in observations]),
                l7=np.stack([o.l7 for o in observations]),
                time=np.stack([o.time for o in observations]),
                n_probes=zmap.n_probes))
    return CampaignDataset(tables)
