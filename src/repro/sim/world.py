"""The simulated Internet a scan campaign runs against.

A :class:`World` composes the topology, the host population, temporal
churn, path conditions, and every destination-side blocking system into a
single question: *what does origin O observe for each service of protocol P
in trial T?*  The answer (an :class:`Observation`) mirrors exactly what a
real ZMap + ZGrab pipeline records: per-address SYN-ACK counts, the L7
outcome, and timestamps.

Evaluation order per probe follows the life of a packet:

1. exclusion blocklist (scanner-side — excluded services never appear),
2. presence (churn): absent services answer nobody,
3. static L4 filters: reputation firewall, static origin blocks, regional
   policy, rate-IDS detection state,
4. path: burst outages, then the correlated loss channel,
5. L7: temporal RST blocking, MaxStartups refusal, persistent L7-dead
   hosts, transient flakiness — first matching behaviour wins.

The evaluation itself is :func:`repro.sim.batch.observe_trial_batch`;
this module holds the world's models, the per-AS parameter tables and
the cached host state and plans that kernel reads.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.blocking.firewall import coverage_stream_key
from repro.blocking.flaky import L7FlakyModel, L7FlakySpec
from repro.blocking.ids import RateIDS
from repro.blocking.maxstartups import MaxStartupsModel, MaxStartupsSpec
from repro.blocking.temporal import TemporalRSTBlocker
from repro.conditions.loss import LossDraw, PathLossModel, PathLossSpec
from repro.conditions.outages import BurstOutageModel, BurstOutageSpec
from repro.core.bits import popcount_u8
from repro.hosts.churn import ChurnModel, ChurnSpec
from repro.hosts.table import HostTable
from repro.origins import Origin
from repro.rng import CounterRNG
from repro.scanner.zmap import ZMapConfig, ZMapScanner
from repro.sim.plan import (ASGrouping, CompiledOriginPolicy, HostCaches,
                            IDSEntry, ObservationPlan, ObserveProfile,
                            PolicyEntry)
from repro.telemetry.context import current as _telemetry
from repro.topology.generator import Topology


@dataclass(frozen=True)
class WorldDefaults:
    """Behaviour applied to ASes that declare nothing of their own."""

    path_loss: PathLossSpec = field(default_factory=PathLossSpec)
    l7_flaky: L7FlakySpec = field(
        default_factory=lambda: L7FlakySpec(
            flaky_fraction=0.02, fail_prob=0.2, drop_share=0.7,
            dead_fraction=0.002))
    burst_outages: Optional[BurstOutageSpec] = field(
        default_factory=BurstOutageSpec)
    churn: ChurnSpec = field(default_factory=ChurnSpec)
    #: Baseline MaxStartups prevalence: the OpenSSH default configuration
    #: ships with MaxStartups 10:30:100, so a slice of *every* network's
    #: SSH hosts is probabilistically refusing under synchronized scans.
    maxstartups: MaxStartupsSpec = field(
        default_factory=lambda: MaxStartupsSpec(
            fraction=0.06, refuse_prob_mean=0.5, refuse_prob_spread=0.35))
    #: Per-(origin, trial) probability that a churning (unstable) service
    #: silently fails to answer at L4 even while nominally present.  This
    #: is what populates the paper's "unknown" classification bucket.
    churner_wobble: float = 0.18


@dataclass
class Observation:
    """What one origin saw for one (protocol, trial)."""

    protocol: str
    trial: int
    origin: str
    ip: np.ndarray             # uint32, services present & scannable
    as_index: np.ndarray       # int64
    country_index: np.ndarray  # int64 (true country)
    geo_index: np.ndarray      # int64 (observed GeoIP country)
    #: Bitmask of answered probes: bit k set ⇔ probe k drew a SYN-ACK.
    #: Keeping per-probe identity (not just a count) lets the analyses
    #: simulate single-probe scans exactly as §5 does.
    probe_mask: np.ndarray     # uint8
    l7: np.ndarray             # uint8, L7Status codes
    time: np.ndarray           # float32, first-probe send time (s)

    def __len__(self) -> int:
        return len(self.ip)

    @property
    def responses(self) -> np.ndarray:
        """Number of SYN-ACKs received per service (popcount of the mask)."""
        return popcount_u8(self.probe_mask)


class World:
    """A concrete synthetic Internet, ready to be scanned."""

    def __init__(self, topology: Topology, hosts: HostTable, seed: int,
                 defaults: Optional[WorldDefaults] = None) -> None:
        self.topology = topology
        self.hosts = hosts
        self.seed = seed
        self.defaults = defaults if defaults is not None else WorldDefaults()

        root = CounterRNG(seed, "world")
        self._rng = root
        self.churn = ChurnModel(root, self.defaults.churn)
        self._ids = RateIDS(root)
        self._temporal = TemporalRSTBlocker(root)
        self._maxstartups = MaxStartupsModel(root)
        self._flaky = L7FlakyModel(root)
        self._loss_models: Dict[str, PathLossModel] = {}
        self._loss_params: Dict[str, Tuple[np.ndarray, ...]] = {}
        self._outage_models: Dict[Tuple[Tuple[str, ...], float],
                                  BurstOutageModel] = {}
        #: Per-AS tables built on first use ("outage_specs", "flaky",
        #: "maxstartups").  A dict, not attributes, so that worlds made by
        #: :meth:`with_hosts` fill and read one shared memo.
        self._as_tables: Dict[str, object] = {}
        self._plans: Dict[Tuple[str, ZMapConfig], ObservationPlan] = {}
        self._host_caches: Dict[str, HostCaches] = {}

    def __getstate__(self) -> dict:
        # Plans are pure acceleration state and can be large; dropping them
        # keeps process-executor payloads small.  Workers rebuild plans
        # lazily and — because every draw is counter-addressed — rebuild
        # them identically.
        state = self.__dict__.copy()
        state["_plans"] = {}
        state["_host_caches"] = {}
        return state

    def with_hosts(self, hosts: HostTable) -> "World":
        """This world over another host table, sharing every model.

        The copy shares the churn, blocking, path-loss and burst-outage
        models, the per-AS parameter tables and their memos: every draw
        they make is keyed by (seed, AS, origin, trial, protocol), never
        by a host row, so a model filled by one host table answers any
        other exactly.  Host-level state — the host table, its
        :class:`HostCaches` and the compiled plans — is the copy's own.
        A :class:`~repro.sim.shard.ShardedWorld` hands out its shards
        this way, so burst-outage windows are drawn once per world, not
        once per shard.
        """
        world = copy.copy(self)
        world.hosts = hosts
        world._plans = {}
        world._host_caches = {}
        return world

    # ------------------------------------------------------------------
    # Lazily built per-AS parameter tables
    # ------------------------------------------------------------------

    def loss_model(self, origin: Origin) -> PathLossModel:
        model = self._loss_models.get(origin.name)
        if model is None:
            model = PathLossModel(self._rng, origin.name,
                                  state_group=origin.state_group)
            self._loss_models[origin.name] = model
        return model

    def _loss_param_arrays(self, origin: Origin) -> Tuple[np.ndarray, ...]:
        """(epoch, random, persistent, variability) arrays indexed by AS."""
        cached = self._loss_params.get(origin.name)
        if cached is not None:
            return cached
        n = len(self.topology.ases)
        epoch = np.zeros(n)
        random_ = np.zeros(n)
        persistent = np.zeros(n)
        variability = np.zeros(n)
        for system in self.topology.ases:
            spec = system.spec.path_loss or self.defaults.path_loss
            draw: LossDraw = spec.for_origin(origin.name,
                                             origin.state_group)
            epoch[system.index] = draw.epoch_rate
            random_[system.index] = draw.random_rate
            persistent[system.index] = draw.persistent_fraction
            variability[system.index] = draw.variability
        result = (epoch, random_, persistent, variability)
        self._loss_params[origin.name] = result
        return result

    def _outages(self, origins: Tuple[str, ...],
                 scan_duration_s: float) -> BurstOutageModel:
        """The shared burst-outage model of one origin universe.

        Memoized by *both* inputs: outage windows are drawn against the
        full origin list and the scan duration, so a world observed under
        another universe or schedule needs its own model.
        """
        key = (tuple(origins), float(scan_duration_s))
        model = self._outage_models.get(key)
        if model is None:
            model = BurstOutageModel(self._rng, origins, scan_duration_s)
            self._outage_models[key] = model
        return model

    def outage_specs(self) -> Dict[int, BurstOutageSpec]:
        specs = self._as_tables.get("outage_specs")
        if specs is None:
            specs = {}
            for system in self.topology.ases:
                spec = system.spec.burst_outages or self.defaults.burst_outages
                if spec is not None:
                    specs[system.index] = spec
            self._as_tables["outage_specs"] = specs
        return specs

    def _flaky_param_arrays(self) -> Tuple[np.ndarray, ...]:
        """Per-AS (flaky_fraction, fail_prob, drop_share, dead_fraction)."""
        params = self._as_tables.get("flaky")
        if params is None:
            n = len(self.topology.ases)
            flaky = np.zeros(n)
            fail = np.zeros(n)
            drop = np.zeros(n)
            dead = np.zeros(n)
            for system in self.topology.ases:
                spec = system.spec.l7_flaky or self.defaults.l7_flaky
                flaky[system.index] = spec.flaky_fraction
                fail[system.index] = spec.fail_prob
                drop[system.index] = spec.drop_share
                dead[system.index] = spec.dead_fraction
            params = self._as_tables["flaky"] = (flaky, fail, drop, dead)
        return params

    def _maxstartups_param_arrays(self) -> Tuple[np.ndarray, ...]:
        """Per-AS (fraction, mean, spread, solo_factor) arrays."""
        params = self._as_tables.get("maxstartups")
        if params is None:
            n = len(self.topology.ases)
            fraction = np.zeros(n)
            mean = np.zeros(n)
            spread = np.zeros(n)
            solo = np.zeros(n)
            for system in self.topology.ases:
                spec = system.spec.maxstartups or self.defaults.maxstartups
                fraction[system.index] = spec.fraction
                mean[system.index] = spec.refuse_prob_mean
                spread[system.index] = spec.refuse_prob_spread
                solo[system.index] = spec.solo_factor
            params = self._as_tables["maxstartups"] = \
                (fraction, mean, spread, solo)
        return params

    # ------------------------------------------------------------------
    # Compiled observation plans
    # ------------------------------------------------------------------

    def plan(self, protocol: str, scanner: ZMapScanner) -> ObservationPlan:
        """The compiled observation plan for one (protocol, scanner config).

        Built once and cached on the world; reused across every trial and
        origin that observes with an equal scanner configuration.  A plan
        holds only scanner-dependent state (eligibility, schedule, origin
        policies); scanner configurations are immutable value objects, so
        they key the cache directly.
        """
        tel = _telemetry()
        key = (protocol, scanner.config)
        plan = self._plans.get(key)
        if plan is not None:
            if tel.enabled:
                tel.count("cache.plan_hit", 1, protocol=protocol)
            return plan
        if tel.enabled:
            tel.count("cache.plan_miss", 1, protocol=protocol)
        plan = self._build_plan(protocol, scanner)
        self._plans[key] = plan
        return plan

    def _build_plan(self, protocol: str,
                    scanner: ZMapScanner) -> ObservationPlan:
        # Plan compilation is process-local work (each pool worker
        # rebuilds lazily), so its span lives in the excluded ``cache.``
        # namespace — span counts under it may differ across backends.
        with _telemetry().span("cache.plan_build", protocol=protocol):
            return self._compile_plan(protocol, scanner)

    def host_caches(self, protocol: str) -> HostCaches:
        """Scanner-independent per-protocol host state, built once.

        Campaigns reseed the scanner per trial, which keys one
        :class:`ObservationPlan` per trial — but everything here (churn
        class, deadness, flakiness, MaxStartups membership, grouping,
        GeoIP translation) depends only on the world and the protocol.
        Hoisting it out of the plan makes per-trial plan builds cheap and
        gives the fused trial-batch kernel one shared gather for a whole
        trial axis.
        """
        cached = self._host_caches.get(protocol)
        if cached is not None \
                and cached.geo_version == self.topology.geoip.version:
            return cached

        view = self.hosts.for_protocol(protocol)
        ips = view.ip
        as_index = view.as_index
        n_ases = len(self.topology.ases)
        host_ids = ips.astype(np.uint64)

        flaky_f, fail_p, drop_s, dead_f = self._flaky_param_arrays()
        ms_affected = ms_probs = ms_style = None
        if protocol == "ssh":
            ms_fraction, ms_mean, ms_spread, _ = \
                self._maxstartups_param_arrays()
            ms_affected = self._maxstartups.affected_mask_params(
                ms_fraction[as_index], host_ids)
            ms_probs = self._maxstartups.refuse_probs_params(
                ms_mean[as_index], ms_spread[as_index], host_ids)
            ms_style = self._rng.derive("ms-style").bernoulli_array(
                0.5, host_ids)

        static_systems = tuple(
            int(s.index) for s in self.topology.ases
            if s.spec.reputation_firewall is not None
            or s.spec.static_block is not None
            or s.spec.regional_policy is not None)
        ids_systems = tuple(int(s.index) for s in self.topology.ases
                            if s.spec.rate_ids is not None)
        temporal_systems = tuple(
            int(s.index) for s in self.topology.ases
            if s.spec.temporal_rst is not None
            and protocol in s.spec.temporal_rst.protocols)

        caches = HostCaches(
            protocol=protocol,
            n_view=len(ips),
            n_ases=n_ases,
            geo_version=self.topology.geoip.version,
            grouping=ASGrouping(as_index, n_ases),
            geo_full=self.topology.geoip.geolocate_index_array(ips),
            host_ids_full=host_ids,
            stable_full=self.churn.stable_mask(ips, protocol),
            dead_full=self._flaky.dead_mask_params(
                dead_f[as_index], host_ids, protocol),
            flaky_full=self._flaky.flaky_mask_params(
                flaky_f[as_index], host_ids, protocol),
            drop_full=self._flaky.drop_style_mask_params(
                drop_s[as_index], host_ids, protocol),
            ms_affected_full=ms_affected,
            ms_probs_full=ms_probs,
            ms_style_full=ms_style,
            static_systems=static_systems,
            ids_systems=ids_systems,
            temporal_systems=temporal_systems)
        self._host_caches[protocol] = caches
        return caches

    def _compile_plan(self, protocol: str,
                      scanner: ZMapScanner) -> ObservationPlan:
        ips = self.hosts.for_protocol(protocol).ip
        return ObservationPlan(
            protocol=protocol,
            eligible_full=scanner.eligible_mask(ips),
            base_first_full=scanner.first_probe_times(ips))

    def _origin_policy(self, plan: ObservationPlan, origin: Origin,
                       scanner: ZMapScanner) -> CompiledOriginPolicy:
        """Per-origin compiled static-L4 rules (cached on the plan)."""
        policy = plan.origin_policies.get(origin.name)
        if policy is not None:
            return policy

        caches = self.host_caches(plan.protocol)
        static_entries = []
        for i in caches.static_systems:
            spec = self.topology.ases.by_index(i).spec
            fw = spec.reputation_firewall
            if fw is not None and fw.blocks(origin):
                static_entries.append(PolicyEntry(
                    as_index=i,
                    stream_key=coverage_stream_key(self._rng, i,
                                                   "reputation"),
                    coverage=fw.coverage,
                    full_coverage_from_trial=(
                        fw.full_coverage_from_trial
                        if fw.full_coverage_from_trial > 0 else -1),
                    to_l7_drop=False,
                    cause="reputation"))
            sb = spec.static_block
            if sb is not None and sb.blocks(origin):
                static_entries.append(PolicyEntry(
                    as_index=i,
                    stream_key=coverage_stream_key(self._rng, i, "static"),
                    coverage=sb.coverage,
                    full_coverage_from_trial=-1,
                    to_l7_drop=False,
                    cause="static"))
            rp = spec.regional_policy
            if rp is not None and rp.blocks(origin):
                static_entries.append(PolicyEntry(
                    as_index=i,
                    stream_key=coverage_stream_key(self._rng, i, "regional"),
                    coverage=rp.coverage,
                    full_coverage_from_trial=-1,
                    to_l7_drop=bool(rp.responds_with_block_page),
                    cause="regional"))

        ids_entries = []
        for i in caches.ids_systems:
            system = self.topology.ases.by_index(i)
            spec = system.spec.rate_ids
            rate = scanner.probes_into_as_per_second(
                system.total_addresses(), origin)
            detect = self._ids.detection_time(
                spec, origin, i, rate, plan.protocol)
            if detect is None:
                continue
            ids_entries.append(IDSEntry(
                as_index=i,
                stream_key=coverage_stream_key(self._rng, i, "ids"),
                coverage=spec.coverage,
                persistent=bool(spec.persistent),
                detection_time=float(detect)))

        policy = CompiledOriginPolicy(tuple(static_entries),
                                      tuple(ids_entries))
        plan.origin_policies[origin.name] = policy
        return policy

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------

    def observe(self, protocol: str, trial: int, origin: Origin,
                scanner: ZMapScanner, all_origin_names: Tuple[str, ...],
                first_trial: int = 0,
                targets: Optional[np.ndarray] = None,
                profile: Optional[ObserveProfile] = None) -> Observation:
        """Everything ``origin`` records for one protocol in one trial.

        ``all_origin_names`` fixes the origin universe for shared burst
        events; ``first_trial`` is the first trial this origin scanned in
        (rate-IDS state carries over from it).

        ``targets`` restricts the observation to a subset of addresses —
        the §6 "iteratively scan candidate sub-networks" workflow.
        Because every stochastic draw is counter-addressed by entity, a
        targeted observation returns *exactly* the rows the full scan
        would (tested invariant), so targeted re-scans are consistent
        with campaign data.

        This is a one-trial call of the simulator's single observation
        kernel, :func:`repro.sim.batch.observe_trial_batch`, so it emits
        that kernel's telemetry (a ``batch.stream`` span with
        ``observe.batched.<stage>`` children, plus the ``observe.*``
        counters) and fills ``profile`` with its per-stage wall times.
        Telemetry never perturbs results.
        """
        from repro.sim.batch import observe_trial_batch

        return observe_trial_batch(
            self, protocol, origin, (trial,), (scanner,), all_origin_names,
            first_trial=first_trial, targets=targets, profile=profile)[0]

    # ------------------------------------------------------------------
    # Targeted re-probing (the §6 retry experiment)
    # ------------------------------------------------------------------

    def ssh_retry_success(self, ips: np.ndarray, origin: Origin, trial: int,
                          max_attempts: int) -> np.ndarray:
        """Whether ≤ ``max_attempts`` immediate retries complete SSH.

        Models the paper's follow-up experiment: iteratively re-trying the
        SSH handshake against MaxStartups-protected hosts from a single
        origin (``solo=True`` applies the reduced single-scanner pressure).
        Hosts not affected by MaxStartups succeed on the first attempt.
        """
        ips = np.asarray(ips, dtype=np.uint32)
        as_idx = self.topology.routing.as_index_array(ips)
        if np.any(as_idx < 0):
            raise ValueError("some target IPs are not routed to any AS")
        host_ids = ips.astype(np.uint64)
        fraction, mean, spread, solo = self._maxstartups_param_arrays()
        success = np.zeros(ips.shape, dtype=bool)
        remaining = np.arange(len(ips))
        for attempt in range(max_attempts):
            if len(remaining) == 0:
                break
            refused = self._maxstartups.refused_mask_params(
                fraction[as_idx[remaining]], mean[as_idx[remaining]],
                spread[as_idx[remaining]], solo[as_idx[remaining]],
                host_ids[remaining], origin.name, trial,
                attempt=attempt, solo=True)
            success[remaining[~refused]] = True
            remaining = remaining[refused]
        return success
