"""Differential tests: the compiled kernel against the reference oracle.

Compiled plans and host caches (:mod:`repro.sim.plan`) are pure
acceleration: ``World.observe`` — a one-trial call of the observation
kernel — must be *byte-identical* to the reference path in
``tests/observe_oracle.py`` in every :class:`~repro.sim.world.Observation`
field.  These tests pin that guarantee differentially across seeds,
origins, trial positions (including late-join ``first_trial``), sharded
configs, ``targets=`` subsets, and the campaign/executor layers
(including plans crossing the process-pool pickle boundary).
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.blocking.ids import RateIDSSpec
from repro.origins import Origin
from repro.scanner.zmap import ZMapConfig, ZMapScanner
from repro.sim.campaign import run_campaign
from repro.sim.plan import ObservationPlan, ObserveProfile, STAGES
from repro.sim.scenario import build_world_from_specs, paper_scenario
from repro.sim.world import Observation, WorldDefaults
from repro.telemetry import Telemetry
from repro.topology.asn import ASKind, ASSpec
from tests import observe_oracle


def signature(dataset):
    """The byte-exact content of every trial table, in a comparable form."""
    return [
        (t.protocol, t.trial, tuple(t.origins),
         t.ip.tobytes(), t.as_index.tobytes(), t.country_index.tobytes(),
         t.geo_index.tobytes(), t.probe_mask.tobytes(), t.l7.tobytes(),
         t.time.tobytes())
        for t in sorted(dataset, key=lambda t: (t.protocol, t.trial))
    ]


#: Small but fully featured world: every named behaviour is present.
SCALE = 0.02

SEEDS = (3, 17, 29)

FIELDS = ("ip", "as_index", "country_index", "geo_index", "probe_mask",
          "l7", "time")


def obs_signature(obs: Observation):
    """Byte-exact content of one observation."""
    return tuple(getattr(obs, f).tobytes() for f in FIELDS)


def assert_identical(a: Observation, b: Observation):
    for field in FIELDS:
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype, field
        assert np.array_equal(x, y), (
            f"kernel/oracle mismatch in {field} "
            f"({a.protocol}, trial {a.trial}, {a.origin})")


@pytest.fixture(scope="module", params=SEEDS, ids=lambda s: f"seed{s}")
def scenario(request):
    return paper_scenario(seed=request.param, scale=SCALE)


class TestObserveEquivalence:
    def test_full_grid_byte_identical(self, scenario):
        """Every (protocol, trial, origin) cell, kernel vs oracle."""
        world, origins, config = scenario
        names = tuple(o.name for o in origins)
        for protocol in ("http", "https", "ssh"):
            for trial in range(3):
                trial_config = dataclasses.replace(
                    config, seed=config.seed + trial)
                scanner = ZMapScanner(trial_config)
                for origin in origins:
                    if not origin.participates(trial):
                        continue
                    reference = observe_oracle.observe(
                        world, protocol, trial, origin, scanner, names)
                    planned = world.observe(
                        protocol, trial, origin, scanner, names)
                    assert_identical(reference, planned)

    def test_targets_subset_byte_identical(self, scenario):
        """The §6 targeted-rescan path through the plan."""
        world, origins, config = scenario
        names = tuple(o.name for o in origins)
        scanner = ZMapScanner(config)
        view = world.hosts.for_protocol("http")
        rng = np.random.default_rng(7)
        for size in (0, 1, 100, len(view.ip) // 3):
            targets = rng.choice(view.ip, size=size, replace=False) \
                if size else np.array([], dtype=np.uint32)
            # Salt with addresses that are not in the view at all.
            targets = np.concatenate(
                [targets.astype(np.uint32),
                 np.array([1, 2 ** 32 - 2], dtype=np.uint32)])
            for origin in origins[:2]:
                reference = observe_oracle.observe(
                    world, "http", 0, origin, scanner, names,
                    targets=targets)
                planned = world.observe(
                    "http", 0, origin, scanner, names, targets=targets)
                assert_identical(reference, planned)

    def test_sharded_config_byte_identical(self, scenario):
        world, origins, config = scenario
        names = tuple(o.name for o in origins)
        for n_shards, shard in ((2, 1), (4, 0)):
            sharded = ZMapScanner(dataclasses.replace(
                config, n_shards=n_shards, shard=shard))
            reference = observe_oracle.observe(
                world, "https", 1, origins[0], sharded, names)
            planned = world.observe("https", 1, origins[0], sharded, names)
            assert_identical(reference, planned)

    def test_late_join_first_trial_byte_identical(self):
        """first_trial routing through compiled IDS entries.

        The IDS world distinguishes first_trial values byte-visibly
        (see test_executor_equivalence), so this would catch a plan that
        compiled away the trial-position logic.
        """
        specs = [
            ASSpec("IDS Net", "US", ASKind.HOSTING, hosts={"http": 60},
                   rate_ids=RateIDSSpec(per_ip_rate_threshold=1e-9,
                                        detection_delay_mean_s=200_000.0)),
            ASSpec("Plain Net", "DE", ASKind.ISP, hosts={"http": 60}),
        ]
        world = build_world_from_specs(specs, seed=5,
                                       defaults=WorldDefaults())
        origins = (Origin("BASE", "US", "NA"),
                   Origin("LATE", "US", "NA", trials=(1, 2)))
        names = tuple(o.name for o in origins)
        config = ZMapConfig(seed=5, pps=100_000.0, n_probes=2)
        for trial in range(3):
            scanner = ZMapScanner(dataclasses.replace(
                config, seed=config.seed + trial))
            for origin in origins:
                if not origin.participates(trial):
                    continue
                first = 1 if origin.name == "LATE" else 0
                reference = observe_oracle.observe(
                    world, "http", trial, origin, scanner, names,
                    first_trial=first)
                planned = world.observe("http", trial, origin, scanner,
                                        names, first_trial=first)
                assert_identical(reference, planned)

    def test_explicit_plan_reuse_across_trials(self, scenario):
        """One compiled plan serves every trial and origin unchanged."""
        world, origins, config = scenario
        names = tuple(o.name for o in origins)
        scanner = ZMapScanner(config)
        plan = world.plan("ssh", scanner)
        for trial in range(2):
            for origin in origins[:3]:
                planned = world.observe("ssh", trial, origin, scanner,
                                        names)
                reference = observe_oracle.observe(
                    world, "ssh", trial, origin, scanner, names)
                assert_identical(reference, planned)
        assert world.plan("ssh", scanner) is plan
        assert {o.name for o in origins[:3]} <= set(plan.origin_policies)


class TestPlanCaching:
    def test_plan_is_cached_per_config(self, scenario):
        world, origins, config = scenario
        scanner = ZMapScanner(config)
        assert world.plan("http", scanner) is world.plan("http", scanner)
        # An equal config built independently hits the same cache entry.
        twin = ZMapScanner(dataclasses.replace(config))
        assert world.plan("http", twin) is world.plan("http", scanner)
        # A different seed is a different schedule → different plan.
        other = ZMapScanner(dataclasses.replace(config,
                                                seed=config.seed + 1))
        assert world.plan("http", other) is not world.plan("http", scanner)

    def test_plan_pickle_round_trip(self, scenario):
        """Plans are plain data; a pickled copy is field-for-field equal."""
        world, origins, config = scenario
        names = tuple(o.name for o in origins)
        scanner = ZMapScanner(config)
        world.observe("http", 0, origins[0], scanner, names)
        plan = world.plan("http", scanner)
        copy = pickle.loads(pickle.dumps(plan))
        assert isinstance(copy, ObservationPlan)
        assert copy.protocol == plan.protocol
        np.testing.assert_array_equal(copy.eligible_full,
                                      plan.eligible_full)
        np.testing.assert_array_equal(copy.base_first_full,
                                      plan.base_first_full)
        assert copy.origin_policies == plan.origin_policies

    def test_world_pickle_drops_and_rebuilds_plans(self, scenario):
        """The process-executor payload carries no plans; workers rebuild
        them identically (every draw is counter-addressed)."""
        world, origins, config = scenario
        names = tuple(o.name for o in origins)
        scanner = ZMapScanner(config)
        world.plan("http", scanner)   # populate the cache
        clone = pickle.loads(pickle.dumps(world))
        assert clone._plans == {}
        a = world.observe("http", 1, origins[1], scanner, names)
        b = clone.observe("http", 1, origins[1], scanner, names)
        assert_identical(a, b)


class TestCampaignEquivalence:
    def test_campaign_planned_matches_unplanned(self, scenario):
        world, origins, config = scenario
        planned = run_campaign(world, origins, config, executor="serial")
        reference = observe_oracle.run_campaign(world, origins, config)
        assert signature(planned) == signature(reference)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_campaign_planned_across_backends(self, scenario, backend):
        """Plans cross (or are rebuilt behind) the worker boundary without
        perturbing a single byte."""
        world, origins, config = scenario
        reference = observe_oracle.run_campaign(world, origins, config,
                                                protocols=("http", "ssh"))
        parallel_planned = run_campaign(world, origins, config,
                                        protocols=("http", "ssh"),
                                        executor=backend, workers=2)
        assert signature(reference) == signature(parallel_planned)


class TestTelemetryEquivalence:
    """Telemetry is pure observation: instrumented and uninstrumented
    runs are byte-identical, and the observation-level counters agree
    with the oracle's grid."""

    def test_telemetry_does_not_perturb_observation(self, scenario):
        world, origins, config = scenario
        names = tuple(o.name for o in origins)
        scanner = ZMapScanner(config)
        bare = world.observe("http", 0, origins[0], scanner, names)
        with Telemetry():
            instrumented = world.observe("http", 0, origins[0],
                                         scanner, names)
        assert_identical(bare, instrumented)
        assert_identical(observe_oracle.observe(
            world, "http", 0, origins[0], scanner, names), instrumented)

    def test_campaign_telemetry_does_not_perturb_dataset(self, scenario):
        world, origins, config = scenario
        bare = run_campaign(world, origins, config, protocols=("http",),
                            n_trials=2)
        with Telemetry() as tel:
            instrumented = run_campaign(world, origins, config,
                                        protocols=("http",), n_trials=2,
                                        telemetry=tel)
        assert signature(bare) == signature(instrumented)

    def test_planned_and_unplanned_agree_on_observe_counters(
            self, scenario):
        """The observation-level counters describe the output, not the
        implementation: one call, the row count and the probes sent per
        grid cell — exactly what the oracle's per-cell grid produces."""
        world, origins, config = scenario
        shared = ("observe.calls", "observe.services",
                  "observe.probes_sent")
        with Telemetry() as tel:
            run_campaign(world, origins, config, protocols=("http",),
                         n_trials=2, telemetry=tel)
        counted = {key: value
                   for key, value in tel.counters.totals().items()
                   if key[0] in shared}
        assert {name for name, _ in counted} == set(shared)

        expected = {}
        reference = observe_oracle.run_campaign(
            world, origins, config, protocols=("http",), n_trials=2)
        for table in reference:
            for origin in table.origins:
                attrs = (("origin", origin), ("protocol", "http"))
                n = len(table.ip)
                for name, value in (("observe.calls", 1),
                                    ("observe.services", n),
                                    ("observe.probes_sent",
                                     n * config.n_probes)):
                    key = (name, attrs)
                    expected[key] = expected.get(key, 0) + value
        assert counted == expected

    def test_stage_spans_only_on_planned_path(self, scenario):
        """The kernel emits one stage span per stage; the oracle emits
        no telemetry at all."""
        world, origins, config = scenario
        names = tuple(o.name for o in origins)
        scanner = ZMapScanner(config)

        with Telemetry() as tel:
            world.observe("http", 0, origins[0], scanner, names)
        spans = [r["name"] for r in tel.records if r["t"] == "span"]
        assert {name for name in spans if name.startswith("observe.")} \
            == {f"observe.batched.{s}" for s in STAGES}

        with Telemetry() as tel:
            observe_oracle.observe(world, "http", 0, origins[0], scanner,
                                   names)
        assert tel.records == []


class TestProfileMetadata:
    def test_execution_metadata_records_stages(self, scenario):
        world, origins, config = scenario
        dataset = run_campaign(world, origins, config,
                               protocols=("http",), n_trials=2)
        stages = dataset.metadata["execution"]["stages"]
        assert set(stages) == set(STAGES)
        assert all(seconds >= 0.0 for seconds in stages.values())

    def test_observe_fills_caller_profile(self, scenario):
        world, origins, config = scenario
        names = tuple(o.name for o in origins)
        scanner = ZMapScanner(config)
        profile = ObserveProfile()
        world.observe("http", 0, origins[0], scanner, names,
                      profile=profile)
        assert profile.n_observations == 1
        assert set(profile.stage_s) == set(STAGES)
        assert profile.total_s > 0.0
        rendered = profile.render()
        for stage in STAGES:
            assert stage in rendered

    def test_plan_profile_accumulates(self, scenario):
        """One profile meters any number of calls, trial by trial."""
        world, origins, config = scenario
        names = tuple(o.name for o in origins)
        scanner = ZMapScanner(config)
        profile = ObserveProfile()
        world.observe("https", 0, origins[0], scanner, names,
                      profile=profile)
        world.observe("https", 1, origins[0], scanner, names,
                      profile=profile)
        assert profile.n_observations == 2
        assert profile.stage_calls["l7"] == 2
