"""Differential serial-vs-parallel campaign equivalence tests.

The executor's correctness guarantee is that ``run_campaign`` output is
*byte-identical* across backends: every stochastic draw is
counter-addressed, every job carries its full context (trial-reseeded
config, ``first_trial``), and reassembly is ordered by job index, so
neither scheduling nor worker boundaries can leak into the data.  These
tests pin that guarantee differentially: serial vs thread vs process,
across seeds, shard counts, and worker counts.
"""

import dataclasses

import numpy as np
import pytest

from repro.blocking.ids import RateIDSSpec
from repro.core.dataset import CampaignDataset
from repro.origins import Origin
from repro.scanner.zmap import ZMapConfig, ZMapScanner
from repro.sim.campaign import build_trial_batches, run_campaign
from repro.sim.executor import ThreadExecutor
from repro.sim.scenario import build_world_from_specs, paper_scenario
from repro.sim.world import WorldDefaults
from repro.telemetry import Telemetry, is_deterministic_name
from repro.topology.asn import ASKind, ASSpec

#: Small but fully featured world: every named behaviour is present.
SCALE = 0.02

SEEDS = (3, 17)


def signature(dataset: CampaignDataset):
    """The byte-exact content of every trial table, in a comparable form."""
    return [
        (t.protocol, t.trial, tuple(t.origins),
         t.ip.tobytes(), t.as_index.tobytes(), t.country_index.tobytes(),
         t.geo_index.tobytes(), t.probe_mask.tobytes(), t.l7.tobytes(),
         t.time.tobytes())
        for t in sorted(dataset, key=lambda t: (t.protocol, t.trial))
    ]


@pytest.fixture(scope="module", params=SEEDS, ids=lambda s: f"seed{s}")
def seeded(request):
    seed = request.param
    world, origins, config = paper_scenario(seed=seed, scale=SCALE)
    serial = run_campaign(world, origins, config, executor="serial")
    return world, origins, config, serial


class TestBackendEquivalence:
    def test_serial_is_deterministic(self, seeded):
        world, origins, config, serial = seeded
        again = run_campaign(world, origins, config, executor="serial")
        assert signature(serial) == signature(again)

    def test_thread_matches_serial(self, seeded):
        world, origins, config, serial = seeded
        threaded = run_campaign(world, origins, config,
                                executor="thread", workers=4)
        assert signature(serial) == signature(threaded)

    def test_process_matches_serial(self, seeded):
        world, origins, config, serial = seeded
        processed = run_campaign(world, origins, config,
                                 executor="process", workers=2)
        assert signature(serial) == signature(processed)

    def test_worker_count_is_invisible(self, seeded):
        """Different pool sizes schedule differently; output must not."""
        world, origins, config, serial = seeded
        one = run_campaign(world, origins, config,
                           executor=ThreadExecutor(workers=1))
        three = run_campaign(world, origins, config,
                             executor=ThreadExecutor(workers=3))
        assert signature(one) == signature(three) == signature(serial)


class TestShardedEquivalence:
    @pytest.mark.parametrize("n_shards,shard", [(2, 0), (4, 3)])
    def test_sharded_campaign_matches_serial(self, n_shards, shard):
        """ZMap-style sharded configs survive every backend unchanged."""
        world, origins, config = paper_scenario(seed=9, scale=SCALE)
        sharded = dataclasses.replace(config, n_shards=n_shards,
                                      shard=shard)
        serial = run_campaign(world, origins, sharded,
                              protocols=("http",), executor="serial")
        threaded = run_campaign(world, origins, sharded,
                                protocols=("http",),
                                executor="thread", workers=4)
        processed = run_campaign(world, origins, sharded,
                                 protocols=("http",),
                                 executor="process", workers=2)
        assert signature(serial) == signature(threaded)
        assert signature(serial) == signature(processed)


class TestExecutionReport:
    def test_metadata_records_execution(self, seeded):
        world, origins, config, serial = seeded
        execution = serial.metadata["execution"]
        assert execution["backend"] == "serial"
        assert execution["workers"] == 1
        assert execution["n_jobs"] == len(
            build_trial_batches(origins, config,
                                ("http", "https", "ssh"), 3))
        assert execution["wall_s"] > 0
        assert execution["busy_s"] > 0

    def test_stage_totals_sorted_regardless_of_completion_order(
            self, seeded):
        """Regression: ``ExecutionReport.stage_s`` (and the metadata dict
        built from it) must be ordered by stage name, not by the
        nondeterministic order in which concurrent workers finished."""
        world, origins, config, _ = seeded
        for backend, workers in (("serial", None), ("thread", 4)):
            dataset = run_campaign(world, origins, config,
                                   protocols=("http",), n_trials=2,
                                   executor=backend, workers=workers)
            stages = dataset.metadata["execution"]["stages"]
            assert list(stages) == sorted(stages)
            assert set(stages) >= {"filter", "schedule", "l4_static",
                                   "path", "l7"}

    def test_progress_callback_counts_jobs(self, seeded):
        world, origins, config, _ = seeded
        seen = []
        run_campaign(world, origins, config, protocols=("http",),
                     n_trials=2,
                     progress=lambda done, total, job:
                         seen.append((done, total, job.index)))
        total = seen[0][1]
        assert len(seen) == total
        assert [done for done, _, _ in seen] == list(range(1, total + 1))
        assert sorted(index for _, _, index in seen) == list(range(total))


# ----------------------------------------------------------------------
# Telemetry determinism across backends
# ----------------------------------------------------------------------

def _campaign_telemetry(world, origins, config, backend, workers):
    """Counter totals and span-name counts of one instrumented run,
    restricted to the deterministic namespace (``cache.``/``runtime.``
    metrics are process-local diagnostics by contract)."""
    with Telemetry() as tel:
        run_campaign(world, origins, config, protocols=("http", "ssh"),
                     n_trials=2, executor=backend, workers=workers,
                     telemetry=tel)
    counters = tel.counters.deterministic_totals()
    spans = {}
    for record in tel.records:
        if record.get("t") != "span":
            continue
        name = record["name"]
        if is_deterministic_name(name):
            spans[name] = spans.get(name, 0) + 1
    return counters, spans


class TestTelemetryDeterminism:
    """Identical seeds ⇒ identical telemetry, regardless of backend.

    Wall/CPU times are hardware noise and ``cache.``/``runtime.``
    metrics are explicitly process-local, but everything else — counter
    totals and the multiset of span names — must be byte-identical
    across serial, thread, and process execution.
    """

    def test_counters_and_spans_match_across_backends(self, seeded):
        world, origins, config, _ = seeded
        serial = _campaign_telemetry(world, origins, config,
                                     "serial", None)
        threaded = _campaign_telemetry(world, origins, config,
                                       "thread", 4)
        processed = _campaign_telemetry(world, origins, config,
                                        "process", 2)
        assert serial[0] == threaded[0] == processed[0]
        assert serial[1] == threaded[1] == processed[1]

    def test_serial_rerun_is_identical(self, seeded):
        world, origins, config, _ = seeded
        first = _campaign_telemetry(world, origins, config,
                                    "serial", None)
        second = _campaign_telemetry(world, origins, config,
                                     "serial", None)
        assert first == second

    def test_journal_counter_records_byte_identical(self, seeded,
                                                    tmp_path):
        """The serialized counter records themselves (not just parsed
        totals) must match across backends for the same seed."""
        world, origins, config, _ = seeded

        def counter_lines(backend, workers, name):
            path = tmp_path / f"{name}.ndjson"
            run_campaign(world, origins, config, protocols=("http",),
                         n_trials=2, executor=backend, workers=workers,
                         telemetry=path)
            with open(path, "rb") as handle:
                return [line for line in handle.read().splitlines()
                        if b'"t":"counter"' in line
                        and b'"name":"cache.' not in line
                        and b'"name":"runtime.' not in line]

        serial = counter_lines("serial", None, "serial")
        threaded = counter_lines("thread", 3, "thread")
        processed = counter_lines("process", 2, "process")
        assert serial  # the campaign actually emitted counters
        assert serial == threaded == processed


# ----------------------------------------------------------------------
# first_trial in the job payload (late-join origins, rate-IDS carry-over)
# ----------------------------------------------------------------------

def _late_join_setup():
    """A tiny world where losing ``first_trial`` changes the output.

    The IDS AS detects every origin almost immediately by rate, but the
    detection *moment* is drawn late in the scan, so in an origin's first
    trial a slice of hosts is probed before detection and answers.  If a
    worker mistook trial 1 for a repeat trial (first_trial=0), the
    persistent block would silence that slice — a byte-visible bug.
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
    config = ZMapConfig(seed=5, pps=100_000.0, n_probes=2)
    return world, origins, config


class TestLateJoinFirstTrial:
    def test_setup_is_sensitive_to_first_trial(self):
        """Guard: the world actually distinguishes first_trial values."""
        world, origins, config = _late_join_setup()
        late = origins[1]
        names = tuple(o.name for o in origins)
        ids_index = world.topology.ases.by_name("IDS Net").index
        trial1 = dataclasses.replace(config, seed=config.seed + 1)

        def responding(first_trial):
            obs = world.observe("http", 1, late, ZMapScanner(trial1),
                                names, first_trial=first_trial)
            members = obs.as_index == ids_index
            return int((obs.probe_mask[members] > 0).sum())

        assert responding(first_trial=1) > 0   # pre-detection slice answers
        assert responding(first_trial=0) == 0  # treated as repeat: blocked

    def test_grid_carries_first_trial(self):
        world, origins, config = _late_join_setup()
        jobs = build_trial_batches(origins, config, ("http",),
                                   n_trials=3)
        late_jobs = [j for j in jobs if j.origin.name == "LATE"]
        assert [t for j in late_jobs for t in j.trials] == [1, 2]
        assert all(j.first_trial == 1 for j in late_jobs)
        base_jobs = [j for j in jobs if j.origin.name == "BASE"]
        assert all(j.first_trial == 0 for j in base_jobs)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_late_join_campaign_matches_serial(self, backend):
        """The regression proper: rate-IDS carry-over state survives the
        worker boundary, where a recomputed-per-worker first_trial would
        be easiest to lose."""
        world, origins, config = _late_join_setup()
        serial = run_campaign(world, origins, config, protocols=("http",),
                              n_trials=3, executor="serial")
        parallel = run_campaign(world, origins, config, protocols=("http",),
                                n_trials=3, executor=backend, workers=2)
        assert signature(serial) == signature(parallel)

        # And the semantics are right: LATE's first trial keeps the
        # pre-detection slice, its second trial is fully blocked.
        ids_index = world.topology.ases.by_name("IDS Net").index
        t1 = parallel.trial_data("http", 1)
        t2 = parallel.trial_data("http", 2)
        row1 = t1.origin_row("LATE")
        row2 = t2.origin_row("LATE")
        assert (t1.probe_mask[row1][t1.as_index == ids_index] > 0).any()
        assert (t2.probe_mask[row2][t2.as_index == ids_index] == 0).all()


# ----------------------------------------------------------------------
# Paper-scale differential test (the acceptance-criteria grid)
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_paper_scale_process_equivalence():
    """Full protocol × trial × origin grid at paper scale, serial vs
    process: the PR's headline guarantee."""
    world, origins, config = paper_scenario(seed=1)
    serial = run_campaign(world, origins, config, executor="serial")
    processed = run_campaign(world, origins, config,
                             executor="process", workers=2)
    assert signature(serial) == signature(processed)
    execution = processed.metadata["execution"]
    assert execution["backend"] == "process"
    assert execution["n_jobs"] == 24  # 3 protocols × 8 origins, batched
