"""Unit and integration tests for :mod:`repro.telemetry`.

Covers the collector core (spans, counters, histograms, the disabled
no-op path), the NDJSON journal round-trip (including malformed-line
tolerance), worker-snapshot adoption, run manifests, observe/campaign
instrumentation semantics, and the ``repro trace`` CLI.
"""

import json

import pytest

from repro import cli
from repro.io.ndjson import read_ndjson_records
from repro.scanner.zmap import ZMapScanner
from repro.sim.campaign import run_campaign
from repro.sim.scenario import paper_scenario
from repro.telemetry import (NULL, SCHEMA, CounterSet, HistogramSet,
                             Telemetry, build_manifest, config_hash,
                             current, disabled, is_deterministic_name,
                             read_journal, render_trace, use)
from repro.telemetry.render import render_counters, render_span_tree

SCALE = 0.02


@pytest.fixture(scope="module")
def scenario():
    return paper_scenario(seed=3, scale=SCALE)


@pytest.fixture(scope="module")
def campaign_journal(scenario, tmp_path_factory):
    """One instrumented campaign run, shared across read-side tests."""
    world, origins, config = scenario
    path = tmp_path_factory.mktemp("tel") / "run.ndjson"
    dataset = run_campaign(world, origins, config, protocols=("http",),
                           n_trials=2, executor="serial", telemetry=path)
    return dataset, path


# ----------------------------------------------------------------------
# Collector core
# ----------------------------------------------------------------------

class TestSpans:
    def test_nesting_and_parent_links(self):
        tel = Telemetry()
        with tel.span("outer", kind="test") as outer:
            with tel.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        names = [r["name"] for r in tel.records]
        assert names == ["inner", "outer"]  # close order
        inner_rec, outer_rec = tel.records
        assert inner_rec["parent"] == outer_rec["id"]
        assert outer_rec["parent"] is None
        assert outer_rec["attrs"] == {"kind": "test"}
        assert outer_rec["wall_s"] >= inner_rec["wall_s"] >= 0.0

    def test_late_attributes(self):
        tel = Telemetry()
        with tel.span("work") as span:
            span.set(n=7)
        assert tel.records[0]["attrs"] == {"n": 7}

    def test_error_attribution(self):
        tel = Telemetry()
        with pytest.raises(ValueError):
            with tel.span("doomed"):
                raise ValueError("boom")
        assert tel.records[0]["error"] == "ValueError"

    def test_span_event_is_child_of_open_span(self):
        tel = Telemetry()
        with tel.span("parent") as parent:
            tel.span_event("stage", 0.25, 0.2, stage="x")
        stage = tel.records[0]
        assert stage["t"] == "span"
        assert stage["parent"] == parent.span_id
        assert stage["wall_s"] == 0.25


class TestMetrics:
    def test_counter_aggregation_by_name_and_attrs(self):
        counters = CounterSet()
        counters.add("a", 1, origin="AU")
        counters.add("a", 2, origin="AU")
        counters.add("a", 5, origin="DE")
        counters.add("b", 1)
        totals = counters.totals()
        assert totals[("a", (("origin", "AU"),))] == 3
        assert totals[("a", (("origin", "DE"),))] == 5
        assert counters.total("a") == 8

    def test_merge_commutes(self):
        a, b = CounterSet(), CounterSet()
        a.add("x", 1)
        a.add("y", 2, k="v")
        b.add("y", 3, k="v")
        b.add("z", 4)
        ab, ba = CounterSet(), CounterSet()
        ab.merge_items(a.items())
        ab.merge_items(b.items())
        ba.merge_items(b.items())
        ba.merge_items(a.items())
        assert ab.totals() == ba.totals()

    def test_deterministic_totals_excludes_runtime_namespaces(self):
        counters = CounterSet()
        counters.add("observe.calls", 1)
        counters.add("cache.plan_hit", 1)
        counters.add("runtime.worker_jobs", 1, worker="w")
        names = {name for name, _ in counters.deterministic_totals()}
        assert names == {"observe.calls"}
        assert is_deterministic_name("observe.calls")
        assert not is_deterministic_name("cache.plan_hit")
        assert not is_deterministic_name("runtime.job_wall_s")

    def test_histogram_merge_matches_direct_observation(self):
        direct, left, right = (HistogramSet() for _ in range(3))
        for i, value in enumerate([1e-5, 0.02, 3.0, 250.0, 1e8]):
            direct.observe("v", value)
            (left if i % 2 else right).observe("v", value)
        merged = HistogramSet()
        merged.merge_items(left.items())
        merged.merge_items(right.items())
        assert merged.records() == direct.records()


class TestDisabledPath:
    def test_default_context_is_the_noop(self):
        assert current() is NULL
        assert disabled()
        assert not NULL.enabled

    def test_null_span_is_shared_and_inert(self):
        a = NULL.span("anything", k=1)
        b = NULL.span("else")
        assert a is b
        with a as span:
            span.set(ignored=True)
        NULL.count("x", 5)
        NULL.observe_value("y", 1.0)
        NULL.event("z")

    def test_use_restores_previous_context(self):
        tel = Telemetry()
        with use(tel):
            assert current() is tel
            assert not disabled()
        assert current() is NULL

    def test_context_manager_activates_and_closes(self, tmp_path):
        path = tmp_path / "run.ndjson"
        with Telemetry(journal=path) as tel:
            assert current() is tel
            tel.count("c", 2)
        assert current() is NULL
        journal = read_journal(path)
        assert journal.counter_totals()[("c", ())] == 2
        tel.close()  # idempotent


class TestAdoption:
    def test_adopt_renames_and_reparents(self):
        job = Telemetry()
        with job.span("job"):
            with job.span("step"):
                pass
        job.count("n", 1)
        parent = Telemetry()
        with parent.span("grid") as grid:
            grid_id = grid.span_id
            parent.adopt(job.snapshot(), prefix="j3.",
                         parent_id=grid_id)
        step, root = parent.records[0], parent.records[1]
        assert step["id"] == "j3.2" and step["parent"] == "j3.1"
        assert root["id"] == "j3.1" and root["parent"] == grid_id
        assert parent.counters.total("n") == 1


# ----------------------------------------------------------------------
# Journal round-trip
# ----------------------------------------------------------------------

class TestJournal:
    def test_round_trip_through_io_ndjson(self, tmp_path):
        path = tmp_path / "run.ndjson"
        tel = Telemetry(journal=path)
        with tel.span("root", k="v"):
            tel.event("mark", at=1)
        tel.count("c", 3, origin="AU")
        tel.observe_value("h", 0.5)
        tel.close()

        records, skipped = read_ndjson_records(path)
        assert skipped == 0
        # Two hist records: the explicit observation plus the
        # runtime.peak_rss_bytes gauge sampled at span exit.
        assert [r["t"] for r in records] == \
            ["run", "event", "span", "counter", "hist", "hist"]
        assert records[0]["schema"] == SCHEMA
        # Streamed records equal the in-memory collector's view.
        assert records[1:3] == tel.records
        assert records[3:] == tel.metric_records()

    def test_read_journal_groups_by_type(self, tmp_path):
        path = tmp_path / "run.ndjson"
        with Telemetry(journal=path) as tel:
            with tel.span("a"):
                pass
            tel.count("c", 1)
        journal = read_journal(path)
        assert journal.header["schema"] == SCHEMA
        assert journal.span_name_counts() == {"a": 1}
        assert journal.counter_totals() == {("c", ()): 1}
        assert journal.skipped == 0 and journal.unknown == 0

    def test_malformed_lines_skipped_never_fatal(self, tmp_path):
        path = tmp_path / "run.ndjson"
        with Telemetry(journal=path) as tel:
            with tel.span("ok"):
                pass
            tel.count("c", 1)
        with open(path, "a") as handle:
            handle.write('{"t": "span", "name": "trunc"')  # crash cut
            handle.write("\nnot json at all\n[1, 2, 3]\n\n")
        journal = read_journal(path)
        assert journal.skipped == 3
        assert journal.span_name_counts() == {"ok": 1}
        # The renderer must survive a damaged journal too.
        assert "malformed" in render_trace(journal)

    def test_unknown_record_types_are_counted(self, tmp_path):
        path = tmp_path / "run.ndjson"
        path.write_text('{"t": "future-kind", "x": 1}\n{"y": 2}\n')
        journal = read_journal(path)
        assert journal.unknown == 2
        assert journal.skipped == 0


# ----------------------------------------------------------------------
# Instrumented observe / campaign
# ----------------------------------------------------------------------

class TestObserveInstrumentation:
    def test_observe_emits_span_counters_and_stages(self, scenario):
        world, origins, config = scenario
        names = tuple(o.name for o in origins)
        scanner = ZMapScanner(config)
        with Telemetry() as tel:
            obs = world.observe("http", 0, origins[0], scanner, names)
        spans = {r["name"] for r in tel.records if r["t"] == "span"}
        assert "batch.stream" in spans
        for stage in ("filter", "schedule", "l4_static", "path", "l7"):
            assert f"observe.batched.{stage}" in spans
        totals = tel.counters.totals()
        key = ("observe.services",
               (("origin", origins[0].name), ("protocol", "http")))
        assert totals[key] == len(obs)
        assert tel.counters.total("observe.probes_sent") == \
            len(obs) * config.n_probes
        assert tel.counters.total("observe.calls") == 1
        assert tel.counters.total("observe.loss_draws") > 0

    def test_plan_cache_counters(self, scenario):
        world, origins, config = scenario
        scanner = ZMapScanner(config)
        world._plans.clear()
        with Telemetry() as tel:
            world.plan("https", scanner)
            world.plan("https", scanner)
        assert tel.counters.total("cache.plan_miss") == 1
        assert tel.counters.total("cache.plan_hit") == 1

    def test_blocked_host_causes_accounted(self, scenario):
        """Every blocked-host counter carries a cause attribute, and the
        static-path causes match the paper's blocking taxonomy."""
        world, origins, config = scenario
        names = tuple(o.name for o in origins)
        scanner = ZMapScanner(config)
        with Telemetry() as tel:
            for origin in origins:
                world.observe("http", 0, origin, scanner, names)
        causes = {dict(attrs).get("cause")
                  for (name, attrs), _ in tel.counters.totals().items()
                  if name == "observe.hosts_blocked"}
        assert causes  # the paper world always blocks someone
        assert causes <= {"reputation", "static", "regional", "ids",
                          "temporal_rst", "maxstartups"}


class TestCampaignTelemetry:
    def test_campaign_writes_journal_and_manifest(self, campaign_journal):
        dataset, path = campaign_journal
        journal = read_journal(path)
        assert journal.skipped == 0
        assert journal.header["schema"] == SCHEMA
        assert journal.manifest is not None
        manifest = journal.manifest
        assert manifest["backend"] == "serial"
        assert manifest["n_jobs"] == journal.span_name_counts()[
            "executor.job"]
        assert [t["trial"] for t in manifest["trials"]] == [0, 1]
        assert all(t["protocol"] == "http" for t in manifest["trials"])
        # The dataset points back at its journal.
        tel_meta = dataset.metadata["telemetry"]
        assert tel_meta["journal"] == str(path)
        assert tel_meta["manifest"]["config_hash"] == \
            manifest["config_hash"]

    def test_journal_lines_are_valid_json(self, campaign_journal):
        _, path = campaign_journal
        with open(path) as handle:
            for line in handle:
                record = json.loads(line)
                assert isinstance(record, dict) and "t" in record

    def test_span_tree_is_rooted_at_campaign_run(self, campaign_journal):
        _, path = campaign_journal
        journal = read_journal(path)
        by_id = {s["id"]: s for s in journal.spans}
        roots = {s["name"] for s in journal.spans
                 if s.get("parent") not in by_id}
        assert roots == {"campaign.run"}

    def test_caller_owned_collector_is_not_closed(self, scenario,
                                                  tmp_path):
        world, origins, config = scenario
        tel = Telemetry(journal=tmp_path / "own.ndjson")
        run_campaign(world, origins, config, protocols=("http",),
                     n_trials=1, telemetry=tel)
        # Still usable: the campaign must not have closed it.
        tel.count("after", 1)
        tel.close()
        journal = read_journal(tel.journal_path)
        assert journal.counter_totals()[("after", ())] == 1
        assert journal.manifest is not None

    def test_untelemetered_campaign_has_no_journal(self, scenario):
        world, origins, config = scenario
        dataset = run_campaign(world, origins, config,
                               protocols=("http",), n_trials=1)
        assert "telemetry" not in dataset.metadata


class TestManifest:
    def test_config_hash_tracks_field_changes(self, scenario):
        import dataclasses
        _, _, config = scenario
        assert config_hash(config) == config_hash(config)
        reseeded = dataclasses.replace(config, seed=config.seed + 1)
        assert config_hash(reseeded) != config_hash(config)

    def test_build_manifest_fields(self, scenario):
        world, origins, config = scenario
        with Telemetry() as tel:
            dataset = run_campaign(world, origins, config,
                                   protocols=("http",), n_trials=1,
                                   telemetry=tel)
        manifest = dataset.metadata["telemetry"]["manifest"]
        assert manifest["seed"] == config.seed
        assert manifest["world"]["seed"] == world.seed
        assert manifest["origins"] == [o.name for o in origins]
        assert manifest["protocols"] == ["http"]
        spans = manifest["trials"][0]["spans"]
        # Batched execution: one batch.stream span per (protocol, origin)
        # covers each of its trials, so trial 0 is covered by exactly the
        # origins that participate in it.
        assert spans["batch.stream"]["count"] == len(
            [o for o in origins if o.participates(0)])

    def test_git_describe_runs_once_in_the_package_directory(
            self, scenario, tmp_path, monkeypatch):
        from repro.telemetry import manifest as manifest_module
        calls = []
        run = manifest_module.subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(manifest_module.subprocess, "run", counting_run)
        manifest_module.git_describe.cache_clear()
        from_here = manifest_module.git_describe()
        manifest_module.git_describe.cache_clear()
        monkeypatch.chdir(tmp_path)  # not a checkout
        world, origins, config = scenario
        described = []
        for _ in range(2):
            with Telemetry() as tel:
                dataset = run_campaign(world, origins, config,
                                       protocols=("http",), n_trials=1,
                                       telemetry=tel)
            described.append(
                dataset.metadata["telemetry"]["manifest"]["git"])
        assert described == [from_here, from_here]
        assert len(calls) == 2  # one per cache fill, none per manifest


# ----------------------------------------------------------------------
# Rendering and the CLI
# ----------------------------------------------------------------------

class TestTraceRendering:
    def test_render_sections(self, campaign_journal):
        _, path = campaign_journal
        journal = read_journal(path)
        text = render_trace(journal)
        for needle in ("campaign.run", "executor.run_grid", "observe",
                       "manifest", "observe.probes_sent"):
            assert needle in text

    def test_same_name_siblings_fold(self, campaign_journal):
        _, path = campaign_journal
        journal = read_journal(path)
        lines = render_span_tree(journal)
        jobs = [line for line in lines if "executor.job" in line]
        assert len(jobs) == 1 and "×" in jobs[0]

    def test_depth_and_top_limits(self, campaign_journal):
        _, path = campaign_journal
        journal = read_journal(path)
        assert len(render_span_tree(journal, max_depth=0)) == 1
        assert len(render_counters(journal, top=3)) == 4  # 3 + "… more"

    def test_empty_journal_renders(self, tmp_path):
        path = tmp_path / "empty.ndjson"
        path.write_text("")
        text = render_trace(read_journal(path))
        assert "(no spans)" in text and "(no counters)" in text


class TestTraceCLI:
    def test_trace_command(self, campaign_journal, capsys):
        _, path = campaign_journal
        assert cli.main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "campaign.run" in out and "span tree" in out

    def test_trace_survives_malformed_journal(self, campaign_journal,
                                              tmp_path, capsys):
        _, path = campaign_journal
        damaged = tmp_path / "damaged.ndjson"
        damaged.write_text(path.read_text() + '{"t": "span", bad\n')
        assert cli.main(["trace", str(damaged)]) == 0
        captured = capsys.readouterr()
        assert "1 malformed" in captured.out

    def test_trace_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert cli.main(["trace", str(tmp_path / "nope.ndjson")]) == 1
        assert "cannot read journal" in capsys.readouterr().err

    def test_simulate_telemetry_flag(self, tmp_path, capsys):
        journal = tmp_path / "sim.ndjson"
        assert cli.main(["simulate", str(tmp_path / "ds"),
                         "--scale", "0.02", "--trials", "1",
                         "--protocols", "http",
                         "--telemetry", str(journal)]) == 0
        parsed = read_journal(journal)
        assert parsed.manifest is not None
        assert parsed.skipped == 0
        assert cli.main(["trace", str(journal)]) == 0
