"""Distributed tracing: identity, propagation, exporters, rotation.

The tentpole contract under test: one trace ID, minted per campaign (or
supplied per serve request), reaches every span the work produces —
through ``SingleFlight``, across the executor's pickle boundary inside
``JobResult`` snapshots, and into per-shard streaming spans — and the
journal reassembles into a single correlated span tree that the Chrome
trace-event and collapsed-stack exporters can render.  Alongside:
journal size rotation, ``--last`` journal discovery, and the
determinism of traced snapshots (serial/thread/process span-name counts
stay byte-identical with trace IDs flowing).
"""

from __future__ import annotations

import json
import os
import pickle

import pytest

from repro.sim.campaign import run_campaign
from repro.sim.executor import (ProcessExecutor, SerialExecutor,
                                ThreadExecutor, run_job)
from repro.sim.scenario import paper_sharded_scenario, small_scenario
from repro.sim.shard import run_sharded_campaign
from repro.telemetry import (Telemetry, read_journal, use)
from repro.telemetry.journal import find_latest_journal
from repro.telemetry.tracing import (TRACE_ID_HEX_CHARS, TraceContext,
                                     chrome_trace, collapsed_stacks,
                                     new_trace_id, trace_ids,
                                     valid_trace_id)


class TestTraceIdentity:
    def test_new_trace_id_shape(self):
        tid = new_trace_id()
        assert len(tid) == TRACE_ID_HEX_CHARS
        assert valid_trace_id(tid)
        assert new_trace_id() != tid  # 128 bits: no collisions in tests

    @pytest.mark.parametrize("bad", [
        None, 123, "", "short", "g" * 32, "A" * 32,
        "0" * 31, "0" * 33, b"0" * 32,
    ])
    def test_invalid_trace_ids_rejected(self, bad):
        assert not valid_trace_id(bad)

    def test_trace_context_pickles_and_rebases(self):
        ctx = TraceContext(new_trace_id(), parent_span_id="3")
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone == ctx
        child = ctx.child("7")
        assert child.trace_id == ctx.trace_id
        assert child.parent_span_id == "7"


class TestCampaignTracePropagation:
    """One campaign, one trace ID, every span."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return small_scenario(seed=3)

    def _traced_journal(self, scenario, tmp_path, backend):
        world, origins, config = scenario
        path = tmp_path / f"{backend}.ndjson"
        tel = Telemetry(journal=path)
        with use(tel):
            run_campaign(world, origins, config, protocols=("http",),
                         n_trials=2, executor=backend, workers=2)
        tel.close()
        return tel.trace_id, read_journal(path)

    def test_campaign_mints_trace_when_absent(self, scenario, tmp_path):
        trace, journal = self._traced_journal(scenario, tmp_path, "serial")
        assert valid_trace_id(trace)
        assert all(span.get("trace") == trace for span in journal.spans)

    def test_existing_trace_is_not_overwritten(self, scenario, tmp_path):
        world, origins, config = scenario
        preset = new_trace_id()
        tel = Telemetry(trace_id=preset)
        with use(tel):
            run_campaign(world, origins, config, protocols=("http",),
                         n_trials=1)
        assert tel.trace_id == preset

    def test_trace_crosses_process_pickle_boundary(self, scenario,
                                                   tmp_path):
        """Worker processes stamp the parent's trace on their snapshots."""
        trace, journal = self._traced_journal(scenario, tmp_path, "process")
        jobs = [s for s in journal.spans if s["name"] == "executor.job"]
        # Batched granularity: one trial-batch job per (protocol, origin)
        # = 1 protocol x 8 origins (CARINET joins from its first_trial).
        assert len(jobs) == 8
        assert all(span["trace"] == trace for span in jobs)
        # The snapshots were adopted: job spans carry re-namespaced ids
        # parented under the grid span.
        assert all("." in span["id"] for span in jobs)

    def test_traced_span_counts_identical_across_backends(self, scenario,
                                                          tmp_path):
        """Merge-order stability survives the added trace fields."""
        from repro.telemetry import is_deterministic_name
        counts, traces = {}, {}
        for backend in ("serial", "thread", "process"):
            trace, journal = self._traced_journal(scenario, tmp_path,
                                                  backend)
            counts[backend] = {name: count for name, count
                               in journal.span_name_counts().items()
                               if is_deterministic_name(name)}
            traces[backend] = trace_ids(journal)
        assert counts["serial"] == counts["thread"] == counts["process"]
        for backend, per_trace in traces.items():
            assert list(per_trace) == [max(per_trace)]  # one trace, no ""

    def test_job_snapshot_carries_trace_id(self, scenario):
        world, origins, config = scenario
        from repro.sim.campaign import build_trial_batches
        jobs = build_trial_batches(origins[:1], config, ("http",), 1)
        ctx = TraceContext(new_trace_id(), "9")
        result = run_job(world, jobs[0], collect=True, trace=ctx)
        assert result.telemetry["trace_id"] == ctx.trace_id
        # JobResult pickles with the trace inside (the process backend's
        # return path).
        clone = pickle.loads(pickle.dumps(result))
        assert clone.telemetry["trace_id"] == ctx.trace_id


class TestShardedTracePropagation:
    def test_sharded_run_single_trace_with_shard_spans(self, tmp_path):
        sharded, origins, config = paper_sharded_scenario(
            seed=0, scale=0.01, n_shards=4)
        path = tmp_path / "sharded.ndjson"
        tel = Telemetry(journal=path)
        with use(tel):
            run_sharded_campaign(sharded, origins, config,
                                 protocols=("http",), n_trials=1)
        tel.close()
        journal = read_journal(path)
        per_trace = trace_ids(journal)
        assert list(per_trace) == [tel.trace_id]
        streams = [s for s in journal.spans if s["name"] == "shard.stream"]
        assert len(streams) == 4
        assert [s["attrs"]["shard"] for s in streams] == [0, 1, 2, 3]
        assert all(s["trace"] == tel.trace_id for s in streams)


class TestExporters:
    @pytest.fixture()
    def journal(self, tmp_path):
        path = tmp_path / "run.ndjson"
        tel = Telemetry(journal=path, trace_id=new_trace_id())
        with use(tel):
            with tel.span("outer", kind="root"):
                with tel.span("inner"):
                    pass
                with tel.span("inner"):
                    pass
        tel.close()
        return read_journal(path)

    def test_chrome_trace_shape(self, journal):
        trace = chrome_trace(journal)
        assert trace["displayTimeUnit"] == "ms"
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in events] == ["inner", "inner", "outer"]
        for event in events:
            assert event["pid"] == 1
            assert event["dur"] >= 0
            assert event["args"]["trace"] == journal.header["trace_id"]
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert meta and meta[0]["args"]["name"] == "main"
        assert trace["otherData"]["n_spans"] == 3

    def test_chrome_trace_is_json_serializable(self, journal):
        payload = json.dumps(chrome_trace(journal))
        assert "traceEvents" in payload

    def test_collapsed_stacks_paths_and_self_time(self, journal):
        lines = collapsed_stacks(journal)
        paths = {line.rsplit(" ", 1)[0]: int(line.rsplit(" ", 1)[1])
                 for line in lines}
        assert set(paths) == {"outer", "outer;inner"}
        outer = next(s for s in journal.spans if s["name"] == "outer")
        inners = [s for s in journal.spans if s["name"] == "inner"]
        total_inner = sum(s["wall_s"] for s in inners)
        expected_self = max(outer["wall_s"] - total_inner, 0.0)
        assert paths["outer"] == pytest.approx(expected_self * 1e6, abs=2)

    def test_adopted_spans_get_worker_lanes(self, tmp_path):
        path = tmp_path / "lanes.ndjson"
        parent = Telemetry(journal=path, trace_id=new_trace_id())
        child = Telemetry(trace_id=parent.trace_id)
        with use(child), child.span("executor.job"):
            pass
        parent.adopt(child.snapshot(), prefix="j0.")
        parent.close()
        trace = chrome_trace(read_journal(path))
        lanes = {e["tid"]: e["args"]["name"]
                 for e in trace["traceEvents"] if e["ph"] == "M"}
        assert "j0" in lanes.values()


class TestAdoptionTraceSemantics:
    def test_adopt_stamps_missing_trace_and_rebases_time(self):
        child = Telemetry()
        with use(child), child.span("work"):
            pass
        snap = child.snapshot()
        assert snap["trace_id"] is None
        parent = Telemetry(trace_id=new_trace_id())
        parent.adopt(snap, prefix="j0.")
        span = next(r for r in parent.records
                    if r["t"] == "span" and r["name"] == "work")
        assert span["trace"] == parent.trace_id
        # The adopted start offset was rebased into the parent timeline
        # by exactly the wall-clock origin difference.
        original = next(r for r in snap["records"]
                        if r["t"] == "span" and r["name"] == "work")
        shift = snap["unix0"] - parent._unix0
        assert span["start_s"] == pytest.approx(
            original["start_s"] + shift, abs=1e-5)

    def test_adopt_keeps_child_trace_when_present(self):
        child_trace = new_trace_id()
        child = Telemetry(trace_id=child_trace)
        with use(child), child.span("work"):
            pass
        parent = Telemetry(trace_id=new_trace_id())
        parent.adopt(child.snapshot(), prefix="j0.")
        span = next(r for r in parent.records
                    if r["t"] == "span" and r["name"] == "work")
        assert span["trace"] == child_trace


class TestJournalRotation:
    def _spans(self, tel, n):
        with use(tel):
            for index in range(n):
                with tel.span("work", index=index):
                    pass

    def test_rotation_produces_backups_and_headers(self, tmp_path):
        path = tmp_path / "rotating.ndjson"
        tel = Telemetry(journal=path, max_journal_bytes=4096,
                        journal_backups=2)
        self._spans(tel, 200)
        tel.close()
        assert os.path.exists(path)
        assert os.path.exists(f"{path}.1")
        assert os.path.exists(f"{path}.2")
        assert os.path.getsize(path) <= 4096 + 512  # one record of slack
        live = read_journal(path)
        assert live.header is not None
        assert live.header["rotated"] >= 1
        # No record is ever split across segments: every segment parses
        # with zero skipped lines.
        for segment in (path, f"{path}.1", f"{path}.2"):
            assert read_journal(segment).skipped == 0

    def test_tiny_budget_does_not_recurse(self, tmp_path):
        path = tmp_path / "tiny.ndjson"
        tel = Telemetry(journal=path, max_journal_bytes=8)
        self._spans(tel, 5)
        tel.close()
        assert read_journal(path).skipped == 0

    def test_no_rotation_without_budget(self, tmp_path):
        path = tmp_path / "plain.ndjson"
        tel = Telemetry(journal=path)
        self._spans(tel, 50)
        tel.close()
        assert not os.path.exists(f"{path}.1")


class TestFindLatestJournal:
    def test_picks_newest_ndjson_ignoring_backups(self, tmp_path):
        old = tmp_path / "a.ndjson"
        new = tmp_path / "b.ndjson"
        backup = tmp_path / "b.ndjson.1"
        for target in (old, new, backup):
            target.write_text("{}\n")
        os.utime(old, (1_000_000, 1_000_000))
        os.utime(backup, (3_000_000, 3_000_000))
        os.utime(new, (2_000_000, 2_000_000))
        assert find_latest_journal(tmp_path) == str(new)

    def test_empty_or_missing_dir(self, tmp_path):
        assert find_latest_journal(tmp_path) is None
        assert find_latest_journal(tmp_path / "absent") is None

    def test_env_dir_is_honored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOURNAL_DIR", str(tmp_path))
        (tmp_path / "run.ndjson").write_text("{}\n")
        assert find_latest_journal() == str(tmp_path / "run.ndjson")
