"""Differential suite: the packed engine is byte-identical to reference.

Every analysis that grew an ``engine=`` parameter is run under both
engines — over simulated campaigns at several seeds, over hand-built
edge-case datasets, through ``full_report`` and through the CLI — and
the results are compared for *exact* equality (not approximate): the
packed rewrites are algebraically identical computations, so any
difference at all is a bug.

Also covers the shared :class:`~repro.core.engine.AnalysisContext`:
context-threaded calls must match context-less ones, and a full report
must perform exactly one presence-alignment pass per protocol
(asserted via the ``analysis.presence_build`` telemetry counter).
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import bootstrap
from repro.core.bootstrap import (
    SPLIT_MIN_DRAWS,
    _replicate_stats,
    coverage_difference_interval,
    coverage_interval,
    coverage_intervals,
)
from repro.core.classification import breakdown_by_origin, classify_misses
from repro.core.dataset import TrialData, align_ips
from repro.core.engine import (
    ENGINES,
    AnalysisContext,
    PackedTrial,
    clear_context_cache,
    dataset_fingerprint,
    get_context,
    resolve_engine,
)
from repro.core.exclusivity import exclusivity_report
from repro.core.ground_truth import build_presence
from repro.core.multi_origin import (
    best_combination,
    combo_coverages,
    combo_mean_coverage,
    multi_origin_table,
    probe_origin_tradeoff,
)
from repro.core.records import L7Status
from repro.core.report import full_report
from repro.core.streaming import StreamingCampaignResult, StreamingTrial
from repro.rng import CounterRNG
from repro.sim.campaign import run_campaign
from repro.sim.scenario import small_scenario
from repro.telemetry.context import Telemetry, use
from tests.conftest import make_campaign, make_trial

SEEDS = (3, 17, 29)


@pytest.fixture(scope="module", params=SEEDS)
def seeded_campaign(request):
    world, origins, config = small_scenario(seed=request.param)
    return run_campaign(world, origins, config, n_trials=3)


def summaries_as_tuples(table):
    return {k: (s.median, s.q1, s.q3, s.minimum, s.maximum, s.std,
                [(c.combo, c.trial, c.coverage) for c in s.samples])
            for k, s in table.items()}


# ----------------------------------------------------------------------
# Multi-origin enumeration
# ----------------------------------------------------------------------

class TestMultiOriginEquivalence:
    def test_combo_coverages_all_k(self, seeded_campaign):
        ds = seeded_campaign
        for protocol in ds.protocols:
            table = ds.trial_data(protocol, 0)
            for single_probe in (False, True):
                for k in range(1, len(table.origins) + 1):
                    packed = combo_coverages(table, k,
                                             single_probe=single_probe,
                                             engine="packed")
                    ref = combo_coverages(table, k,
                                          single_probe=single_probe,
                                          engine="reference")
                    assert [(c.combo, c.trial, c.coverage)
                            for c in packed] == \
                           [(c.combo, c.trial, c.coverage) for c in ref]

    def test_multi_origin_table(self, seeded_campaign):
        ds = seeded_campaign
        for protocol in ds.protocols:
            packed = multi_origin_table(ds, protocol, engine="packed")
            ref = multi_origin_table(ds, protocol, engine="reference")
            assert summaries_as_tuples(packed) == summaries_as_tuples(ref)

    def test_best_combination(self, seeded_campaign):
        ds = seeded_campaign
        for protocol in ds.protocols:
            assert best_combination(ds, protocol, 2, engine="packed") == \
                best_combination(ds, protocol, 2, engine="reference")

    def test_combo_mean_coverage(self, seeded_campaign):
        ds = seeded_campaign
        protocol = ds.protocols[0]
        combo = ds.origins_for(protocol)[:2]
        assert combo_mean_coverage(ds, protocol, combo, engine="packed") \
            == combo_mean_coverage(ds, protocol, combo,
                                   engine="reference")

    def test_probe_origin_tradeoff(self, seeded_campaign):
        ds = seeded_campaign
        protocol = ds.protocols[0]
        assert probe_origin_tradeoff(ds, protocol, engine="packed") == \
            probe_origin_tradeoff(ds, protocol, engine="reference")


# ----------------------------------------------------------------------
# Bootstrap intervals
# ----------------------------------------------------------------------

class TestBootstrapEquivalence:
    def test_coverage_interval(self, seeded_campaign):
        ds = seeded_campaign
        for protocol in ds.protocols:
            table = ds.trial_data(protocol, 0)
            for origin in table.origins:
                packed = coverage_interval(table, origin, replicates=80,
                                           engine="packed")
                ref = coverage_interval(table, origin, replicates=80,
                                        engine="reference")
                assert packed == ref

    def test_coverage_difference_interval(self, seeded_campaign):
        ds = seeded_campaign
        protocol = ds.protocols[0]
        table = ds.trial_data(protocol, 0)
        a, b = table.origins[:2]
        packed = coverage_difference_interval(table, a, b, replicates=80,
                                              engine="packed")
        ref = coverage_difference_interval(table, a, b, replicates=80,
                                           engine="reference")
        assert packed == ref

    def test_coverage_intervals(self, seeded_campaign):
        ds = seeded_campaign
        protocol = ds.protocols[-1]
        table = ds.trial_data(protocol, 1)
        assert coverage_intervals(table, replicates=50,
                                  engine="packed") == \
            coverage_intervals(table, replicates=50, engine="reference")

    @settings(max_examples=40, deadline=None)
    @given(n=st.one_of(st.sampled_from([1, 2, 3, 64, 4097,
                                        SPLIT_MIN_DRAWS - 1,
                                        SPLIT_MIN_DRAWS, 40_009]),
                       st.integers(1, 70_000)),
           replicates=st.sampled_from([12, 13]),
           cpus=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1), boolean=st.booleans())
    @example(n=SPLIT_MIN_DRAWS - 1, replicates=13, cpus=2, seed=1,
             boolean=True)
    @example(n=SPLIT_MIN_DRAWS, replicates=13, cpus=4, seed=2,
             boolean=True)
    @example(n=40_009, replicates=13, cpus=3, seed=3, boolean=False)
    @example(n=70_000, replicates=12, cpus=2, seed=4, boolean=True)
    def test_replicate_stats_match_the_reference_draws(self, n, replicates,
                                                       cpus, seed,
                                                       boolean):
        """The packed replicate loop (its own modulo, in place), split
        or not, against the reference loop's ``draws % n`` indices,
        value for value.  The CPU probe is forced, so the split into
        1–4 parts runs on any host."""
        values = np.random.default_rng(seed).random(n)
        if boolean:
            values = values < 0.5
        rng = CounterRNG(seed, "bootstrap-coverage")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bootstrap, "_available_cpus", lambda: cpus)
            packed = _replicate_stats(rng, values, n, replicates, "packed")
        np.testing.assert_array_equal(
            packed, _replicate_stats(rng, values, n, replicates,
                                     "reference"))

    @pytest.mark.parametrize("n, cpus, parts", [
        (SPLIT_MIN_DRAWS, 2, 2),
        (SPLIT_MIN_DRAWS - 1, 2, 1),
        (SPLIT_MIN_DRAWS, 1, 1),
        (SPLIT_MIN_DRAWS, 16, 13),
    ])
    def test_replicates_split_one_part_per_cpu_from_the_threshold(
            self, monkeypatch, n, cpus, parts):
        """From ``SPLIT_MIN_DRAWS`` draws a replicate, the loop runs one
        part per CPU (never more than the replicates) on as many
        threads, the calling thread computing the first part itself;
        below it, one part on the calling thread."""
        started, part_threads = [], []

        class CountingThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        part = bootstrap._replicate_part

        def counting_part(*job):
            part_threads.append(threading.get_ident())
            part(*job)

        monkeypatch.setattr(bootstrap, "_available_cpus", lambda: cpus)
        monkeypatch.setattr(bootstrap, "Thread", CountingThread)
        monkeypatch.setattr(bootstrap, "_replicate_part", counting_part)
        values = np.random.default_rng(n).random(n) < 0.9
        rng = CounterRNG(5, "bootstrap-coverage")
        stats = _replicate_stats(rng, values, n, 13, "packed")
        assert len(part_threads) == parts
        assert len(started) == parts - 1
        assert part_threads.count(threading.get_ident()) == 1
        assert not any(thread.is_alive() for thread in started)
        np.testing.assert_array_equal(
            stats, _replicate_stats(rng, values, n, 13, "reference"))

    def test_split_intervals_from_concurrent_callers(self, monkeypatch):
        """Four callers, each splitting its own interval into four
        parts, under a short switch interval: every interval equals the
        one loop's."""
        n = SPLIT_MIN_DRAWS + 4_001
        inputs = [np.random.default_rng(seed).random(n) < 0.8
                  for seed in range(4)]
        rngs = [CounterRNG(seed, "bootstrap-coverage") for seed in range(4)]
        monkeypatch.setattr(bootstrap, "_available_cpus", lambda: 1)
        serial = [_replicate_stats(rng, values, n, 21, "packed")
                  for rng, values in zip(rngs, inputs)]
        monkeypatch.setattr(bootstrap, "_available_cpus", lambda: 4)
        results = [None] * 4

        def caller(i):
            results[i] = _replicate_stats(rngs[i], inputs[i], n, 21,
                                          "packed")

        callers = [threading.Thread(target=caller, args=(i,))
                   for i in range(4)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in callers)
        for got, want in zip(results, serial):
            np.testing.assert_array_equal(got, want)

    def test_a_part_error_raises_in_the_caller(self, monkeypatch):
        """``values`` shorter than ``n`` fails the gather in every part,
        and a part failing on a started thread alone fails the call too:
        the error reaches the caller once every part has stopped."""
        monkeypatch.setattr(bootstrap, "_available_cpus", lambda: 2)
        n = SPLIT_MIN_DRAWS + 1
        rng = CounterRNG(1, "bootstrap-coverage")
        before = threading.active_count()
        with pytest.raises(IndexError):
            _replicate_stats(rng, np.ones(n // 2, dtype=bool), n, 12,
                             "packed")
        assert threading.active_count() == before

        caller = threading.get_ident()
        part = bootstrap._replicate_part

        def failing_off_the_caller(*job):
            if threading.get_ident() != caller:
                raise IndexError("part failed on its own thread")
            part(*job)

        monkeypatch.setattr(bootstrap, "_replicate_part",
                            failing_off_the_caller)
        with pytest.raises(IndexError, match="on its own thread"):
            _replicate_stats(rng, np.ones(n, dtype=bool), n, 12, "packed")
        assert threading.active_count() == before

    def test_streamed_interval_above_the_split_threshold(self,
                                                         monkeypatch):
        """The streamed interval equals the dataset's at n ≥ 2**15 too,
        where both split the replicates (2 CPUs forced)."""
        monkeypatch.setattr(bootstrap, "_available_cpus", lambda: 2)
        n_hosts = 50_021
        gen = np.random.default_rng(8)
        origins = ["AU", "DE"]
        l7 = np.where(gen.random((2, n_hosts)) < 0.85,
                      int(L7Status.SUCCESS),
                      int(L7Status.NO_L4)).astype(np.uint8)
        table = TrialData(
            protocol="http", trial=1, origins=origins,
            ip=np.arange(n_hosts, dtype=np.uint32) * 3 + 7,
            as_index=gen.integers(0, 40, n_hosts),
            country_index=np.zeros(n_hosts, dtype=np.int64),
            geo_index=np.zeros(n_hosts, dtype=np.int64),
            probe_mask=np.full((2, n_hosts), 3, dtype=np.uint8),
            l7=l7, time=np.zeros((2, n_hosts), dtype=np.float32))
        assert int(table.ground_truth().sum()) >= SPLIT_MIN_DRAWS
        streaming = StreamingTrial(protocol="http", trial=1, n_ases=40)
        for lo, hi in ((0, 17_003), (17_003, 31_337), (31_337, n_hosts)):
            streaming.add_shard(_host_slice(table, lo, hi))
        result = StreamingCampaignResult({("http", 1): streaming})
        for origin in origins:
            assert result.coverage_interval(
                "http", 1, origin, replicates=40, seed=9) == \
                coverage_interval(table, origin, replicates=40, seed=9)

    def test_single_probe_interval(self, seeded_campaign):
        ds = seeded_campaign
        protocol = ds.protocols[0]
        table = ds.trial_data(protocol, 0)
        origin = table.origins[0]
        assert coverage_interval(table, origin, replicates=50,
                                 single_probe=True, engine="packed") == \
            coverage_interval(table, origin, replicates=50,
                              single_probe=True, engine="reference")


def _host_slice(table, lo, hi):
    """Rows ``lo:hi`` of ``table``, as one shard of it."""
    return TrialData(
        protocol=table.protocol, trial=table.trial, origins=table.origins,
        ip=table.ip[lo:hi], as_index=table.as_index[lo:hi],
        country_index=table.country_index[lo:hi],
        geo_index=table.geo_index[lo:hi],
        probe_mask=table.probe_mask[:, lo:hi], l7=table.l7[:, lo:hi],
        time=table.time[:, lo:hi], n_probes=table.n_probes)


# ----------------------------------------------------------------------
# Full report and CLI
# ----------------------------------------------------------------------

class TestReportEquivalence:
    def test_full_report_identical(self, seeded_campaign):
        assert full_report(seeded_campaign, engine="packed") == \
            full_report(seeded_campaign, engine="reference")

    def test_env_default_respected(self, seeded_campaign, monkeypatch):
        monkeypatch.setenv("REPRO_ANALYSIS_ENGINE", "reference")
        assert resolve_engine(None) == "reference"
        via_env = full_report(seeded_campaign)
        monkeypatch.delenv("REPRO_ANALYSIS_ENGINE")
        assert resolve_engine(None) == "packed"
        assert via_env == full_report(seeded_campaign)

    def test_resolve_engine_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown analysis engine"):
            resolve_engine("quantum")
        assert set(ENGINES) == {"packed", "reference"}


class TestCLIEquivalence:
    @pytest.fixture(scope="class")
    def dataset_dir(self, tmp_path_factory):
        target = tmp_path_factory.mktemp("engine-cli")
        assert main(["simulate", str(target), "--scale", "0.04",
                     "--trials", "2", "--protocols", "http", "ssh",
                     "--seed", "23"]) == 0
        return target

    def test_report_engine_flag(self, dataset_dir, capsys):
        assert main(["report", str(dataset_dir),
                     "--engine", "packed"]) == 0
        packed = capsys.readouterr().out
        assert main(["report", str(dataset_dir),
                     "--engine", "reference"]) == 0
        ref = capsys.readouterr().out
        assert packed == ref
        assert packed.strip()


# ----------------------------------------------------------------------
# Shared context
# ----------------------------------------------------------------------

class TestContextSharing:
    def test_classifications_match_without_context(self, seeded_campaign):
        ds = seeded_campaign
        protocol = ds.protocols[0]
        context = AnalysisContext(ds, protocol)
        with_ctx = breakdown_by_origin(ds, protocol, context=context)
        without = breakdown_by_origin(ds, protocol)
        assert set(with_ctx) == set(without)
        for origin in with_ctx:
            a, b = with_ctx[origin], without[origin]
            assert a.trials == b.trials
            assert np.array_equal(a.category, b.category)
            assert np.array_equal(a.present, b.present)

    def test_classify_misses_with_context(self, seeded_campaign):
        ds = seeded_campaign
        protocol = ds.protocols[0]
        origin = ds.origins_for(protocol)[0]
        context = AnalysisContext(ds, protocol)
        a = classify_misses(ds, protocol, origin, context=context)
        b = classify_misses(ds, protocol, origin)
        assert np.array_equal(a.category, b.category)

    def test_exclusivity_with_context(self, seeded_campaign):
        ds = seeded_campaign
        protocol = ds.protocols[0]
        context = AnalysisContext(ds, protocol)
        a = exclusivity_report(ds, protocol, context=context)
        b = exclusivity_report(ds, protocol)
        assert a.table1() == b.table1()
        assert np.array_equal(a.long_term, b.long_term)
        assert np.array_equal(a.ever_accessible, b.ever_accessible)

    def test_context_memoizes_presence(self, seeded_campaign):
        ds = seeded_campaign
        protocol = ds.protocols[0]
        context = AnalysisContext(ds, protocol)
        first = context.presence()
        # Explicitly naming the default origin set hits the same entry.
        again = context.presence(origins=ds.origins_for(protocol))
        assert first is again

    def test_get_context_memoizes_on_fingerprint(self, seeded_campaign):
        clear_context_cache()
        try:
            ds = seeded_campaign
            protocol = ds.protocols[0]
            a = get_context(ds, protocol)
            b = get_context(ds, protocol)
            assert a is b
            assert a.fingerprint == dataset_fingerprint(ds)
        finally:
            clear_context_cache()

    def test_full_report_builds_presence_once_per_protocol(
            self, seeded_campaign):
        clear_context_cache()
        try:
            tel = Telemetry()
            with use(tel):
                full_report(seeded_campaign)
            builds = {}
            for record in tel.metric_records():
                if record["name"] == "analysis.presence_build":
                    builds[record["attrs"]["protocol"]] = record["value"]
            assert builds == {protocol: 1
                              for protocol in seeded_campaign.protocols}
        finally:
            clear_context_cache()

    def test_fingerprint_changes_with_data(self, seeded_campaign):
        base = dataset_fingerprint(seeded_campaign)
        tables = [t for t in seeded_campaign]
        mutated = make_campaign(tables[:-1],
                                metadata=seeded_campaign.metadata)
        assert dataset_fingerprint(mutated) != base


# ----------------------------------------------------------------------
# Edge cases (hand-built datasets), both engines agreeing
# ----------------------------------------------------------------------

class TestEdgeCases:
    def test_single_trial_dataset(self):
        ds = make_campaign([
            make_trial("http", 0, ["A", "B"], [10, 20, 30], l7={
                "A": ["ok", "none", "ok"],
                "B": ["none", "ok", "ok"]}),
        ])
        presence = build_presence(ds, "http")
        assert presence.present.shape == (1, 3)
        for k in (1, 2):
            packed = combo_coverages(ds.trial_data("http", 0), k,
                                     engine="packed")
            ref = combo_coverages(ds.trial_data("http", 0), k,
                                  engine="reference")
            assert [(c.combo, c.coverage) for c in packed] == \
                [(c.combo, c.coverage) for c in ref]
        assert summaries_as_tuples(
            multi_origin_table(ds, "http", engine="packed")) == \
            summaries_as_tuples(
                multi_origin_table(ds, "http", engine="reference"))

    def test_disjoint_trial_universes(self):
        ds = make_campaign([
            make_trial("http", 0, ["A", "B"], [10, 20], l7={
                "A": ["ok", "ok"], "B": ["ok", "none"]}),
            make_trial("http", 1, ["A", "B"], [30, 40], l7={
                "A": ["none", "ok"], "B": ["ok", "ok"]}),
        ])
        presence = build_presence(ds, "http")
        assert presence.n_hosts() == 4
        # Each trial only "presents" its own half of the universe.
        assert int(presence.present[0].sum()) == 2
        assert int(presence.present[1].sum()) == 2
        assert summaries_as_tuples(
            multi_origin_table(ds, "http", engine="packed")) == \
            summaries_as_tuples(
                multi_origin_table(ds, "http", engine="reference"))

    def test_origin_missing_from_one_trial(self):
        # The Carinet rule: an origin absent from a trial is dropped from
        # the aggregate origin set, but per-trial analyses still see it.
        ds = make_campaign([
            make_trial("http", 0, ["A", "B", "C"], [10, 20], l7={
                "A": ["ok", "ok"], "B": ["ok", "none"],
                "C": ["none", "ok"]}),
            make_trial("http", 1, ["A", "B"], [10, 20], l7={
                "A": ["ok", "none"], "B": ["ok", "ok"]}),
        ])
        assert ds.origins_for("http") == ["A", "B"]
        presence = build_presence(ds, "http")
        assert presence.origins == ["A", "B"]
        # combo including the partial origin: packed == reference.
        assert combo_mean_coverage(ds, "http", ["A", "C"],
                                   engine="packed") == \
            combo_mean_coverage(ds, "http", ["A", "C"],
                                engine="reference")
        assert summaries_as_tuples(
            multi_origin_table(ds, "http", engine="packed")) == \
            summaries_as_tuples(
                multi_origin_table(ds, "http", engine="reference"))

    def test_packed_trial_matches_boolean_algebra(self):
        ds = make_campaign([
            make_trial("http", 0, ["A", "B"], [10, 20, 30, 40, 50], l7={
                "A": ["ok", "none", "ok", "none", "ok"],
                "B": ["none", "ok", "ok", "none", "none"]}),
        ])
        table = ds.trial_data("http", 0)
        packed = PackedTrial(table)
        truth = table.ground_truth()
        assert packed.total == int(truth.sum())
        rows = packed.rows_for(["A", "B"])
        count = int(packed.union_counts(rows[None, :])[0])
        union = (table.accessible("A") | table.accessible("B")) & truth
        assert count == int(union.sum())

    def test_align_ips_edges(self):
        universe = np.array([10, 20, 30], dtype=np.uint32)
        # Empty query / empty universe.
        assert align_ips(np.array([], dtype=np.uint32), universe).size == 0
        empty = align_ips(universe, np.array([], dtype=np.uint32))
        assert np.array_equal(empty, np.array([-1, -1, -1]))
        # Disjoint sets: no position resolves.
        pos = align_ips(universe, np.array([40, 50], dtype=np.uint32))
        assert np.array_equal(pos, np.array([-1, -1, -1]))
        # Partial overlap keeps order.
        pos = align_ips(universe, np.array([20, 40], dtype=np.uint32))
        assert np.array_equal(pos, np.array([-1, 0, -1]))
