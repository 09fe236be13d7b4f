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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.bootstrap import (
    _replicate_stats,
    coverage_difference_interval,
    coverage_interval,
    coverage_intervals,
)
from repro.core.classification import breakdown_by_origin, classify_misses
from repro.core.dataset import align_ips
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
from repro.core.report import full_report
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
    @given(n=st.one_of(st.sampled_from([1, 2, 3, 64, 4097]),
                       st.integers(1, 20_000)),
           seed=st.integers(0, 2 ** 32 - 1), boolean=st.booleans())
    def test_replicate_stats_match_the_reference_draws(self, n, seed,
                                                       boolean):
        """The packed replicate loop (its own modulo, in place) against
        the reference loop's ``draws % n`` indices, value for value."""
        from repro.rng import CounterRNG

        values = np.random.default_rng(seed).random(n)
        if boolean:
            values = values < 0.5
        rng = CounterRNG(seed, "bootstrap-coverage")
        np.testing.assert_array_equal(
            _replicate_stats(rng, values, n, 12, "packed"),
            _replicate_stats(rng, values, n, 12, "reference"))

    def test_single_probe_interval(self, seeded_campaign):
        ds = seeded_campaign
        protocol = ds.protocols[0]
        table = ds.trial_data(protocol, 0)
        origin = table.origins[0]
        assert coverage_interval(table, origin, replicates=50,
                                 single_probe=True, engine="packed") == \
            coverage_interval(table, origin, replicates=50,
                              single_probe=True, engine="reference")


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
