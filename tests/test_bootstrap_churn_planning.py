"""Tests for bootstrap CIs, churn diagnostics, and origin planning."""

import numpy as np
import pytest

from repro.core.bootstrap import (
    Interval,
    coverage_difference_interval,
    coverage_interval,
    coverage_intervals,
)
from repro.core.churn_analysis import churn_report, unknown_budget
from repro.core.planning import diminishing_returns_k, recommend_origins
from tests.conftest import make_campaign, make_trial


def two_origin_trial(n=200, a_miss=20, b_miss=60):
    ips = list(range(1, n + 1))
    a = ["ok"] * (n - a_miss) + ["drop"] * a_miss
    b = ["drop"] * b_miss + ["ok"] * (n - b_miss)
    return make_trial("http", 0, ["A", "B"], ips, l7={"A": a, "B": b})


class TestBootstrap:
    def test_interval_contains_point(self):
        td = two_origin_trial()
        ci = coverage_interval(td, "A", replicates=200)
        assert ci.low <= ci.point <= ci.high
        assert ci.contains(ci.point)
        assert ci.point == pytest.approx(0.9)

    def test_interval_width_shrinks_with_n(self):
        narrow = coverage_interval(two_origin_trial(n=2000, a_miss=200),
                                   "A", replicates=200)
        wide = coverage_interval(
            two_origin_trial(n=50, a_miss=5, b_miss=10), "A",
            replicates=200)
        assert narrow.width() < wide.width()

    def test_deterministic(self):
        td = two_origin_trial()
        a = coverage_interval(td, "A", replicates=100, seed=3)
        b = coverage_interval(td, "A", replicates=100, seed=3)
        assert (a.low, a.high) == (b.low, b.high)
        c = coverage_interval(td, "A", replicates=100, seed=4)
        assert (a.low, a.high) != (c.low, c.high)

    def test_difference_interval_detects_real_gap(self):
        td = two_origin_trial(n=2000, a_miss=100, b_miss=400)
        ci = coverage_difference_interval(td, "A", "B", replicates=200)
        assert ci.point == pytest.approx(0.15, abs=0.01)
        assert ci.low > 0.0  # significant difference

    def test_difference_interval_straddles_zero_for_ties(self):
        n = 400
        ips = list(range(1, n + 1))
        # Same miss *rate*, disjoint missed hosts.
        a = ["drop"] * 40 + ["ok"] * (n - 40)
        b = ["ok"] * (n - 40) + ["drop"] * 40
        td = make_trial("http", 0, ["A", "B"], ips,
                        l7={"A": a, "B": b})
        ci = coverage_difference_interval(td, "A", "B", replicates=300)
        assert ci.contains(0.0)

    def test_validation(self):
        td = two_origin_trial()
        with pytest.raises(ValueError):
            coverage_interval(td, "A", replicates=5)
        with pytest.raises(ValueError):
            coverage_interval(td, "A", confidence=1.5)
        for replicates in (0, 1, 9):
            with pytest.raises(ValueError, match="at least 10 replicates"):
                coverage_difference_interval(td, "A", "B",
                                             replicates=replicates)
        for confidence in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError, match="confidence"):
                coverage_difference_interval(td, "A", "B",
                                             confidence=confidence)

    def test_intervals_for_all_origins(self):
        td = two_origin_trial()
        out = coverage_intervals(td, replicates=50)
        assert set(out) == {"A", "B"}
        assert all(isinstance(v, Interval) for v in out.values())


class TestChurn:
    def _campaign(self):
        # GT: trial0 {10,20,30}, trial1 {10,20,40}, trial2 {10,20,30}.
        tables = [
            make_trial("http", 0, ["A"], [10, 20, 30, 40],
                       l7={"A": ["ok", "ok", "ok", "none"]}),
            make_trial("http", 1, ["A"], [10, 20, 30, 40],
                       l7={"A": ["ok", "ok", "none", "ok"]}),
            make_trial("http", 2, ["A"], [10, 20, 30, 40],
                       l7={"A": ["ok", "ok", "ok", "none"]}),
        ]
        return make_campaign(tables)

    def test_report(self):
        report = churn_report(self._campaign(), "http")
        assert report.sizes == [3, 3, 3]
        assert report.universe == 4
        assert report.stable_hosts == 2          # 10, 20
        assert report.single_trial_hosts == 1    # 40
        assert report.jaccard[(0, 2)] == pytest.approx(1.0)
        assert report.jaccard[(0, 1)] == pytest.approx(2 / 4)
        assert report.min_jaccard() == pytest.approx(0.5)
        assert report.stable_fraction() == pytest.approx(0.5)

    def test_unknown_budget(self):
        # Single-trial appearances: host 40 once → 1 of 9 presence pairs.
        assert unknown_budget(self._campaign(), "http") \
            == pytest.approx(1 / 9)

    def test_simulated_world_mostly_stable(self, http_campaign):
        report = churn_report(http_campaign, "http")
        assert report.stable_fraction() > 0.8
        assert report.min_jaccard() > 0.85


class TestPlanning:
    def _campaign(self):
        """A sees {1..6}; B sees {5..9}; C sees {1..3, 10}.

        Best single: A (6).  Best addition to A: B (+3) not C (+1).
        """
        ips = list(range(1, 11))
        l7 = {
            "A": ["ok"] * 6 + ["none"] * 4,
            "B": ["none"] * 4 + ["ok"] * 5 + ["none"],
            "C": ["ok"] * 3 + ["none"] * 6 + ["ok"],
        }
        return make_campaign([make_trial("http", 0, ["A", "B", "C"],
                                         ips, l7=l7)])

    def test_greedy_order(self):
        plan = recommend_origins(self._campaign(), "http")
        assert plan.origins() == ["A", "B", "C"]
        assert plan.coverage_at(1) == pytest.approx(0.6)
        assert plan.coverage_at(2) == pytest.approx(0.9)
        assert plan.coverage_at(3) == pytest.approx(1.0)

    def test_marginal_gains_decrease(self):
        plan = recommend_origins(self._campaign(), "http")
        gains = [s.marginal_gain for s in plan.steps]
        assert gains == sorted(gains, reverse=True)

    def test_diminishing_returns(self):
        plan = recommend_origins(self._campaign(), "http")
        assert diminishing_returns_k(plan, threshold=0.2) == 2
        assert diminishing_returns_k(plan, threshold=0.01) == 3

    def test_coverage_at_validation(self):
        plan = recommend_origins(self._campaign(), "http")
        with pytest.raises(ValueError):
            plan.coverage_at(0)
        with pytest.raises(ValueError):
            plan.coverage_at(4)

    def test_empty_origins_rejected(self):
        with pytest.raises(ValueError):
            recommend_origins(self._campaign(), "http", origins=[])

    def test_simulated_plan_matches_paper_advice(self, http_campaign):
        """2-3 diverse origins exhaust the gains (§7)."""
        plan = recommend_origins(http_campaign, "http")
        assert plan.coverage_at(2) > plan.coverage_at(1)
        assert plan.coverage_at(3) > 0.985
        k = diminishing_returns_k(plan, threshold=0.005)
        assert k <= 4
