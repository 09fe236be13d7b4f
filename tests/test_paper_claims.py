"""The paper's claims, gated at paper scale over seeds 1, 2 and 3.

Each claim is a shape assertion about one table or figure: an ordering,
a ratio, a crossover.  A claim that holds at one seed only would be a
calibration artifact, so every claim here must hold at every seed of
the sweep.  The HTTP campaign of each seed is built once per module.

Covered so far: Figure 2 (the missing-host breakdown) and §5.3 (burst
outages).  ``pytest benchmarks/ --benchmark-only -s`` still times these
analyses and prints the regenerated figures at seed 1.
"""

from __future__ import annotations

import pytest

from repro.core.bursts import burst_report
from repro.core.classification import figure2_rows
from repro.sim.campaign import run_campaign
from repro.sim.scenario import paper_scenario

SEEDS = (1, 2, 3)

FIGURE2_KEYS = ("transient_host", "transient_network", "long_term_host",
                "long_term_network", "unknown")


@pytest.fixture(scope="module", params=SEEDS, ids=lambda s: f"seed{s}")
def paper_http(request):
    """The main experiment's HTTP campaign: 3 trials × 8 origin configs."""
    world, origins, config = paper_scenario(seed=request.param)
    return run_campaign(world, origins, config, protocols=("http",),
                        n_trials=3, executor="serial")


class TestFigure2:
    """Transient misses are the majority overall (51.6 %) and nearly
    always hit individual hosts rather than whole /24s (49.7 % vs
    1.9 %); about a third are long-term; Censys' long-term losses dwarf
    everyone else's."""

    @pytest.fixture(scope="class")
    def rows(self, paper_http):
        return figure2_rows(paper_http, "http")

    def test_transient_dominates_and_is_host_level(self, rows):
        total = {k: sum(row[k] for row in rows) for k in FIGURE2_KEYS}
        transient = total["transient_host"] + total["transient_network"]
        long_term = total["long_term_host"] + total["long_term_network"]
        everything = transient + long_term + total["unknown"]
        assert transient > long_term
        assert total["transient_host"] > 10 * total["transient_network"]
        assert total["unknown"] > 0
        assert transient / everything > 0.35

    def test_censys_has_most_long_term_misses(self, rows):
        by_origin = {}
        for row in rows:
            by_origin[row["origin"]] = by_origin.get(row["origin"], 0) \
                + row["long_term_host"] + row["long_term_network"]
        assert max(by_origin, key=by_origin.get) == "CEN"

    @pytest.mark.parametrize("origin", ["AU", "US1", "JP"])
    def test_transient_beats_long_term_off_censys(self, rows, origin):
        own = [r for r in rows if r["origin"] == origin]
        transient = sum(r["transient_host"] + r["transient_network"]
                        for r in own)
        long_term = sum(r["long_term_host"] + r["long_term_network"]
                        for r in own)
        assert transient > long_term


class TestSection53Bursts:
    """14–36 % of transient loss coincides with detectable hour-scale
    bursts; ~60 % of bursts hit a single origin and ≥91 % hit three or
    fewer; Australia is the single-origin victim 30–40 % of the time."""

    @pytest.fixture(scope="class")
    def report(self, paper_http):
        return burst_report(paper_http, "http", min_misses=5)

    def test_minority_of_transient_loss_is_bursty(self, report):
        fractions = report.coincident_fraction()
        mean_fraction = float(fractions[report.transient_total > 0].mean())
        assert 0.03 < mean_fraction < 0.6

    def test_bursts_in_a_share_of_affected_ases(self, report):
        assert report.ases_with_burst > 0.05 * report.ases_with_transient

    def test_bursts_hit_few_origins(self, report):
        histogram = report.simultaneity_histogram()
        total = sum(histogram.values())
        assert histogram.get(1, 0) / total > 0.45
        assert sum(v for k, v in histogram.items() if k <= 3) / total \
            > 0.85

    def test_australia_is_the_main_single_origin_victim(self, report):
        shares = report.single_origin_burst_shares()
        assert max(shares, key=shares.get) == "AU"
        assert shares["AU"] > 0.2
