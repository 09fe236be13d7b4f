"""Figure 2 — breakdown of missing hosts by origin and trial.

Paper: transient misses are the majority overall (51.6 %) and nearly
always hit individual hosts rather than whole /24s (49.7 % vs 1.9 %);
about a third of misses are long-term; Censys' long-term losses dwarf
everyone else's.  Those claims are asserted at seeds 1-3 in
``tests/test_paper_claims.py``; this bench times the analysis and prints
the figure.
"""

from benchmarks.conftest import bench_once
from repro.core.classification import figure2_rows
from repro.reporting.figures import render_grouped_bars


def test_fig02_missing_breakdown(benchmark, paper_ds):
    rows = bench_once(benchmark, lambda: figure2_rows(paper_ds, "http"))

    groups = {}
    for row in rows:
        key = f"{row['origin']}/t{row['trial']}"
        groups[key] = {k: row[k] for k in
                       ("transient_host", "transient_network",
                        "long_term_host", "long_term_network", "unknown")}
    print()
    print(render_grouped_bars(groups,
                              title="Figure 2 (http) — missing hosts"))

