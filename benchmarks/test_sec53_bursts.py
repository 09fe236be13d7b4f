"""§5.3 — burst outages behind transient loss.

Paper: 14–36 % of transient loss coincides with detectable hour-scale
bursts; ~60 % of bursts hit a single origin and ≥91 % hit three or fewer;
Australia is the single-origin victim 30–40 % of the time.  Those claims
are asserted at seeds 1-3 in ``tests/test_paper_claims.py``; this bench
times the detector and prints its statistics.
"""

from benchmarks.conftest import bench_once
from repro.core.bursts import burst_report
from repro.reporting.figures import render_bars


def test_sec53_burst_outages(benchmark, paper_ds):
    report = bench_once(benchmark,
                        lambda: burst_report(paper_ds, "http",
                                             min_misses=5))

    fractions = report.coincident_fraction()
    mean_fraction = float(fractions[report.transient_total > 0].mean())
    print()
    print(f"burst-coincident transient loss: mean {mean_fraction:.1%} "
          f"(paper 14–36%)")
    print(f"ASes with ≥1 transient miss: {report.ases_with_transient}, "
          f"with ≥1 detected burst: {report.ases_with_burst}")
    histogram = report.simultaneity_histogram()
    print(render_bars({f"{k} origin(s)": v
                       for k, v in sorted(histogram.items())},
                      fmt="{:,.0f}", title="burst simultaneity"))
    shares = report.single_origin_burst_shares()
    print(render_bars(shares, title="single-origin burst victim shares"))

