"""Figures 15 and 17 — multi-origin coverage distributions.

Paper (HTTP): a single origin's single-probe scan covers a median 95.5 %;
two origins reach 98.3 %; three reach 99.1 % with σ = 0.08 %.  HTTPS gains
2–3 % from three origins; SSH needs far more origins for the same
coverage because probabilistic blocking hits everyone.

This benchmark times the tables and prints them; the claims are gated
at seeds 1–3 in ``tests/test_paper_claims.py`` (``TestFigures15And17``).
"""

from benchmarks.conftest import bench_once
from repro.core.multi_origin import best_combination, multi_origin_table
from repro.reporting.tables import render_table


def test_fig15_multi_origin_coverage(benchmark, paper_ds):
    tables = bench_once(
        benchmark,
        lambda: {(p, sp): multi_origin_table(paper_ds, p,
                                             single_probe=sp)
                 for p in ("http", "https", "ssh")
                 for sp in (True, False)})

    for (protocol, single), table in sorted(tables.items()):
        label = "1 probe" if single else "2 probes"
        rows = [[k, f"{s.median:.2%}", f"{s.q1:.2%}", f"{s.q3:.2%}",
                 f"{s.minimum:.2%}", f"{s.std:.3%}"]
                for k, s in table.items()]
        print()
        print(render_table(["k", "median", "q1", "q3", "min", "σ"], rows,
                           title=f"Figure 15/17 ({protocol}, {label})"))

    # The best pair is not necessarily composed of the best singles —
    # diversity matters (the paper's AU–US1 example).
    best_pair, pair_cov = best_combination(paper_ds, "http", 2)
    best_single, single_cov = best_combination(paper_ds, "http", 1)
    print(f"\nbest pair: {best_pair} at {pair_cov:.2%} "
          f"(best single {best_single[0]} at {single_cov:.2%})")
