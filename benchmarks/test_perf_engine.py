"""Engine performance benchmarks (not a paper artifact).

Tracks the simulator's own throughput so regressions in the hot paths
(vectorized observation, trie compilation, classification) are visible.
A full paper-scale (protocol, trial, origin) observation covers ≈58 k
services and should stay in the tens of milliseconds.

Two observation benchmarks bracket the compiled-plan layer
(:mod:`repro.sim.plan`): ``single_observation`` (``World.observe``, a
one-trial call of the observation kernel) and
``single_observation_unplanned`` (the reference path in
``tests/observe_oracle.py``, which matches the pre-plan engine).  The
guard test asserts the plan actually pays for itself — the speedup is
algorithmic (cross-call caching + CSR AS grouping), so it is asserted on
any hardware, single-core included.
"""

import statistics
import time

from repro.core.classification import classify_misses
from repro.core.ground_truth import build_presence
from repro.scanner.zmap import ZMapScanner
from repro.sim.plan import ObserveProfile
from tests import observe_oracle

#: Minimum kernel-over-oracle speedup for one warm paper-scale
#: observation (acceptance criterion: ≥2×).
PLAN_SPEEDUP_FLOOR = 2.0


def test_perf_single_observation(benchmark, paper_world):
    """``World.observe`` (the kernel) with a warm plan."""
    world, origins, config = paper_world
    scanner = ZMapScanner(config)
    names = tuple(o.name for o in origins)
    au = origins[0]
    # Warm the plan and the lazily built per-AS parameter tables first.
    world.observe("http", 0, au, scanner, names)
    result = benchmark(
        lambda: world.observe("http", 0, au, scanner, names))
    assert len(result) > 50_000


def test_perf_single_observation_unplanned(benchmark, paper_world):
    """The reference oracle (the pre-plan engine baseline)."""
    world, origins, config = paper_world
    scanner = ZMapScanner(config)
    names = tuple(o.name for o in origins)
    au = origins[0]
    observe_oracle.observe(world, "http", 0, au, scanner, names)
    result = benchmark(
        lambda: observe_oracle.observe(world, "http", 0, au, scanner,
                                       names))
    assert len(result) > 50_000


def test_perf_plan_build(benchmark, paper_world):
    """Cold plan compilation (paid once per protocol × scanner config)."""
    world, origins, config = paper_world
    scanner = ZMapScanner(config)
    plan = benchmark(lambda: world._build_plan("http", scanner))
    assert len(plan.eligible_full) > 50_000


def test_perf_planned_speedup_guard(paper_world):
    """The kernel must beat the reference oracle by the acceptance floor.

    Measured with medians over repeated rounds so a scheduler hiccup in a
    single round cannot fail the guard; unlike the parallel-execution
    benchmarks this needs no CPU-count gate because the win is
    algorithmic, not concurrency.
    """
    world, origins, config = paper_world
    scanner = ZMapScanner(config)
    names = tuple(o.name for o in origins)
    au = origins[0]

    def median_ms(fn, rounds=12):
        fn()  # warm caches (plan, per-AS tables, loss params)
        samples = []
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        return statistics.median(samples) * 1000.0

    unplanned_ms = median_ms(
        lambda: observe_oracle.observe(world, "http", 0, au, scanner,
                                       names))
    profile = ObserveProfile()
    planned_ms = median_ms(
        lambda: world.observe("http", 0, au, scanner, names,
                              profile=profile))
    speedup = unplanned_ms / planned_ms
    print(f"\n[plan] oracle {unplanned_ms:.2f} ms, "
          f"kernel {planned_ms:.2f} ms, speedup {speedup:.2f}×")
    print(profile.render())

    assert planned_ms <= unplanned_ms, (
        f"kernel observation ({planned_ms:.2f} ms) slower than the "
        f"reference oracle ({unplanned_ms:.2f} ms)")
    assert speedup >= PLAN_SPEEDUP_FLOOR, (
        f"warm kernel observation is only {speedup:.2f}× faster than "
        f"the reference oracle (floor: {PLAN_SPEEDUP_FLOOR}×)")


def test_perf_presence_cube(benchmark, paper_ds):
    presence = benchmark(lambda: build_presence(paper_ds, "http"))
    assert presence.n_hosts() > 50_000


def test_perf_classification(benchmark, paper_ds):
    presence = build_presence(paper_ds, "http")
    cls = benchmark(lambda: classify_misses(paper_ds, "http", "AU",
                                            presence=presence))
    assert cls.category.shape[0] == 3
