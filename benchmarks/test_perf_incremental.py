"""Plane-granular incremental recomputation vs a whole-campaign miss.

Three isolated phases, each in a fresh subprocess (same discipline as
``test_perf_shard.py`` — peak RSS and caches stay per-phase), sharing
one plane-cache directory:

* **seed** — warm the plane cache with a 7-origin campaign observed
  under the full 8-origin universe (the state a serving host is in
  after any prior request touching this world).
* **cold** — the full 8-origin grid with the plane cache disabled:
  what an add-one-origin request costs today, when the whole-campaign
  result cache misses and every (protocol, origin) batch recomputes.
* **warm** — the same 8-origin grid through the plane cache: 7 origins
  hit, only the added origin's batches dispatch.

Correctness cross-checks are ungated: the warm grid is byte-identical
to the cold recompute, and the warm phase dispatched *exactly* the
missing batches (one job per protocol, ``misses == protocols ×
trials``).  The throughput floor — cold wall ≥
:data:`INCREMENTAL_SPEEDUP_FLOOR` × warm wall — is hardware-gated like
BENCH_1–7: single-CPU containers record the numbers without asserting.

Results land in their own ``BENCH_<n>.json`` trajectory artifact
(schema ``repro-bench-incremental-v1``).  Run with::

    make bench-incremental
    # = pytest benchmarks/test_perf_incremental.py -s
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from benchmarks.conftest import _available_cpus, _next_bench_path

SEED = 1
#: Gated floor: cold full-grid wall over warm add-one-origin wall.
INCREMENTAL_SPEEDUP_FLOOR = 5.0
#: The origin the warm request "adds" (any always-on origin works).
ADDED_ORIGIN = "CEN"

_PHASE_TEMPLATE = """
import hashlib, json, resource, sys, time
from repro.sim.scenario import paper_scenario
from repro.sim.shard import run_sharded_campaign

world, origins, config = paper_scenario(seed={seed}, scale=1.0)
universe = [o.name for o in origins]
selected = tuple(o for o in origins if o.name not in {dropped!r})
start = time.perf_counter()
result = run_sharded_campaign(world, selected, config, n_trials=3,
                              executor={executor!r}, workers={workers},
                              origin_universe=universe,
                              plane_cache={plane_cache})
wall = time.perf_counter() - start
grid = json.dumps(result.report(), sort_keys=True, default=str)
out = {{"wall_s": wall,
       "grid_sha": hashlib.sha256(grid.encode()).hexdigest(),
       "n_origins": len(selected),
       "execution": result.metadata["execution"],
       "plane_cache": result.metadata.get("plane_cache")}}
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if sys.platform != "darwin":
    peak *= 1024
out["peak_rss_bytes"] = int(peak)
print("RESULT " + json.dumps(out))
"""


def _run_phase(dropped, plane_cache, plane_dir, executor, workers) -> dict:
    script = _PHASE_TEMPLATE.format(
        seed=SEED, dropped=tuple(dropped), plane_cache=plane_cache,
        executor=executor, workers=workers)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_PLANE_CACHE_DIR"] = str(plane_dir)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=1800)
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = [l for l in proc.stdout.splitlines()
            if l.startswith("RESULT ")][-1]
    return json.loads(line[len("RESULT "):])


def test_perf_incremental_recompute():
    cpus = _available_cpus()
    executor = "process" if cpus > 1 else None
    workers = min(cpus, 8) if cpus > 1 else None
    plane_dir = Path(tempfile.mkdtemp(prefix="repro-bench-planes-"))

    seed_phase = _run_phase(dropped=(ADDED_ORIGIN,), plane_cache=True,
                            plane_dir=plane_dir, executor=executor,
                            workers=workers)
    cold = _run_phase(dropped=(), plane_cache=False, plane_dir=plane_dir,
                      executor=executor, workers=workers)
    warm = _run_phase(dropped=(), plane_cache=True, plane_dir=plane_dir,
                      executor=executor, workers=workers)

    phases = {"seed": seed_phase, "cold": cold, "warm": warm}
    for name, phase in phases.items():
        stats = phase.get("plane_cache") or {}
        print(f"\n[perf-incremental] {name:<5} {phase['wall_s']:6.1f}s  "
              f"{phase['n_origins']} origins  "
              f"peak {phase['peak_rss_bytes'] / 2 ** 20:.0f} MiB"
              + (f"  (hits {stats.get('hits', 0)}, "
                 f"misses {stats.get('misses', 0)})" if stats else ""),
              end="")
    speedup = cold["wall_s"] / warm["wall_s"]
    print(f"\n[perf-incremental] add-one-origin warm delta: "
          f"{speedup:.1f}x over cold miss")

    payload = {
        "schema": "repro-bench-incremental-v1",
        "written_utc": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": cpus,
        },
        "speedup_floor": INCREMENTAL_SPEEDUP_FLOOR,
        "added_origin": ADDED_ORIGIN,
        "executor": executor or "serial",
        "workers": workers or 1,
        "warm_speedup": round(speedup, 2),
        "phases": {
            name: {"wall_s": round(phase["wall_s"], 3),
                   "n_origins": phase["n_origins"],
                   "peak_rss_bytes": phase["peak_rss_bytes"],
                   "plane_cache": phase["plane_cache"]}
            for name, phase in phases.items()
        },
    }
    path = _next_bench_path()
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[perf-incremental] wrote {path.name}")

    # Correctness everywhere: the incremental grid is the cold grid.
    assert warm["grid_sha"] == cold["grid_sha"]
    # The warm run dispatched exactly the added origin's batches: one
    # job per protocol, one unit per (protocol, trial).
    n_protocols = 3
    stats = warm["plane_cache"]
    assert warm["execution"]["n_jobs"] == n_protocols
    assert stats["misses"] == n_protocols * 3
    assert stats["hits"] == seed_phase["plane_cache"]["stores"]
    assert cold["plane_cache"] is None

    if cpus > 1:
        assert speedup >= INCREMENTAL_SPEEDUP_FLOOR, (
            f"warm add-one-origin served at only {speedup:.2f}x the cold "
            f"full-grid cost (floor {INCREMENTAL_SPEEDUP_FLOOR}x)")
    else:  # pragma: no cover - depends on the host container
        print("[perf-incremental] single CPU: speedup floor recorded, "
              "not asserted")
