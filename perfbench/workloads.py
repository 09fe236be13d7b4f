"""The benchmark's workloads: inputs generated from a seed, and their ops.

Each workload loads a different set of layers heavily, so every later
performance claim has one workload where it should show and one where
it should not move (the one-line reasons are in ``BENCHMARK.json``):

* ``sharded_grid`` — a 2x world in 8 shards streamed by
  ``run_sharded_campaign`` in plane-only mode into an empty plane
  directory, rendered as the grid report.  Heavy: bootstrap intervals,
  the per-shard kernel (outage windows recomputed per shard), plane
  writes (528 units per op).  Light: ``full_report`` (never runs),
  result cache, serve.  One caller, closed loop; shards stream off the
  world cache after set-up.
* ``serve_mix`` — ``repro serve`` in its own process, on a cache primed
  by an earlier process, driven by one load generator with two
  closed-loop clients (at most nproc = 2 requests in flight): one cycles
  a hit set of 3 full reports (scale 0.2, ~4.9 MB entries read per
  hit), one walks add-one-origin ``grid`` partials over 3 primed
  3-origin bases interleaved with cold full reports for new seeds.
  Heavy: result-cache reads, serve overhead under a compute thread,
  plane reuse.  Each cold report builds a new world into the server's
  4-world LRU, which the 3 base worlds share, so a base can be evicted
  between its partials; hits never need a world once their keys are
  memoized at set-up.

Only the generated specs reach the program; its ``REPRO_*`` execution
knobs stay unset, so its defaults run.

The offline paper-scale report (scale 1.0 ``run_campaign`` then
``full_report``) is not a workload of its own: nine tenths of it is
Figure 2's pure-Python loop, whose speed on a shared 2-vCPU VM swings
by up to 1.6x for minutes at a time, and its run-to-run spread
(0.30-0.47 of the median over ten seeds) exceeded every bound a
benchmark may set.  Every layer it loads runs in serve_mix's cold full
reports, which the traced run breaks down section by section.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List

WORKLOADS = ("sharded_grid", "serve_mix")

#: The seed whose outputs are pinned in ``reference.json``.
DEFAULT_SEED = 0

SHARDED_SCALE = 2.0
SHARDS = 8
SERVE_SCALE = 0.2
HIT_SET = 3
BASES = 3
BASE_ORIGINS = 3
#: Upper bound on compute-client requests: one partial per (base, origin
#: not in it) and a cold report after each, more than a run completes.
COMPUTE_SEQUENCE = 24

#: The paper scenario's origin universe, in scenario order.  Serve
#: requests name origins, so the load generator needs them without
#: importing the program.
PAPER_ORIGINS = ("AU", "BR", "DE", "JP", "US1", "US64", "CEN", "CARINET")
#: Origins that scan only some trials (CARINET joins trial 0 only).
ORIGIN_TRIALS = {"CARINET": 1}
PROTOCOLS = 3
TRIALS = 3


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def world_seed(seed: int) -> int:
    """The scenario seed an offline workload builds its world from."""
    return seed % (2 ** 31)


def grid_json(result) -> str:
    """Render a streamed campaign as the serve layer's ``grid`` report."""
    return json.dumps(result.report(), sort_keys=True, indent=2,
                      default=str) + "\n"


def added_units(origin: str) -> int:
    """Plane units one added origin contributes: protocols x its trials."""
    return PROTOCOLS * ORIGIN_TRIALS.get(origin, TRIALS)


def serve_plan(seed: int) -> Dict[str, object]:
    """Every request spec serve_mix sends, generated from ``seed``.

    Seeds of the hit set, the grid bases and the cold reports are
    disjoint, so the two clients never request the same spec (no
    single-flight joins) and no compute request is ever a repeat.
    Grids use only origins that scan every trial, so every partial
    dispatches the same number of units (see :func:`added_units`).
    """
    rng = random.Random(seed)
    seeds = rng.sample(range(1, 2 ** 31), HIT_SET + BASES + COMPUTE_SEQUENCE)
    hits = [{"seed": s, "scale": SERVE_SCALE} for s in seeds[:HIT_SET]]
    grid_origins = [o for o in PAPER_ORIGINS if o not in ORIGIN_TRIALS]
    bases = []
    for s in seeds[HIT_SET:HIT_SET + BASES]:
        chosen = set(rng.sample(grid_origins, BASE_ORIGINS))
        bases.append({"seed": s, "scale": SERVE_SCALE, "report": "grid",
                      "origins": [o for o in PAPER_ORIGINS if o in chosen]})
    partials = []
    for base in bases:
        for origin in grid_origins:
            if origin not in base["origins"]:
                merged = set(base["origins"]) | {origin}
                partials.append(({**base, "origins": [
                    o for o in PAPER_ORIGINS if o in merged]}, origin))
    rng.shuffle(partials)
    cold = iter(seeds[HIT_SET + BASES:])
    compute: List[dict] = []
    for spec, origin in partials:
        if len(compute) >= COMPUTE_SEQUENCE:
            break
        compute.append({"class": "partial", "spec": spec,
                        "added": origin, "units": added_units(origin)})
        compute.append({"class": "miss",
                        "spec": {"seed": next(cold), "scale": SERVE_SCALE}})
    return {"hits": hits, "bases": bases, "compute": compute}
