"""One benchmark process: prime caches, set up, or time ops.

    python3 perfbench/worker.py prime|setup|run|record --workload W --seed N \
        --scratch DIR [--seconds S | --ops K] [--trace]

Run by ``perfbench/run.py`` with ``PYTHONPATH`` pointing at the
program's ``src`` and ``REPRO_CACHE_DIR`` at a fresh per-run cache root.

* ``prime`` writes what a returning user already has on disk (shard
  segments; for serve_mix the hit set and the grid bases, whose report
  digests it prints).  ``record`` (serve_mix) also computes the whole
  compute sequence in-process: its output is ``reference.json``'s
  serve_mix entry for the default seed.
* ``setup`` (sharded_grid) imports and builds or loads the world,
  prints ``ready`` and exits: the parent times launch-to-ready.
* ``run`` does the same set-up, prints ``ready``, then times ops until
  ``--seconds`` have passed (or exactly ``--ops``).  With ``--trace``
  the set-up and each op run inside :class:`tracer.Tracer` regions with
  every layer wrapper installed and a telemetry collector active.

An op that raises is recorded with its error and the time it took, and
the loop goes on: a failed op is a measured outcome, not a crash.  The
last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext

import workloads


def _counter_totals(tel) -> dict:
    return dict(tel.counters.by_name()) if tel is not None else {}


class ShardedGrid:
    """Set-up and one op of the sharded_grid workload."""

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = workloads.world_seed(seed)
        self.scratch = scratch
        self.n_ops = 0

    def setup(self) -> None:
        from repro.sim.scenario import paper_sharded_scenario

        self.scenario = paper_sharded_scenario(
            seed=self.seed, scale=workloads.SHARDED_SCALE,
            n_shards=workloads.SHARDS)
        # First touch of every shard segment is world set-up; ops then
        # stream shards off the world cache.
        sharded = self.scenario[0]
        for index in range(sharded.n_shards):
            sharded.shard_hosts(index)

    def prepare(self) -> None:
        """Untimed: every op writes its planes into an empty directory."""
        planes = os.path.join(self.scratch, "planes")
        shutil.rmtree(planes, ignore_errors=True)
        self.plane_dir = os.path.join(planes, f"op{self.n_ops}")
        os.makedirs(self.plane_dir)

    def op(self) -> bytes:
        """Campaign call to finished report bytes."""
        from repro.sim.shard import run_sharded_campaign

        sharded, origins, config = self.scenario
        self.n_ops += 1
        result = run_sharded_campaign(sharded, origins, config,
                                      plane_dir=self.plane_dir)
        return workloads.grid_json(result).encode("utf-8")


def prime_serve(seed: int, scratch: str, record: bool = False) -> dict:
    """Write serve_mix's hit set and grid bases through the compute path.

    Returns their report digests; ``record`` also computes every
    compute-sequence report (the digests ``reference.json`` pins).
    """
    from repro.serve.handlers import ServeState, parse_request, run_request

    plan = workloads.serve_plan(seed)
    plan["compute"] = [item["spec"] for item in plan["compute"]] \
        if record else []
    state = ServeState(cache_dir=os.path.join(scratch, "serve"))
    return {kind: [workloads.sha256(run_request(parse_request(spec), state)
                                    .report.encode("utf-8"))
                   for spec in plan[kind]]
            for kind in ("hits", "bases", "compute")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=("prime", "setup", "run", "record"))
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--ops", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    serve = args.workload == "serve_mix"
    if serve and args.action not in ("prime", "record"):
        parser.error("serve_mix only primes or records here")
    if not serve and args.action == "record":
        parser.error("only serve_mix records a reference here")
    if serve:
        print(json.dumps(prime_serve(args.seed, args.scratch,
                                     record=args.action == "record")))
        return 0

    tracer = tel = None
    region = nullcontext
    activate = nullcontext()
    if args.trace:
        from repro.telemetry.context import Telemetry, use
        from tracer import Tracer

        tracer = Tracer()
        tracer.count_delta["planecache.store"] = "io.snapshot_bytes_written"
        tracer.install()
        tel = Telemetry()
        activate = use(tel)
        region = tracer.region

    work = ShardedGrid(args.seed, args.scratch)
    ops = []
    with activate:
        with region():
            work.setup()
        setup_counters = _counter_totals(tel)
        print("ready", flush=True)
        if args.action == "run":
            started = time.perf_counter()
            while True:
                work.prepare()
                with region():
                    t0 = time.perf_counter()
                    try:
                        data = work.op()
                    except Exception as error:  # noqa: BLE001 — a failed op
                        traceback.print_exc()
                        result = {"error": f"{type(error).__name__}: {error}"}
                    else:
                        result = {"sha256": workloads.sha256(data)}
                    result["s"] = time.perf_counter() - t0
                ops.append(result)
                if args.ops and len(ops) >= args.ops:
                    break
                if not args.ops and \
                        time.perf_counter() - started >= args.seconds:
                    break
    if args.action == "prime":
        print(json.dumps({}))
        return 0
    out = {"ops": ops,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024.0}
    if tracer is not None:
        out.update(trace=tracer.to_json(), setup_counters=setup_counters,
                   counters=_counter_totals(tel))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
