"""Run perfbench in pairs against another checkout and compare the metrics.

Each pair runs ``python3 perfbench/run.py --workload W --seed S
--seconds 30 --trace T`` once in the other checkout (``--parent``, e.g.
a clone of the parent commit) and once in this one, one run at a time,
alternating which side goes first.  Every run's detail and result
lines go to a JSONL file as they arrive.  At the end, for each metric
that ``BENCHMARK.json`` declares (end-to-end untraced, per-layer
traced), it prints the per-pair values, each side's median and
quartiles, how many pairs this checkout won, and whether the gap
between the medians exceeds the parent's interquartile range::

    python3 scripts/perfpairs.py --parent ../parent --workload serve_mix \\
        --seeds 0 14 15 16 17 18 19 20 21 22 --out pairs.jsonl

Nothing else should run on the host meanwhile: only pairs run back to
back compare.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
#: BENCHMARK.json's ``run_seconds``, the length ``make perfbench`` runs:
#: runs of another length compare with neither its bounds nor earlier
#: pairs.
SECONDS = 30


def quartiles(values: Sequence[float]) -> List[float]:
    """Q1, median and Q3, interpolated linearly between order
    statistics (numpy's default percentile)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered * 3
    return statistics.quantiles(ordered, n=4, method="inclusive")


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run in ``checkout``: its detail and result objects
    (None when the run printed none), exit code and wall time."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(SECONDS),
               "--trace", str(trace)]
    began = time.monotonic()
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True)
    objects = []
    for line in done.stdout.splitlines():
        try:
            objects.append(json.loads(line))
        except ValueError:
            continue
    objects = [o for o in objects if isinstance(o, dict)]
    return {"returncode": done.returncode,
            "wall_s": round(time.monotonic() - began, 3),
            "detail": next((o["detail"] for o in objects
                            if "detail" in o), None),
            "result": next((o for o in objects if "metrics" in o), None),
            "stderr_tail": done.stderr.strip().splitlines()[-5:]}


def run_failed(run: dict) -> bool:
    """A run that printed no result, or counted a failed operation."""
    return (run.get("result") or {}).get("failed", 1) != 0


def metric_value(run: dict, name: str) -> Optional[float]:
    result = run.get("result") or {}
    entry = result.get("metrics", {}).get(name)
    return None if entry is None else float(entry["value"])


def summarize(records: List[dict], metrics: List[dict]) -> List[str]:
    """The per-metric comparison of complete pairs, as printable lines."""
    pairs: Dict[int, Dict[str, dict]] = {}
    for record in records:
        pairs.setdefault(record["pair"], {})[record["side"]] = record
    complete = [(index, sides) for index, sides in sorted(pairs.items())
                if len(sides) == 2]
    lines = []
    failed = {side: sum(run_failed(sides[side]) for _, sides in complete)
              for side in SIDES}
    lines.append(f"{len(complete)} complete pairs; runs with failed != 0 "
                 f"or no result: parent {failed['parent']}, "
                 f"change {failed['change']}")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        rows = []
        for _, sides in complete:
            values = [metric_value(sides[side], name) for side in SIDES]
            if None not in values:
                rows.append((sides["parent"]["seed"], *values))
        if not rows:
            continue
        parent = [row[1] for row in rows]
        change = [row[2] for row in rows]
        wins = sum(1 for _, p, c in rows if (c < p if lower else c > p))
        p_q = quartiles(parent)
        c_q = quartiles(change)
        gap = c_q[1] - p_q[1]
        iqr = p_q[2] - p_q[0]
        relative = f"{gap / p_q[1]:+.1%}" if p_q[1] else "n/a"
        lines.append(f"{name} ({metric['better']} is better)")
        lines.append("  pairs (seed: parent -> change): " + ", ".join(
            f"{seed}: {p:.6g} -> {c:.6g}" for seed, p, c in rows))
        lines.append(f"  parent median {p_q[1]:.6g} [Q1 {p_q[0]:.6g}, "
                     f"Q3 {p_q[2]:.6g}]; change median {c_q[1]:.6g} "
                     f"[Q1 {c_q[0]:.6g}, Q3 {c_q[2]:.6g}]; "
                     f"gap {gap:+.6g} ({relative})")
        lines.append(f"  change better in {wins} of {len(rows)} pairs; "
                     f"|gap| {'>' if abs(gap) > iqr else '<='} parent IQR "
                     f"{iqr:.6g}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="the checkout to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("--out", type=Path, default=Path("perfpairs.jsonl"),
                        help="JSONL file every run is appended to")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    if checkouts["parent"] == ROOT:
        print("perfpairs: --parent must be another checkout than this one",
              file=sys.stderr)
        return 2
    for side, checkout in checkouts.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            print(f"perfpairs: no perfbench/run.py in the {side} checkout "
                  f"{checkout}", file=sys.stderr)
            return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        metrics = json.load(handle)["per_layer" if args.trace
                                    else "end_to_end"]

    records = []
    with open(args.out, "a") as out:
        for pair, seed in enumerate(args.seeds):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                run = run_once(checkouts[side], args.workload, seed,
                               args.trace)
                record = {"pair": pair, "seed": seed, "side": side,
                          "position": position, "workload": args.workload,
                          "trace": args.trace,
                          "checkout": str(checkouts[side]), **run}
                out.write(json.dumps(record) + "\n")
                out.flush()
                records.append(record)
                print(f"pair {pair} seed {seed} {side}: exit "
                      f"{run['returncode']}, "
                      f"{'FAILED' if run_failed(run) else 'ok'}, "
                      f"{run['wall_s']:.0f} s", file=sys.stderr, flush=True)
    print("\n".join(summarize(records, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
