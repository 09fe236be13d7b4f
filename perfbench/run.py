#!/usr/bin/env python3
"""The repository benchmark (see ``BENCHMARK.json``).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every run gets a fresh cache root
under ``.perfbench_tmp/``, primed by an untimed separate process with
what a returning user already has, and removed at exit.  The program
sees only specs generated from ``--seed``; its ``REPRO_*`` execution
knobs are unset and ``PYTHONHASHSEED`` is not pinned.

``--trace 0`` prints the end-to-end metrics, measured untouched.
``--trace 1`` runs the workload once untraced and once with the layer
wrappers of ``perfbench/tracer.py`` installed, and prints the
per-layer metrics.  The last stdout line is the result object; the line
before it is a detail object (sample counts, host speed probe, checks).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from loadgen import counters, get, post  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
PYTHON = sys.executable or "python3"
STARTUP_TIMEOUT_S = 120.0
#: A run must end within 180 s; every wait is capped by this deadline.
RUN_BUDGET_S = 170.0
DEADLINE = time.perf_counter() + RUN_BUDGET_S
#: Set-up is measured this many times per run; the median is reported.
SETUP_SAMPLES = 3


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def remaining() -> float:
    left = DEADLINE - time.perf_counter()
    if left <= 0:
        raise BenchError(f"run exceeded its {RUN_BUDGET_S:g} s budget")
    return left


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------

def child_env(state: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONHASHSEED"}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(state / "cache")
    return env


def worker(action: str, workload: str, seed: int, state: Path,
           *extra: str, timed: bool = False):
    """Run ``worker.py``; returns (launch-to-ready seconds, last JSON)."""
    cmd = [PYTHON, str(HERE / "worker.py"), action, "--workload", workload,
           "--seed", str(seed), "--scratch", str(state), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(state), cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(remaining(), proc.kill)
    watchdog.start()
    ready = None
    lines = []
    try:
        with proc:
            for line in proc.stdout:
                if ready is None and line.strip() == "ready":
                    ready = time.perf_counter() - start
                lines.append(line)
            code = proc.wait()
    finally:
        watchdog.cancel()
    if code != 0 or not lines:
        raise BenchError(f"worker {action} {workload} exited {code}")
    if timed and ready is None:
        raise BenchError(f"worker {action} {workload} never got ready")
    return ready, json.loads(lines[-1])


class Server:
    """One ``repro serve`` process (optionally through the launcher)."""

    def __init__(self, state: Path, trace_out: Path = None) -> None:
        serve = ["serve", "--port", "0", "--cache-dir", str(state / "serve")]
        if trace_out is None:
            cmd = [PYTHON, "-m", "repro", *serve]
        else:
            cmd = [PYTHON, str(HERE / "serve_launcher.py"),
                   "--trace-out", str(trace_out), *serve]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=child_env(state), cwd=ROOT,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True)
        lines: "queue.Queue[str]" = queue.Queue()
        self._drain = threading.Thread(
            target=lambda: [lines.put(line) for line in self.proc.stderr],
            daemon=True)
        self._drain.start()
        self.port = None
        deadline = self.started + min(STARTUP_TIMEOUT_S, remaining())
        while self.port is None:
            try:
                line = lines.get(timeout=max(0.0, deadline
                                             - time.perf_counter()))
            except queue.Empty:
                self.stop()
                raise BenchError("server did not start") from None
            if "listening on http://" in line:
                self.port = int(line.split("http://", 1)[1]
                                .split()[0].rsplit(":", 1)[1])

    def healthy(self) -> None:
        deadline = time.perf_counter() + min(STARTUP_TIMEOUT_S, remaining())
        while time.perf_counter() < deadline:
            try:
                if get(self.port, "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise BenchError("server never answered /healthz")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM unavailable")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=max(1.0, DEADLINE
                                           - time.perf_counter()))
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._drain.join(timeout=10)
        self.proc.stderr.close()


# ----------------------------------------------------------------------
# Statistics and checks
# ----------------------------------------------------------------------

def host_probe_ms() -> float:
    """A fixed pure-Python + numpy loop (diagnostic of host speed)."""
    import numpy as np

    values = np.arange(200_000, dtype=np.float64)[::-1].copy()
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        np.sort(values)
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def p99(values):
    """The 99th percentile and how many samples lie beyond it."""
    if len(values) < 2:
        return values[0], 0
    cut = statistics.quantiles(values, n=100)[98]
    return cut, sum(v > cut for v in values)


def load_reference() -> dict:
    with open(HERE / "reference.json") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# sharded_grid
# ----------------------------------------------------------------------

def verified_times(ops: list, reference):
    """(op times to report, failed count) for one process's ops.

    An op fails on an error or on bytes that differ from the pinned
    reference (default seed) or from the other ops of the run.  Times
    are those of the good ops, or of all ops when none was good: a run
    of failures still reports how long callers waited for them.
    """
    expected = reference or next(
        (op["sha256"] for op in ops if "sha256" in op), None)
    good = [op["s"] for op in ops if op.get("sha256", "") == expected]
    return good or [op["s"] for op in ops], len(ops) - len(good)


def run_sharded(seed: int, seconds: float, trace: bool,
                state: Path) -> dict:
    name = "sharded_grid"
    reference = load_reference()[name] if seed == workloads.DEFAULT_SEED \
        else None
    worker("prime", name, seed, state)
    detail: dict = {}
    if not trace:
        setups = [worker("setup", name, seed, state, timed=True)[0]
                  for _ in range(SETUP_SAMPLES - 1)]
        ready, out = worker("run", name, seed, state,
                            "--seconds", str(seconds), timed=True)
        setups.append(ready)
        times, failed = verified_times(out["ops"], reference)
        tail, beyond = p99(times)
        campaign = statistics.median(times)
        metrics = {
            "setup_s": (statistics.median(setups), len(setups)),
            "campaign_s": (campaign, len(times)),
            "peak_rss_mb": (out["rss_mb"], 1),
            # Every op starts from an empty plane directory and reads no
            # result tier, so a request of any class is a full
            # computation here.
            "hit_p50_ms": (campaign * 1000.0, len(times)),
            "hit_p99_ms": (tail * 1000.0, len(times)),
            "partial_p50_ms": (campaign * 1000.0, len(times)),
        }
        detail["hit_p99_beyond"] = beyond
        return {"metrics": metrics, "attempted": len(out["ops"]),
                "failed": failed, "detail": detail}

    _, plain = worker("run", name, seed, state, "--ops", "1", timed=True)
    _, traced = worker("run", name, seed, state, "--ops", "1", "--trace",
                       timed=True)
    _, failed = verified_times(plain["ops"] + traced["ops"], reference)
    metrics, checks = layer_metrics(traced["trace"], traced["counters"],
                                    traced["setup_counters"])
    metrics["trace_overhead_s"] = (
        traced["ops"][0]["s"] - plain["ops"][0]["s"], 1)
    checks["kernel_calls_per_shard_grid"] = \
        traced["trace"]["layers"]["kernel.observe"]["calls"] == \
        workloads.SHARDS * workloads.PROTOCOLS * len(workloads.PAPER_ORIGINS)
    detail["checks"] = checks
    return {"metrics": metrics, "attempted": 2, "failed": failed,
            "detail": detail, "correct": all(checks.values())}


def ratio(hits: float, misses: float):
    total = hits + misses
    return (hits / total if total else 0.0), int(total)


def layer_metrics(trace: dict, totals: dict, setup_counters: dict):
    """Per-layer metrics from one traced process (or server)."""
    layers = trace["layers"]

    def self_s(layer):
        return (layers[layer]["self_s"], layers[layer]["calls"])

    kernel_total = layers["kernel.observe"]["total_s"]
    services = totals.get("observe.batched.services", 0)
    load_ms = [s * 1000.0 for s in trace["samples"].get(
        "resultcache.load", [])]
    loads = layers["resultcache.load"]["calls"]
    metrics = {
        "world.build_s": self_s("world.build"),
        "world.load_s": self_s("world.load"),
        "world.cache_hit_ratio": ratio(
            setup_counters.get("cache.world_hit", 0),
            setup_counters.get("cache.world_miss", 0)),
        "shard.load_s": self_s("shard.load"),
        "shard.cache_hit_ratio": ratio(
            setup_counters.get("cache.shard_hit", 0),
            setup_counters.get("cache.shard_miss", 0)),
        "plan.compile_s": self_s("plan.compile"),
        "plan.compiles": (totals.get("cache.plan_miss", 0),
                          layers["plan.compile"]["calls"]),
        "kernel.observe_s": self_s("kernel.observe"),
        "kernel.outage_windows_s": self_s("kernel.outage_windows"),
        "kernel.loss_lattice_s": self_s("kernel.loss_lattice"),
        "kernel.calls": (layers["kernel.observe"]["calls"],
                         layers["kernel.observe"]["calls"]),
        "kernel.services": (services, layers["kernel.observe"]["calls"]),
        "kernel.services_per_s": (services / kernel_total
                                  if kernel_total else 0.0,
                                  layers["kernel.observe"]["calls"]),
        "executor.jobs": (totals.get("executor.jobs", 0),
                          layers["executor"]["calls"]),
        "executor.overhead_s": self_s("executor"),
        "reduce.s": self_s("reduce"),
        "reduce.rows": (totals.get("streaming.rows_reduced", 0),
                        layers["reduce"]["calls"]),
        "analysis.presence_builds": (
            totals.get("analysis.presence_build", 0),
            layers["analysis.context"]["calls"]),
        "render.s": self_s("render"),
        "resultcache.load_ms": (statistics.median(load_ms)
                                if load_ms else 0.0, len(load_ms)),
        "resultcache.bytes_per_hit": (
            trace["deltas"].get("resultcache.load", 0) / loads
            if loads else 0.0, loads),
        "resultcache.store_s": self_s("resultcache.store"),
        "planecache.probe_s": self_s("planecache.probe"),
        "planecache.store_s": self_s("planecache.store"),
        "planecache.hit_ratio": ratio(totals.get("serve.plane_hit", 0),
                                      totals.get("serve.plane_miss", 0)),
        "planecache.bytes_written": (
            trace["deltas"].get("planecache.store", 0),
            layers["planecache.store"]["calls"]),
        "serve.overhead_ms": (0.0, 0),  # client-side; see run_serve
        "serve.key_s": self_s("serve.key"),
        "serve.compute_s": self_s("serve.compute"),
        "serve.dedup_joined": (totals.get("serve.dedup_joined", 0), 1),
        "other_s": (trace["other_s"], 1),
    }
    for layer in layers:
        if layer.startswith("analysis."):
            metrics[f"{layer}_s"] = self_s(layer)
    self_total = sum(layer["self_s"] for layer in layers.values())
    wall = trace["root_wall_s"]
    checks = {
        "self_times_plus_other_equal_wall":
            abs(self_total + trace["other_s"] - wall) <= 1e-6 * max(wall, 1)
            and trace["outside_s"] == 0.0,
        "plan_compiles_match_counter":
            totals.get("cache.plan_miss", 0)
            == layers["plan.compile"]["calls"],
    }
    return metrics, checks


# ----------------------------------------------------------------------
# serve_mix
# ----------------------------------------------------------------------

def start_primed(state: Path, primed: list, trace_out: Path = None):
    """Launch a server and serve every primed spec once: set-up time."""
    server = Server(state, trace_out)
    try:
        server.healthy()
        failed = 0
        for index, (spec, digest) in enumerate(primed):
            status, data, _ = post(server.port, spec, f"c{index:031x}")
            failed += status != 200 or workloads.sha256(data) != digest
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - server.started, failed


def copy_state(primed: Path, dest: Path) -> Path:
    shutil.copytree(primed, dest)
    return dest


def load_phase(server: Server, plan_path: Path, seconds: float,
               out: Path, plane_deltas: bool = False) -> list:
    cmd = [PYTHON, str(HERE / "loadgen.py"), "--port", str(server.port),
           "--plan", str(plan_path), "--seconds", str(seconds),
           "--out", str(out)]
    if plane_deltas:
        cmd.append("--plane-deltas")
    code = subprocess.run(cmd, cwd=ROOT, timeout=remaining()).returncode
    with open(out) as handle:
        result = json.load(handle)
    if code != 0:
        raise BenchError("load generator failed: "
                         + "; ".join(result["errors"]))
    return result["records"]


def classify(records: list, hit_digests: list, reference) -> dict:
    """Latencies per request class and the failed count.

    Every output is verified: a hit against the bytes its priming
    produced, a compute request against ``reference.json`` (default
    seed) or else by the load generator's shape check.  ``got[cls]``
    holds the good requests' latencies, ``got[cls + "_all"]`` every
    request's, for a class whose requests all failed.
    """
    got = {"failed": 0, "digests": {}}
    for cls in ("hit", "partial", "miss"):
        got[cls], got[cls + "_all"] = [], []
    for cls, index, latency, status, digest, _, _, shape_ok in records:
        if cls == "hit":
            ok = digest == hit_digests[index % len(hit_digests)]
        elif reference is not None and index < len(reference):
            ok = digest == reference[index]
        else:
            ok = shape_ok
        got[cls + "_all"].append(latency)
        if status != 200 or not ok:
            got["failed"] += 1
            continue
        got[cls].append(latency)
        if cls != "hit":
            got["digests"][index] = digest
    return got


def latencies(got: dict, cls: str) -> list:
    values = got[cls] or got[cls + "_all"]
    if not values:
        raise BenchError(f"no {cls} request completed")
    return values


def run_serve(seed: int, seconds: float, trace: bool, state: Path) -> dict:
    ref = load_reference()["serve_mix"] \
        if seed == workloads.DEFAULT_SEED else None
    plan = workloads.serve_plan(seed)
    primed_state = state / "primed"
    _, digests = worker("prime", "serve_mix", seed, primed_state)
    if ref is not None and (digests["hits"] != ref["hits"]
                            or digests["bases"] != ref["bases"]):
        raise BenchError("primed outputs differ from reference.json")
    primed = list(zip(plan["hits"], digests["hits"])) \
        + list(zip(plan["bases"], digests["bases"]))
    plan_path = state / "plan.json"
    plan_path.write_text(json.dumps(plan))
    reference = ref["compute"] if ref is not None else None
    detail: dict = {}

    if not trace:
        setups = []
        failed = 0
        for k in range(SETUP_SAMPLES - 1):
            server, setup, bad = start_primed(
                copy_state(primed_state, state / f"setup{k}"), primed)
            server.stop()
            setups.append(setup)
            failed += bad
        server, setup, bad = start_primed(
            copy_state(primed_state, state / "main"), primed)
        setups.append(setup)
        failed += bad
        try:
            records = load_phase(server, plan_path, seconds,
                                 state / "load.json")
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        got = classify(records, digests["hits"], reference)
        hits = latencies(got, "hit")
        hit99, beyond = p99(hits)
        misses = latencies(got, "miss")
        metrics = {
            "setup_s": (statistics.median(setups), len(setups)),
            # A cold full report is this workload's campaign.
            "campaign_s": (statistics.median(misses), len(misses)),
            "peak_rss_mb": (rss, 1),
            "hit_p50_ms": (statistics.median(hits) * 1000.0, len(hits)),
            "hit_p99_ms": (hit99 * 1000.0, len(hits)),
            "partial_p50_ms": (
                statistics.median(latencies(got, "partial")) * 1000.0,
                len(latencies(got, "partial"))),
        }
        detail["hit_p99_beyond"] = beyond
        attempted = len(records) + SETUP_SAMPLES * len(primed)
        return {"metrics": metrics, "attempted": attempted,
                "failed": failed + got["failed"], "detail": detail}

    # Traced: the same sequence twice from identical primed state, first
    # plain, then through the launcher.
    half = seconds / 2.0
    phases = {}
    failed = 0
    attempted = 0
    for phase in ("plain", "traced"):
        trace_out = state / "trace.json" if phase == "traced" else None
        server, _, bad = start_primed(
            copy_state(primed_state, state / phase), primed, trace_out)
        failed += bad
        try:
            setup_counters = counters(server.port)
            records = load_phase(server, plan_path, half,
                                 state / f"{phase}.json",
                                 plane_deltas=phase == "traced")
            totals = counters(server.port)
        finally:
            server.stop()
        got = classify(records, digests["hits"], reference)
        failed += got["failed"]
        attempted += len(records) + len(primed)
        phases[phase] = (records, got, setup_counters, totals)

    records, got, setup_counters, totals = phases["traced"]
    plain = phases["plain"][1]
    for index, digest in got["digests"].items():
        if plain["digests"].get(index, digest) != digest:
            failed += 1
    with open(state / "trace.json") as handle:
        launched = json.load(handle)
    metrics, checks = layer_metrics(launched["trace"], totals,
                                    setup_counters)
    request_s = launched["request_s"]
    overhead = [(latency - request_s[trace]) * 1000.0
                for cls, _, latency, _, _, trace, *_ in records
                if cls == "hit" and trace in request_s]
    metrics["serve.overhead_ms"] = (
        statistics.median(overhead) if overhead else 0.0, len(overhead))

    metrics["trace_overhead_s"] = (
        statistics.median(latencies(got, "miss"))
        - statistics.median(latencies(plain, "miss")), 1)
    units = {index: item["units"] for index, item
             in enumerate(plan["compute"]) if item["class"] == "partial"}
    checks["partial_dispatches_added_origin_units"] = all(
        record[6] == units[record[1]] for record in records
        if record[0] == "partial")
    misses = sum(1 for r in records if r[0] == "miss" and r[3] == 200)
    checks["presence_builds_per_report"] = \
        totals.get("analysis.presence_build", 0) \
        == workloads.PROTOCOLS * misses
    detail["checks"] = checks
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "detail": detail, "correct": all(checks.values())}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        metrics = json.load(handle)["per_layer" if args.trace
                                    else "end_to_end"]
    names = [m["name"] for m in metrics]
    units = {m["name"]: m["unit"] for m in metrics}

    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        probe_start = host_probe_ms()
        run = run_serve if args.workload == "serve_mix" else run_sharded
        result = run(args.seed, args.seconds, bool(args.trace), tmp)
        probe_end = host_probe_ms()
    except (BenchError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as error:
        print(f"perfbench: {type(error).__name__}: {error}",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()  # only when no other run is using it

    measured = result["metrics"]
    measured["host.probe_ms"] = (statistics.median(
        [probe_start, probe_end]), 2)
    missing = [name for name in names if name not in measured]
    if missing:
        print(f"perfbench: unmeasured metrics {missing}", file=sys.stderr)
        return 1
    detail = dict(result["detail"])
    detail.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        samples={name: measured[name][1] for name in names},
        failed_share=result["failed"] / result["attempted"],
        host_probe_ms={"start": probe_start, "end": probe_end})
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": result["failed"] == 0 and result.get("correct", True),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": measured[name][0],
                           "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
