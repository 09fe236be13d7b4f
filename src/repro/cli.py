"""Command-line interface: ``python -m repro <command>``.

Three commands mirror the library's workflow:

* ``simulate`` — build a scenario world, run a synchronized campaign, and
  write the dataset as ndjson (or a columnar snapshot with
  ``--format columnar``);
* ``report`` — load a dataset (either format) and print the full §3–§7
  analysis report;
* ``coverage`` — load a dataset (either format) and print/export the
  coverage tables;
* ``trace`` — summarize a telemetry journal written by
  ``simulate --telemetry`` or ``serve --journal`` (span tree, manifest,
  top counters), or export it (``--export chrome`` for
  chrome://tracing / Perfetto, ``--export collapsed`` for flamegraphs);
  ``--last`` picks the newest journal without an explicit path;
* ``cache`` — inspect or clear the content-addressed world cache that
  accelerates repeated scenario builds;
* ``serve`` — run the long-lived campaign service (asyncio HTTP/JSON
  front with a content-addressed result cache; see docs/SERVING.md);
* ``top`` — live console over a running server's ``/metrics/history``;
* ``bench`` — the perf-regression sentinel (``bench diff`` compares the
  newest ``BENCH_<n>.json`` against the trajectory; non-zero exit on
  regression).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.coverage import coverage_table
from repro.core.engine import ENGINES
from repro.core.planning import diminishing_returns_k, recommend_origins
from repro.core.report import full_report
from repro.io import load_any_campaign
from repro.io.columnar import save_campaign as save_campaign_columnar
from repro.io.csv import write_coverage_csv
from repro.io.ndjson import load_campaign, save_campaign
from repro.reporting.tables import render_table
from repro.sim.campaign import run_campaign
from repro.sim.executor import BACKENDS
from repro.sim.scenario import followup_scenario, paper_scenario
from repro.sim.validation import validate_scan_rates
from repro.topology.asn import PROTOCOLS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'On the Origin of "
                    "Scanning' (IMC 2020)")
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser(
        "simulate", help="run a synchronized campaign and save it")
    simulate.add_argument("output",
                          help="ndjson dataset directory, or snapshot "
                               "file with --format columnar")
    simulate.add_argument("--format", dest="format",
                          default="ndjson", choices=("ndjson", "columnar"),
                          help="on-disk campaign format: ndjson directory "
                               "(interoperable) or binary columnar "
                               "snapshot (fast)")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--scale", type=float, default=0.2,
                          help="world size multiplier (1.0 ≈ 58k HTTP "
                               "hosts)")
    simulate.add_argument("--trials", type=int, default=3)
    simulate.add_argument("--protocols", nargs="+", default=list(PROTOCOLS),
                          choices=list(PROTOCOLS))
    simulate.add_argument("--scenario", default="paper",
                          choices=("paper", "followup"))
    simulate.add_argument("--executor", default=None, choices=BACKENDS,
                          help="execution backend for the observation grid "
                               "(default: REPRO_EXECUTOR env or serial); "
                               "output is bit-identical across backends")
    simulate.add_argument("--workers", type=int, default=None,
                          help="pool size for thread/process backends "
                               "(default: REPRO_WORKERS env or CPU count)")
    simulate.add_argument("--telemetry", default=None, metavar="PATH",
                          help="write an NDJSON telemetry journal (spans, "
                               "counters, run manifest) to this file; "
                               "inspect it with 'repro trace PATH'")

    trace = commands.add_parser(
        "trace", help="summarize or export a telemetry journal "
                      "(simulate --telemetry / serve --journal)")
    trace.add_argument("journal", nargs="?", default=None,
                       help="NDJSON journal file (omit with --last)")
    trace.add_argument("--last", action="store_true",
                       help="use the newest journal under the journal "
                            "dir (REPRO_JOURNAL_DIR or the cache root)")
    trace.add_argument("--export", choices=("chrome", "collapsed"),
                       default=None,
                       help="export instead of summarizing: 'chrome' "
                            "writes trace-event JSON (chrome://tracing, "
                            "Perfetto), 'collapsed' writes flamegraph "
                            "collapsed stacks")
    trace.add_argument("--out", default=None, metavar="PATH",
                       help="export destination (default: stdout)")
    trace.add_argument("--depth", type=int, default=6,
                       help="maximum span-tree depth to render")
    trace.add_argument("--top", type=int, default=20,
                       help="number of counters to show")

    report = commands.add_parser(
        "report", help="print the full analysis report for a dataset")
    report.add_argument("dataset",
                        help="directory or snapshot written by 'simulate'")
    report.add_argument("--engine", choices=list(ENGINES), default=None,
                        help="analysis engine (default: "
                             "$REPRO_ANALYSIS_ENGINE or 'packed')")

    coverage = commands.add_parser(
        "coverage", help="print per-origin coverage tables")
    coverage.add_argument("dataset",
                          help="directory or snapshot written by "
                               "'simulate'")
    coverage.add_argument("--csv", help="also export rows to this CSV file")

    plan = commands.add_parser(
        "plan", help="recommend origins by marginal coverage (§7)")
    plan.add_argument("dataset",
                      help="directory or snapshot written by 'simulate'")
    plan.add_argument("--protocol", default="http")
    plan.add_argument("--single-probe", action="store_true")

    validate = commands.add_parser(
        "validate", help="§2 pre-campaign scan-rate validation")
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument("--scale", type=float, default=0.1)
    validate.add_argument("--sample", type=float, default=0.25,
                          help="fraction of the world to probe")

    cache = commands.add_parser(
        "cache", help="inspect, clear, or prune the world, shard, "
                      "result, and plane caches (REPRO_CACHE_DIR)")
    cache.add_argument("action", choices=("ls", "clear", "prune"),
                       help="'ls' lists cached worlds, shard segments, "
                            "served results, and plane units; 'clear' "
                            "deletes worlds and shard segments; 'prune' "
                            "evicts oldest entries across every cache "
                            "until the total fits the byte budget")
    cache.add_argument("--results", action="store_true",
                       help="with 'clear': also delete result-cache "
                            "entries (REPRO_RESULT_CACHE_DIR) and plane "
                            "units")
    cache.add_argument("--max-bytes", type=int, default=None,
                       help="with 'prune': total cache byte budget "
                            "(default: REPRO_CACHE_MAX_BYTES)")

    serve = commands.add_parser(
        "serve", help="run the campaign service (HTTP/JSON + result "
                      "cache); stop with SIGTERM/Ctrl-C for a graceful "
                      "drain")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8351,
                       help="listen port (0 picks an ephemeral port)")
    serve.add_argument("--queue-depth", type=int, default=8,
                       help="admitted-request cap; beyond it requests "
                            "get 429")
    serve.add_argument("--timeout", type=float, default=300.0,
                       help="per-request wall budget in seconds (504 "
                            "past it; compute continues and is cached)")
    serve.add_argument("--pool-size", type=int, default=2,
                       help="campaigns computed concurrently")
    serve.add_argument("--executor", default=None, choices=BACKENDS,
                       help="campaign execution backend "
                            "(default: REPRO_EXECUTOR env or serial)")
    serve.add_argument("--workers", type=int, default=None,
                       help="campaign pool width for thread/process "
                            "backends")
    serve.add_argument("--plane-cache",
                       action=argparse.BooleanOptionalAction,
                       default=None,
                       help="plane-granular incremental recomputation on "
                            "the grid-surface miss path (default on; "
                            "REPRO_PLANE_CACHE=0 also disables)")
    serve.add_argument("--cache-dir", default=None,
                       help="result-cache root (default: "
                            "REPRO_RESULT_CACHE_DIR or the world-cache "
                            "root /results)")
    serve.add_argument("--journal", default=None, metavar="PATH",
                       help="write the server's NDJSON telemetry journal "
                            "here (inspect with 'repro trace')")
    serve.add_argument("--journal-max-bytes", type=int, default=None,
                       help="rotate the journal and access log past this "
                            "size (.1/.2 backups)")
    serve.add_argument("--access-log", default=None, metavar="PATH",
                       help="write one NDJSON line per request (trace "
                            "ID, route, status, cache source, latency)")

    top = commands.add_parser(
        "top", help="live console over a running server's "
                    "/metrics/history window")
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=8351)
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between polls")
    top.add_argument("--once", action="store_true",
                     help="print one snapshot and exit (no screen "
                          "clearing; scripting/tests)")

    bench = commands.add_parser(
        "bench", help="benchmark-trajectory tooling (regression sentinel)")
    bench.add_argument("action", choices=("diff",),
                       help="'diff' compares the newest BENCH_<n>.json "
                            "against TRAJECTORY.json history")
    bench.add_argument("--dir", default="bench_artifacts",
                       help="artifact directory (default: bench_artifacts)")
    bench.add_argument("--tolerance", type=float, default=None,
                       help="relative slowdown tolerated before failing "
                            "(default 0.25 = ±25%%)")
    bench.add_argument("--min-history", type=int, default=None,
                       help="comparable artifacts required before a "
                            "benchmark can regress (default 2)")
    bench.add_argument("--json", action="store_true",
                       help="print the machine-readable verdict instead "
                            "of the table")
    bench.add_argument("--output", default=None, metavar="PATH",
                       help="also write the JSON verdict to this file")

    profile = commands.add_parser(
        "profile", help="profile the observation kernel (warm caches)")
    profile.add_argument("--seed", type=int, default=1)
    profile.add_argument("--scale", type=float, default=1.0,
                         help="world size multiplier (1.0 ≈ 58k HTTP "
                              "hosts, the paper scale)")
    profile.add_argument("--protocol", default="http",
                         choices=list(PROTOCOLS))
    profile.add_argument("--rounds", type=int, default=10,
                         help="trial batches to run under the profiler")
    profile.add_argument("--trials", type=int, default=3,
                         help="trials per batch")
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = paper_scenario if args.scenario == "paper" \
        else followup_scenario
    world, origins, config = scenario(seed=args.seed, scale=args.scale)
    print(f"world: {world.hosts.counts_by_protocol()} services in "
          f"{len(world.topology.ases)} ASes", file=sys.stderr)
    dataset = run_campaign(world, origins, config,
                           protocols=tuple(args.protocols),
                           n_trials=args.trials,
                           executor=args.executor, workers=args.workers,
                           telemetry=args.telemetry)
    execution = dataset.metadata["execution"]
    print(f"executed {execution['n_jobs']} observation jobs via "
          f"{execution['backend']}×{execution['workers']} in "
          f"{execution['wall_s']:.2f}s "
          f"(speedup {execution['speedup']:.2f}×)", file=sys.stderr)
    if args.format == "columnar":
        nbytes = save_campaign_columnar(dataset, args.output)
        print(f"wrote {len(dataset)} trials to columnar snapshot "
              f"{args.output} ({nbytes:,} bytes)", file=sys.stderr)
    else:
        save_campaign(dataset, args.output)
        print(f"wrote {len(dataset)} trial files to {args.output}/",
              file=sys.stderr)
    if args.telemetry:
        print(f"telemetry journal: {args.telemetry} "
              f"(inspect with 'repro trace {args.telemetry}')",
              file=sys.stderr)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json as _json

    from repro.telemetry import (chrome_trace, collapsed_stacks,
                                 default_journal_dir, find_latest_journal,
                                 read_journal, render_trace)
    path = args.journal
    if path is None:
        if not args.last:
            print("trace: give a journal path or --last", file=sys.stderr)
            return 2
        path = find_latest_journal()
        if path is None:
            print(f"trace: no journals under {default_journal_dir()}",
                  file=sys.stderr)
            return 1
        print(f"trace: using {path}", file=sys.stderr)
    try:
        journal = read_journal(path)
    except OSError as error:
        print(f"cannot read journal: {error}", file=sys.stderr)
        return 1
    if args.export == "chrome":
        rendered = _json.dumps(chrome_trace(journal), indent=1,
                               sort_keys=True) + "\n"
    elif args.export == "collapsed":
        rendered = "\n".join(collapsed_stacks(journal)) + "\n"
    else:
        rendered = render_trace(journal, max_depth=args.depth,
                                top=args.top)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(rendered, end="" if rendered.endswith("\n") else "\n")
    if journal.skipped:
        print(f"({journal.skipped} malformed record(s) skipped)",
              file=sys.stderr)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    dataset = load_any_campaign(args.dataset)
    print(full_report(dataset, engine=args.engine))
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    dataset = load_any_campaign(args.dataset)
    for protocol in dataset.protocols:
        table = coverage_table(dataset, protocol)
        print(render_table(["trial"] + table.origins + ["∩", "∪"],
                           table.rows(), title=f"coverage — {protocol}"))
        print()
    if args.csv:
        write_coverage_csv(dataset, args.csv)
        print(f"exported {args.csv}", file=sys.stderr)
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    dataset = load_any_campaign(args.dataset)
    plan = recommend_origins(dataset, args.protocol,
                             single_probe=args.single_probe)
    rows = [[i + 1, step.origin, f"{step.coverage_after:.2%}",
             f"+{step.marginal_gain:.2%}"]
            for i, step in enumerate(plan.steps)]
    print(render_table(["k", "add origin", "coverage", "gain"], rows,
                       title=f"greedy origin plan — {args.protocol}"))
    print(f"diminishing returns after k = "
          f"{diminishing_returns_k(plan)} origins")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    world, origins, config = paper_scenario(seed=args.seed,
                                            scale=args.scale)
    validation = validate_scan_rates(world, origins, config,
                                     sample_fraction=args.sample)
    rows = []
    for origin, series in validation.drop.items():
        rows.append([origin]
                    + [f"{series[r]:.3%}" for r in validation.rates_pps]
                    + ["yes" if validation.is_rate_safe(origin)
                       else "NO"])
    headers = ["origin"] + [f"{int(r):,} pps"
                            for r in validation.rates_pps] + ["safe?"]
    print(render_table(headers, rows,
                       title="§2 rate validation — estimated drop"))
    return 0 if validation.all_safe() else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.io import worldcache
    from repro.serve import planecache, resultcache

    root = worldcache.cache_dir()
    result_root = resultcache.cache_dir()
    if args.action == "clear":
        removed = worldcache.clear()
        shards = worldcache.clear_shards()
        print(f"removed {removed} cached world(s) and {shards} shard "
              f"segment(s) from {root}")
        if args.results:
            results = resultcache.clear()
            planes = planecache.clear()
            print(f"removed {results} cached result(s) and {planes} "
                  f"plane unit(s) from {result_root}")
        return 0

    if args.action == "prune":
        from repro.io import prune
        budget = args.max_bytes if args.max_bytes is not None \
            else prune.max_bytes_env()
        if budget is None:
            print("repro cache prune: no byte budget — pass --max-bytes "
                  f"or set {prune.ENV_CACHE_MAX_BYTES}", file=sys.stderr)
            return 2
        report = prune.prune(budget)
        print(f"pruned {report.removed} of {report.scanned} cache "
              f"entr{'y' if report.scanned == 1 else 'ies'} "
              f"({report.freed_bytes:,} bytes freed); "
              f"{report.kept} kept ({report.kept_bytes:,} bytes) against "
              f"a {report.max_bytes:,}-byte budget")
        return 0

    printed = False
    entries = worldcache.list_entries()
    if entries:
        printed = True
        rows = []
        for entry in entries:
            rows.append([entry.key[:16], entry.seed if entry.valid else "?",
                         f"{entry.n_services:,}" if entry.n_services
                         is not None else "?",
                         f"{entry.n_ases:,}" if entry.n_ases is not None
                         else "?",
                         f"{entry.nbytes:,}",
                         "ok" if entry.valid else "CORRUPT"])
        print(render_table(["key", "seed", "services", "ases", "bytes",
                            "state"], rows,
                           title=f"world cache — {root}"))
    shard_entries = worldcache.list_shard_entries()
    if shard_entries:
        printed = True
        rows = [[entry.key[:16],
                 f"{entry.n_services:,}" if entry.n_services is not None
                 else "?",
                 f"{entry.nbytes:,}",
                 "ok" if entry.valid else "CORRUPT"]
                for entry in shard_entries]
        print(render_table(["key", "services", "bytes", "state"], rows,
                           title=f"shard segments — {root}"))
    result_entries = resultcache.list_entries()
    if result_entries:
        printed = True
        rows = []
        for entry in result_entries:
            meta = entry.meta or {}
            fingerprint = meta.get("key", entry.key)
            rows.append([fingerprint[:16],
                         str(meta.get("engine", "?")),
                         f"{entry.nbytes:,}",
                         "ok" if entry.valid else "CORRUPT"])
        print(render_table(["fingerprint", "engine", "bytes", "state"],
                           rows,
                           title=f"result cache — {result_root}"))
    plane_entries = planecache.list_entries()
    if plane_entries:
        printed = True
        rows = [[digest, f"{group['count']:,}", f"{group['nbytes']:,}"]
                for digest, group
                in sorted(planecache.by_world(plane_entries).items())]
        total = sum(e.nbytes for e in plane_entries)
        rows.append(["total", f"{len(plane_entries):,}", f"{total:,}"])
        print(render_table(["world", "units", "bytes"], rows,
                           title=f"plane cache — "
                                 f"{planecache.cache_dir()}"))
    if not printed:
        print(f"caches at {root} and {result_root} are empty")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.server import ServeConfig, serve_async

    config = ServeConfig(host=args.host, port=args.port,
                         queue_depth=args.queue_depth,
                         request_timeout=args.timeout,
                         pool_size=args.pool_size,
                         executor=args.executor, workers=args.workers,
                         plane_cache=args.plane_cache,
                         cache_dir=args.cache_dir,
                         journal=args.journal,
                         journal_max_bytes=args.journal_max_bytes,
                         access_log=args.access_log)

    def ready(server) -> None:
        print(f"repro serve: listening on "
              f"http://{config.host}:{server.port} "
              f"(queue_depth={config.queue_depth}, "
              f"timeout={config.request_timeout:g}s)", file=sys.stderr)

    try:
        asyncio.run(serve_async(config, ready=ready))
    except KeyboardInterrupt:
        pass
    print("repro serve: drained, bye", file=sys.stderr)
    return 0


def _render_top(history: dict, health: dict) -> str:
    """One ``repro top`` frame from a /metrics/history window."""
    samples = history.get("samples") or []
    lines = [f"repro top — {health.get('status', '?')}, "
             f"active={health.get('active', 0)} "
             f"flights={health.get('flights', 0)} "
             f"queue_depth={health.get('queue_depth', 0)} "
             f"({len(samples)}/{history.get('max_samples', 0)} samples, "
             f"every {history.get('interval_s', 0)}s)"]
    if not samples:
        lines.append("  (no samples yet)")
        return "\n".join(lines) + "\n"
    latest = samples[-1]
    previous = samples[-2] if len(samples) > 1 else None
    rss = latest.get("rss_bytes") or 0
    lines.append(f"uptime {latest.get('uptime_s', 0.0):.0f}s   "
                 f"peak rss {rss / 2**20:.1f} MiB")
    gauges = latest.get("gauges") or {}
    if gauges:
        lines.append("  " + "  ".join(f"{name}={value:g}"
                                      for name, value in gauges.items()))
    counters = latest.get("counters") or {}
    rates = []
    for label, hit_name, miss_name in (
            ("result", "serve.cache_hit", "serve.cache_miss"),
            ("plane", "serve.plane_hit", "serve.plane_miss")):
        hit = counters.get(hit_name, 0)
        total = hit + counters.get(miss_name, 0)
        if total:
            rates.append(f"{label} {hit / total:.1%} ({hit:g}/{total:g})")
    if rates:
        lines.append("  cache hit-rate: " + "   ".join(rates))
    if counters:
        dt = (latest.get("uptime_s", 0.0)
              - (previous or {}).get("uptime_s", 0.0)) or None
        lines.append(f"  {'counter':<32} {'total':>12} {'rate/s':>10}")
        for name, value in counters.items():
            if previous is not None and dt:
                delta = value - (previous.get("counters") or {}).get(name, 0)
                rate = f"{delta / dt:10.2f}"
            else:
                rate = f"{'—':>10}"
            lines.append(f"  {name:<32} {value:>12g} {rate}")
    hists = latest.get("hists") or {}
    if hists:
        lines.append(f"  {'histogram':<32} {'count':>8} {'p50':>10} "
                     f"{'p95':>10} {'p99':>10}")
        for name, summary in hists.items():
            if not summary:
                continue
            lines.append(f"  {name:<32} {summary['count']:>8} "
                         f"{summary['p50']:>10.4g} {summary['p95']:>10.4g} "
                         f"{summary['p99']:>10.4g}")
    return "\n".join(lines) + "\n"


def _cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(host=args.host, port=args.port)
    try:
        while True:
            try:
                history = client.metrics_history()
                health = client.healthz()
            except (ServeError, OSError) as error:
                print(f"repro top: {args.host}:{args.port} unreachable: "
                      f"{error}", file=sys.stderr)
                return 1
            frame = _render_top(history, health)
            if args.once:
                print(frame, end="")
                return 0
            # ANSI clear + home: a live console without a curses dep.
            print("\x1b[2J\x1b[H" + frame, end="", flush=True)
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json as _json

    from repro.telemetry.regress import (DEFAULT_MIN_HISTORY,
                                         DEFAULT_TOLERANCE, bench_diff,
                                         render_diff)

    report = bench_diff(
        args.dir,
        tolerance=args.tolerance if args.tolerance is not None
        else DEFAULT_TOLERANCE,
        min_history=args.min_history if args.min_history is not None
        else DEFAULT_MIN_HISTORY)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            _json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_diff(report), end="")
    return 1 if report["verdict"] == "regression" else 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import cProfile
    import pstats
    import time
    from dataclasses import replace

    from repro.scanner.zmap import ZMapScanner
    from repro.sim.batch import observe_trial_batch
    from repro.sim.plan import ObserveProfile

    world, origins, config = paper_scenario(seed=args.seed,
                                            scale=args.scale)
    names = tuple(o.name for o in origins)
    origin = origins[0]
    n = len(world.hosts.for_protocol(args.protocol).ip)
    trials = tuple(range(args.trials))
    scanners = tuple(ZMapScanner(replace(config, seed=config.seed + t))
                     for t in trials)
    print(f"profiling the observation kernel: {args.protocol}, {n} "
          f"services × {len(trials)} trials, {args.rounds} rounds from "
          f"{origin.name}", file=sys.stderr)

    # Warm every cross-call cache (plan compilation, per-AS parameter
    # tables, loss-model state) so the profile shows the steady state.
    observe_trial_batch(world, args.protocol, origin, trials, scanners,
                        names)

    stage_profile = ObserveProfile()
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    for _ in range(args.rounds):
        observe_trial_batch(world, args.protocol, origin, trials,
                            scanners, names, profile=stage_profile)
    profiler.disable()
    wall = time.perf_counter() - start

    pstats.Stats(profiler, stream=sys.stdout) \
        .sort_stats("cumulative").print_stats(20)
    print(stage_profile.render())
    print(f"{wall / args.rounds * 1000.0:.2f} ms per batch of "
          f"{len(trials)} trials "
          f"({args.rounds} rounds, profiler overhead included)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "trace": _cmd_trace,
        "report": _cmd_report,
        "coverage": _cmd_coverage,
        "plan": _cmd_plan,
        "validate": _cmd_validate,
        "cache": _cmd_cache,
        "serve": _cmd_serve,
        "top": _cmd_top,
        "bench": _cmd_bench,
        "profile": _cmd_profile,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
