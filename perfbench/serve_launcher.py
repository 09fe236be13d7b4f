"""Run ``repro serve`` with the benchmark's layer wrappers installed.

    python3 perfbench/serve_launcher.py --trace-out FILE serve [ARGS...]

Used only by serve_mix's traced run: it installs every
:data:`tracer.LAYER_BINDINGS` wrapper, makes each server job a root
region, records each ``run_request`` call's duration under the
request's trace ID (the load generator sends ``X-Repro-Trace``), then
hands the remaining arguments to the program's own CLI entry point.
When the server has drained (SIGTERM), the timings go to ``FILE`` as
JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from tracer import Tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    tracer = Tracer()
    tracer.keep_samples.add("resultcache.load")
    tracer.count_delta["resultcache.load"] = "io.snapshot_bytes_read"
    tracer.count_delta["planecache.store"] = "io.snapshot_bytes_written"
    tracer.install()
    tracer.wrap_root("repro.serve.server", "ReproServer._job")

    from repro import cli
    from repro.serve import handlers, server
    from repro.telemetry.context import current

    timed_run_request = handlers.run_request
    request_s = {}

    def run_request(request, state):
        start = time.perf_counter()
        try:
            return timed_run_request(request, state)
        finally:
            request_s[current().trace_id] = time.perf_counter() - start

    # ReproServer binds its default runner when the class is defined, so
    # the default argument is the binding the server actually calls.
    runners = (timed_run_request, timed_run_request.__wrapped__)
    init = server.ReproServer.__init__
    init.__defaults__ = tuple(
        run_request if any(value is r for r in runners) else value
        for value in init.__defaults__)
    handlers.run_request = run_request

    try:
        return cli.main(args.cli)
    finally:
        with open(args.trace_out, "w") as handle:
            json.dump({"trace": tracer.to_json(), "request_s": request_s},
                      handle)


if __name__ == "__main__":
    sys.exit(main())
