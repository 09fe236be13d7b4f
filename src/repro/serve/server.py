"""The campaign service: an asyncio HTTP/JSON front over the simulator.

One long-lived process owns a world LRU, a content-addressed result
cache, and a small compute pool; clients POST campaign specs and get
back rendered reports.  Three properties organize the design:

* **Compute never blocks the loop.**  Every campaign runs in a worker
  thread (``run_in_executor`` over the same pool machinery campaigns
  already use); the event loop only parses requests, joins flights, and
  streams bytes.
* **Identical concurrent requests run once.**  Requests are keyed by
  their canonical spec through
  :class:`repro.sim.campaign.SingleFlight`; joiners await the leader's
  future and are counted as ``serve.dedup_joined``.
* **Cancellation never corrupts state.**  The leader's compute runs in
  an *independent* loop task — a request that times out (504) or whose
  client disconnects abandons its wait, not the computation, so the
  cache write still lands atomically and the entry stays CRC-valid.

Observability rides the existing telemetry subsystem: compute threads
collect into job-local :class:`~repro.telemetry.context.Telemetry`
contexts whose snapshots the loop adopts (the collector itself is not
thread-safe), and ``GET /metrics`` renders the aggregate in Prometheus
text format.  All serving metrics live under the ``serve.`` namespace,
which is excluded from the cross-backend determinism contract.

Routes::

    GET  /healthz            liveness + drain state + queue occupancy
    GET  /metrics            Prometheus text (``?format=json`` for JSON)
    GET  /metrics/history    bounded time-series window (``?last=N``)
    GET  /cache              result-cache entries (manifest-only reads)
    POST /campaign           run/serve a campaign; JSON summary
    POST /report             run/serve a campaign; text/plain report

Every request carries a 128-bit trace ID — minted per request, or
honored from an ``X-Repro-Trace`` header — that is stamped on the
request span, the flight, the compute's whole span tree (executor jobs
across the pickle boundary, per-shard streams), the access log, and
the ``X-Repro-Trace`` response header; see ``repro.telemetry.tracing``.

Backpressure contract: ``queue_depth`` caps admitted-but-unfinished
requests (429 beyond it), and a draining server (SIGTERM) refuses new
work with 503 while in-flight requests run to completion.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import threading
import urllib.parse
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import os
import time

from repro.serve import resultcache
from repro.serve.handlers import (BadRequest, CampaignRequest, ResultPayload,
                                  ServeState, parse_request, run_request)
from repro.sim.campaign import SingleFlight
from repro.telemetry.context import Telemetry, use
from repro.telemetry.metrics import exposition_text, metrics_json
from repro.telemetry.timeseries import TimeSeriesRecorder
from repro.telemetry.tracing import new_trace_id, valid_trace_id

#: Sane cap on request bodies: specs are a few hundred bytes.
MAX_BODY_BYTES = 64 * 1024
MAX_HEADER_LINES = 64

REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one server instance."""

    host: str = "127.0.0.1"
    port: int = 0                  # 0 → ephemeral, read back from .port
    queue_depth: int = 8           # admitted-but-unfinished request cap
    request_timeout: float = 300.0  # per-request wall budget (s) → 504
    pool_size: int = 2             # compute threads (campaigns at once)
    executor: Optional[str] = None  # campaign backend (serial/thread/...)
    workers: Optional[int] = None  # campaign pool width
    #: Plane-granular incremental recomputation on the grid-surface miss
    #: path (None → ``REPRO_PLANE_CACHE``; ``--no-plane-cache`` → False).
    plane_cache: Optional[bool] = None
    cache_dir: Optional[str] = None
    world_lru: int = 4
    journal: Optional[str] = None  # NDJSON telemetry journal path
    #: Size-based journal rotation budget (``.1``/``.2`` backups); a
    #: long-lived server must not grow an unbounded NDJSON file.
    journal_max_bytes: Optional[int] = None
    access_log: Optional[str] = None  # per-request NDJSON access log
    history_interval: float = 1.0  # /metrics/history sampling tick (s)
    history_samples: int = 512     # /metrics/history ring-buffer depth


class _AccessLog:
    """Append-only NDJSON access log with the journal's rotation scheme.

    One line per completed request — trace ID, route, status, cache
    source, queue wait, latency — written on the event loop (a few
    hundred bytes, no fsync).  When ``max_bytes`` is set, the file
    rotates through ``.1``/``.2`` backups exactly like the telemetry
    journal, so a long-lived server is bounded on both artifacts.
    """

    def __init__(self, path: str, max_bytes: Optional[int] = None,
                 backups: int = 2) -> None:
        self.path = path
        self.max_bytes = max_bytes
        self.backups = max(int(backups), 1)
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._handle = open(path, "a", encoding="utf-8")
        self._bytes = self._handle.tell()

    def write(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":")) + "\n"
        if self.max_bytes is not None and self._bytes \
                and self._bytes + len(line) > self.max_bytes:
            self._rotate()
        self._handle.write(line)
        self._handle.flush()
        self._bytes += len(line)

    def _rotate(self) -> None:
        self._handle.close()
        for index in range(self.backups, 0, -1):
            source = self.path if index == 1 else f"{self.path}.{index - 1}"
            try:
                os.replace(source, f"{self.path}.{index}")
            except FileNotFoundError:
                pass
        self._handle = open(self.path, "a", encoding="utf-8")
        self._bytes = 0

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


class ReproServer:
    """The serving core: routes, flights, telemetry, and lifecycle.

    ``runner`` is the blocking compute function (default
    :func:`repro.serve.handlers.run_request`); the fault-injection suite
    swaps in failing/hanging runners to drive the error paths without
    touching transport code.
    """

    def __init__(self, config: Optional[ServeConfig] = None,
                 state: Optional[ServeState] = None,
                 runner: Callable[[CampaignRequest, ServeState],
                                  ResultPayload] = run_request) -> None:
        self.config = config or ServeConfig()
        self.state = state or ServeState(
            cache_dir=self.config.cache_dir,
            executor=self.config.executor,
            workers=self.config.workers,
            plane_cache=self.config.plane_cache,
            world_lru=self.config.world_lru)
        self.runner = runner
        self.history = TimeSeriesRecorder(
            max_samples=self.config.history_samples,
            interval_s=self.config.history_interval)
        self.telemetry = Telemetry(
            journal=self.config.journal,
            max_journal_bytes=self.config.journal_max_bytes,
            timeseries=self.history)
        self.access_log: Optional[_AccessLog] = None
        if self.config.access_log:
            self.access_log = _AccessLog(
                self.config.access_log,
                max_bytes=self.config.journal_max_bytes)
        self.port: Optional[int] = None
        self._flights = SingleFlight()
        self._sampler: Optional[asyncio.Task] = None
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.pool_size,
            thread_name_prefix="repro-serve")
        self._server: Optional[asyncio.AbstractServer] = None
        self._flight_tasks: set = set()
        self._active = 0            # admitted POSTs not yet responded
        self._n_flights = 0
        self._draining = False
        self._closed = asyncio.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "ReproServer":
        """Bind the listener; ``self.port`` is the actual port."""
        # repro.core.stats imports scipy.special on first use.  Load it
        # now, not in the first cold full report: that import (~0.35 s)
        # would run on a compute thread under load, and hits waiting on
        # the same interpreter lock would stall behind it.
        import scipy.special  # noqa: F401

        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._sampler = asyncio.ensure_future(self._sample_loop())
        return self

    async def _sample_loop(self) -> None:
        """Feed ``/metrics/history`` one sample per tick, with gauges.

        Span exits also sample opportunistically (the recorder
        rate-limits), but an idle server emits no spans — this tick
        keeps the window alive so ``repro top`` always has fresh rows.
        """
        while not self._draining:
            await asyncio.sleep(self.config.history_interval)
            self.history.sample(self.telemetry, active=self._active,
                                flights=self._flights.in_flight(),
                                queue_depth=self.config.queue_depth)

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, finish in-flight, close.

        Idempotent; ``wait_closed`` wakes once the listener is closed
        and every flight has resolved.
        """
        if self._draining:
            await self._closed.wait()
            return
        self._draining = True
        if self._sampler is not None:
            self._sampler.cancel()
            try:
                await self._sampler
            except asyncio.CancelledError:
                pass
        if self._flight_tasks:
            await asyncio.gather(*tuple(self._flight_tasks),
                                 return_exceptions=True)
        while self._active:  # let admitted requests flush their responses
            await asyncio.sleep(0.01)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Flights are resolved, so no worker is mid-campaign; don't wait
        # on thread join from the loop.
        self._pool.shutdown(wait=False)
        self.telemetry.close()
        if self.access_log is not None:
            self.access_log.close()
        self._closed.set()

    async def wait_closed(self) -> None:
        await self._closed.wait()

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------
    # Compute dispatch (single-flight + independent leader task)
    # ------------------------------------------------------------------

    def _job(self, request: CampaignRequest, trace: str,
             submitted: float) -> Tuple[ResultPayload, dict, float]:
        """Worker-thread body: run under a job-local telemetry context.

        The leading request's trace ID seeds the job-local collector, so
        every span the compute opens — ``serve.compute``, the executor
        grid, per-shard streams, worker jobs across the pickle boundary —
        carries it; the snapshot rides back for loop-side adoption.
        ``submitted`` times the queue wait (pool submit → thread start).
        """
        wait_s = time.monotonic() - submitted
        tel = Telemetry(trace_id=trace or None)
        tel.observe_value("serve.queue_wait", wait_s)
        with use(tel):
            payload = self.runner(request, self.state)
        payload.trace = trace
        return payload, tel.snapshot(), wait_s

    async def _finish_flight(self, spec: str, trace: str, started: float,
                             pending: concurrent.futures.Future) -> None:
        """Loop-side completion of one flight's compute.

        Runs as its own task, so a waiter's timeout or disconnect can
        never cancel the compute or lose its telemetry; counter adoption
        happens here, on the loop thread, keeping the collector
        single-threaded.
        """
        tel = self.telemetry
        try:
            payload, snap, wait_s = await asyncio.wrap_future(pending)
        except BaseException as error:  # noqa: BLE001 — forwarded to waiters
            tel.count("serve.error", kind=type(error).__name__)
            self._flights.finish(spec, error=error)
            return
        self._n_flights += 1
        tel.adopt(snap, prefix=f"f{self._n_flights}.")
        tel.count(f"serve.cache_{payload.source}")
        tel.span_event("serve.flight",
                       wall_s=asyncio.get_event_loop().time() - started,
                       trace=trace or None, key=payload.key[:12],
                       source=payload.source,
                       queue_wait_s=round(wait_s, 6))
        self._flights.finish(spec, result=payload)

    async def _serve_request(self, request: CampaignRequest,
                             trace: str = "") -> ResultPayload:
        """Join or lead the flight for ``request``; await its payload."""
        spec = request.canonical()
        fut, leader = self._flights.begin(spec)
        if leader:
            pending = self._pool.submit(self._job, request, trace,
                                        time.monotonic())
            task = asyncio.ensure_future(self._finish_flight(
                spec, trace, asyncio.get_event_loop().time(), pending))
            self._flight_tasks.add(task)
            task.add_done_callback(self._flight_tasks.discard)
        else:
            self.telemetry.count("serve.dedup_joined")
        # shield: a timeout abandons the wait, never the flight future
        # (a bare Future would otherwise be *cancelled*, wedging joiners).
        return await asyncio.wait_for(
            asyncio.shield(asyncio.wrap_future(fut)),
            self.config.request_timeout)

    # ------------------------------------------------------------------
    # HTTP plumbing (stdlib streams; HTTP/1.1, Connection: close)
    # ------------------------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            await self._handle_one(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError):
            # Client went away mid-request/mid-stream; nothing to serve.
            self.telemetry.count("serve.client_disconnect")
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_one(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            return
        parts = request_line.split()
        if len(parts) != 3:
            await self._respond(writer, 400, {"error": "malformed request"})
            return
        method, target, _version = parts
        headers: Dict[str, str] = {}
        for _ in range(MAX_HEADER_LINES):
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = int(headers.get("content-length", 0) or 0)
        if length > MAX_BODY_BYTES:
            await self._respond(writer, 413, {"error": "body too large"})
            return
        if length:
            body = await reader.readexactly(length)

        url = urllib.parse.urlsplit(target)
        query = dict(urllib.parse.parse_qsl(url.query))
        # Per-request trace identity: honor a well-formed upstream
        # X-Repro-Trace header, mint otherwise.  Every span, access-log
        # line, and response header of this request carries it.
        trace = headers.get("x-repro-trace", "")
        if not valid_trace_id(trace):
            trace = new_trace_id()
        info: Dict[str, object] = {}
        loop = asyncio.get_event_loop()
        t0 = loop.time()
        status = await self._route(method, url.path, query, body, writer,
                                   trace, info)
        wall = loop.time() - t0
        tel = self.telemetry
        tel.count("serve.request", route=url.path, status=status)
        tel.observe_value("serve.request_wall", wall, route=url.path)
        tel.span_event("serve.request", wall_s=wall, route=url.path,
                       status=status, trace=trace)
        if self.access_log is not None:
            record = {"ts": round(time.time(), 3), "trace": trace,
                      "route": url.path, "method": method, "status": status,
                      "wall_s": round(wall, 6), "active": self._active}
            record.update(info)
            self.access_log.write(record)

    async def _route(self, method: str, path: str, query: Dict[str, str],
                     body: bytes, writer: asyncio.StreamWriter,
                     trace: str = "",
                     info: Optional[dict] = None) -> int:
        info = info if info is not None else {}
        if path == "/healthz" and method == "GET":
            return await self._respond(writer, 200, {
                "status": "draining" if self._draining else "ok",
                "active": self._active,
                "flights": self._flights.in_flight(),
                "queue_depth": self.config.queue_depth,
            }, trace=trace)
        if path == "/metrics" and method == "GET":
            tel = self.telemetry
            if query.get("format") == "json":
                return await self._respond(
                    writer, 200, metrics_json(tel.counters, tel.histograms),
                    trace=trace)
            text = exposition_text(tel.counters, tel.histograms)
            return await self._respond(
                writer, 200, text.encode("utf-8"),
                content_type="text/plain; version=0.0.4", trace=trace)
        if path == "/metrics/history" and method == "GET":
            try:
                last = int(query["last"]) if "last" in query else None
            except ValueError:
                return await self._respond(
                    writer, 400, {"error": "last must be an integer"},
                    trace=trace)
            return await self._respond(
                writer, 200, self.history.as_dict(last), trace=trace)
        if path == "/cache" and method == "GET":
            from repro.serve import planecache
            entries = resultcache.list_entries(self.state.cache_dir)
            planes = planecache.list_entries(self.state.cache_dir)
            return await self._respond(writer, 200, {
                "entries": [{"key": e.key, "nbytes": e.nbytes,
                             "valid": e.valid} for e in entries],
                "planes": {"count": len(planes),
                           "nbytes": sum(p.nbytes for p in planes),
                           "worlds": planecache.by_world(planes)}},
                trace=trace)
        if path in ("/campaign", "/report"):
            if method != "POST":
                return await self._respond(
                    writer, 405, {"error": "POST required"}, trace=trace)
            return await self._campaign(path, body, writer, trace, info)
        return await self._respond(writer, 404,
                                   {"error": f"no route {path}"},
                                   trace=trace)

    async def _campaign(self, path: str, body: bytes,
                        writer: asyncio.StreamWriter, trace: str = "",
                        info: Optional[dict] = None) -> int:
        info = info if info is not None else {}
        if self._draining:
            return await self._respond(
                writer, 503, {"error": "server is draining"}, trace=trace)
        if self._active >= self.config.queue_depth:
            self.telemetry.count("serve.rejected")
            return await self._respond(
                writer, 429, {"error": "queue full",
                              "queue_depth": self.config.queue_depth},
                trace=trace)
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
            request = parse_request(payload)
        except (ValueError, UnicodeDecodeError) as error:
            return await self._respond(
                writer, 400, {"error": f"invalid JSON body: {error}"},
                trace=trace)
        except BadRequest as error:
            return await self._respond(writer, 400, {"error": str(error)},
                                       trace=trace)

        self._active += 1
        try:
            result = await self._serve_request(request, trace)
        except asyncio.TimeoutError:
            self.telemetry.count("serve.timeout")
            return await self._respond(
                writer, 504,
                {"error": "request timed out; compute continues and will "
                          "be cached", "timeout_s":
                          self.config.request_timeout}, trace=trace)
        except Exception as error:  # noqa: BLE001 — any compute failure
            return await self._respond(
                writer, 500, {"error": f"{type(error).__name__}: {error}"},
                trace=trace)
        finally:
            self._active -= 1

        info["key"] = result.key
        info["source"] = result.source
        extra = {"X-Repro-Key": result.key, "X-Repro-Source": result.source}
        if path == "/report":
            return await self._respond(
                writer, 200, result.report.encode("utf-8"),
                content_type="text/plain; charset=utf-8", extra=extra,
                trace=trace)
        return await self._respond(writer, 200, {
            "key": result.key, "source": result.source,
            "meta": result.meta}, extra=extra, trace=trace)

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       body, content_type: str = "application/json",
                       extra: Optional[Dict[str, str]] = None,
                       trace: str = "") -> int:
        if isinstance(body, dict):
            body = (json.dumps(body, sort_keys=True) + "\n").encode("utf-8")
        reason = REASONS.get(status, "")
        head = [f"HTTP/1.1 {status} {reason}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(body)}",
                "Connection: close"]
        if trace:
            head.append(f"X-Repro-Trace: {trace}")
        for name, value in (extra or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()
        return status


# ----------------------------------------------------------------------
# Foreground + background entry points
# ----------------------------------------------------------------------

async def serve_async(config: Optional[ServeConfig] = None,
                      state: Optional[ServeState] = None,
                      ready: Optional[Callable[[ReproServer], None]] = None
                      ) -> None:
    """Run a server until SIGTERM/SIGINT, then drain gracefully."""
    import signal

    server = ReproServer(config, state)
    await server.start()
    loop = asyncio.get_event_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(
                sig, lambda: asyncio.ensure_future(server.drain()))
        except (NotImplementedError, RuntimeError):
            pass  # non-Unix loop: Ctrl-C still raises KeyboardInterrupt
    if ready is not None:
        ready(server)
    await server.wait_closed()


@dataclass
class ThreadedServer:
    """A server on a background event-loop thread (tests, bench, examples).

    Usable as a context manager::

        with ThreadedServer(ServeConfig(queue_depth=4)) as ts:
            client = ServeClient(port=ts.port)
            ...
        # exit: graceful drain, loop stopped, thread joined
    """

    config: Optional[ServeConfig] = None
    state: Optional[ServeState] = None
    runner: Callable = run_request
    server: Optional[ReproServer] = None
    _thread: Optional[threading.Thread] = None
    _loop: Optional[asyncio.AbstractEventLoop] = None
    _ready: threading.Event = field(default_factory=threading.Event)
    _failure: Optional[BaseException] = None

    @property
    def port(self) -> int:
        assert self.server is not None and self.server.port is not None
        return self.server.port

    def start(self) -> "ThreadedServer":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve-loop")
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server failed to start within 30s")
        if self._failure is not None:
            raise RuntimeError("server failed to start") from self._failure
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)

        async def main() -> None:
            try:
                self.server = ReproServer(self.config, self.state,
                                          runner=self.runner)
                await self.server.start()
            except BaseException as error:
                self._failure = error
                raise
            finally:
                self._ready.set()
            await self.server.wait_closed()

        try:
            loop.run_until_complete(main())
        except BaseException:
            if self._failure is None and not self._ready.is_set():
                self._ready.set()
        finally:
            loop.close()

    def stop(self, timeout: float = 60.0) -> None:
        """Drain the server and join the loop thread."""
        if self._loop is None or self.server is None \
                or self._loop.is_closed():
            return
        try:
            future = asyncio.run_coroutine_threadsafe(self.server.drain(),
                                                      self._loop)
            future.result(timeout=timeout)
        except RuntimeError:
            pass  # loop shut down between the check and the submit
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "ThreadedServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
