"""The telemetry runtime: spans, the active context, and the no-op path.

A :class:`Telemetry` object is one run's collector: it keeps every
span/event record in memory (the test-friendly collector), aggregates
counters and histograms, and — when given a journal path — streams each
record to an NDJSON file as it is emitted.  The *active* telemetry is
carried in a :class:`contextvars.ContextVar`, so instrumented library
code (``World.observe``, the executor) never threads a handle through its
signatures: it asks :func:`current` and gets either the active collector
or the shared :data:`NULL` no-op.

The disabled fast path is load-bearing: with no active telemetry,
``current().enabled`` is a plain attribute read on a singleton and
``span()`` returns one shared re-entrant null context manager — no
allocation, no clock reads.  The benchmark guard
(``benchmarks/test_perf_telemetry.py``) holds instrumentation overhead on
the observe path to ≤5 %, and that is only achievable because the
default path does essentially nothing.

Context propagation across workers is explicit, not ambient: each
executor job runs under a fresh job-local ``Telemetry`` (thread workers
set the contextvar in their own thread; process workers get a
``collect`` flag through the pool initializer), and the parent adopts
each job's snapshot in job-index order — so journals and counter totals
are deterministic regardless of scheduling (see
:mod:`repro.telemetry.metrics` for the determinism contract).

Distributed tracing rides the same machinery: a collector may carry a
128-bit ``trace_id`` (:mod:`repro.telemetry.tracing`), which stamps a
``"trace"`` field onto every span/event it emits, travels inside
:meth:`Telemetry.snapshot` across the executor's pickle boundary, and is
re-stamped by :meth:`Telemetry.adopt` — so one served request's spans
correlate into a single trace no matter how many collectors, threads, or
processes produced them.  Adoption also rebases adopted span start
offsets into the adopter's timeline (each snapshot records its
collector's wall-clock origin), keeping merged journals time-coherent
for the Chrome trace exporter.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional, Union

from repro.telemetry.metrics import CounterSet, HistogramSet

#: Schema tag stamped on every journal's leading ``run`` record.
SCHEMA = "repro-telemetry-v1"

try:
    import resource as _resource
except ImportError:  # non-Unix platform
    _resource = None


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes (0 if unknown).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalized
    here so gauges and reports are always bytes.
    """
    if _resource is None:
        return 0
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(peak)
    return int(peak) * 1024


class _NullSpan:
    """Shared no-op span: one instance serves every disabled call site."""

    __slots__ = ()
    #: Null spans have no identity; adopters/parents treat this as "root".
    span_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """The disabled telemetry: every operation is a cheap no-op."""

    __slots__ = ()
    enabled = False
    journal_path = None
    trace_id = None

    def span(self, name: str, **attrs: object) -> _NullSpan:
        return _NULL_SPAN

    def span_event(self, name: str, wall_s: float, cpu_s: float = 0.0,
                   trace: Optional[str] = None, **attrs: object) -> None:
        pass

    def count(self, name: str, value: float = 1, **attrs: object) -> None:
        pass

    def observe_value(self, name: str, value: float,
                      **attrs: object) -> None:
        pass

    def event(self, name: str, **attrs: object) -> None:
        pass


#: The process-wide disabled singleton.
NULL = NullTelemetry()

_ACTIVE: ContextVar[Union[NullTelemetry, "Telemetry"]] = \
    ContextVar("repro_telemetry", default=NULL)


def current() -> Union[NullTelemetry, "Telemetry"]:
    """The active telemetry context (the no-op singleton when none)."""
    return _ACTIVE.get()


def disabled() -> bool:
    """True when no telemetry is active — the zero-overhead fast path."""
    return not _ACTIVE.get().enabled


@contextlib.contextmanager
def use(telemetry: Union[NullTelemetry, "Telemetry"]) -> Iterator:
    """Activate a telemetry context for the duration of the block.

    Setting the contextvar in a worker thread affects only that thread,
    which is exactly the isolation job-local collectors need.
    """
    token = _ACTIVE.set(telemetry)
    try:
        yield telemetry
    finally:
        _ACTIVE.reset(token)


class _Span:
    """An open tracing span; closing it emits one ``span`` record."""

    __slots__ = ("_tel", "name", "attrs", "span_id", "parent_id",
                 "_start", "_cpu0", "_offset")

    def __init__(self, tel: "Telemetry", name: str,
                 attrs: Dict[str, object]) -> None:
        self._tel = tel
        self.name = name
        self.attrs = attrs
        self.span_id: Optional[str] = None
        self.parent_id: Optional[str] = None

    def __enter__(self) -> "_Span":
        tel = self._tel
        self.span_id = tel._new_span_id()
        self.parent_id = tel._stack[-1] if tel._stack else None
        tel._stack.append(self.span_id)
        self._offset = time.perf_counter() - tel._t0
        self._start = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def set(self, **attrs: object) -> None:
        """Attach attributes discovered after the span opened."""
        self.attrs.update(attrs)

    def __exit__(self, exc_type, exc, tb) -> bool:
        tel = self._tel
        wall = time.perf_counter() - self._start
        cpu = time.process_time() - self._cpu0
        tel._stack.pop()
        record: dict = {
            "t": "span", "name": self.name, "id": self.span_id,
            "parent": self.parent_id,
            "start_s": round(self._offset, 6),
            "wall_s": round(wall, 6), "cpu_s": round(cpu, 6),
        }
        if tel.trace_id is not None:
            record["trace"] = tel.trace_id
        if self.attrs:
            record["attrs"] = self.attrs
        if exc_type is not None:
            record["error"] = exc_type.__name__
        tel.emit(record)
        # High-water memory gauge: sampling at every span exit makes the
        # max track the run's hot phases with no dedicated poller.  The
        # ``runtime.`` prefix keeps it out of the cross-backend
        # determinism contract (it is genuinely process-local).
        rss = peak_rss_bytes()
        if rss:
            tel.observe_value("runtime.peak_rss_bytes", rss)
        if tel.timeseries is not None:
            tel.timeseries.maybe_sample(tel)
        return False


class Telemetry:
    """One run's telemetry: in-memory collector plus optional journal.

    Usable as a context manager::

        with Telemetry(journal="run.ndjson") as tel:
            run_campaign(...)          # instrumentation finds `tel`
        # exit: counters flushed, journal closed, context restored

    ``records`` holds span/event records in emission order; counters and
    histograms aggregate separately and are appended to the journal as
    records at flush time.
    """

    enabled = True

    def __init__(self, journal: Union[str, os.PathLike, None] = None,
                 meta: Optional[Dict[str, object]] = None,
                 trace_id: Optional[str] = None,
                 max_journal_bytes: Optional[int] = None,
                 journal_backups: int = 2,
                 timeseries=None) -> None:
        self.records: List[dict] = []
        self.counters = CounterSet()
        self.histograms = HistogramSet()
        self._stack: List[str] = []
        self._n_spans = 0
        self._t0 = time.perf_counter()
        self._unix0 = time.time()
        self._closed = False
        self._use_cm = None
        #: Trace identity stamped onto every span/event this collector
        #: emits (see :mod:`repro.telemetry.tracing`).  ``None`` means
        #: untraced; :func:`repro.sim.campaign.run_campaign` mints one
        #: when absent, the serving layer mints one per request.
        self.trace_id = trace_id
        #: Optional :class:`~repro.telemetry.timeseries.TimeSeriesRecorder`
        #: sampled (rate-limited) at every span exit.
        self.timeseries = timeseries
        self.journal_path: Optional[str] = None
        self._handle = None
        self._max_journal_bytes = max_journal_bytes
        self._journal_backups = max(int(journal_backups), 1)
        self._journal_bytes = 0
        self._header: Optional[dict] = None
        if journal is not None:
            path = os.fspath(journal)
            parent = os.path.dirname(path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self.journal_path = path
            self._handle = open(path, "w")
            header: dict = {"t": "run", "schema": SCHEMA,
                            "pid": os.getpid(),
                            "unix_time": round(time.time(), 3)}
            if trace_id is not None:
                header["trace_id"] = trace_id
            if meta:
                header["meta"] = dict(meta)
            self._header = header
            self._write(header)

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def _new_span_id(self) -> str:
        self._n_spans += 1
        return str(self._n_spans)

    def span(self, name: str, **attrs: object) -> _Span:
        return _Span(self, name, attrs)

    def span_event(self, name: str, wall_s: float, cpu_s: float = 0.0,
                   trace: Optional[str] = None, **attrs: object) -> None:
        """A completed child span, recorded without entering the stack.

        This is how per-stage timings become spans: the stage boundary
        stamps a duration, and the record slots in as a child of the
        enclosing span.  ``trace`` overrides the collector's own trace
        ID — the serving layer's shared collector uses it to stamp each
        request span with that request's trace.
        """
        record: dict = {
            "t": "span", "name": name, "id": self._new_span_id(),
            "parent": self._stack[-1] if self._stack else None,
            "wall_s": round(wall_s, 6), "cpu_s": round(cpu_s, 6),
        }
        trace = trace if trace is not None else self.trace_id
        if trace is not None:
            record["trace"] = trace
        if attrs:
            record["attrs"] = attrs
        self.emit(record)
        if self.timeseries is not None:
            self.timeseries.maybe_sample(self)

    def count(self, name: str, value: float = 1, **attrs: object) -> None:
        self.counters.add(name, value, **attrs)

    def observe_value(self, name: str, value: float,
                      **attrs: object) -> None:
        self.histograms.observe(name, value, **attrs)

    def event(self, name: str, **attrs: object) -> None:
        record: dict = {"t": "event", "name": name,
                        "parent": self._stack[-1] if self._stack else None}
        if self.trace_id is not None:
            record["trace"] = self.trace_id
        if attrs:
            record["attrs"] = attrs
        self.emit(record)

    def emit(self, record: dict) -> None:
        """Append a finished record and stream it to the journal."""
        self.records.append(record)
        if self._handle is not None:
            self._write(record)

    def _write(self, record: dict) -> None:
        line = json.dumps(record, separators=(",", ":"), sort_keys=True,
                          default=str) + "\n"
        self._handle.write(line)
        self._journal_bytes += len(line)
        # The second clause keeps a pathological budget (smaller than a
        # single record) from rotating on every write, recursively.
        if self._max_journal_bytes is not None \
                and self._journal_bytes >= self._max_journal_bytes \
                and self._journal_bytes > len(line):
            self._rotate_journal()

    def _rotate_journal(self) -> None:
        """Size-based journal rotation: ``p`` → ``p.1`` → ``p.2`` → gone.

        Long-lived collectors (the serving layer's) would otherwise grow
        an unbounded NDJSON file.  The active journal restarts with a
        fresh ``run`` header (stamped ``rotated``), so every segment —
        current or suffixed — parses standalone with
        :func:`~repro.telemetry.journal.read_journal`.
        """
        self._handle.close()
        path = self.journal_path
        for index in range(self._journal_backups, 0, -1):
            source = path if index == 1 else f"{path}.{index - 1}"
            try:
                os.replace(source, f"{path}.{index}")
            except FileNotFoundError:
                pass
        self._handle = open(path, "w")
        self._journal_bytes = 0
        if self._header is not None:
            header = dict(self._header)
            header["rotated"] = header.get("rotated", 0) + 1
            self._header = header
            self._write(header)

    # ------------------------------------------------------------------
    # Worker-snapshot merging
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data dump of this collector, for crossing pool boundaries.

        Carries the collector's trace ID (so a worker's spans stay
        correlated after the pickle boundary) and its wall-clock origin
        (so :meth:`adopt` can rebase span offsets into the adopter's
        timeline).
        """
        return {
            "records": self.records,
            "counters": self.counters.items(),
            "hists": self.histograms.items(),
            "trace_id": self.trace_id,
            "unix0": self._unix0,
        }

    def adopt(self, snap: dict, prefix: str,
              parent_id: Optional[str] = None) -> None:
        """Merge a job-local snapshot into this collector.

        Span/event ids are re-namespaced under ``prefix`` (job index), and
        the job's root spans are re-parented under ``parent_id``, so the
        merged journal is one coherent tree.  Callers adopt snapshots in
        job-index order, making the merged stream deterministic no matter
        which worker ran what.

        Records missing a trace are stamped with the snapshot's trace ID
        (falling back to the adopter's), and span start offsets are
        rebased from the snapshot collector's time origin onto this
        collector's — so the merged journal is both trace-correlated and
        time-coherent.
        """
        trace = snap.get("trace_id") or self.trace_id
        shift = None
        unix0 = snap.get("unix0")
        if unix0 is not None:
            shift = unix0 - self._unix0
        for record in snap["records"]:
            record = dict(record)
            if record.get("id"):
                record["id"] = prefix + record["id"]
            if record.get("parent"):
                record["parent"] = prefix + record["parent"]
            elif "parent" in record or record.get("t") == "span":
                record["parent"] = parent_id
            if trace is not None and record.get("t") in ("span", "event") \
                    and "trace" not in record:
                record["trace"] = trace
            if shift is not None and "start_s" in record:
                record["start_s"] = round(record["start_s"] + shift, 6)
            self.emit(record)
        self.counters.merge_items(snap["counters"])
        self.histograms.merge_items(snap["hists"])

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def metric_records(self) -> List[dict]:
        """Counter + histogram records as they would appear in the journal."""
        return self.counters.records() + self.histograms.records()

    def flush(self) -> List[dict]:
        """Write aggregated metrics to the journal (records returned)."""
        metrics = self.metric_records()
        if self._handle is not None:
            for record in metrics:
                self._write(record)
            self._handle.flush()
        return metrics

    def close(self) -> None:
        """Flush metrics and close the journal (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.flush()
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "Telemetry":
        self._use_cm = use(self)
        self._use_cm.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            self.close()
        finally:
            cm, self._use_cm = self._use_cm, None
            cm.__exit__(exc_type, exc, tb)
        return False
