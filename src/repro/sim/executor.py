"""Pluggable execution backends for campaign observation grids.

A campaign is a grid of independent ``(protocol, trial, origin)``
observations: every stochastic draw in the simulator is counter-addressed
(:mod:`repro.rng`), so the outcome of one observation never depends on
when — or in which worker — any other observation ran.  This module
exploits that property to fan the grid out across threads or processes
while guaranteeing results bit-identical to serial execution.  The unit
of work is a :class:`TrialBatchJob`: every trial of one (protocol,
origin), evaluated in one pass of the observation kernel
(:func:`repro.sim.batch.observe_trial_batch`).

Three backends share one interface:

* :class:`SerialExecutor` — the reference implementation, one job at a
  time in submission order.
* :class:`ThreadExecutor` — a thread pool; the world is shared, which is
  safe because its lazy caches memoize pure counter-addressed functions
  (a racing rebuild produces the identical value).
* :class:`ProcessExecutor` — a process pool; the world's array plane is
  broadcast once through ``multiprocessing.shared_memory`` (workers
  attach zero-copy read-only views and rebuild the world around them),
  with the small scalar skeleton pickled per worker.  Job payloads stay
  small (an :class:`Origin`, its trial-reseeded
  :class:`ZMapConfig` tuple, and indices).  ``REPRO_WORLD_TRANSPORT=pickle`` — or any failure to
  create the shared block — falls back to pickling the whole world into
  the pool initializer, the pre-shared-memory behaviour.

Every job carries everything a worker needs — including the origin's
``first_trial`` (rate-IDS state carries over from it), which must travel
*in the payload* because a worker process cannot see the full origin
list to recompute it.

Determinism contract: :meth:`Executor.run_grid` returns observations in
job-index order regardless of completion order, so
``run_campaign(..., executor=X)`` is byte-identical for every backend
(tested in ``tests/test_executor_equivalence.py``).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
from abc import ABC, abstractmethod
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, \
    ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from multiprocessing import shared_memory

from repro.io.columnar import (arrays_from_buffer, decompose_world,
                               pack_into, pack_layout, recompose_world)
from repro.origins import Origin
from repro.scanner.zmap import ZMapConfig, ZMapScanner
from repro.sim.batch import BatchOutput, observe_trial_batch
from repro.sim.plan import ObserveProfile
from repro.sim.world import World
from repro.telemetry.context import Telemetry, current as _telemetry, \
    peak_rss_bytes as _peak_rss, use
from repro.telemetry.tracing import TraceContext

#: Environment variables consulted when no executor is passed explicitly;
#: they let an entire test run (``make test-parallel``) exercise the
#: parallel path without touching call sites.
ENV_EXECUTOR = "REPRO_EXECUTOR"
ENV_WORKERS = "REPRO_WORKERS"
#: How the process backend ships the world: ``shm`` (default) or
#: ``pickle`` (the reference path shared memory falls back to).
ENV_TRANSPORT = "REPRO_WORLD_TRANSPORT"

#: Registered world transports for the process backend.
TRANSPORTS = ("shm", "pickle")

#: Progress callback signature: ``(jobs_done, jobs_total, job)``.
ProgressCallback = Callable[[int, int, "TrialBatchJob"], None]


@dataclass(frozen=True)
class TrialBatchJob:
    """One schedulable ``(protocol, origin)`` *trial batch*.

    All trials this origin participates in for one protocol, evaluated in
    a single kernel pass (:func:`repro.sim.batch.observe_trial_batch`).
    ``configs`` carries one trial-reseeded
    :class:`~repro.scanner.zmap.ZMapConfig` per entry of ``trials``
    (``seed + trial``), and ``first_trial`` is precomputed by the grid
    builder — a worker cannot recover it without the full origin
    participation schedule — so a worker needs no context beyond the
    world itself.

    ``plane_only`` skips Observation materialization and returns
    :class:`~repro.sim.batch.PlaneSlice` columns for streamed analyses.
    """

    index: int
    protocol: str
    origin: Origin
    trials: Tuple[int, ...]
    configs: Tuple[ZMapConfig, ...]
    first_trial: int
    origin_names: Tuple[str, ...]
    plane_only: bool = False


@dataclass(frozen=True)
class JobResult:
    """A job's per-trial outputs plus the instrumentation the report
    aggregates.

    ``observation`` holds one output per entry of ``job.trials``, in
    that order.
    """

    index: int
    observation: Tuple[BatchOutput, ...]
    wall_s: float
    worker: str
    #: Per-stage wall times of the job, as ``(stage, seconds)`` pairs.
    stages: Tuple[Tuple[str, float], ...] = ()
    #: Job-local telemetry snapshot (:meth:`Telemetry.snapshot`), present
    #: when the grid ran under an active telemetry context.  Plain data,
    #: so it crosses the process-pool pickle boundary unchanged.
    telemetry: Optional[dict] = None
    #: Peak RSS of the process that ran the job, in bytes (0 unknown).
    #: Sampled post-observation so process-pool workers report their own
    #: high-water mark across the pickle boundary.
    peak_rss_bytes: int = 0


@dataclass(frozen=True)
class ExecutionReport:
    """How a grid execution went: backend, timing, concurrency yield.

    ``job_wall_s`` is indexed like the job list; ``busy_s`` (its sum) is
    the serial-equivalent work, so ``busy_s / wall_s`` estimates the
    realized speedup.  :meth:`to_metadata` flattens the report into the
    JSON-able dict stored under ``CampaignDataset.metadata["execution"]``.
    """

    backend: str
    workers: int
    n_jobs: int
    wall_s: float
    job_wall_s: Tuple[float, ...]
    workers_used: int
    #: Observe-stage → total seconds, summed over every job (see
    #: :class:`repro.sim.plan.ObserveProfile`).
    stage_s: Tuple[Tuple[str, float], ...] = ()
    #: How the world reached the workers (``"shm"`` or ``"pickle"``);
    #: empty for backends that share the world in-process.
    transport: str = ""
    #: High-water resident memory over the run, in bytes: the max of the
    #: parent process and every worker that ran a job (0 if unknown).
    peak_rss_bytes: int = 0

    @classmethod
    def merged(cls, reports: Sequence["ExecutionReport"]
               ) -> "ExecutionReport":
        """One report for a run that executed several grids (one per
        shard): jobs, job walls and stage times add up, peaks take the
        max."""
        if len(reports) == 1:
            return reports[0]
        stage_totals: Dict[str, float] = {}
        for report in reports:
            for stage, seconds in report.stage_s:
                stage_totals[stage] = stage_totals.get(stage, 0.0) + seconds
        first = reports[0]
        return cls(
            backend=first.backend, workers=first.workers,
            n_jobs=sum(r.n_jobs for r in reports),
            wall_s=sum(r.wall_s for r in reports),
            job_wall_s=tuple(w for r in reports for w in r.job_wall_s),
            workers_used=max(r.workers_used for r in reports),
            stage_s=tuple(sorted(stage_totals.items())),
            transport=first.transport,
            peak_rss_bytes=max(r.peak_rss_bytes for r in reports))

    @property
    def busy_s(self) -> float:
        """Total per-job wall-clock — what a serial run would cost."""
        return float(sum(self.job_wall_s))

    @property
    def speedup(self) -> float:
        """Realized parallelism: serial-equivalent seconds per wall second."""
        if self.wall_s <= 0.0:
            return 1.0
        return self.busy_s / self.wall_s

    def to_metadata(self) -> Dict[str, object]:
        out = {
            "backend": self.backend,
            "workers": self.workers,
            "workers_used": self.workers_used,
            "n_jobs": self.n_jobs,
            "wall_s": round(self.wall_s, 6),
            "busy_s": round(self.busy_s, 6),
            "job_wall_max_s": round(max(self.job_wall_s), 6)
            if self.job_wall_s else 0.0,
            "speedup": round(self.speedup, 3),
            "stages": {stage: round(seconds, 6)
                       for stage, seconds in self.stage_s},
        }
        if self.transport:
            out["transport"] = self.transport
        if self.peak_rss_bytes:
            out["peak_rss_bytes"] = self.peak_rss_bytes
        return out


def run_job(world: World, job: TrialBatchJob, collect: bool = False,
            trace: Optional[TraceContext] = None) -> JobResult:
    """Execute one job against a world (any backend).

    Runs the observation kernel over the job's trial axis and returns a
    tuple of per-trial outputs.  With ``collect=True`` the job runs under
    a fresh job-local :class:`~repro.telemetry.context.Telemetry` whose
    snapshot rides back in the result; the parent adopts snapshots in
    job-index order, so the merged journal and counter totals are
    identical no matter which worker (or backend) ran the job.  A
    ``trace`` context stamps every job-local span with the originating
    request/campaign's trace ID — the snapshot carries it back across
    the pickle boundary, so adopted spans stay correlated with the tree
    that spawned them.
    """
    start = time.perf_counter()
    scanners = tuple(ZMapScanner(config) for config in job.configs)
    profile = ObserveProfile()
    worker = f"{os.getpid()}/{threading.current_thread().name}"
    snapshot = None
    if collect:
        job_tel = Telemetry(
            trace_id=trace.trace_id if trace is not None else None)
        with use(job_tel):
            with job_tel.span("executor.job", index=job.index,
                              protocol=job.protocol,
                              origin=job.origin.name,
                              n_trials=len(job.trials),
                              trials=[int(t) for t in job.trials]):
                observations = observe_trial_batch(
                    world, job.protocol, job.origin, job.trials, scanners,
                    job.origin_names, first_trial=job.first_trial,
                    plane_only=job.plane_only, profile=profile)
        job_tel.count("executor.jobs", 1)
        job_tel.count("runtime.worker_jobs", 1, worker=worker)
        snapshot = job_tel.snapshot()
    else:
        observations = observe_trial_batch(
            world, job.protocol, job.origin, job.trials, scanners,
            job.origin_names, first_trial=job.first_trial,
            plane_only=job.plane_only, profile=profile)
    wall = time.perf_counter() - start
    return JobResult(job.index, tuple(observations), wall, worker,
                     tuple(profile.stage_s.items()), snapshot, _peak_rss())


class Executor(ABC):
    """Executes an observation grid and reassembles deterministic output."""

    #: Backend name recorded in the :class:`ExecutionReport`.
    name: str = "abstract"

    #: Set by backends that ship the world across a process boundary;
    #: recorded as :attr:`ExecutionReport.transport`.
    _transport_used: str = ""

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers if workers is not None \
            else (os.cpu_count() or 1)

    @abstractmethod
    def _execute(self, world: World, jobs: Sequence[TrialBatchJob],
                 progress: Optional[ProgressCallback], collect: bool,
                 trace: Optional[TraceContext]) -> List[JobResult]:
        """Run every job, in any order, returning all results.

        ``collect`` asks each job to gather a job-local telemetry
        snapshot (see :func:`run_job`); ``trace`` is the ambient trace
        context (or ``None``).  Backends must forward both across their
        worker boundary.
        """

    def run_grid(self, world: World, jobs: Sequence[TrialBatchJob],
                 progress: Optional[ProgressCallback] = None
                 ) -> Tuple[List, ExecutionReport]:
        """Run the grid; per-job outputs come back in job-index order.

        Under an active telemetry context the whole grid runs inside an
        ``executor.run_grid`` span, and every job's telemetry snapshot is
        adopted — in job-index order, regardless of completion order —
        into the parent collector, so journals and counter totals are
        deterministic across backends and worker counts.
        """
        tel = _telemetry()
        start = time.perf_counter()
        if tel.enabled:
            with tel.span("executor.run_grid", backend=self.name,
                          workers=self.workers,
                          n_jobs=len(jobs)) as grid_span:
                trace = TraceContext(tel.trace_id, grid_span.span_id) \
                    if tel.trace_id else None
                results = self._execute(world, jobs, progress, True, trace)
            grid_id = grid_span.span_id
        else:
            results = self._execute(world, jobs, progress, False, None)
            grid_id = None
        wall = time.perf_counter() - start
        if len(results) != len(jobs):
            raise RuntimeError(
                f"executor returned {len(results)} results for "
                f"{len(jobs)} jobs")
        by_index: Dict[int, JobResult] = {r.index: r for r in results}
        ordered = [by_index[job.index] for job in jobs]
        if tel.enabled:
            for result in ordered:
                if result.telemetry is not None:
                    tel.adopt(result.telemetry,
                              prefix=f"j{result.index}.",
                              parent_id=grid_id)
                tel.observe_value("runtime.job_wall_s", result.wall_s,
                                  backend=self.name)
        stage_totals: Dict[str, float] = {}
        for result in ordered:
            for stage, seconds in result.stages:
                stage_totals[stage] = stage_totals.get(stage, 0.0) + seconds
        report = ExecutionReport(
            backend=self.name,
            workers=self.workers,
            n_jobs=len(jobs),
            wall_s=wall,
            job_wall_s=tuple(r.wall_s for r in ordered),
            workers_used=len({r.worker for r in ordered}),
            # Sorted by stage name: completion order must never leak into
            # metadata (thread workers finish in nondeterministic order).
            stage_s=tuple(sorted(stage_totals.items())),
            transport=self._transport_used,
            peak_rss_bytes=max([_peak_rss()]
                               + [r.peak_rss_bytes for r in ordered]))
        return [r.observation for r in ordered], report


class SerialExecutor(Executor):
    """The reference backend: one job at a time, submission order."""

    name = "serial"

    def __init__(self, workers: Optional[int] = None) -> None:
        super().__init__(1)

    def _execute(self, world: World, jobs: Sequence[TrialBatchJob],
                 progress: Optional[ProgressCallback], collect: bool,
                 trace: Optional[TraceContext]) -> List[JobResult]:
        results: List[JobResult] = []
        for done, job in enumerate(jobs, start=1):
            results.append(run_job(world, job, collect=collect,
                                   trace=trace))
            if progress is not None:
                progress(done, len(jobs), job)
        return results


class ThreadExecutor(Executor):
    """Thread-pool backend sharing one world across workers.

    Safe because the world's lazy caches memoize pure counter-addressed
    functions: two threads racing to fill the same cache entry compute
    the identical value, so last-write-wins cannot change any result.
    """

    name = "thread"

    def _execute(self, world: World, jobs: Sequence[TrialBatchJob],
                 progress: Optional[ProgressCallback], collect: bool,
                 trace: Optional[TraceContext]) -> List[JobResult]:
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            futures = {pool.submit(run_job, world, job, collect, trace): job
                       for job in jobs}
            return _drain(futures, len(jobs), progress)


# Module-level slots for the per-process world, telemetry flag, and
# trace context; set by the pool initializer, read by every job the
# worker runs.  The shared-memory mapping must stay referenced for the
# worker's lifetime: the world's host columns are views into it.
_WORKER_WORLD: Optional[World] = None
_WORKER_COLLECT: bool = False
_WORKER_TRACE: Optional[TraceContext] = None
_WORKER_SHM: Optional[shared_memory.SharedMemory] = None


def _process_init(payload: bytes, collect: bool = False,
                  trace: Optional[TraceContext] = None) -> None:
    global _WORKER_WORLD, _WORKER_COLLECT, _WORKER_TRACE
    _WORKER_WORLD = pickle.loads(payload)
    _WORKER_COLLECT = collect
    _WORKER_TRACE = trace


def _process_init_shm(name: str, skeleton: bytes, layout: Sequence[dict],
                      collect: bool = False,
                      trace: Optional[TraceContext] = None) -> None:
    """Attach the parent's shared block and rebuild the world around it.

    The arrays become read-only zero-copy views over the mapping — no
    bytes are copied, and an accidental in-place write in a worker
    raises instead of corrupting every sibling.  Pool workers share the
    parent's resource tracker, so attaching here re-registers the same
    name (an idempotent set-add); the parent's ``unlink`` performs the
    single unregister.  Unregistering per worker would strip the
    parent's entry and break that accounting.
    """
    global _WORKER_WORLD, _WORKER_COLLECT, _WORKER_TRACE, _WORKER_SHM
    shm = shared_memory.SharedMemory(name=name)
    _WORKER_SHM = shm
    _WORKER_WORLD = recompose_world(skeleton,
                                    arrays_from_buffer(shm.buf, layout))
    _WORKER_COLLECT = collect
    _WORKER_TRACE = trace


def _process_run_job(job: TrialBatchJob) -> JobResult:
    if _WORKER_WORLD is None:
        raise RuntimeError("worker process was not initialized with a world")
    return run_job(_WORKER_WORLD, job, collect=_WORKER_COLLECT,
                   trace=_WORKER_TRACE)


class SharedWorld:
    """A world's array plane packed into one shared-memory block.

    ``decompose_world`` splits the world into a small pickled skeleton
    (seed, defaults, topology registries) and its big arrays (host
    columns, populated /24s); the arrays are copied once into a single
    ``multiprocessing.shared_memory`` block that every worker maps
    zero-copy.  The creator must call :meth:`close` (which also unlinks)
    when the pool is done.
    """

    def __init__(self, world: World) -> None:
        self.skeleton, arrays = decompose_world(world)
        self.layout, self.nbytes = pack_layout(arrays)
        self._shm: Optional[shared_memory.SharedMemory] = \
            shared_memory.SharedMemory(create=True,
                                       size=max(self.nbytes, 1))
        pack_into(self._shm.buf, arrays, self.layout)
        self.name = self._shm.name

    def initargs(self, collect: bool,
                 trace: Optional[TraceContext] = None) -> Tuple:
        """Arguments for :func:`_process_init_shm` (small: no arrays)."""
        return (self.name, self.skeleton, self.layout, collect, trace)

    def close(self) -> None:
        """Release and unlink the block (idempotent)."""
        if self._shm is None:
            return
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass
        self._shm = None


class ProcessExecutor(Executor):
    """Process-pool backend: the world ships to each worker exactly once.

    By default the world's arrays travel through one shared-memory block
    (:class:`SharedWorld`) that workers map zero-copy, and only the
    scalar skeleton is pickled per worker; ``transport="pickle"`` (or
    ``REPRO_WORLD_TRANSPORT=pickle``, or shared-memory creation
    failing) pickles the whole world into the pool initializer instead.
    Either way nothing world-sized rides in job payloads, and workers
    rebuild the lazy per-AS caches locally; because every draw is pure
    in ``(seed, key, counters)``, the rebuilt caches are identical to
    the parent's and the output is bit-identical to serial execution.
    """

    name = "process"

    def __init__(self, workers: Optional[int] = None,
                 start_method: Optional[str] = None,
                 transport: Optional[str] = None) -> None:
        super().__init__(workers)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.start_method = start_method
        if transport is None:
            transport = os.environ.get(ENV_TRANSPORT, "shm")
        if transport not in TRANSPORTS:
            raise ValueError(
                f"unknown world transport {transport!r}; "
                f"expected one of {TRANSPORTS}")
        self.transport = transport

    def _execute(self, world: World, jobs: Sequence[TrialBatchJob],
                 progress: Optional[ProgressCallback], collect: bool,
                 trace: Optional[TraceContext]) -> List[JobResult]:
        tel = _telemetry()
        shared: Optional[SharedWorld] = None
        if self.transport == "shm":
            try:
                shared = SharedWorld(world)
            except Exception:
                # No usable /dev/shm, unpicklable skeleton, size limits:
                # the pickle path handles every world the old way.
                shared = None
        try:
            if shared is not None:
                initializer, initargs = \
                    _process_init_shm, shared.initargs(collect, trace)
                self._transport_used = "shm"
                if tel.enabled:
                    tel.count("runtime.world_shm_bytes", shared.nbytes)
            else:
                payload = pickle.dumps(world,
                                       protocol=pickle.HIGHEST_PROTOCOL)
                initializer, initargs = \
                    _process_init, (payload, collect, trace)
                self._transport_used = "pickle"
            if tel.enabled:
                tel.count("runtime.world_transport", 1,
                          transport=self._transport_used)
            context = multiprocessing.get_context(self.start_method)
            with ProcessPoolExecutor(max_workers=self.workers,
                                     mp_context=context,
                                     initializer=initializer,
                                     initargs=initargs) as pool:
                futures = {pool.submit(_process_run_job, job): job
                           for job in jobs}
                return _drain(futures, len(jobs), progress)
        finally:
            if shared is not None:
                shared.close()


def _drain(futures: Dict, total: int,
           progress: Optional[ProgressCallback]) -> List[JobResult]:
    """Collect pool futures, firing progress callbacks as they land."""
    results: List[JobResult] = []
    pending = set(futures)
    while pending:
        finished, pending = wait(pending, return_when=FIRST_COMPLETED)
        for future in finished:
            results.append(future.result())
            if progress is not None:
                progress(len(results), total, futures[future])
    return results


#: Registered backend names, in documentation order.
BACKENDS = ("serial", "thread", "process")

_BACKEND_CLASSES = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}


def make_executor(backend: Union[str, Executor, None] = None,
                  workers: Optional[int] = None) -> Executor:
    """Build an executor from a backend name (or pass one through).

    With ``backend=None`` the :data:`ENV_EXECUTOR` / :data:`ENV_WORKERS`
    environment variables are consulted, defaulting to serial execution —
    this is how ``make test-parallel`` reroutes every campaign in the
    test suite through the process backend without touching call sites.
    """
    if isinstance(backend, Executor):
        if workers is not None and workers != backend.workers:
            raise ValueError(
                "pass workers via the Executor constructor, not both")
        return backend
    if backend is None:
        backend = os.environ.get(ENV_EXECUTOR, "serial")
        if workers is None and os.environ.get(ENV_WORKERS):
            workers = int(os.environ[ENV_WORKERS])
    try:
        cls = _BACKEND_CLASSES[backend]
    except KeyError:
        raise ValueError(
            f"unknown executor backend {backend!r}; "
            f"expected one of {BACKENDS}") from None
    return cls(workers=workers)
