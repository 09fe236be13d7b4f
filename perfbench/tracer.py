"""Outside-in layer timing for the benchmark's traced runs.

The benchmark's timed runs call the program untouched.  Its traced run
installs :class:`Tracer` wrappers at the bindings callers look up (a
module attribute or a class attribute), so each call into a layer's
public functions is timed without editing the program.  A wrapper
records calls, inclusive time, and *self* time: the part of its
interval not covered by nested wrapped calls on the same thread.

Layer names are the span names the program itself should emit later,
so per-layer metrics keep their names when production spans replace
these wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

#: (module, attribute path, layer) for every wrapped binding.  A binding
#: is the name a caller resolves at call time, which is why some
#: functions appear under the module that imports them
#: (``repro.core.report.coverage_table``) rather than the one that
#: defines them: patching the importer's name times exactly the calls
#: made from that caller (here, the sections of ``full_report``).
LAYER_BINDINGS: Tuple[Tuple[str, str, str], ...] = (
    # world
    ("repro.sim.scenario", "paper_specs", "world.build"),
    ("repro.sim.shard", "build_sharded_world", "world.build"),
    ("repro.io.worldcache", "cached_build_world", "world.build"),
    ("repro.io.worldcache", "load_world", "world.load"),
    ("repro.io.worldcache", "cached_build_shard", "shard.load"),
    # plan
    ("repro.sim.world", "World._build_plan", "plan.compile"),
    # kernel
    ("repro.sim.executor", "observe_trial_batch", "kernel.observe"),
    ("repro.conditions.outages", "BurstOutageModel.active_windows",
     "kernel.outage_windows"),
    ("repro.conditions.loss", "PathLossModel.delivered_lattice",
     "kernel.loss_lattice"),
    # executor
    ("repro.sim.executor", "run_job", "executor"),
    ("repro.sim.executor", "Executor.run_grid", "executor"),
    # reduce
    ("repro.core.streaming", "StreamingTrial.add_shard_planes", "reduce"),
    ("repro.core.streaming", "StreamingTrial.add_shard", "reduce"),
    # analysis: full_report sections, as full_report resolves them
    ("repro.core.report", "get_context", "analysis.context"),
    ("repro.core.engine", "AnalysisContext.presence", "analysis.context"),
    ("repro.core.report", "coverage_table", "analysis.coverage"),
    ("repro.core.report", "figure2_rows", "analysis.figure2"),
    ("repro.core.report", "exclusivity_report", "analysis.exclusivity"),
    ("repro.core.report", "single_origin_longterm_share",
     "analysis.exclusivity"),
    ("repro.core.report", "longterm_l4_breakdown", "analysis.wire"),
    ("repro.core.report", "transient_overlap_histogram",
     "analysis.transient"),
    ("repro.core.report", "drop_summary", "analysis.drop"),
    ("repro.core.report", "burst_report", "analysis.bursts"),
    ("repro.core.report", "ssh_breakdown", "analysis.ssh"),
    ("repro.core.report", "multi_origin_table", "analysis.multi_origin"),
    ("repro.core.report", "pairwise_origin_tests", "analysis.mcnemar"),
    ("repro.core.report", "bonferroni", "analysis.mcnemar"),
    ("repro.core.report", "mean_agreement", "analysis.slash24"),
    ("repro.core.report", "asynchrony_report", "analysis.timing"),
    ("repro.core.report", "diurnal_profile", "analysis.timing"),
    # analysis: the streamed grid
    ("repro.core.streaming", "StreamingCampaignResult.coverage_interval",
     "analysis.grid_interval"),
    ("repro.core.streaming", "StreamingCampaignResult.coverage_table",
     "analysis.grid_tables"),
    ("repro.core.streaming", "StreamingCampaignResult.multi_origin_table",
     "analysis.grid_tables"),
    ("repro.core.streaming", "StreamingCampaignResult.best_combination",
     "analysis.grid_tables"),
    ("repro.core.streaming", "StreamingCampaignResult.report",
     "analysis.grid_tables"),
    ("repro.core.streaming", "StreamingCampaignResult.per_as_coverage",
     "analysis.grid_per_as"),
    # render: full_report's own text assembly and the reporting helpers
    ("repro.core.report", "full_report", "render"),
    ("repro.serve.handlers", "full_report", "render"),
    ("repro.core.report", "render_table", "render"),
    ("repro.core.report", "render_grouped_bars", "render"),
    ("repro.core.report", "render_bars", "render"),
    # cache
    ("repro.serve.resultcache", "load", "resultcache.load"),
    ("repro.serve.resultcache", "store", "resultcache.store"),
    ("repro.serve.planecache", "PlaneCacheSession.probe",
     "planecache.probe"),
    ("repro.serve.planecache", "PlaneCacheSession.store",
     "planecache.store"),
    # serve
    ("repro.serve.handlers", "ServeState.result_key", "serve.key"),
    ("repro.serve.handlers", "run_request", "serve.compute"),
)

#: Every layer name above, in table order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    layer for _, _, layer in LAYER_BINDINGS))


class Tracer:
    """Calls and busy time per layer, with nested wrapped calls subtracted.

    Wrapped calls are attributed only inside a *root* region
    (:meth:`region` or :meth:`wrap_root`); the root's own self time is
    the traced time no layer covers (``other_s``), so per-layer self
    times plus ``other_s`` equal the roots' total wall time.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Inclusive durations per call, for layers in ``keep_samples``.
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.keep_samples: set = set()
        self.root_wall_s = 0.0
        self.root_other_s = 0.0
        self.outside_s = 0.0   # wrapped time seen outside any root
        self._lock = threading.Lock()
        self._local = threading.local()
        #: layer -> program counter whose growth during each call of the
        #: layer is summed into :attr:`deltas` (read from the ambient
        #: telemetry collector, so only meaningful while one is active).
        self.count_delta: Dict[str, str] = {}
        self.deltas: Dict[str, float] = defaultdict(float)

    # -- frames --------------------------------------------------------------

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, layer: Optional[str], elapsed: float,
               child: float, stack: List[float]) -> None:
        with self._lock:
            if layer is None:
                self.root_wall_s += elapsed
                self.root_other_s += elapsed - child
            else:
                self.self_s[layer] += elapsed - child
                self.total_s[layer] += elapsed
                self.calls[layer] += 1
                if layer in self.keep_samples:
                    self.samples[layer].append(elapsed)
                if not stack:
                    self.outside_s += elapsed
        if stack:
            stack[-1] += elapsed

    @contextlib.contextmanager
    def region(self):
        """A root frame: wrapped calls inside it are attributed."""
        stack = self._stack()
        stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._close(None, elapsed, stack.pop(), stack)

    def _timed(self, original, layer: Optional[str]):
        tracer = self
        counter = self.count_delta.get(layer) if layer else None
        if counter is not None:
            from repro.telemetry.context import current as _telemetry

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if counter is not None:
                counters = _telemetry().counters
                before = counters.total(counter)
            stack = tracer._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._close(layer, elapsed, stack.pop(), stack)
                if counter is not None:
                    grown = counters.total(counter) - before
                    with tracer._lock:
                        tracer.deltas[layer] += grown
        return timed

    # -- installation --------------------------------------------------------

    def _patch(self, module_name: str, path: str, layer: Optional[str]):
        module = importlib.import_module(module_name)
        owner: object = module
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if not callable(original) or isinstance(
                original, (staticmethod, classmethod)):
            raise TypeError(f"{module_name}.{path} is not a plain function")
        setattr(owner, attr, self._timed(original, layer))

    def install(self) -> None:
        """Wrap every binding of :data:`LAYER_BINDINGS`."""
        for module_name, path, layer in LAYER_BINDINGS:
            self._patch(module_name, path, layer)

    def wrap_root(self, module_name: str, path: str) -> None:
        """Make each call of one binding a root region (a server job)."""
        self._patch(module_name, path, None)

    # -- results -------------------------------------------------------------

    def layer_table(self) -> Dict[str, dict]:
        with self._lock:
            return {layer: {"calls": self.calls.get(layer, 0),
                            "self_s": self.self_s.get(layer, 0.0),
                            "total_s": self.total_s.get(layer, 0.0)}
                    for layer in LAYERS}

    def to_json(self) -> dict:
        with self._lock:
            samples = {k: list(v) for k, v in self.samples.items()}
            deltas = dict(self.deltas)
        return {"layers": self.layer_table(),
                "deltas": deltas,
                "root_wall_s": self.root_wall_s,
                "other_s": self.root_other_s,
                "outside_s": self.outside_s,
                "samples": samples}
