"""The traced per-layer split: spans recorded around each layer's public
functions, without editing ``src/``.

:class:`LayerTracer` rebinds the functions listed in :data:`BOUNDARIES`
for the duration of a ``with`` block and restores them on exit, so an
untraced pass runs the program exactly as shipped.  Every call becomes
an in-memory span — name, start, end, parent span, run id (the cell the
call belongs to).  A span's self time is its duration minus the time its
child spans cover; spans nest per thread (``JobService`` runs each
application on its own cooperative thread, one runnable at a time, and
no traced function yields inside its span).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
from typing import Any, Callable

#: (span name, module, owner class or None for a module function,
#: attribute).  A function imported by name into another module is
#: rebound where the caller looks it up.
BOUNDARIES: list[tuple[str, str, str | None, str]] = [
    ("cluster.driver.run_job", "repro.cluster.driver", "Driver", "run_job"),
    ("cluster.driver.materialize", "repro.cluster.driver", "Driver", "materialize"),
    ("cluster.scheduler.run_stage", "repro.cluster.scheduler", "SlotScheduler", "run_stage"),
    ("cluster.shuffle.write", "repro.cluster.shuffle", "ShuffleManager", "write"),
    ("cluster.shuffle.fetch", "repro.cluster.shuffle", "ShuffleManager", "fetch"),
    ("cluster.shuffle.charge_fetch", "repro.cluster.shuffle", "ShuffleManager", "charge_fetch"),
    ("core.ilp.solve_partition_states", "repro.core.udl", None, "solve_partition_states"),
    ("core.profiler.run_dependency_extraction", "repro.core.profiler", None,
     "run_dependency_extraction"),
    ("core.profiler.run_dependency_extraction", "repro.experiments.runner", None,
     "run_dependency_extraction"),
    ("dataflow.fusion.execute", "repro.dataflow.fusion", "FusionPlanner", "execute"),
    ("storage.kernels.run_chain", "repro.storage.kernels", "KernelEngine", "run_chain"),
    ("storage.backend.encode_for_cache", "repro.storage.backend", "ColumnarBackend",
     "encode_for_cache"),
    ("service.identity.build_signature", "repro.service.service", None, "build_signature"),
]

#: Cache-manager hooks: every ``handle_cache`` / ``on_*`` method the class
#: itself defines, one span per hook, summed per layer as ``<layer>.hooks``.
HOOK_CLASSES = [
    ("core.udl", "repro.core.udl", "BlazeCacheManager"),
    ("caching.manager", "repro.caching.manager", "SparkCacheManager"),
]

ILP_SPAN = "core.ilp.solve_partition_states"
JOB_SPAN = "cluster.driver.run_job"
PROFILER_SPAN = "core.profiler.run_dependency_extraction"


def _hook_names(cls: type) -> list[str]:
    return sorted(
        name for name, value in vars(cls).items()
        if callable(value) and (name == "handle_cache" or name.startswith("on_"))
    )


class LayerTracer:
    """Records spans while active; ``run_id`` tags the spans of one cell."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: one ``[name id, start, end, parent index, run id]`` per call
        self.spans: list[list] = []
        self.run_id = 0
        #: ILP solutions seen: (nodes explored, exact)
        self.ilp_solutions: list[tuple[int, bool]] = []
        self._local = threading.local()
        self._saved: list[tuple[Any, str, Any]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        name_id = self._name_id(name)
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name_id, clock(), 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _rebind(self, owner: Any, attr: str, name: str, on_result=None) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def _on_solution(self, solution) -> None:
        self.ilp_solutions.append((solution.nodes_explored, solution.optimal))

    def __enter__(self) -> "LayerTracer":
        for name, module_name, cls_name, attr in BOUNDARIES:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            on_result = self._on_solution if name == ILP_SPAN else None
            self._rebind(owner, attr, name, on_result)
        for layer, module_name, cls_name in HOOK_CLASSES:
            cls = getattr(importlib.import_module(module_name), cls_name)
            for hook in _hook_names(cls):
                self._rebind(cls, hook, f"{layer}.{hook}")
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def split(self, blaze_runs: set[int]) -> dict[str, float]:
        """Per-name ``calls`` and ``self_s`` plus the counts derived from
        the span tree.

        ``blaze_runs`` are the run ids of Blaze cells, each of whose jobs
        should have triggered an ILP solve.
        """
        spans = self.spans
        n = len(spans)
        child_time = [0.0] * n
        has_solve = [False] * n
        under_profiler = [False] * n
        ilp_id = self._name_ids.get(ILP_SPAN)
        job_id = self._name_ids.get(JOB_SPAN)
        profiler_id = self._name_ids.get(PROFILER_SPAN)
        # Parents precede their children in ``spans``: a forward sweep
        # marks ancestry, a backward sweep folds children into parents.
        for i, (_name, _start, _end, parent, _run) in enumerate(spans):
            if parent >= 0:
                under_profiler[i] = under_profiler[parent] or spans[parent][0] == profiler_id
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        total_s = [0.0] * len(self.names)
        jobs_without_solve = 0
        root_s = 0.0
        for i in range(n - 1, -1, -1):
            name_id, start, end, parent, run = spans[i]
            dur = end - start
            calls[name_id] += 1
            self_s[name_id] += dur - child_time[i]
            total_s[name_id] += dur
            if (name_id == job_id and run in blaze_runs and not has_solve[i]
                    and not under_profiler[i]):
                jobs_without_solve += 1
            if parent >= 0:
                child_time[parent] += dur
                has_solve[parent] = has_solve[parent] or has_solve[i] or name_id == ilp_id
            else:
                root_s += dur
        out: dict[str, float] = {}
        for name_id, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[name_id]
            out[f"{name}.self_s"] = self_s[name_id]
        # The profiler never nests in itself, so its summed durations are
        # its inclusive time.
        out[f"{PROFILER_SPAN}.total_s"] = total_s[profiler_id] if profiler_id is not None else 0.0
        for layer, _module, _cls in HOOK_CLASSES:
            hooks = [nm for nm in self.names if nm.startswith(f"{layer}.")]
            out[f"{layer}.hooks.calls"] = sum(out[f"{h}.calls"] for h in hooks)
            out[f"{layer}.hooks.self_s"] = sum(out[f"{h}.self_s"] for h in hooks)
        out["cluster.driver.jobs_without_ilp_solve"] = jobs_without_solve
        out["core.ilp.nodes"] = sum(nodes for nodes, _exact in self.ilp_solutions)
        out["core.ilp.nonexact_solves"] = sum(
            1 for _nodes, exact in self.ilp_solutions if not exact
        )
        out["trace.spans"] = n
        out["trace.root_s"] = root_s
        return out


def median_split(splits: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over the traced passes."""
    keys = set().union(*splits)
    return {k: statistics.median(s.get(k, 0) for s in splits) for k in sorted(keys)}
