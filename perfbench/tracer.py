"""In-memory span tracer that wraps the system's public calls.

The traced run patches the layer entry points listed in
:data:`FUNCTION_LAYERS` and :data:`METHOD_LAYERS` from here, without
touching ``src/``: each call records a span (id, layer name, start,
end, parent span, thread) in memory, and
:func:`self_times` turns the spans into per-layer calls and self
seconds (span duration minus the part its child spans cover).

Only the process that installed the tracer records spans; a forked
pool worker that inherited the wrappers calls straight through, so
kernels inside workers count as the dispatching ``exec.pool`` span.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: (layer, module, function) — module-level functions to wrap. Every
#: loaded ``repro`` module that bound the same function object by
#: ``from ... import`` is patched too.
FUNCTION_LAYERS = (
    ("data.generate", "repro.data.generator", "generate_pk_fk"),
    ("join.functional", "repro.join.batched", "batched_radix_join"),
    (
        "hashing.grouped_join",
        "repro.hashing.batch",
        "grouped_bucket_chaining_join",
    ),
    ("hashing.grouped_join", "repro.hashing.batch", "grouped_perfect_join"),
    ("hashing.hash", "repro.hashing.functions", "hash_u64"),
    ("hashing.hash", "repro.hashing.functions", "radix_window"),
    ("kernels.scatter", "repro.kernels.scatter", "counting_order"),
    (
        "kernels.scatter",
        "repro.kernels.scatter",
        "counting_order_and_offsets",
    ),
    ("partition.partition", "repro.partition.radix", "partition_relation"),
    ("service.compile", "repro.service.plan", "compile_plan"),
    ("service.compile", "repro.service.plan", "estimate_query_bytes"),
)

#: (layer, module, class, method) — methods to wrap on the class.
METHOD_LAYERS = (
    ("sim.engine", "repro.sim.engine", "SimEngine", "run"),
    ("aggregate.groupby", "repro.aggregate.group_by", "TritonAggregation", "run"),
    ("exec.spill", "repro.exec.spill", "SpillManager", "spill"),
    ("exec.pool", "repro.exec.pool", "MorselPool", "run"),
)

#: Every JoinOperator subclass's ``run`` and ``build_graph`` are
#: wrapped under these layer names.
JOIN_RUN = "join.run"
JOIN_GRAPH = "join.graph"

#: Span layers reported as ``<layer>_s`` / ``<layer>_calls``.
LAYERS = (
    "sim.engine",
    JOIN_GRAPH,
    "join.functional",
    "hashing.grouped_join",
    "hashing.hash",
    "kernels.scatter",
    "partition.partition",
    "data.generate",
    "service.compile",
    "aggregate.groupby",
    "exec.spill",
    "exec.pool",
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span and count recorder; patch the system with :meth:`install`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._undo: List[Callable[[], None]] = []
        self._seen_runs: set = set()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def wrap(self, name: str, fn: Callable, after=None) -> Callable:
        """``fn`` recording one ``name`` span per call; ``after(args,
        result)`` runs after the span closes (for counts)."""
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    Span(span_id, name, start, end, parent, threading.get_ident())
                )
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching --------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        previous = owner.__dict__[attr]
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, previous))

    def _patch_function(self, layer: str, module: str, name: str) -> None:
        original = getattr(importlib.import_module(module), name)
        traced = self.wrap(layer, original)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, attr, traced)

    def _patch_method(self, layer: str, cls, method: str, after=None) -> None:
        self._set(cls, method, self.wrap(layer, cls.__dict__[method], after))

    def install(self) -> None:
        """Wrap every layer entry point (undo with :meth:`uninstall`)."""
        import repro.service  # noqa: F401 - load every layer first
        from repro.join.base import JoinOperator

        for layer, module, name in FUNCTION_LAYERS:
            self._patch_function(layer, module, name)
        for layer, module, cls_name, method in METHOD_LAYERS:
            cls = getattr(importlib.import_module(module), cls_name)
            hook = _COUNT_HOOKS.get(layer)
            after = functools.partial(hook, self) if hook else None
            self._patch_method(layer, cls, method, after)
        for cls in _subclasses(JoinOperator):
            if "run" in cls.__dict__:
                self._patch_method(JOIN_RUN, cls, "run", self._after_run)
            if "build_graph" in cls.__dict__:
                self._patch_method(JOIN_GRAPH, cls, "build_graph")

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _after_run(self, args, result) -> None:
        operator, workload = args[0], args[1]
        key = (type(operator).__name__, workload.config)
        with self._lock:
            repeat = key in self._seen_runs
            self._seen_runs.add(key)
            self.counts["join.runs"] += 1
            self.counts["join.repeats"] += repeat

    def write(self, path) -> None:
        """Dump every span as JSON lines (one object per span)."""
        import json

        with open(path, "w") as out:
            for span in sorted(self.spans, key=lambda s: s.start):
                out.write(json.dumps(asdict(span)) + "\n")


def _subclasses(cls) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _count_engine(tracer: Tracer, args, result) -> None:
    tracer.count("sim.tasks", len(args[1].tasks))


def _count_spill(tracer: Tracer, args, result) -> None:
    tracer.count("exec.spill_input_bytes", args[1].materialized_bytes)
    tracer.count("exec.spill_bytes", result.bytes_on_disk())


def _count_pool(tracer: Tracer, args, result) -> None:
    tracer.count("exec.morsels", len(result.partials))
    tracer.count("exec.steals", result.steals)
    tracer.count("exec.pool_busy_s", result.busy_seconds)
    tracer.count("exec.pool_capacity_s", result.workers * result.wall_seconds)


#: Counts recorded where the work happens, after the layer's span.
_COUNT_HOOKS = {
    "sim.engine": _count_engine,
    "exec.spill": _count_spill,
    "exec.pool": _count_pool,
}


# -- analysis -------------------------------------------------------------------


def _covered(span: Span, children: Iterable[Span]) -> float:
    """Seconds of ``span`` covered by the union of its children."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    covered = 0.0
    run_start = run_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        covered += run_end - run_start
    return covered


def self_times(spans: Iterable[Span]) -> Dict[str, Tuple[int, float]]:
    """Per layer name: (calls, self seconds).

    A span's self time is its duration minus the part of its interval
    its direct children cover, so the self times of all spans add up to
    the time covered by the outermost spans.
    """
    spans = list(spans)
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for span in spans:
        entry = totals[span.name]
        entry[0] += 1
        entry[1] += span.seconds - _covered(span, children.get(span.id, ()))
    return {name: (int(c), s) for name, (c, s) in totals.items()}


def outermost_seconds(spans: Iterable[Span], name: str) -> float:
    """Summed duration of ``name`` spans not nested in another ``name``."""
    spans = list(spans)
    by_id = {span.id: span for span in spans}

    def nested(span: Span) -> bool:
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name == name:
                return True
            parent = by_id.get(parent.parent)
        return False

    return sum(s.seconds for s in spans if s.name == name and not nested(s))
