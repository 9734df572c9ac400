"""Deterministic fault injection for the simulator and join operators.

The paper's Triton join wins because it *keeps working* when the join
state outgrows GPU memory (section 1, Figure 1). This module extends
that story from capacity faults to the full failure envelope a
production deployment sees: degraded interconnect bandwidth, IOMMU
walker stalls, GPU memory shrinking under concurrent tenants, and task
(kernel) failures — transient or permanent.

Three pieces:

- :class:`FaultPlan` — a seeded, JSON-serializable description of what
  to inject. Bandwidth faults scale a simulator resource's capacity over
  a simulated-time window; task faults fail individual tasks by name
  pattern with a deterministic per-``(seed, task, attempt)`` draw, so
  the same plan on the same workload always injects the same faults.
- :class:`RetryPolicy` — bounded retries with exponential backoff *in
  simulated time*, plus per-task-class (phase) retry budgets. The
  engine consumes it; exhausting a budget escalates a transient fault
  to a permanent :class:`~repro.errors.TaskFailedError`.
- An **ambient plan**: ``with faults.injected(plan): ...`` activates a
  plan for everything on the current thread — the simulation engine,
  the operators' capacity planning, and the run cache's keys all
  consult :func:`active`, so fault injection threads through the whole
  stack without changing operator signatures, and injected runs never
  poison clean cache entries.

Every injected event is recorded on the telemetry metrics registry
(``faults.*`` counters) and on the :class:`~repro.sim.engine.SimResult`
as :class:`FaultEvent`\\ s, which the Chrome-trace exporter renders as
instant events on the simulated timeline. See ``docs/robustness.md``.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import threading as _threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

#: A draw strictly below the fault's probability fires the fault.
_DRAW_DENOMINATOR = float(1 << 53)


def _name_match(name: str, pattern: str) -> bool:
    """Glob match where ``*`` is the only wildcard.

    Task and resource names contain literal brackets (``join[3]``,
    ``nvlink_to_gpu[0]``), so fnmatch-style character classes would be a
    footgun; everything except ``*`` matches literally.
    """
    if pattern == "*":
        return True
    regex = ".*".join(re.escape(part) for part in pattern.split("*"))
    return re.fullmatch(regex, name) is not None


def _uniform(seed: int, task_name: str, attempt: int, salt: int) -> float:
    """Deterministic uniform draw in ``[0, 1)``.

    Keyed on the plan seed, the task's name, the attempt index, and the
    fault's position in the plan — stable across platforms, runs, and
    scheduling orders (unlike a shared RNG stream, which would couple a
    task's outcome to when the scheduler happens to finish it).
    """
    digest = hashlib.sha256(
        f"{seed}:{salt}:{task_name}:{attempt}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") % (1 << 53) / _DRAW_DENOMINATOR


@dataclass(frozen=True)
class BandwidthFault:
    """Scale one resource's capacity during a simulated-time window.

    Attributes:
        resource: resource name or fnmatch pattern (``"nvlink_*"``
            covers both link directions; ``"gpu_mem_bw[1]"`` targets one
            GPU of a multi-GPU pool; ``"iommu_walks"`` models walker
            stalls; ``"xbus"`` degrades the inter-socket exchange).
        factor: remaining fraction of capacity, in ``(0, 1]``.
        start_s / end_s: simulated-time window (default: the whole run).
    """

    resource: str
    factor: float
    start_s: float = 0.0
    end_s: float = math.inf

    def __post_init__(self) -> None:
        if not 0.0 < self.factor <= 1.0:
            raise ConfigurationError("bandwidth factor must be in (0, 1]")
        if self.start_s < 0 or self.end_s <= self.start_s:
            raise ConfigurationError(
                "fault window needs 0 <= start_s < end_s"
            )

    def applies(self, resource: str, now: float) -> bool:
        return (
            self.start_s <= now < self.end_s
            and _name_match(resource, self.resource)
        )


@dataclass(frozen=True)
class TaskFault:
    """Fail simulated tasks whose names match a pattern.

    Attributes:
        match: fnmatch pattern against the task name (``"join[*]"``).
        phase: optional fnmatch pattern against the task's phase.
        probability: per-attempt failure probability (1.0 = always).
        transient: a transient failure is retried under the run's
            :class:`RetryPolicy`; a permanent one raises
            :class:`~repro.errors.TaskFailedError` immediately.
        max_failures: cap on how many times this fault fires per task
            (``None`` = draw on every attempt). ``max_failures=2`` with
            ``probability=1.0`` deterministically fails the first two
            attempts and lets the third succeed.
    """

    match: str
    phase: str = "*"
    probability: float = 1.0
    transient: bool = True
    max_failures: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.probability <= 1.0:
            raise ConfigurationError("probability must be in (0, 1]")
        if self.max_failures is not None and self.max_failures < 1:
            raise ConfigurationError("max_failures must be >= 1 or None")

    def fires(self, seed: int, name: str, phase: str, attempt: int,
              salt: int) -> bool:
        if not _name_match(name, self.match):
            return False
        if not _name_match(phase or name, self.phase):
            return False
        if self.max_failures is not None and attempt >= self.max_failures:
            return False
        if self.probability >= 1.0:
            return True
        # Nested failure sets: the draw depends only on (seed, task,
        # attempt), so raising the probability can only add failures —
        # which is what makes the fault sweep monotone by construction.
        return _uniform(seed, name, attempt, salt) < self.probability


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff in *simulated* seconds.

    Attributes:
        max_attempts: attempts per task (first run + retries).
        backoff_s: backoff before the first retry, simulated seconds.
        multiplier: backoff growth per retry.
        max_backoff_s: backoff ceiling.
        class_budgets: total retries allowed per task class (= phase
            label); exhausting a class budget escalates the next
            transient fault in that class to a permanent failure.
            Classes not listed fall back to ``default_class_budget``
            (``None`` = unlimited).
    """

    max_attempts: int = 4
    backoff_s: float = 1e-4
    multiplier: float = 2.0
    max_backoff_s: float = 0.1
    class_budgets: Tuple[Tuple[str, int], ...] = ()
    default_class_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ConfigurationError("backoff cannot be negative")
        if self.multiplier < 1.0:
            raise ConfigurationError("multiplier must be >= 1")

    def budget_for(self, task_class: str) -> Optional[int]:
        for name, budget in self.class_budgets:
            if _name_match(task_class, name):
                return budget
        return self.default_class_budget

    def backoff(self, retry_index: int) -> float:
        """Simulated seconds to wait before retry ``retry_index`` (0-based)."""
        return min(
            self.backoff_s * self.multiplier ** retry_index,
            self.max_backoff_s,
        )


@dataclass(frozen=True)
class FaultEvent:
    """One injected (or recovered-from) fault occurrence."""

    time_s: float
    kind: str  # bandwidth_drop | bandwidth_restore | task_transient |
    #            task_permanent | retry_exhausted | capacity_shrink
    target: str  # resource or task name
    detail: str = ""


@dataclass(frozen=True)
class FaultPlan:
    """Everything to inject into one run, deterministically.

    Serializable to/from JSON (:meth:`to_json` / :meth:`from_json`) so
    plans can be checked in as golden scenarios and passed to
    ``python -m repro.bench ... --faults plan.json``.
    """

    seed: int = 0
    bandwidth: Tuple[BandwidthFault, ...] = ()
    tasks: Tuple[TaskFault, ...] = ()
    #: Remaining fraction of GPU memory capacity (capacity fault).
    gpu_memory_factor: float = 1.0
    retry: Optional[RetryPolicy] = None
    description: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.gpu_memory_factor <= 1.0:
            raise ConfigurationError("gpu_memory_factor must be in (0, 1]")
        object.__setattr__(self, "bandwidth", tuple(self.bandwidth))
        object.__setattr__(self, "tasks", tuple(self.tasks))

    # -- queries the engine makes ---------------------------------------------

    def is_empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return (
            not self.bandwidth
            and not self.tasks
            and self.gpu_memory_factor == 1.0
        )

    def bandwidth_factor(self, resource: str, now: float) -> float:
        """Combined capacity factor for ``resource`` at simulated ``now``."""
        factor = 1.0
        for fault in self.bandwidth:
            if fault.applies(resource, now):
                factor *= fault.factor
        return factor

    def boundaries(self) -> Tuple[float, ...]:
        """Sorted simulated times where some bandwidth factor changes."""
        times = set()
        for fault in self.bandwidth:
            times.add(fault.start_s)
            if math.isfinite(fault.end_s):
                times.add(fault.end_s)
        return tuple(sorted(t for t in times if t > 0))

    def task_fault(
        self, name: str, phase: str, attempt: int
    ) -> Optional[TaskFault]:
        """The first task fault that fires for this attempt, if any."""
        for salt, fault in enumerate(self.tasks):
            if fault.fires(self.seed, name, phase, attempt, salt):
                return fault
        return None

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        data = asdict(self)
        for entry in data["bandwidth"]:
            if math.isinf(entry["end_s"]):
                entry["end_s"] = None
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        bandwidth = []
        for entry in data.get("bandwidth", ()):
            entry = dict(entry)
            if entry.get("end_s") is None:
                entry["end_s"] = math.inf
            bandwidth.append(BandwidthFault(**entry))
        tasks = [TaskFault(**entry) for entry in data.get("tasks", ())]
        retry = data.get("retry")
        if retry is not None:
            retry = dict(retry)
            retry["class_budgets"] = tuple(
                (name, int(budget))
                for name, budget in retry.get("class_budgets", ())
            )
            retry = RetryPolicy(**retry)
        return cls(
            seed=int(data.get("seed", 0)),
            bandwidth=tuple(bandwidth),
            tasks=tuple(tasks),
            gpu_memory_factor=float(data.get("gpu_memory_factor", 1.0)),
            retry=retry,
            description=data.get("description", ""),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path) -> "FaultPlan":
        with open(path) as handle:
            return cls.from_json(handle.read())

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)

    def summary(self) -> str:
        """One-line human summary (used in bench output and run notes)."""
        if self.is_empty():
            return "empty fault plan"
        parts: List[str] = []
        if self.bandwidth:
            parts.append(f"{len(self.bandwidth)} bandwidth fault(s)")
        if self.tasks:
            parts.append(f"{len(self.tasks)} task fault(s)")
        if self.gpu_memory_factor < 1.0:
            parts.append(f"gpu memory x{self.gpu_memory_factor:g}")
        text = ", ".join(parts) + f" [seed {self.seed}]"
        if self.description:
            text = f"{self.description}: {text}"
        return text


#: The engine's retry behaviour when a plan does not carry its own.
DEFAULT_RETRY_POLICY = RetryPolicy()

# -- ambient plan ---------------------------------------------------------------

_active: Optional[FaultPlan] = None

#: Per-thread overrides (see :func:`thread_scoped`). A sentinel marks
#: "no override" so a thread can explicitly override to ``None`` (run
#: clean while the process-global plan is set).
_MISSING = object()
_local = _threading.local()


def activate(plan: Optional[FaultPlan]) -> None:
    """Make ``plan`` the ambient fault plan (``None`` clears it)."""
    global _active
    _active = plan


def deactivate() -> None:
    activate(None)


def active() -> Optional[FaultPlan]:
    """The ambient fault plan, or ``None``.

    A :func:`thread_scoped` override on the current thread wins over
    the process-global plan — the isolation the concurrent join service
    relies on to run per-request fault plans side by side.
    """
    override = getattr(_local, "override", _MISSING)
    if override is not _MISSING:
        return override
    return _active


@contextmanager
def thread_scoped(plan: Optional[FaultPlan]):
    """Activate ``plan`` for the *current thread only*.

    :func:`activate` mutates process-global state, which two concurrent
    service queries with different fault plans would trample. Inside
    this block, :func:`active` (and everything that consults it — the
    engine, capacity planning, run-cache keys) sees ``plan`` on this
    thread while other threads keep seeing the process-global plan.
    ``None`` explicitly shields the thread from a global plan. Blocks
    nest; the previous override is restored on exit.
    """
    previous = getattr(_local, "override", _MISSING)
    _local.override = plan
    try:
        yield plan
    finally:
        if previous is _MISSING:
            del _local.override
        else:
            _local.override = previous


@contextmanager
def injected(plan: Optional[FaultPlan]):
    """Activate ``plan`` for the duration of the ``with`` block."""
    previous = _active
    activate(plan)
    try:
        yield plan
    finally:
        activate(previous)


def effective_gpu_memory(
    capacity_bytes: float, plan: Optional[FaultPlan] = None
) -> float:
    """GPU memory capacity after the (ambient) plan's capacity fault."""
    plan = plan if plan is not None else active()
    if plan is None or plan.gpu_memory_factor >= 1.0:
        return capacity_bytes
    from repro import telemetry  # deferred: telemetry is a peer layer

    telemetry.registry.count("faults.capacity_shrink")
    telemetry.emit_event(
        "fault.injected",
        kind="capacity_shrink",
        target="gpu_memory",
        detail=f"capacity x{plan.gpu_memory_factor:g}",
    )
    return capacity_bytes * plan.gpu_memory_factor
