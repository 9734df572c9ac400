"""The fluid-flow simulation engine.

Advances simulated time through a task DAG. At every scheduling point the
engine solves a rate-allocation problem: each running task gets a
progress rate bounded by its own rate caps, then rates are scaled down
iteratively on over-committed resources (proportional sharing) until all
resource capacities are respected. The next event is the earliest task
completion at the resulting rates; dependent tasks become ready and the
allocation is re-solved.

Proportional sharing matches the hardware behaviour we need: two
concurrent kernels issuing memory traffic split the NVLink roughly in
proportion to their demand, and a compute-bound kernel coexists with a
transfer without slowing it — which is exactly the concurrent-kernel
overlap the Triton join exploits (section 5.2, Figure 11).

Faults are hooks in the same loop. The ambient fault plan
(:func:`repro.faults.active`) scales resource capacities over
simulated-time windows (a step advances at most to the next window
boundary, so degraded and nominal intervals never blend) and fails
finishing tasks — transiently (retried after exponential backoff in
simulated time, under the plan's :class:`~repro.faults.RetryPolicy`) or
permanently (raising :class:`~repro.errors.TaskFailedError`). Every
injected event lands in ``SimResult.fault_events`` and on the telemetry
counters. With no plan, or an empty one, each hook does nothing and the
run is the plain fluid-flow schedule.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Tuple

from repro import explain, faults, telemetry
from repro.errors import ConfigurationError, SimulationError, TaskFailedError
from repro.telemetry import tracing
from repro.faults import FaultEvent
from repro.hw.counters import PerfCounters
from repro.sim.resources import ResourcePool
from repro.sim.tasks import Task, TaskGraph
from repro.sim.trace import (
    OccupancyInterval,
    PhaseBreakdown,
    TaskRecord,
    TraceEntry,
)

_EPSILON = 1e-12
_CONVERGENCE = 1e-9
_MAX_SCALING_ROUNDS = 10_000
_NO_FAULTS = faults.FaultPlan()
_task_id = attrgetter("task_id")


def _is_gpu_task(task: Task) -> bool:
    """Whether the task touches GPU-side resources (for ladder routing)."""
    return any(
        name.startswith(("gpu", "nvlink")) for name in task.demands
    )


@dataclass
class SimResult:
    """Outcome of simulating one task graph."""

    makespan_seconds: float
    trace: List[TraceEntry]
    counters: PerfCounters
    resource_busy_units: Dict[str, float] = field(default_factory=dict)
    #: Faults injected during this run (empty for clean runs).
    fault_events: Tuple[FaultEvent, ...] = ()
    #: Per-scheduling-step resource draw (units/s), tiling the active
    #: timeline. The raw material for utilization timelines and fig14
    #: re-derivation (see :mod:`repro.explain`).
    occupancy: Tuple[OccupancyInterval, ...] = ()
    #: One record per completed task occurrence: dependency edges,
    #: demands, and retry accounting for critical-path attribution.
    task_records: Tuple[TaskRecord, ...] = ()
    #: Nominal capacities of the pool the run was simulated against, so
    #: post-hoc analysis does not need the pool object back.
    resource_capacities: Dict[str, float] = field(default_factory=dict)

    def phase_breakdown(self) -> PhaseBreakdown:
        """Wall-clock seconds attributed to each phase label.

        Overlapping tasks of different phases split the overlapped wall
        time proportionally to their demand-weighted activity; the
        breakdown's total equals the makespan.
        """
        return PhaseBreakdown.from_trace(self.trace, self.makespan_seconds)

    def phase_seconds(self) -> Dict[str, float]:
        """Total task-active seconds per phase (can exceed makespan)."""
        seconds: Dict[str, float] = {}
        for entry in self.trace:
            seconds[entry.phase] = seconds.get(entry.phase, 0.0) + entry.duration
        return seconds

    def resource_utilization(self, pool: ResourcePool) -> Dict[str, float]:
        """Average utilization of each resource over the makespan."""
        if self.makespan_seconds <= 0:
            return {name: 0.0 for name in self.resource_busy_units}
        return {
            name: units / pool.capacity(name) / self.makespan_seconds
            for name, units in self.resource_busy_units.items()
        }


def _task_record(
    task: Task,
    start: float,
    end: float,
    retries: int,
    backoff_seconds: float,
    active_seconds: float,
) -> TaskRecord:
    """Snapshot a completed task occurrence for post-hoc attribution."""
    return TaskRecord(
        task_id=task.task_id,
        name=task.name,
        phase=task.phase or task.name,
        start=start,
        end=end,
        demands=dict(task.demands),
        dep_ids=tuple(dep.task_id for dep in task.after),
        min_seconds=task.min_seconds,
        retries=retries,
        backoff_seconds=backoff_seconds,
        active_seconds=active_seconds,
    )


def _step_usage(
    running: List[Task], rates: Dict[int, float]
) -> Dict[str, float]:
    """Aggregate units/s drawn per resource at the allocated rates."""
    usage: Dict[str, float] = {}
    for task in running:
        rate = rates[task.task_id]
        for resource, amount in task.demands.items():
            if amount <= 0:
                continue
            usage[resource] = usage.get(resource, 0.0) + amount * rate
    return usage


def _merged_occupancy(
    intervals: List[OccupancyInterval],
) -> Tuple[OccupancyInterval, ...]:
    """Coalesce adjacent intervals with identical usage (fewer samples)."""
    merged: List[OccupancyInterval] = []
    for interval in intervals:
        if (
            merged
            and merged[-1].end == interval.start
            and merged[-1].usage == interval.usage
        ):
            merged[-1] = OccupancyInterval(
                start=merged[-1].start,
                end=interval.end,
                usage=merged[-1].usage,
            )
        else:
            merged.append(interval)
    return tuple(merged)


class SimEngine:
    """Simulates task graphs against a resource pool."""

    def __init__(self, pool: ResourcePool) -> None:
        self.pool = pool

    # -- rate allocation ------------------------------------------------------

    def _allocate_rates(
        self, running: List[Task], capacities: Dict[str, float]
    ) -> Dict[int, float]:
        """Progress rates (fraction/s) for the running tasks.

        Starts every task at its own cap and iteratively scales down the
        users of the most over-committed resource until feasible. Only
        the resources running tasks draw on are scanned, in pool order,
        so ties break as in a scan of the whole pool.
        """
        rates: Dict[int, float] = {}
        #: (task id, demand) per resource, for tasks with a finite rate.
        users: Dict[str, List[Tuple[int, float]]] = {}
        for task in running:
            cap = math.inf
            if task.min_seconds > 0:
                cap = 1.0 / task.min_seconds
            drawn = [(r, a) for r, a in task.demands.items() if a > 0]
            for resource, amount in drawn:
                capacity = capacities[resource]
                resource_cap = task.rate_caps.get(resource, capacity)
                cap = min(cap, resource_cap / amount)
            rates[task.task_id] = cap
            if not math.isinf(cap):
                for resource, amount in drawn:
                    users.setdefault(resource, []).append(
                        (task.task_id, amount)
                    )

        contended = [name for name in capacities if name in users]
        for _ in range(_MAX_SCALING_ROUNDS):
            worst_name = None
            worst_ratio = 1.0 + _CONVERGENCE
            for name in contended:
                usage = sum(amount * rates[tid] for tid, amount in users[name])
                ratio = usage / capacities[name]
                if ratio > worst_ratio:
                    worst_ratio = ratio
                    worst_name = name
            if worst_name is None:
                return rates
            scale = 1.0 / worst_ratio
            for tid, _ in users[worst_name]:
                rates[tid] *= scale
        raise SimulationError("rate allocation did not converge")

    def _check_demands(self, graph: TaskGraph) -> Dict[str, float]:
        """Nominal capacities, after checking every demand names one."""
        capacities = self.pool.capacities()
        for task in graph.tasks:
            for resource in task.demands:
                if resource not in capacities:
                    raise ConfigurationError(
                        f"task {task.name!r} demands unknown resource "
                        f"{resource!r}"
                    )
        return capacities

    # -- main loop --------------------------------------------------------------

    def run(self, graph: TaskGraph) -> SimResult:
        """Simulate the graph to completion and return the result.

        The ambient fault plan (:func:`repro.faults.active`) is consulted
        at four hooks: bandwidth windows scale the capacities each step
        allocates against, ``dt`` is clipped to the next window boundary
        or retry resume, each finishing task may fail (retried after
        backoff or raised as :class:`TaskFailedError`), and the windows
        the run overlapped become drop/restore events. Without a plan,
        or with one that injects nothing into the engine, every hook
        does nothing.
        """
        plan = faults.active() or _NO_FAULTS
        policy = plan.retry or faults.DEFAULT_RETRY_POLICY
        waiting, successors = graph.validate()
        nominal = self._check_demands(graph)
        graph.reset()

        boundaries = list(plan.boundaries())  # consumed as time passes
        ready = [t for t in graph.tasks if not waiting[t.task_id]]
        running: List[Task] = []
        #: min-heap of (resume_time, task_id, task) backing-off retries.
        blocked: List[Tuple[float, int, Task]] = []
        attempts: Dict[int, int] = {}  # failed attempts so far, per task
        class_retries: Dict[str, int] = {}  # retries spent per task class
        first_start: Dict[int, float] = {}  # first start, retried tasks only
        failed_active: Dict[int, float] = {}  # seconds lost to doomed attempts
        backoff_total: Dict[int, float] = {}  # seconds waited out in backoff
        events: List[FaultEvent] = []
        now = 0.0
        trace: List[TraceEntry] = []
        busy: Dict[str, float] = dict.fromkeys(nominal, 0.0)
        occupancy: List[OccupancyInterval] = []
        records: List[TaskRecord] = []

        def retry_or_raise(
            task: Task, attempt: int, fault: faults.TaskFault
        ) -> None:
            """Requeue ``task`` after backoff, or raise TaskFailedError."""
            label = task.task_class
            # The doomed attempt still occupied the hardware: record it
            # on the timeline under a failed-attempt name.
            trace.append(
                TraceEntry(
                    name=f"{task.name} [attempt {attempt + 1} failed]",
                    phase=label,
                    start=task.start_time,
                    end=now,
                )
            )

            def fail(kind: str, detail: str) -> TaskFailedError:
                events.append(FaultEvent(now, kind, task.name, detail))
                telemetry.registry.count(f"faults.{kind}")
                telemetry.emit_event(
                    "fault.injected", kind=kind, target=task.name,
                    detail=detail,
                )
                return TaskFailedError(
                    f"task {task.name!r} {detail} at t={now:.6f}s",
                    task_name=task.name,
                    phase=label,
                    time_s=now,
                    gpu=_is_gpu_task(task),
                    attempts=attempt + 1,
                )

            if not fault.transient:
                raise fail("task_permanent", "failed permanently")
            if attempt + 1 >= policy.max_attempts:
                raise fail(
                    "retry_exhausted",
                    f"failed {attempt + 1}x, retry budget exhausted",
                )
            budget = policy.budget_for(label)
            used = class_retries.get(label, 0)
            if budget is not None and used >= budget:
                raise fail(
                    "retry_exhausted",
                    f"failed, class {label!r} retry budget exhausted",
                )

            # Transient: requeue the whole task after backoff.
            tid = task.task_id
            class_retries[label] = used + 1
            attempts[tid] = attempt + 1
            backoff = policy.backoff(attempt)
            first_start.setdefault(tid, task.start_time)
            failed_active[tid] = failed_active.get(tid, 0.0) + (
                now - task.start_time
            )
            backoff_total[tid] = backoff_total.get(tid, 0.0) + backoff
            events.append(
                FaultEvent(
                    now,
                    "task_transient",
                    task.name,
                    f"attempt {attempt + 1} failed; retry after "
                    f"{backoff:g}s backoff",
                )
            )
            telemetry.registry.count("faults.task_transient")
            telemetry.registry.count("faults.retries")
            telemetry.emit_event(
                "fault.injected", kind="task_transient", target=task.name,
                detail=f"attempt {attempt + 1} failed; backoff {backoff:g}s",
            )
            task.remaining_fraction = 1.0
            task.start_time = None
            task.end_time = None
            heapq.heappush(blocked, (now + backoff, tid, task))

        def complete(task: Task) -> None:
            """Retire a task that reached 100% progress at ``now``."""
            running.remove(task)
            tid = task.task_id
            attempt = attempts.get(tid, 0)
            fault = plan.task_fault(task.name, task.task_class, attempt)
            if fault is not None:
                retry_or_raise(task, attempt, fault)
                return
            trace.append(TraceEntry.from_task(task))
            records.append(
                _task_record(
                    task,
                    first_start.get(tid, task.start_time),
                    now,
                    retries=attempt,
                    backoff_seconds=backoff_total.get(tid, 0.0),
                    active_seconds=(
                        failed_active.get(tid, 0.0) + (now - task.start_time)
                    ),
                )
            )
            for succ in successors[tid]:
                waiting[succ.task_id] -= 1
                if not waiting[succ.task_id]:
                    ready.append(succ)

        while ready or running or blocked:
            # Retries whose backoff has elapsed restart first, then the
            # newly ready tasks in creation (task_id) order.
            while blocked and blocked[0][0] <= now + _EPSILON:
                _, _, task = heapq.heappop(blocked)
                task.start_time = now
                running.append(task)
            ready.sort(key=_task_id)
            for task in ready:
                task.start_time = now
                running.append(task)
            ready.clear()

            if not running:
                # Everything live is backing off: jump to the earliest
                # resume time.
                now = max(now, blocked[0][0])
                continue

            capacities = nominal
            if plan.bandwidth:
                capacities = {
                    name: capacity * plan.bandwidth_factor(name, now)
                    for name, capacity in nominal.items()
                }
            rates = self._allocate_rates(running, capacities)

            # Instantly complete zero-work tasks (pure barriers).
            instant = [t for t in running if math.isinf(rates[t.task_id])]
            if instant:
                for task in instant:
                    task.end_time = now
                    task.remaining_fraction = 0.0
                    complete(task)
                continue

            # Time until the earliest completion at current rates.
            dt = math.inf
            for task in running:
                rate = rates[task.task_id]
                if rate <= _EPSILON:
                    raise SimulationError(
                        f"task {task.name!r} cannot make progress"
                    )
                dt = min(dt, task.remaining_fraction / rate)
            if not math.isfinite(dt):
                raise SimulationError("no finite completion time")

            # Clip the step to the next capacity-change boundary and to
            # the next retry resume, so neither is skipped over.
            clipped = False
            while boundaries and boundaries[0] <= now + _EPSILON:
                del boundaries[0]
            if boundaries and now + dt > boundaries[0]:
                dt = boundaries[0] - now
                clipped = True
            if blocked and now + dt > blocked[0][0]:
                dt = max(blocked[0][0] - now, 0.0)
                clipped = True

            # Advance and account resource usage.
            if dt > 0:
                occupancy.append(
                    OccupancyInterval(now, now + dt, _step_usage(running, rates))
                )
            now += dt
            finished: List[Task] = []
            for task in running:
                rate = rates[task.task_id]
                progressed = rate * dt
                for resource, amount in task.demands.items():
                    busy[resource] += amount * progressed
                task.remaining_fraction -= progressed
                if task.remaining_fraction <= _EPSILON:
                    task.remaining_fraction = 0.0
                    task.end_time = now
                    finished.append(task)
            if not finished and not clipped:
                raise SimulationError("time advanced without completions")
            for task in finished:
                complete(task)

        # Bandwidth windows that actually overlapped the run, rendered
        # as drop/restore instants on the simulated timeline.
        for fault in plan.bandwidth:
            if fault.start_s > now:
                continue
            events.append(
                FaultEvent(
                    fault.start_s,
                    "bandwidth_drop",
                    fault.resource,
                    f"capacity x{fault.factor:g}",
                )
            )
            telemetry.registry.count("faults.bandwidth_drop")
            telemetry.emit_event(
                "fault.injected", kind="bandwidth_drop",
                target=fault.resource,
                detail=f"capacity x{fault.factor:g}",
            )
            if math.isfinite(fault.end_s) and fault.end_s <= now:
                events.append(
                    FaultEvent(
                        fault.end_s,
                        "bandwidth_restore",
                        fault.resource,
                        "capacity restored",
                    )
                )
        events.sort(key=lambda e: (e.time_s, e.kind, e.target))
        return self._finalize(
            graph, now, trace, busy, tuple(events), occupancy, records
        )

    def _finalize(
        self,
        graph: TaskGraph,
        now: float,
        trace: List[TraceEntry],
        busy: Dict[str, float],
        events: Tuple[FaultEvent, ...],
        occupancy: List[OccupancyInterval],
        records: List[TaskRecord],
    ) -> SimResult:
        trace.sort(key=lambda entry: (entry.start, entry.end))
        records.sort(key=lambda r: (r.start, r.end, r.task_id))
        result = SimResult(
            makespan_seconds=now,
            trace=trace,
            counters=graph.total_counters(),
            resource_busy_units=busy,
            fault_events=events,
            occupancy=_merged_occupancy(occupancy),
            task_records=tuple(records),
            resource_capacities=self.pool.capacities(),
        )
        if telemetry.enabled() or tracing.current() is not None:
            # Capture the virtual-time schedule as its own trace track so
            # one Chrome-trace file shows host wall-clock spans alongside
            # the simulated kernel timeline. Also captured when the run
            # belongs to a traced query (span recording itself off): the
            # track is tagged with the query's trace id and joins its
            # tree in the merged export.
            telemetry.add_sim_result(result)
        # Post-hoc attribution (critical path, utilization timelines,
        # bound classes) when ``bench --explain`` turned collection on.
        explain.maybe_collect(result)
        return result
