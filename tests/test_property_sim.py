"""Property-based tests: simulator invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimEngine
from repro.sim.resources import Resource, ResourcePool
from repro.sim.tasks import Task, TaskGraph, chain

RESOURCES = ("link", "mem", "sm")


@st.composite
def task_graphs(draw):
    """Random DAGs of 1-8 tasks with forward-only dependencies."""
    n = draw(st.integers(min_value=1, max_value=8))
    tasks = []
    for i in range(n):
        demands = {}
        for resource in RESOURCES:
            if draw(st.booleans()):
                demands[resource] = draw(
                    st.floats(min_value=1.0, max_value=500.0)
                )
        if not demands:
            demands["link"] = 10.0
        task = Task(name=f"t{i}", demands=demands)
        # Forward-only edges keep the graph acyclic by construction.
        for j in range(i):
            if draw(st.booleans()) and draw(st.booleans()):
                task.after.append(tasks[j])
        tasks.append(task)
    return TaskGraph(tasks)


@pytest.fixture(scope="module")
def pool():
    return ResourcePool({r: Resource(r, 100.0) for r in RESOURCES})


def pool_():
    return ResourcePool({r: Resource(r, 100.0) for r in RESOURCES})


@given(task_graphs())
@settings(max_examples=60, deadline=None)
def test_makespan_at_least_critical_path_lower_bound(graph):
    """The makespan can never beat the per-resource serial bound along
    any dependency chain, nor the total-demand bound per resource."""
    result = SimEngine(pool_()).run(graph)
    for resource in RESOURCES:
        total = sum(t.demands.get(resource, 0.0) for t in graph.tasks)
        assert result.makespan_seconds >= total / 100.0 - 1e-6


@given(task_graphs())
@settings(max_examples=60, deadline=None)
def test_dependencies_respected(graph):
    result = SimEngine(pool_()).run(graph)
    assert result.makespan_seconds >= 0
    for task in graph.tasks:
        for dep in task.after:
            assert task.start_time >= dep.end_time - 1e-9


@given(task_graphs())
@settings(max_examples=60, deadline=None)
def test_busy_units_equal_total_demand(graph):
    """Resource accounting conserves work exactly."""
    result = SimEngine(pool_()).run(graph)
    for resource in RESOURCES:
        total = sum(t.demands.get(resource, 0.0) for t in graph.tasks)
        assert result.resource_busy_units[resource] == pytest.approx(
            total, rel=1e-6, abs=1e-6
        )


@given(task_graphs())
@settings(max_examples=30, deadline=None)
def test_simulation_is_deterministic(graph):
    engine = SimEngine(pool_())
    first = engine.run(graph)
    second = engine.run(graph)
    assert first.makespan_seconds == pytest.approx(second.makespan_seconds)
    assert [e.name for e in first.trace] == [e.name for e in second.trace]


@given(task_graphs())
@settings(max_examples=30, deadline=None)
def test_phase_breakdown_sums_to_makespan(graph):
    result = SimEngine(pool_()).run(graph)
    breakdown = result.phase_breakdown()
    assert sum(breakdown.seconds_by_phase.values()) == pytest.approx(
        result.makespan_seconds, rel=1e-6, abs=1e-9
    )


@given(
    st.lists(
        st.floats(min_value=1.0, max_value=200.0), min_size=1, max_size=6
    )
)
@settings(max_examples=40, deadline=None)
def test_serial_chain_is_sum_of_durations(demands):
    tasks = chain(
        [Task(name=f"t{i}", demands={"link": d}) for i, d in enumerate(demands)]
    )
    result = SimEngine(pool_()).run(TaskGraph(tasks))
    assert result.makespan_seconds == pytest.approx(sum(demands) / 100.0)


@given(
    st.lists(
        st.floats(min_value=1.0, max_value=200.0), min_size=1, max_size=6
    )
)
@settings(max_examples=40, deadline=None)
def test_parallel_tasks_bounded_by_capacity(demands):
    tasks = [Task(name=f"t{i}", demands={"link": d}) for i, d in enumerate(demands)]
    result = SimEngine(pool_()).run(TaskGraph(tasks))
    # Sharing one resource: the makespan is exactly total/capacity.
    assert result.makespan_seconds == pytest.approx(sum(demands) / 100.0)


@given(task_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_result_independent_of_task_insertion_order(graph, data):
    """Ready tasks start in creation (task_id) order, not in the order
    they were added to the graph: a shuffled graph of the same tasks
    gives the same result, down to every float and dict order."""
    shuffled = TaskGraph(data.draw(st.permutations(graph.tasks)))
    engine = SimEngine(pool_())
    first = repr(engine.run(graph))
    assert repr(engine.run(shuffled)) == first
