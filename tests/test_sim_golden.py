"""Golden SimResults: the simulator's exact output, pinned.

Every :meth:`SimEngine.run` call made by a fixed set of operator runs
is reduced to a digest of its makespan, trace, busy units, fault
events, occupancy and task records (floats compared bit for bit via
``float.hex``). Runs that raise contribute their error type and
message instead. Task ids come from a process-wide counter, so each id
is rewritten as the task's position in ``graph.tasks`` first: the
digests do not depend on which tests ran before.

The cases are the golden fault plans in ``tests/data/fault_plans/``
replayed through the degradation ladder (as in
``test_fault_scenarios.py``) plus one clean run of each operator family
that builds a task graph. Refresh the data after a deliberate change to
simulated results with::

    PYTHONPATH=src python tests/test_sim_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import faults
from repro.aggregate import NoPartitioningAggregation, TritonAggregation
from repro.data.generator import generate_workload
from repro.data.relation import Relation
from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.hw.specs import ac922
from repro.join import (
    BloomFilteredTritonJoin,
    CoProcessingJoin,
    CpuPartitionedJoin,
    CpuRadixJoin,
    DegradationLadder,
    MultiGpuTritonJoin,
    NoPartitioningJoin,
    TritonJoin,
)
from repro.sim.engine import SimEngine
from repro.sort import GpuRadixSort

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_PATH = DATA_DIR / "sim_golden.json"
PLAN_PATHS = sorted((DATA_DIR / "fault_plans").glob("*.json"))


def _hex(value) -> str:
    return float(value).hex()


def _digest(graph, result) -> str:
    """Order-preserving digest of one SimResult, task ids as positions."""
    position = {task.task_id: i for i, task in enumerate(graph.tasks)}
    payload = (
        _hex(result.makespan_seconds),
        [(e.name, e.phase, _hex(e.start), _hex(e.end)) for e in result.trace],
        [(name, _hex(units))
         for name, units in result.resource_busy_units.items()],
        [(_hex(e.time_s), e.kind, e.target, e.detail)
         for e in result.fault_events],
        [(_hex(o.start), _hex(o.end),
          [(name, _hex(rate)) for name, rate in o.usage.items()])
         for o in result.occupancy],
        [(position[r.task_id], r.name, r.phase, _hex(r.start), _hex(r.end),
          [(name, _hex(amount)) for name, amount in r.demands.items()],
          [position[dep] for dep in r.dep_ids], _hex(r.min_seconds),
          r.retries, _hex(r.backoff_seconds), _hex(r.active_seconds))
         for r in result.task_records],
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def _workload():
    return generate_workload(128, 128, scale_divisor=65536, seed=13)


def _relation(rows=20_000, groups=500, nominal=512 << 20):
    rng = np.random.default_rng(0)
    keys = rng.integers(1, groups + 1, size=rows).astype(np.int64)
    values = rng.integers(-1000, 1000, size=rows).astype(np.int64)
    return Relation(keys, {"attr0": values}, nominal_rows=nominal, name="F")


def _replay(path):
    def run():
        system = ac922()
        with faults.injected(FaultPlan.load(path)):
            DegradationLadder(system, use_advisor=False).run(_workload())
    return run


def _clean(make_operator):
    def run():
        make_operator(ac922()).run(_workload())
    return run


CASES = {
    **{f"plan:{path.stem}": _replay(path) for path in PLAN_PATHS},
    "TritonJoin": _clean(TritonJoin),
    "CpuRadixJoin": _clean(CpuRadixJoin),
    "CpuPartitionedJoin": _clean(CpuPartitionedJoin),
    "NoPartitioningJoin": _clean(NoPartitioningJoin),
    "CoProcessingJoin": _clean(CoProcessingJoin),
    "MultiGpuTritonJoin": _clean(
        lambda system: MultiGpuTritonJoin(system, gpu_count=2)
    ),
    "BloomFilteredTritonJoin": _clean(BloomFilteredTritonJoin),
    "TritonAggregation": lambda: TritonAggregation(ac922()).run(
        _relation(), groups_nominal=100 << 20
    ),
    "NoPartitioningAggregation": lambda: NoPartitioningAggregation(
        ac922()
    ).run(_relation(), groups_nominal=1 << 20),
    "GpuRadixSort": lambda: GpuRadixSort(ac922()).run(
        _relation(rows=50_000)
    ),
}


def capture(case: str, monkeypatch) -> list:
    """Digests of every engine run the case makes, in call order."""
    digests = []
    original = SimEngine.run

    def recording_run(engine, graph):
        try:
            result = original(engine, graph)
        except ReproError as exc:
            digests.append(f"{type(exc).__name__}: {exc}")
            raise
        digests.append(_digest(graph, result))
        return result

    monkeypatch.setattr(SimEngine, "run", recording_run)
    try:
        CASES[case]()
    except ReproError:
        pass  # error plans: the failed engine runs are already recorded
    finally:
        monkeypatch.undo()
    return digests


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_sim_results_match_golden(case, golden, monkeypatch):
    digests = capture(case, monkeypatch)
    assert digests, f"{case} made no engine run"
    assert digests == golden[case]


if __name__ == "__main__":
    patcher = pytest.MonkeyPatch()
    data = {case: capture(case, patcher) for case in sorted(CASES)}
    GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, data.values()))} digests to {GOLDEN_PATH}")
