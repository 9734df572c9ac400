"""The ``large-join`` and ``out-of-core`` workloads: one closed-loop caller.

Each iteration generates a fresh 1 M x 1 M row workload, times only
``JoinOperator.run`` on it, then checks the ``JoinMatch`` against
``reference_join`` outside the timed region. Iterations alternate the
operators and always finish a pair, so every run weighs them equally.

``out-of-core`` runs the same joins under an ``ExecutionConfig`` whose
budget is half the join's state bytes: both relations spill to memmap
shards (inside the checkout) and stream as morsels through a
2-process ``MorselPool``.
"""

from __future__ import annotations

import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from perfbench.memory import PeakRss
from perfbench.workloads import (
    JOIN_M_TUPLES,
    JOIN_OPERATORS,
    JOIN_SCALE_DIVISOR,
    OUT_OF_CORE_WORKERS,
    join_seed,
)

#: Join index whose seed the warm-up uses (never reached by a run).
WARMUP_INDEX = 999_999


@dataclass
class JoinRecord:
    operator: str
    rows: int
    seconds: float
    correct: bool
    note: Optional[dict]


def _workload(seed: int):
    from repro import generate_workload

    return generate_workload(
        JOIN_M_TUPLES, JOIN_M_TUPLES, scale_divisor=JOIN_SCALE_DIVISOR, seed=seed
    )


class JoinLoop:
    """Set-up state: the operators and, out of core (``spill_dir`` set),
    the spill config. ``spill_dir`` is removed on :meth:`close`."""

    def __init__(self, seed: int, spill_dir: Optional[Path]) -> None:
        import repro
        from repro.exec import ExecutionConfig, configured

        self.seed = seed
        system = repro.ac922()
        self.operators = [getattr(repro, name)(system) for name in JOIN_OPERATORS]
        self.config = None
        self.spill_dir = spill_dir
        # One full-size join per operator: later joins then find the
        # pool started and the allocator's free lists at their steady size.
        warm = _workload(join_seed(seed, WARMUP_INDEX))
        if spill_dir is not None:
            state_bytes = (
                warm.build.materialized_bytes + warm.probe.materialized_bytes
            )
            self.config = ExecutionConfig(
                budget_bytes=state_bytes // 2,
                workers=OUT_OF_CORE_WORKERS,
                spill_dir=str(spill_dir),
            )
        with configured(self.config):
            for operator in self.operators:
                operator.run(warm)

    def close(self) -> None:
        from repro.exec import shutdown_pool

        shutdown_pool()
        if self.spill_dir is not None:
            shutil.rmtree(self.spill_dir, ignore_errors=True)

    def run(self, seconds: float, peak: PeakRss) -> List[JoinRecord]:
        """Join until ``seconds`` of wall time passed and a pair is whole."""
        from repro import reference_join
        from repro.errors import ReproError
        from repro.exec import configured

        records: List[JoinRecord] = []
        deadline = time.perf_counter() + seconds
        index = 0
        with configured(self.config):
            while index < 2 or index % 2 or time.perf_counter() < deadline:
                operator = self.operators[index % len(self.operators)]
                name = type(operator).__name__
                workload = _workload(join_seed(self.seed, index))
                rows = len(workload.build) + len(workload.probe)
                index += 1
                peak.reset()
                started = time.perf_counter()
                try:
                    run = operator.run(workload)
                except ReproError as error:
                    print(f"join {index} ({name}): {error}", file=sys.stderr)
                    records.append(JoinRecord(name, rows, 0.0, False, None))
                    continue
                elapsed = time.perf_counter() - started
                peak.observe()
                expected = reference_join(workload.build, workload.probe)
                note = run.notes.get("out_of_core")
                correct = run.match == expected and self._went_out_of_core(note)
                if not correct:
                    print(
                        f"join {index} ({name}): {run.match} != reference "
                        f"{expected} (out-of-core note {note})",
                        file=sys.stderr,
                    )
                records.append(JoinRecord(name, rows, elapsed, correct, note))
        return records

    def _went_out_of_core(self, note) -> bool:
        """Out of core, every join must have spilled and used the pool."""
        if self.config is None:
            return note is None
        return (
            isinstance(note, dict)
            and note.get("mode") == "spill"
            and note.get("workers") == OUT_OF_CORE_WORKERS
        )

