"""The ``service-mix`` workload: an open loop through ``JoinService``.

One client thread sends the seeded schedule at its due times; one
watcher thread per query blocks on its handle until it completes. A query's client latency runs
from its *due* time (not the moment it was actually sent, nor the
moment a worker picked it up) to the moment the client observes it
done, so generator lag and queueing both count. ``handle.wall_seconds``
is the execute part; client latency minus execute is queue wait.

The reported median latency is the median over consecutive 200-query
windows of each window's median, so one slow episode of the host moves
one window rather than the run. After the open loop, slices of the same
schedule are submitted all at once, one slice after another;
completions per second of the median slice are the saturation
throughput.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from perfbench import stats
from perfbench.workloads import (
    BURST_QUERIES,
    BURSTS,
    SERVICE_RATE_QPS,
    SERVICE_WORKERS,
    WINDOW_QUERIES,
    Arrival,
    open_loop_queries,
    open_loop_schedule,
    service_templates,
)

#: A run whose generator sent later than this at p99 did not offer the
#: scheduled load and is invalid.
MAX_LAG_P99_MS = 100.0


@dataclass
class Sent:
    """One query as the client saw it (perf_counter seconds).

    The handle is dropped once the query is done, keeping only what the
    audit needs, so the client holds no query results between samples.
    """

    arrival: Arrival
    due: float
    sent: float
    handle: object = None
    done: Optional[float] = None
    execute: float = 0.0
    checksum: Optional[str] = None
    error: str = ""

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lag(self) -> float:
        return self.sent - self.due

    def watch(self) -> None:
        self.handle.wait()
        self.finish(time.perf_counter())

    def finish(self, now: float) -> None:
        from repro.errors import ReproError

        self.done = now
        self.execute = self.handle.wall_seconds
        try:
            self.checksum = self.handle.result().checksum
        except ReproError as error:
            self.error = f"query {self.handle.id} {self.handle.status}: {error}"
        self.handle = None


class ServiceMix:
    """Set-up state of the workload: the running service and its mix."""

    def __init__(self, seed: int) -> None:
        from repro.service import JoinService

        self.seed = seed
        self.templates = service_templates(seed)
        self.service = JoinService(workers=SERVICE_WORKERS)
        # One warm-up per template, plus the explain path (lazy imports).
        for spec in self.templates:
            self.service.submit(spec).result()
        self.service.submit(self.templates[0], explain=True).result()

    def close(self) -> None:
        self.service.shutdown(wait=True)

    def schedule(self, seconds: float) -> List[Arrival]:
        count = open_loop_queries(SERVICE_RATE_QPS, seconds)
        return open_loop_schedule(
            self.seed, SERVICE_RATE_QPS, count, len(self.templates)
        )

    def _submit(self, arrival: Arrival):
        return self.service.submit(
            self.templates[arrival.template],
            priority=arrival.priority,
            explain=arrival.explain,
        )

    def open_loop(self, schedule: List[Arrival]) -> List[Sent]:
        """Send every arrival at its due time; return once all are done.

        A watcher thread per query blocks on its handle, so completion
        is stamped when it happens and the client never polls (polling
        would take the interpreter lock from the service's workers).
        """
        sent: List[Sent] = []
        watchers: List[threading.Thread] = []
        start = time.perf_counter() + 0.01
        for arrival in schedule:
            due = start + arrival.at
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            record = Sent(arrival, due, time.perf_counter())
            record.handle = self._submit(arrival)
            watcher = threading.Thread(target=record.watch, daemon=True)
            watcher.start()
            sent.append(record)
            # Keep only live watchers: finished threads left in the list
            # would grow the heap every garbage collection scans.
            watchers = [w for w in watchers if w.is_alive()]
            watchers.append(watcher)
        for watcher in watchers:
            watcher.join()
        return sent

    def bursts(self, schedule: List[Arrival]) -> tuple:
        """Saturation throughput: BURSTS slices of BURST_QUERIES arrivals,
        each submitted at once after the previous one drained.

        Returns ``(median completions per second, [Sent])``.
        """
        rates: List[float] = []
        records: List[Sent] = []
        for first in range(0, BURSTS * BURST_QUERIES, BURST_QUERIES):
            # The slices wrap round the schedule when it is shorter.
            arrivals = [
                schedule[(first + i) % len(schedule)] for i in range(BURST_QUERIES)
            ]
            started = time.perf_counter()
            batch = [
                Sent(arrival, started, started, self._submit(arrival))
                for arrival in arrivals
            ]
            for record in batch:
                record.handle.wait()
                record.finish(time.perf_counter())
            rates.append(len(batch) / (time.perf_counter() - started))
            records.extend(batch)
        return stats.median(rates), records

    def references(self) -> Dict[int, tuple]:
        """Per template: (serial ``execute_plan`` checksum, join input rows)."""
        from repro.service import execute_plan

        refs = {}
        for index, spec in enumerate(self.templates):
            result = execute_plan(spec)
            rows = sum(
                len(run.workload.build) + len(run.workload.probe)
                for run in result.runs
                if hasattr(run, "match")
            )
            refs[index] = (result.checksum, rows)
        return refs


def audit(records: List[Sent], refs: Dict[int, tuple], log) -> List[bool]:
    """Check each query against its template's serial reference
    checksum; True per query that completed correctly."""
    verdicts = []
    for record in records:
        expected = refs[record.arrival.template][0]
        if record.error:
            print(record.error, file=log)
        elif record.checksum != expected:
            print(
                f"template {record.arrival.template}: checksum "
                f"{record.checksum} != reference {expected}",
                file=log,
            )
        verdicts.append(record.checksum == expected)
    return verdicts


def latency_summary(records: List[Sent], ok: List[bool]) -> dict:
    """Client latency, its execute/queue split and generator lag (ms)
    over the correctly completed queries of one open loop."""
    done = [r for r, good in zip(records, ok) if good]
    latency = [r.latency * 1e3 for r in done]
    execute = [r.execute * 1e3 for r in done]
    queue = [lat - ex for lat, ex in zip(latency, execute)]
    lag = [r.lag * 1e3 for r in records]
    return {
        "completed": len(done),
        "tail_percentile": stats.supported_percentile(len(done)),
        "client_p50_window_ms": stats.windowed_percentile(
            latency, 50, WINDOW_QUERIES
        ),
        "client_p50_ms": stats.percentile(latency, 50),
        "client_p95_ms": stats.percentile(latency, 95),
        "client_p99_ms": stats.percentile(latency, 99),
        "client_mean_ms": sum(latency) / len(latency),
        "execute_p50_ms": stats.percentile(execute, 50),
        "execute_p99_ms": stats.percentile(execute, 99),
        "execute_mean_ms": sum(execute) / len(execute),
        "queue_wait_p50_ms": stats.percentile(queue, 50),
        "queue_wait_p99_ms": stats.percentile(queue, 99),
        "queue_wait_mean_ms": sum(queue) / len(queue),
        "lag_p99_ms": stats.percentile(lag, 99),
        "lag_max_ms": max(lag),
    }
