"""The benchmark's own workload definitions and seeded input streams.

Nothing here is imported from ``src/``: the query templates, the
arrival schedule and the join sizes are fixed in this file, so a
change to the system cannot change the traffic it is measured on.
Every stream is a pure function of the ``--seed`` argument.

- ``service-mix``: an open loop of Poisson arrivals at
  :data:`SERVICE_RATE_QPS` over nine query templates, template
  popularity zipf(:data:`ZIPF_THETA`), random priorities, and about one
  query in twenty submitted with ``explain=True``. Templates repeat
  within a run (each template's data seed is fixed per run).
- ``large-join`` / ``out-of-core``: one closed-loop caller running
  :data:`JOIN_M_TUPLES` M x :data:`JOIN_M_TUPLES` M nominal joins at
  divisor :data:`JOIN_SCALE_DIVISOR` (1 M materialized rows a side),
  alternating :data:`JOIN_OPERATORS`, with a fresh data seed per join.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

#: Offered rate of the open loop: about a quarter of the 2-worker
#: saturation throughput on a 2-core machine (105-145 queries/s). The
#: host's speed drifts by 20-30% between runs; at half of saturation
#: that drift pushes the service near its limit and p95/p99 double, so
#: the rate keeps queueing a minor part of the latency tail.
SERVICE_RATE_QPS = 30.0

#: Completed queries needed for a p99 with ten samples beyond it.
MIN_OPEN_LOOP_QUERIES = 1000

#: Consecutive queries per latency window (the fewest whose p95 has
#: ten samples beyond it); the reported median is a window median.
WINDOW_QUERIES = 200

#: Saturation phase after the open loop: BURSTS times, BURST_QUERIES
#: queries of the schedule are submitted at once; the reported
#: throughput is the median burst's. One burst lasts under 2 s, and
#: single bursts of the same queries differ by up to 2x with the host's
#: load, so the median takes seven.
BURSTS = 7
BURST_QUERIES = 200

#: Service worker threads (the JoinService default).
SERVICE_WORKERS = 2

ZIPF_THETA = 1.2
EXPLAIN_SHARE = 0.05
PRIORITY_LEVELS = 4

#: Service functional arrays stay small at this divisor, so one query
#: costs milliseconds of host time.
SERVICE_SCALE_DIVISOR = 65536

#: Nominal M tuples a side of every large join: the paper's largest
#: relation, 1 M materialized rows at the divisor below.
JOIN_M_TUPLES = 2048
JOIN_SCALE_DIVISOR = 2048

#: Operators the join workloads alternate, by public class name.
JOIN_OPERATORS = ("TritonJoin", "CpuRadixJoin")

#: Morsel-pool worker processes of the out-of-core workload.
OUT_OF_CORE_WORKERS = 2


def _spec(name, root, base_seed, seed, **workload):
    config = {
        "build_m_tuples": 64,
        "probe_m_tuples": 64,
        "scale_divisor": SERVICE_SCALE_DIVISOR,
        # Fixed for the whole run, so a template's inputs repeat.
        "seed": base_seed + 7919 * seed,
    }
    config.update(workload)
    return {"name": name, "workload": config, "root": root}


def _scan(relation):
    return {"op": "scan", "relation": relation}


def _join(algorithm="triton", probe=None, **extra):
    node = {
        "op": "join",
        "algorithm": algorithm,
        "build": _scan("build"),
        "probe": probe if probe is not None else _scan("probe"),
    }
    node.update(extra)
    return node


def service_templates(seed: int) -> List[dict]:
    """The nine query templates, most popular (zipf rank 1) first."""
    return [
        _spec("triton-small", _join(), 1, seed),
        _spec("triton-skewed", _join(), 7, seed, probe_m_tuples=512),
        _spec(
            "analytics-mini",
            {
                "op": "groupby",
                "function": "sum",
                "input": _join("bloom-triton", aggregate=True),
            },
            11,
            seed,
            probe_m_tuples=256,
            probe_hit_rate=0.5,
        ),
        _spec("cpu-radix", _join("cpu-radix"), 13, seed),
        _spec(
            "coprocess",
            _join("coprocess", cpu_fraction=0.3),
            17,
            seed,
            build_m_tuples=128,
            probe_m_tuples=128,
        ),
        _spec(
            "filtered-join",
            _join(
                probe={
                    "op": "filter",
                    "predicate": "modulo",
                    "divisor": 4,
                    "remainder": 1,
                    "input": _scan("probe"),
                }
            ),
            19,
            seed,
            probe_m_tuples=128,
        ),
        _spec(
            "partitioned-join",
            _join(probe={"op": "partition", "bits": 4, "input": _scan("probe")}),
            23,
            seed,
        ),
        _spec(
            "count-by-key",
            {"op": "groupby", "function": "count", "input": _join()},
            29,
            seed,
            probe_m_tuples=256,
        ),
        _spec(
            "big-state",
            _join(),
            31,
            seed,
            build_m_tuples=1024,
            probe_m_tuples=1024,
        ),
    ]


def zipf_weights(n: int, theta: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = 1.0 / np.power(ranks, theta)
    return weights / weights.sum()


@dataclass(frozen=True)
class Arrival:
    """One scheduled query of the open loop."""

    at: float  # seconds after the loop starts
    template: int
    priority: int
    explain: bool


def open_loop_queries(rate: float, seconds: float) -> int:
    """Queries one open-loop run sends: ``rate * seconds``, at least
    enough for a supported p99."""
    return max(MIN_OPEN_LOOP_QUERIES, int(round(rate * seconds)))


def open_loop_schedule(
    seed: int, rate: float, count: int, templates: int
) -> List[Arrival]:
    """Seeded Poisson arrivals (exponential gaps at ``rate``) and query
    choices; the first query is due at time 0."""
    rng = np.random.default_rng([seed, 0x5E])
    gaps = rng.exponential(1.0 / rate, size=count)
    gaps[0] = 0.0
    times = np.cumsum(gaps)
    choices = rng.choice(
        templates, size=count, p=zipf_weights(templates, ZIPF_THETA)
    )
    priorities = rng.integers(0, PRIORITY_LEVELS, size=count)
    explain = rng.random(count) < EXPLAIN_SHARE
    return [
        Arrival(float(t), int(c), int(p), bool(e))
        for t, c, p, e in zip(times, choices, priorities, explain)
    ]


def join_seed(seed: int, index: int) -> int:
    """Data seed of the ``index``-th join of a run: fresh for every join,
    disjoint between benchmark seeds."""
    return 1_000_003 * seed + index
