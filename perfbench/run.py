#!/usr/bin/env python3
"""Host-time benchmark of the join system, one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload service-mix --seed 0 \\
        --seconds 25 --trace 0

Workloads (definitions and seeds live in :mod:`perfbench.workloads`):

- ``service-mix`` — open loop, 30 queries/s of the 9-template zipf mix
  through ``JoinService`` (2 workers), then saturation bursts.
- ``large-join`` — closed loop, 1 M x 1 M row in-memory joins
  alternating ``TritonJoin`` and ``CpuRadixJoin``, fresh seed per join.
- ``out-of-core`` — the same joins under a memory budget of half their
  state: spilled shards streamed through a 2-process ``MorselPool``.

``--trace 0`` prints the end-to-end metrics, measured untraced. A
"query" is one service query on service-mix and one ``run`` call on
the join workloads, where a latency sample is the mean of one
``TritonJoin`` and one ``CpuRadixJoin`` call. Percentiles are
nearest-rank. On service-mix ``query_p50_ms`` is the median over
200-query windows of each window's median
(:func:`perfbench.stats.windowed_percentile`). The client tail (p95,
p99, and which tail percentile the sample supports with ten samples
beyond it) is in the ``detail`` line and, from the untraced pass of a
``--trace 1`` run, in the per-layer metrics; it carries no bound,
because on a 2-core machine whose speed drifts 20-60% between runs its
spread across seeds (p95 0.15-0.39, p99 0.29) exceeds any bound the
benchmark may set.

``--trace 1`` runs the workload untraced and then again with the span
tracer of :mod:`perfbench.tracer` installed, prints the per-layer self
times, and reports the per-layer metrics. The spans are written to
``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Each run also
writes its result, the machine description, the seed and the offered
rate to ``.bench_out/``. Exit status: 0 success, 1 a wrong result,
2 the system's source tree is missing, 3 an invalid run (the open-loop
generator fell behind its schedule).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402
from perfbench.memory import MIB, PeakRss, children_peak_bytes  # noqa: E402
from perfbench.procs import adopt_orphans, stop_children  # noqa: E402
from perfbench.workloads import SERVICE_RATE_QPS  # noqa: E402

WORKLOADS = ("service-mix", "large-join", "out-of-core")

#: Where out-of-core joins spill (inside the checkout; removed after).
SPILL_DIR = ROOT / ".bench_spill"

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "query_p50_ms": "ms",
    "peak_qps": "queries/s",
    "join_rows_per_s": "rows/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

#: Fresh processes timed from spawn to ready; setup_s is their median.
SETUP_SAMPLES = 3


def _per_layer_units() -> dict:
    from perfbench.tracer import LAYERS

    units = {}
    for layer in LAYERS:
        units[f"{layer}_s"] = "s"
        units[f"{layer}_calls"] = "count"
    units.update(
        {
            "join.run_s": "s",
            "join.run_calls": "count",
            "join.attributed_share": "fraction",
            "join.repeat_share": "fraction",
            "sim.tasks": "count",
            "service.client_p95_ms": "ms",
            "service.client_p99_ms": "ms",
            "service.queue_wait_p50_ms": "ms",
            "service.queue_wait_p99_ms": "ms",
            "service.execute_p50_ms": "ms",
            "service.execute_p99_ms": "ms",
            "exec.spill_bytes_per_input_byte": "ratio",
            "exec.pool_occupancy": "fraction",
            "exec.morsels": "count",
            "exec.steals": "count",
            "telemetry.trace_overhead": "ratio",
            "driver.lag_p99_ms": "ms",
        }
    )
    return units


#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = _per_layer_units()


@dataclass
class Outcome:
    """One measured pass of a workload."""

    metrics: dict
    attempted: int
    failed: int
    #: Time per unit of work, compared between traced and untraced passes.
    cost: float
    detail: dict = field(default_factory=dict)
    invalid: str = ""


def machine() -> dict:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "platform": platform.platform(),
    }


# -- workloads -------------------------------------------------------------------


def open_workload(name: str, seed: int):
    """Import the system and make it ready for the first timed call."""
    if name == "service-mix":
        from perfbench.service_mix import ServiceMix

        return ServiceMix(seed)
    from perfbench.joins import JoinLoop

    return JoinLoop(seed, SPILL_DIR if name == "out-of-core" else None)


def measure_service(mix, seconds: float, burst: bool, refs, log) -> Outcome:
    from perfbench.service_mix import MAX_LAG_P99_MS, audit, latency_summary

    schedule = mix.schedule(seconds)
    peak = PeakRss()
    peak.reset()
    records = mix.open_loop(schedule)
    qps, burst_records = mix.bursts(schedule) if burst else (0.0, [])
    peak.observe()

    ok = audit(records, refs, log)
    burst_ok = audit(burst_records, refs, log)
    summary = latency_summary(records, ok)
    executed = [r for r, good in zip(records + burst_records, ok + burst_ok) if good]
    rows = sum(refs[r.arrival.template][1] for r in executed)
    busy = sum(r.execute for r in executed)
    invalid = ""
    if summary["lag_p99_ms"] > MAX_LAG_P99_MS:
        invalid = (
            f"generator lag p99 {summary['lag_p99_ms']:.1f} ms exceeds "
            f"{MAX_LAG_P99_MS:g} ms: the offered rate was not held"
        )
    elif summary["tail_percentile"] is None or summary["tail_percentile"] < 99:
        invalid = f"only {summary['completed']} queries completed: p99 unsupported"
    return Outcome(
        metrics={
            "query_p50_ms": summary["client_p50_window_ms"],
            "peak_qps": qps,
            "join_rows_per_s": rows / busy,
            "peak_rss_mb": peak.peak_bytes / MIB,
        },
        attempted=len(ok) + len(burst_ok),
        failed=ok.count(False) + burst_ok.count(False),
        cost=summary["client_p50_window_ms"],
        detail=summary,
        invalid=invalid,
    )


def measure_joins(loop, seconds: float) -> Outcome:
    peak = PeakRss()
    records = loop.run(seconds, peak)
    good = [r for r in records if r.correct]
    busy = sum(r.seconds for r in good)
    rows = sum(r.rows for r in good)
    # One latency sample per (TritonJoin, CpuRadixJoin) pair of the
    # alternating loop, so the median is not pulled between the two
    # operators' modes.
    pairs = [
        (a.seconds + b.seconds) / 2
        for a, b in zip(records[0::2], records[1::2])
        if a.correct and b.correct
    ] or [float("nan")]
    notes = [r.note for r in good if r.note]
    detail = {
        "joins": len(records),
        "pairs": len(pairs),
        "tail_percentile": stats.supported_percentile(len(pairs)),
        "per_operator_median_s": {
            name: stats.median([r.seconds for r in good if r.operator == name])
            for name in sorted({r.operator for r in good})
        },
    }
    if notes:
        detail["morsels_per_join"] = stats.median([n["morsels"] for n in notes])
        detail["shards_per_join"] = stats.median([n["shards"] for n in notes])
        detail["spilled_mb_per_join"] = stats.median(
            [n["spilled_bytes"] / MIB for n in notes]
        )
        detail["occupancy_median"] = stats.median([n["occupancy"] for n in notes])
    busy = busy or float("nan")  # no join succeeded: the run failed
    return Outcome(
        metrics={
            "query_p50_ms": stats.percentile(pairs, 50) * 1e3,
            "peak_qps": len(good) / busy,
            "join_rows_per_s": rows / busy,
            "peak_rss_mb": peak.peak_bytes / MIB,
        },
        attempted=len(records),
        failed=len(records) - len(good),
        cost=busy / rows if rows else float("nan"),
        detail=detail,
    )


def measure(name: str, state, seconds: float, burst: bool, refs, log) -> Outcome:
    if name == "service-mix":
        return measure_service(state, seconds, burst, refs, log)
    return measure_joins(state, seconds)


# -- set-up time -----------------------------------------------------------------


def setup_samples(args) -> list:
    """Seconds from spawning a fresh process to the system being ready."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-probe",
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        spawned = time.monotonic()
        proc = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True
        )
        try:
            out, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        words = out.split()
        if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
            raise RuntimeError(f"set-up probe failed: {out!r}")
        samples.append(float(words[1]) - spawned)
    return samples


def setup_probe(args) -> int:
    """Child side of :func:`setup_samples`: set up, report, tear down."""
    state = open_workload(args.workload, args.seed)
    print(f"ready {time.monotonic()!r}", flush=True)
    state.close()
    return 0


# -- per-layer metrics -------------------------------------------------------------


def layer_metrics(tracer, traced: Outcome, base: Outcome) -> dict:
    from perfbench.tracer import JOIN_RUN, LAYERS, outermost_seconds, self_times

    selfs = self_times(tracer.spans)
    counts = tracer.counts
    metrics = {name: 0.0 for name in PER_LAYER}
    for layer in LAYERS:
        calls, seconds = selfs.get(layer, (0, 0.0))
        metrics[f"{layer}_s"] = seconds
        metrics[f"{layer}_calls"] = calls
    run_calls, run_self = selfs.get(JOIN_RUN, (0, 0.0))
    run_total = outermost_seconds(tracer.spans, JOIN_RUN)
    metrics["join.run_s"] = run_total
    metrics["join.run_calls"] = run_calls
    if run_total:
        metrics["join.attributed_share"] = 1.0 - run_self / run_total
    if counts["join.runs"]:
        metrics["join.repeat_share"] = counts["join.repeats"] / counts["join.runs"]
    engine_calls = selfs.get("sim.engine", (0, 0.0))[0]
    if engine_calls:
        metrics["sim.tasks"] = counts["sim.tasks"] / engine_calls
    if counts["exec.spill_input_bytes"]:
        metrics["exec.spill_bytes_per_input_byte"] = (
            counts["exec.spill_bytes"] / counts["exec.spill_input_bytes"]
        )
    if counts["exec.pool_capacity_s"]:
        metrics["exec.pool_occupancy"] = (
            counts["exec.pool_busy_s"] / counts["exec.pool_capacity_s"]
        )
    metrics["exec.morsels"] = counts["exec.morsels"]
    metrics["exec.steals"] = counts["exec.steals"]
    detail = traced.detail
    if "queue_wait_p50_ms" in detail:
        for key in (
            "queue_wait_p50_ms",
            "queue_wait_p99_ms",
            "execute_p50_ms",
            "execute_p99_ms",
        ):
            metrics[f"service.{key}"] = detail[key]
        metrics["driver.lag_p99_ms"] = detail["lag_p99_ms"]
        # The client tail comes from the untraced pass of the same seed.
        metrics["service.client_p95_ms"] = base.detail["client_p95_ms"]
        metrics["service.client_p99_ms"] = base.detail["client_p99_ms"]
    metrics["telemetry.trace_overhead"] = traced.cost / base.cost
    return metrics


def print_layer_table(metrics: dict, wall: float, client_p50_ms: float) -> None:
    from perfbench.tracer import LAYERS

    print(f"{'layer':<22}{'calls':>10}{'self s':>10}{'of wall':>9}")
    for layer in sorted(LAYERS, key=lambda l: -metrics[f"{l}_s"]):
        seconds = metrics[f"{layer}_s"]
        print(
            f"{layer:<22}{int(metrics[f'{layer}_calls']):>10}"
            f"{seconds:>10.3f}{seconds / wall:>9.1%}"
        )
    print(
        f"join.run total {metrics['join.run_s']:.3f} s over "
        f"{int(metrics['join.run_calls'])} calls; named layers cover "
        f"{metrics['join.attributed_share']:.1%} of it"
    )
    if metrics["service.execute_p50_ms"]:
        split = metrics["service.queue_wait_p50_ms"] + metrics["service.execute_p50_ms"]
        print(
            f"queue wait p50 + execute p50 = {split:.2f} ms, client latency "
            f"p50 {client_p50_ms:.2f} ms ({split / client_p50_ms - 1:+.1%})"
        )


# -- entry point ---------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="Host-time benchmark of the join system.",
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in units.items()
            },
        }
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: the system's source is missing ({src})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    adopt_orphans()
    try:
        if args.setup_probe:
            return setup_probe(args)
        return run(args)
    finally:
        stop_children()


def run(args) -> int:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    log = sys.stderr

    started = time.perf_counter()
    state = open_workload(args.workload, args.seed)
    own_setup = time.perf_counter() - started
    refs = state.references() if args.workload == "service-mix" else None
    try:
        base = measure(args.workload, state, args.seconds, not args.trace, refs, log)
        passes = [base]
        if args.trace:
            from perfbench.tracer import Tracer

            tracer = Tracer()
            tracer.install()
            traced_started = time.perf_counter()
            try:
                traced = measure(args.workload, state, args.seconds, False, refs, log)
            finally:
                tracer.uninstall()
            traced_wall = time.perf_counter() - traced_started
            passes.append(traced)
    finally:
        state.close()

    if args.workload == "out-of-core":
        # Pool workers count: their peak is known once they were reaped.
        base.metrics["peak_rss_mb"] += children_peak_bytes() / MIB
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    invalid = next((p.invalid for p in passes if p.invalid), "")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "own_setup_s": own_setup,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "invalid": invalid,
        "passes": [{"metrics": p.metrics, "detail": p.detail} for p in passes],
    }
    if args.workload == "service-mix":
        report["offered_qps"] = SERVICE_RATE_QPS
    if args.trace:
        metrics, units = layer_metrics(tracer, traced, base), PER_LAYER
        spans_path = out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.write(spans_path)
        report["spans"] = str(spans_path.relative_to(ROOT))
        print_layer_table(
            metrics, traced_wall, traced.detail.get("client_p50_ms", 0.0)
        )
    else:
        samples = setup_samples(args)
        base.metrics["setup_s"] = stats.median(samples)
        report["setup_samples_s"] = samples
        metrics, units = base.metrics, END_TO_END
    report["metrics"] = metrics

    info = report["machine"]
    print(
        f"machine: {info['nproc']} cpus ({info['usable_cpus']} usable), "
        f"python {info['python']}, numpy {info['numpy']}, scipy {info['scipy']}"
    )
    rate = f", offered {SERVICE_RATE_QPS:g} queries/s" if refs else ""
    print(f"workload {args.workload}, seed {args.seed}{rate}")
    for p in passes:
        print(f"detail: {json.dumps(p.detail)}")
    for name, unit in units.items():
        print(f"{name:<34} {metrics[name]:>14.4f} {unit}")
    print(f"error_rate {failed}/{attempted} = {failed / attempted:.4f}")
    result_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=2) + "\n")
    if invalid:
        print(f"invalid run: {invalid}", file=log)
        return 3
    print(result_line(failed == 0, attempted, failed, metrics, units))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
