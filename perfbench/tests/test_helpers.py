"""Tests of the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import stats, workloads
from perfbench.tracer import Span, Tracer, outermost_seconds, self_times

ROOT = Path(__file__).resolve().parents[2]


# -- percentile rule -------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    assert stats.median([3, 1, 2]) == 2


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1], 0)


@pytest.mark.parametrize(
    "n, expected",
    [
        (10000, 99.9),
        (9999, 99.0),
        (1000, 99.0),
        (999, 95.0),
        (200, 95.0),
        (199, 90.0),
        (100, 90.0),
        (40, 75.0),
        (20, 50.0),
        (19, None),
        (0, None),
    ],
)
def test_supported_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.supported_percentile(n) == expected
    if expected is not None:
        assert stats.beyond(expected, n) >= stats.MIN_BEYOND


def test_windowed_percentile_takes_the_median_window():
    calm = [1.0] * 190 + [2.0] * 10
    slow = [5.0] * 200
    values = calm + slow + calm + [9.0] * 150  # partial window dropped
    assert stats.windowed_percentile(values, 95, 200) == 1.0
    assert stats.windowed_percentile(calm + slow + slow, 95, 200) == 5.0
    with pytest.raises(ValueError):
        stats.windowed_percentile(calm[:199], 95, 200)


def test_window_size_supports_p95():
    assert stats.beyond(95, workloads.WINDOW_QUERIES) == stats.MIN_BEYOND


def test_beyond_counts_samples_past_the_rank():
    assert stats.beyond(99, 1000) == 10
    assert stats.beyond(99.9, 10000) == 10
    assert stats.beyond(50, 21) == 10


# -- self time -------------------------------------------------------------------


def _span(span_id, name, start, end, parent=None, thread=1):
    return Span(span_id, name, start, end, parent, thread)


def test_self_time_of_nested_spans():
    spans = [
        _span(1, "outer", 0.0, 10.0),
        _span(2, "middle", 1.0, 6.0, parent=1),
        _span(3, "inner", 2.0, 3.0, parent=2),
    ]
    selfs = self_times(spans)
    assert selfs["outer"] == (1, pytest.approx(5.0))
    assert selfs["middle"] == (1, pytest.approx(4.0))
    assert selfs["inner"] == (1, pytest.approx(1.0))
    # Self times partition the outermost span.
    assert sum(s for _, s in selfs.values()) == pytest.approx(10.0)


def test_self_time_of_sibling_spans():
    spans = [
        _span(1, "parent", 0.0, 10.0),
        _span(2, "child", 1.0, 3.0, parent=1),
        _span(3, "child", 4.0, 5.0, parent=1),
        # Overlapping siblings (other threads) are covered once.
        _span(4, "worker", 2.0, 4.5, parent=1, thread=2),
    ]
    selfs = self_times(spans)
    assert selfs["parent"] == (1, pytest.approx(10.0 - 4.0))
    assert selfs["child"] == (2, pytest.approx(3.0))
    assert selfs["worker"] == (1, pytest.approx(2.5))


def test_children_outside_the_parent_are_clipped():
    spans = [_span(1, "p", 1.0, 2.0), _span(2, "c", 0.5, 1.5, parent=1)]
    assert self_times(spans)["p"] == (1, pytest.approx(0.5))


def test_outermost_seconds_skips_nested_same_name():
    spans = [
        _span(1, "join.run", 0.0, 4.0),
        _span(2, "other", 1.0, 3.0, parent=1),
        _span(3, "join.run", 1.5, 2.5, parent=2),
        _span(4, "join.run", 5.0, 6.0),
    ]
    assert outermost_seconds(spans, "join.run") == pytest.approx(5.0)


def test_tracer_records_parents_and_counts():
    tracer = Tracer()

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap("inner", inner)

    def outer(x):
        return traced_inner(x) * 2

    seen = []
    traced_outer = tracer.wrap("outer", outer, after=lambda a, r: seen.append(r))
    assert traced_outer(1) == 4
    assert seen == [4]
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    tracer.count("things", 2)
    assert tracer.counts["things"] == 2


def test_tracer_install_wraps_and_restores():
    import sys

    sys.path.insert(0, str(ROOT / "src"))
    from repro.join import batched
    from repro.sim.engine import SimEngine

    original_join = batched.batched_radix_join
    original_run = SimEngine.__dict__["run"]
    tracer = Tracer()
    tracer.install()
    try:
        assert batched.batched_radix_join is not original_join
        assert SimEngine.__dict__["run"] is not original_run
    finally:
        tracer.uninstall()
    assert batched.batched_radix_join is original_join
    assert SimEngine.__dict__["run"] is original_run


# -- seeded streams --------------------------------------------------------------


def test_schedule_is_identical_for_the_same_seed():
    a = workloads.open_loop_schedule(3, 60.0, 500, 9)
    b = workloads.open_loop_schedule(3, 60.0, 500, 9)
    assert a == b
    assert workloads.open_loop_schedule(4, 60.0, 500, 9) != a
    assert a[0].at == 0.0
    assert all(x.at <= y.at for x, y in zip(a, b[1:]))


def test_schedule_matches_rate_and_mix():
    arrivals = workloads.open_loop_schedule(0, 60.0, 6000, 9)
    rate = (len(arrivals) - 1) / arrivals[-1].at
    assert 55.0 < rate < 65.0
    explain = sum(a.explain for a in arrivals) / len(arrivals)
    assert 0.03 < explain < 0.07
    counts = [sum(a.template == t for a in arrivals) for t in range(9)]
    assert counts[0] == max(counts)  # zipf rank 1 is the most popular
    assert {a.priority for a in arrivals} == set(range(workloads.PRIORITY_LEVELS))


def test_templates_are_identical_for_the_same_seed():
    assert workloads.service_templates(5) == workloads.service_templates(5)
    seeds = {t["workload"]["seed"] for t in workloads.service_templates(5)}
    other = {t["workload"]["seed"] for t in workloads.service_templates(6)}
    assert len(seeds) == 9 and not seeds & other


def test_open_loop_sends_enough_for_p99():
    assert workloads.open_loop_queries(60.0, 1.0) == 1000
    assert workloads.open_loop_queries(60.0, 20.0) == 1200
    assert stats.supported_percentile(workloads.open_loop_queries(60.0, 1.0)) == 99


def test_join_seeds_are_fresh():
    seeds = {workloads.join_seed(s, i) for s in range(5) for i in range(200)}
    assert len(seeds) == 1000


# -- process clean-up ------------------------------------------------------------

#: Starts a child, an orphaned grandchild and the resource tracker, then
#: stops them and prints their pids.
LEAKY_RUN = """
import subprocess, sys
from multiprocessing import resource_tracker, shared_memory
sys.path.insert(0, sys.argv[1])
from perfbench.procs import adopt_orphans, stop_children
adopt_orphans()
segment = shared_memory.SharedMemory(create=True, size=8)
segment.close()
segment.unlink()
child = subprocess.Popen(
    ["sleep", "60"], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
)
orphan = subprocess.run(
    ["sh", "-c", "sleep 60 >/dev/null 2>&1 & echo $!"],
    capture_output=True, text=True, check=True,
).stdout.split()[0]
tracker = resource_tracker._resource_tracker._pid
stop_children()
print(child.pid, orphan, tracker)
"""


def _running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_stop_children_leaves_no_process():
    out = subprocess.run(
        [sys.executable, "-c", LEAKY_RUN, str(ROOT)],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    pids = [int(word) for word in out.split()]
    assert len(pids) == 3
    try:
        assert [pid for pid in pids if _running(pid)] == []
    finally:
        for pid in pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


# -- BENCHMARK.json --------------------------------------------------------------


def test_benchmark_json_matches_the_reported_metrics():
    from perfbench import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
