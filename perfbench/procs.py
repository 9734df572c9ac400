"""Stop and wait for every process a benchmark run started.

The out-of-core workload starts processes the run never names itself:
the morsel pool forks its workers, and the first shared-memory segment
starts ``multiprocessing``'s resource tracker, which outlives its
parent until it reads end-of-file on its pipe. :func:`stop_children`
ends them all before the run exits, and :func:`adopt_orphans` makes
the run the reaper of any descendant whose parent exits first (a set-up
probe's own tracker), so those are waited for too.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time

#: ``prctl`` option that makes orphaned descendants children of the caller.
_PR_SET_CHILD_SUBREAPER = 36

#: Seconds a child gets to exit after SIGTERM before it is killed.
TERM_GRACE_SECONDS = 5.0


def adopt_orphans() -> None:
    """Become the subreaper of this process's descendants (Linux only)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _child_pids() -> list:
    """Live or unreaped children of this process, read from ``/proc``."""
    me = os.getpid()
    pids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                # The command may hold spaces; the fields after it do not.
                fields = stat.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def _reap(pids: list, deadline: float) -> list:
    """Wait for ``pids`` until ``deadline``; returns those still running."""
    pending = set(pids)
    while pending:
        for pid in list(pending):
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid  # already reaped elsewhere
            if done:
                pending.discard(pid)
        if not pending or time.monotonic() >= deadline:
            break
        time.sleep(0.02)
    return sorted(pending)


def _signal(pids: list, signum: int) -> None:
    for pid in pids:
        try:
            os.kill(pid, signum)
        except ProcessLookupError:
            pass


def stop_children() -> None:
    """End every child process and wait for each; call last before exit."""
    import multiprocessing
    from multiprocessing import resource_tracker

    try:
        from repro.exec import shutdown_pool
    except ImportError:
        pass
    else:
        shutdown_pool()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(TERM_GRACE_SECONDS)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    # The tracker exits once every holder of its pipe closed it: the
    # pool's forked workers are gone, so closing this end stops it.
    if getattr(tracker, "_fd", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()
    others = _child_pids()
    _signal(others, signal.SIGTERM)
    stuck = _reap(others, time.monotonic() + TERM_GRACE_SECONDS)
    _signal(stuck, signal.SIGKILL)
    _reap(stuck, time.monotonic() + TERM_GRACE_SECONDS)
