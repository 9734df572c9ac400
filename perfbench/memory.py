"""Peak resident memory of the benchmark process and its workers.

Linux keeps a process's peak RSS (``VmHWM``) and lets the process reset
it by writing ``5`` to ``/proc/self/clear_refs``. Resetting right before
each timed operation keeps set-up and the benchmark's own reference
computations out of the peak. Where the reset is unavailable the peak
is the process's lifetime peak.
"""

from __future__ import annotations

import resource

MIB = 1 << 20


def _vm_hwm_bytes() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class PeakRss:
    """The highest RSS seen inside the timed regions."""

    def __init__(self) -> None:
        self.peak_bytes = 0

    def reset(self) -> None:
        try:
            with open("/proc/self/clear_refs", "w") as clear:
                clear.write("5")
        except OSError:
            pass

    def observe(self) -> None:
        self.peak_bytes = max(self.peak_bytes, _vm_hwm_bytes())


def children_peak_bytes() -> int:
    """Peak RSS of the largest child process already waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
