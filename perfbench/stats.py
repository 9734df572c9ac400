"""Order statistics used by every workload.

Percentiles are nearest-rank: the q-th percentile of n samples is the
``ceil(q * n / 100)``-th smallest, so it is always a measured sample and
exactly ``n - rank`` samples lie beyond it. A tail percentile is only
reported with confidence when at least :data:`MIN_BEYOND` samples lie
beyond it (:func:`supported_percentile`).
"""

from __future__ import annotations

from typing import Optional, Sequence

#: Samples that must lie beyond a tail percentile for it to be trusted.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of the q-th percentile among n samples.

    Works in tenths of a percent with integer arithmetic, so 99.9 of
    10000 is rank 9990 exactly instead of a float that rounds up.
    """
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    if n < 1:
        raise ValueError("percentile of an empty sample")
    tenths = round(q * 10)
    return max(1, -(-tenths * n // 1000))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank q-th percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[_rank(q, len(ordered)) - 1]


def beyond(q: float, n: int) -> int:
    """How many of n samples lie strictly beyond the q-th percentile."""
    return n - _rank(q, n)


def supported_percentile(
    n: int, candidates: Sequence[float] = TAIL_PERCENTILES
) -> Optional[float]:
    """The highest candidate percentile with MIN_BEYOND samples beyond it.

    ``None`` when even the lowest candidate is under-sampled. p99 needs
    1000 samples, p99.9 needs 10000.
    """
    for q in candidates:
        if n >= 1 and beyond(q, n) >= MIN_BEYOND:
            return q
    return None


def median(values: Sequence[float]) -> float:
    """Nearest-rank median (a measured sample, never an average)."""
    return percentile(values, 50.0)


def windowed_percentile(values: Sequence[float], q: float, window: int) -> float:
    """Median over consecutive ``window``-sample windows of each
    window's q-th percentile (a trailing partial window is dropped).

    One slow episode of the host then moves one window, not the result.
    """
    windows = [
        values[start : start + window]
        for start in range(0, len(values) - window + 1, window)
    ]
    if not windows:
        raise ValueError(f"fewer than {window} samples")
    return median([percentile(w, q) for w in windows])
