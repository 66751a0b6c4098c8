"""Order statistics and span arithmetic used by the host-time benchmark.

Kept free of NumPy and of ``repro`` so that ``run.py`` and the unit tests
can import it without loading the simulator.
"""

from __future__ import annotations

#: A tail percentile must leave at least this many ops above it.
TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The op-latency tail: ``(value, percentile, ops_beyond)``.

    The tail is the highest percentile that still has at least
    :data:`TAIL_BEYOND` ops above it: with ``n`` sorted samples that is the
    order statistic ``x[n - 11]``, which sits at percentile
    ``100 * (n - 10) / n``. A run needs 21 ops before that statistic lies
    above the median. With fewer ops there is no tail percentile that has
    ten ops beyond it, so the rule reports the slowest op instead, named
    percentile 100 with 0 ops beyond it.
    """
    if not samples:
        raise ValueError("tail() needs at least one sample")
    xs = sorted(samples)
    n = len(xs)
    if n < 2 * TAIL_BEYOND + 1:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, children: list[tuple[float, float]]) -> float:
    """A span's self time: its duration minus the part its children cover."""
    return (end - start) - covered(children, start, end)
