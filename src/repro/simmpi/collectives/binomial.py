"""Binomial-tree allreduce: reduce to root, then broadcast.

The simplest log-depth scheme. Its latency term (2 log p messages) matches
recursive halving/doubling, but every message carries the *full* vector, so
its bandwidth term is ~log p times worse — useful as a small-message
reference and as a correctness cross-check for the fancier algorithms.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.simmpi.comm import CollectiveResult, SimComm
from repro.simmpi.collectives.schedule import Step, collective, execute


def binomial_steps(p: int, n: int, itemsize: int) -> Iterator[Step]:
    """Step list of the binomial-tree allreduce of ``n`` elements over ``p`` ranks."""
    nbytes = float(n * itemsize)
    # Reduce phase: at distance d, ranks r with r % 2d == d send to r - d.
    d = 1
    while d < p:
        src = range(d, p, 2 * d)
        pairs = tuple((r, r - d, nbytes) for r in src)
        yield Step(pairs, nbytes, tuple((r - d, r, 0, n, True) for r in src))
        d *= 2
    # Broadcast phase: mirror of the reduce tree, largest distance first.
    while d > 1:
        d //= 2
        src = range(0, p - d, 2 * d)
        pairs = tuple((r, r + d, nbytes) for r in src)
        yield Step(pairs, 0.0, tuple((r + d, r, 0, n, False) for r in src))


@collective("binomial")
def binomial_allreduce(
    comm: SimComm, buffers: list[np.ndarray], *, average: bool = False
) -> CollectiveResult:
    """In-place binomial-tree allreduce (works for any rank count)."""
    return execute(comm, buffers, binomial_steps, average=average)
