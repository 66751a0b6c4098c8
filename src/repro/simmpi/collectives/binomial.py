"""Binomial-tree allreduce: reduce to root, then broadcast.

The simplest log-depth scheme. Its latency term (2 log p messages) matches
recursive halving/doubling, but every message carries the *full* vector, so
its bandwidth term is ~log p times worse — useful as a small-message
reference and as a correctness cross-check for the fancier algorithms.
Its two halves, :func:`reduce_steps` and :func:`broadcast_steps`, are also
the rooted ``basic.reduce`` and ``basic.broadcast``.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.simmpi.comm import CollectiveResult, SimComm
from repro.simmpi.collectives.schedule import Step, collective, execute


def reduce_steps(p: int, n: int, itemsize: int, root: int = 0) -> Iterator[Step]:
    """Binomial-tree reduction of ``n`` elements into ``root``.

    At distance d (1, 2, 4, ...) every rank whose virtual index
    ``(rank - root) mod p`` is an odd multiple of d sends its partial sum
    to the rank d below it, which adds it in.
    """
    nbytes = float(n * itemsize)
    at = lambda v: (v + root) % p
    d = 1
    while d < p:
        src = range(d, p, 2 * d)
        pairs = tuple((at(v), at(v - d), nbytes) for v in src)
        yield Step(pairs, nbytes, tuple((at(v - d), at(v), 0, n, True) for v in src))
        d *= 2


def broadcast_steps(p: int, n: int, itemsize: int, root: int = 0) -> Iterator[Step]:
    """Binomial-tree broadcast from ``root``: the reduce tree mirrored,
    largest distance first, every message a full copy."""
    nbytes = float(n * itemsize)
    at = lambda v: (v + root) % p
    d = 1
    while d < p:
        d *= 2
    while d > 1:
        d //= 2
        src = range(0, p - d, 2 * d)
        pairs = tuple((at(v), at(v + d), nbytes) for v in src)
        yield Step(pairs, 0.0, tuple((at(v + d), at(v), 0, n, False) for v in src))


def binomial_steps(p: int, n: int, itemsize: int) -> Iterator[Step]:
    """Step list of the binomial-tree allreduce of ``n`` elements over ``p``
    ranks: reduce to rank 0, then broadcast from it."""
    yield from reduce_steps(p, n, itemsize)
    yield from broadcast_steps(p, n, itemsize)


@collective("binomial")
def binomial_allreduce(
    comm: SimComm, buffers: list[np.ndarray], *, average: bool = False
) -> CollectiveResult:
    """In-place binomial-tree allreduce (works for any rank count)."""
    return execute(comm, buffers, binomial_steps, average=average)
