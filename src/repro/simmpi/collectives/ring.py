"""Ring allreduce (Patarasuk & Yuan): bandwidth-optimal, latency-heavy.

The paper's reference point for why rings lose on TaihuLight: 2(p-1) steps
give a ``p * alpha`` latency term, painful on a high-latency network
(Sec. V-A: "the popular ring-based algorithms ... are not our best
candidates").
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.simmpi.comm import CollectiveResult, SimComm
from repro.simmpi.collectives.reduce_ops import block_offsets
from repro.simmpi.collectives.schedule import Step, collective, execute


def ring_pass(off: list[int], itemsize: int, first: int, reduce: bool) -> Iterator[Step]:
    """``p - 1`` ring steps over the ``p`` blocks ``[off[c], off[c+1])``.

    In step ``t`` rank ``r`` sends block ``(r + first - t) mod p`` to rank
    ``r+1``, which sums it in when ``reduce`` and copies it otherwise.
    """
    p = len(off) - 1
    for t in range(p - 1):
        chunks = [(r + first - t) % p for r in range(p)]
        pairs = tuple(
            (r, (r + 1) % p, float((off[c + 1] - off[c]) * itemsize))
            for r, c in enumerate(chunks)
        )
        moves = tuple(
            ((r + 1) % p, r, off[c], off[c + 1], reduce) for r, c in enumerate(chunks)
        )
        # All ranks reduce their received chunk concurrently.
        yield Step(pairs, max(nb for _, _, nb in pairs) if reduce else 0.0, moves)


def ring_steps(p: int, n: int, itemsize: int) -> Iterator[Step]:
    """Step list of the ring allreduce of ``n`` elements over ``p`` ranks.

    Phase 1 (reduce-scatter): p-1 steps; in step ``t`` rank ``r`` sends
    chunk ``(r - t) mod p`` to rank ``r+1``, which reduces it. Phase 2
    (allgather): p-1 more steps circulating the finished chunks — rank
    ``r`` owns chunk ``(r + 1) mod p``. Every step moves ~n/p bytes per rank.
    """
    off = block_offsets(n, p).tolist()
    yield from ring_pass(off, itemsize, 0, True)
    yield from ring_pass(off, itemsize, 1, False)


@collective("ring")
def ring_allreduce(
    comm: SimComm, buffers: list[np.ndarray], *, average: bool = False
) -> CollectiveResult:
    """In-place ring allreduce across ``comm.p`` ranks (see :func:`ring_steps`)."""
    return execute(comm, buffers, ring_steps, average=average)
