"""Recursive halving/doubling allreduce (Rabenseifner / MPICH).

The paper's baseline (Sec. V-A): an allgather phase after a reduce-scatter
phase, both log(p)-deep:

* **Reduce-scatter, recursive halving** — step 1 exchanges n/2 bytes with
  the rank a logical distance p/2 away, step 2 exchanges n/4 at distance
  p/4, and so on: traffic *shrinks* as the algorithm proceeds.
* **Allgather, recursive doubling** — the mirror image: distances 1, 2, 4,
  ... with traffic *growing* n/p, 2n/p, ....

Whether a step's partners sit in the same supernode is decided entirely by
the communicator's :class:`~repro.simmpi.process.Placement`; running this
exact schedule over the round-robin placement *is* the paper's improved
algorithm (see :mod:`repro.simmpi.collectives.topo_aware`).

Non-power-of-two rank counts use the standard MPICH fold: the first
``2 * (p - 2^k)`` ranks pre-combine pairwise so a power-of-two subset runs
the core algorithm, and the folded ranks receive the result afterwards.

:func:`rhd_steps` is the one copy of this schedule: :func:`rhd_allreduce`
executes it, ``basic.reduce_scatter`` and ``basic.allgather`` (power-of-two
``p``) execute its two halves, and ``trace.session.replay_rhd`` only
charges it (see :mod:`~repro.simmpi.collectives.schedule`).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.simmpi.comm import CollectiveResult, SimComm
from repro.simmpi.collectives.reduce_ops import block_offsets
from repro.simmpi.collectives.schedule import Step, collective, execute


def _largest_pow2_leq(p: int) -> int:
    return 1 << (p.bit_length() - 1)


def rhd_steps(p: int, n: int, itemsize: int) -> Iterator[Step]:
    """Step list of the RHD allreduce of ``n`` elements over ``p`` ranks.

    For a power-of-two ``p`` the first ``log2(p)`` steps are the
    recursive-halving reduce-scatter, after which rank ``v`` owns block
    ``v`` of the MPICH split.
    """
    if p == 1:
        return
    full = float(n * itemsize)
    k = _largest_pow2_leq(p)
    r = p - k
    fold = tuple((2 * i, 2 * i + 1, full) for i in range(r))
    if r > 0:
        yield Step(fold, full, tuple((2 * i, 2 * i + 1, 0, n, True) for i in range(r)))
    active = [2 * i for i in range(r)] + list(range(2 * r, p))
    off = block_offsets(n, k).tolist()
    # Virtual rank v runs on active[v] and holds blocks [lo[v], hi[v]).
    lo, hi = [0] * k, [k] * k

    # --- reduce-scatter: recursive halving --------------------------------
    d = k // 2
    while d >= 1:
        pairs, moves = [], []
        for v in range(k):
            w = v ^ d
            if w < v:
                continue
            # v and w share [lo, hi); v (bit clear) keeps the lower half
            # and reduces w's copy of it, w the upper half.
            half = (lo[v] + hi[v]) // 2
            a, mid, b = off[lo[v]], off[half], off[hi[v]]
            pairs.append((active[v], active[w], float(max(b - mid, mid - a) * itemsize)))
            moves += [(active[v], active[w], a, mid, True), (active[w], active[v], mid, b, True)]
            lo[w] = hi[v] = half
        yield Step(tuple(pairs), max(nb for _, _, nb in pairs), tuple(moves))
        d //= 2

    # --- allgather: recursive doubling ------------------------------------
    d = 1
    while d < k:
        pairs, moves = [], []
        for v in range(k):
            w = v ^ d
            if w < v:
                continue
            nb_v, nb_w = off[hi[v]] - off[lo[v]], off[hi[w]] - off[lo[w]]
            pairs.append((active[v], active[w], float(max(nb_v, nb_w) * itemsize)))
            moves += [
                (active[v], active[w], off[lo[w]], off[hi[w]], False),
                (active[w], active[v], off[lo[v]], off[hi[v]], False),
            ]
            lo[v] = lo[w] = min(lo[v], lo[w])
            hi[v] = hi[w] = max(hi[v], hi[w])
        yield Step(tuple(pairs), 0.0, tuple(moves))
        d *= 2

    if r > 0:  # unfold
        yield Step(fold, 0.0, tuple((2 * i + 1, 2 * i, 0, n, False) for i in range(r)))


@collective("rhd")
def rhd_allreduce(
    comm: SimComm, buffers: list[np.ndarray], *, average: bool = False
) -> CollectiveResult:
    """In-place recursive halving/doubling allreduce."""
    return execute(comm, buffers, rhd_steps, average=average)
