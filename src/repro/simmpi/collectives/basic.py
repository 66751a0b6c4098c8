"""Basic MPI collectives: the building blocks of the allreduce family.

Broadcast, reduce, scatter, gather, allgather and reduce-scatter as
standalone simulated collectives. Rabenseifner's allreduce is literally
``reduce_scatter`` + ``allgather``; exposing the pieces makes the library a
complete simulated-MPI substrate and lets tests cross-validate the fused
algorithms against their compositions.

All functions share the conventions of the allreduce family: ``buffers``
is a per-rank list of NumPy arrays, data actually moves, and simulated
time accrues on the communicator per lockstep step. Each is a step list
(broadcast and reduce are the two halves of ``binomial_steps``; reduce-
scatter and the power-of-two allgather the two halves of ``rhd_steps``)
run by :func:`~repro.simmpi.collectives.schedule.run_steps` over one flat
vector per rank. Reductions accumulate in float64; the copy-only
collectives keep the caller's dtype, since a copy is exact in any dtype.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import islice

import numpy as np

from repro.errors import CommunicatorError
from repro.simmpi.comm import CollectiveResult, SimComm
from repro.simmpi.collectives.binomial import broadcast_steps, reduce_steps
from repro.simmpi.collectives.reduce_ops import block_offsets, check_buffers
from repro.simmpi.collectives.rhd import rhd_steps
from repro.simmpi.collectives.ring import ring_pass
from repro.simmpi.collectives.schedule import Step, run_steps


def scatter_steps(off: Sequence[int], itemsize: int, root: int = 0) -> Iterator[Step]:
    """Linear scatter: one step per non-root rank ``r``, in rank order,
    carrying elements ``[off[r], off[r+1])`` from ``root`` to ``r``."""
    for r in range(len(off) - 1):
        if r != root:
            nbytes = float((off[r + 1] - off[r]) * itemsize)
            yield Step(((root, r, nbytes),), 0.0, ((r, root, off[r], off[r + 1], False),))


def gather_steps(off: Sequence[int], itemsize: int, root: int = 0) -> Iterator[Step]:
    """Linear gather, the mirror of :func:`scatter_steps`: rank ``r``'s
    elements ``[off[r], off[r+1])`` land at the same offsets on ``root``."""
    for r in range(len(off) - 1):
        if r != root:
            nbytes = float((off[r + 1] - off[r]) * itemsize)
            yield Step(((r, root, nbytes),), 0.0, ((root, r, off[r], off[r + 1], False),))


def allgather_steps(p: int, n: int, itemsize: int) -> Iterator[Step]:
    """Allgather of one ``n``-element chunk per rank, chunk ``r`` at
    ``[r*n, (r+1)*n)``: RHD's recursive-doubling half for a power-of-two
    ``p``, otherwise a ring that forwards one chunk per step."""
    if p & (p - 1) == 0:
        yield from islice(rhd_steps(p, n * p, itemsize), p.bit_length() - 1, None)
    else:
        yield from ring_pass([r * n for r in range(p + 1)], itemsize, 0, False)


def broadcast(comm: SimComm, buffers: list[np.ndarray], root: int = 0) -> CollectiveResult:
    """Binomial-tree broadcast of ``buffers[root]`` to every rank."""
    _validate(comm, buffers, root)
    n, itemsize = check_buffers(buffers)
    work = [b.flatten() for b in buffers]
    result = run_steps(comm, work, broadcast_steps(comm.p, n, itemsize, root))
    for dst, src in zip(buffers, work):
        _write(dst, src)
    return result


def reduce(
    comm: SimComm, buffers: list[np.ndarray], root: int = 0, *, average: bool = False
) -> CollectiveResult:
    """Binomial-tree reduction into ``buffers[root]`` (others unchanged)."""
    _validate(comm, buffers, root)
    n, itemsize = check_buffers(buffers)
    work = [np.array(b, dtype=np.float64, copy=True).ravel() for b in buffers]
    result = run_steps(comm, work, reduce_steps(comm.p, n, itemsize, root))
    _write(buffers[root], work[root] / comm.p if average else work[root])
    return result


def scatter(comm: SimComm, sendbuf: np.ndarray, recv: list[np.ndarray], root: int = 0) -> CollectiveResult:
    """Root sends the i-th equal chunk of ``sendbuf`` to rank i.

    Linear scatter (one message per non-root rank), as small MPI
    implementations do; chunk boundaries follow MPI's near-equal split.
    """
    p = comm.p
    _check_root(p, root)
    if len(recv) != p:
        raise CommunicatorError(f"expected {p} recv buffers")
    flat = np.ascontiguousarray(sendbuf).ravel()
    off = block_offsets(flat.size, p).tolist()
    for r in range(p):
        if recv[r].size != off[r + 1] - off[r]:
            raise CommunicatorError(
                f"rank {r} recv buffer has {recv[r].size} elements, "
                f"chunk has {off[r + 1] - off[r]}"
            )
    work = [flat if r == root else np.zeros_like(flat) for r in range(p)]
    result = run_steps(comm, work, scatter_steps(off, flat.itemsize, root))
    for r in range(p):
        _write(recv[r], work[r][off[r] : off[r + 1]])
    return result


def gather(comm: SimComm, send: list[np.ndarray], recvbuf: np.ndarray, root: int = 0) -> CollectiveResult:
    """Rank i's buffer lands in the i-th slot of ``recvbuf`` at the root."""
    p = comm.p
    _check_root(p, root)
    if len(send) != p:
        raise CommunicatorError(f"expected {p} send buffers")
    off = np.cumsum([0] + [s.size for s in send]).tolist()
    if recvbuf.size != off[-1]:
        raise CommunicatorError(
            f"recvbuf has {recvbuf.size} elements, senders provide {off[-1]}"
        )
    work = _placed(send, off)
    result = run_steps(comm, work, gather_steps(off, send[0].itemsize, root))
    _write(recvbuf, work[root])
    return result


def allgather(comm: SimComm, buffers: list[np.ndarray], chunks: list[np.ndarray]) -> CollectiveResult:
    """Recursive-doubling allgather: rank i contributes ``chunks[i]``.

    ``buffers[r]`` receives the concatenation of all chunks (equal sizes
    required, power-of-two rank counts use pure doubling; others fall back
    to a ring).
    """
    p = comm.p
    if len(buffers) != p or len(chunks) != p:
        raise CommunicatorError(f"expected {p} buffers and {p} chunks")
    sizes = {c.size for c in chunks}
    if len(sizes) != 1:
        raise CommunicatorError("allgather requires equal chunk sizes")
    size = sizes.pop()
    for b in buffers:
        if b.size != size * p:
            raise CommunicatorError("output buffers must hold p chunks")
    work = _placed(chunks, [r * size for r in range(p + 1)])
    result = run_steps(comm, work, allgather_steps(p, size, chunks[0].itemsize))
    for dst, src in zip(buffers, work):
        _write(dst, src)
    return result


def reduce_scatter(comm: SimComm, buffers: list[np.ndarray], outputs: list[np.ndarray]) -> CollectiveResult:
    """Recursive-halving reduce-scatter: the first half of RHD's schedule.

    After the call, ``outputs[r]`` holds the r-th block of the elementwise
    sum of all input buffers. Power-of-two rank counts only (the fused
    allreduce handles the general case via folding).
    """
    p = comm.p
    if p & (p - 1) != 0:
        raise CommunicatorError("reduce_scatter requires a power-of-two rank count")
    if len(buffers) != p or len(outputs) != p:
        raise CommunicatorError(f"expected {p} buffers and {p} outputs")
    n, itemsize = check_buffers(buffers)
    off = block_offsets(n, p)
    for r in range(p):
        if outputs[r].size != off[r + 1] - off[r]:
            raise CommunicatorError(
                f"rank {r} output must hold {off[r + 1] - off[r]} elements"
            )
    work = [b.astype(np.float64, copy=True).ravel() for b in buffers]
    halving = islice(rhd_steps(p, n, itemsize), p.bit_length() - 1)
    result = run_steps(comm, work, halving)
    for r in range(p):
        _write(outputs[r], work[r][off[r] : off[r + 1]])
    return result


def _write(dst: np.ndarray, flat: np.ndarray) -> None:
    """Cast the flat ``flat`` into ``dst`` in place, whatever its strides."""
    np.copyto(dst, flat.reshape(dst.shape), casting="unsafe")


def _placed(parts: list[np.ndarray], off: list[int]) -> list[np.ndarray]:
    """One ``off[-1]``-element vector per rank, in the parts' one dtype,
    holding rank ``r``'s part at ``[off[r], off[r+1])`` and zeros elsewhere."""
    if len({part.dtype for part in parts}) != 1:
        raise CommunicatorError("every rank must contribute the same dtype")
    work = [np.zeros(off[-1], dtype=parts[0].dtype) for _ in parts]
    for r, part in enumerate(parts):
        work[r][off[r] : off[r + 1]] = part.reshape(-1)
    return work


def _check_root(p: int, root: int) -> None:
    if not 0 <= root < p:
        raise CommunicatorError(f"root {root} out of range [0, {p})")


def _validate(comm: SimComm, buffers: list[np.ndarray], root: int) -> None:
    if len(buffers) != comm.p:
        raise CommunicatorError(f"expected {comm.p} buffers, got {len(buffers)}")
    _check_root(comm.p, root)
