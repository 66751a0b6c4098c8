"""Basic MPI collectives: the building blocks of the allreduce family.

Broadcast, reduce, scatter, gather, allgather and reduce-scatter as
standalone simulated collectives. Rabenseifner's allreduce is literally
``reduce_scatter`` + ``allgather``; exposing the pieces makes the library a
complete simulated-MPI substrate and lets tests cross-validate the fused
algorithms against their compositions.

All functions share the conventions of the allreduce family: ``buffers``
is a per-rank list of NumPy arrays, data actually moves, and simulated
time accrues on the communicator per lockstep step.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from repro.errors import CommunicatorError
from repro.simmpi.comm import CollectiveResult, SimComm
from repro.simmpi.collectives.reduce_ops import block_offsets, check_buffers
from repro.simmpi.collectives.rhd import rhd_steps
from repro.simmpi.collectives.schedule import run_steps


def broadcast(comm: SimComm, buffers: list[np.ndarray], root: int = 0) -> CollectiveResult:
    """Binomial-tree broadcast of ``buffers[root]`` to every rank."""
    p = comm.p
    _validate(comm, buffers, root)
    n, itemsize = check_buffers(buffers)
    nbytes = float(n * itemsize)
    result = CollectiveResult()
    # Relabel so the root is virtual rank 0.
    actual = lambda v: (v + root) % p
    d = 1
    while d * 2 < p:
        d *= 2
    # Find the highest power of two <= p-1 steps: standard top-down tree.
    have = {0}
    while d >= 1:
        pairs = []
        moves = []
        for v in sorted(have):
            w = v + d
            if w < p and w not in have:
                pairs.append((actual(v), actual(w), nbytes))
                moves.append(w)
        for w in moves:
            np.copyto(buffers[actual(w)], buffers[root])
            have.add(w)
        if pairs:
            comm.account_step(result, pairs)
        d //= 2
    return result


def reduce(
    comm: SimComm, buffers: list[np.ndarray], root: int = 0, *, average: bool = False
) -> CollectiveResult:
    """Binomial-tree reduction into ``buffers[root]`` (others unchanged)."""
    p = comm.p
    _validate(comm, buffers, root)
    n, itemsize = check_buffers(buffers)
    nbytes = float(n * itemsize)
    result = CollectiveResult()
    virtual = lambda r: (r - root) % p
    actual = lambda v: (v + root) % p
    acc = {r: buffers[r].astype(np.float64, copy=True) for r in range(p)}
    d = 1
    while d < p:
        pairs = []
        moves = []
        for v in range(p):
            if v % (2 * d) == d:
                dst = v - d
                pairs.append((actual(v), actual(dst), nbytes))
                moves.append((actual(dst), actual(v)))
        for dst, src in moves:
            acc[dst] = acc[dst] + acc[src]
        if pairs:
            comm.account_step(result, pairs, reduce_bytes=nbytes)
        d *= 2
    out = acc[root] / p if average else acc[root]
    np.copyto(buffers[root], out.astype(buffers[root].dtype, copy=False))
    return result


def scatter(comm: SimComm, sendbuf: np.ndarray, recv: list[np.ndarray], root: int = 0) -> CollectiveResult:
    """Root sends the i-th equal chunk of ``sendbuf`` to rank i.

    Linear scatter (one message per non-root rank), as small MPI
    implementations do; chunk boundaries follow MPI's near-equal split.
    """
    p = comm.p
    if not 0 <= root < p:
        raise CommunicatorError(f"root {root} out of range")
    if len(recv) != p:
        raise CommunicatorError(f"expected {p} recv buffers")
    flat = np.ascontiguousarray(sendbuf).ravel()
    off = block_offsets(flat.size, p)
    result = CollectiveResult()
    for r in range(p):
        chunk = flat[off[r] : off[r + 1]]
        if recv[r].size != chunk.size:
            raise CommunicatorError(
                f"rank {r} recv buffer has {recv[r].size} elements, chunk has {chunk.size}"
            )
        np.copyto(recv[r].reshape(-1), chunk.astype(recv[r].dtype, copy=False))
        if r != root:
            comm.account_step(result, [(root, r, float(chunk.nbytes))])
    return result


def gather(comm: SimComm, send: list[np.ndarray], recvbuf: np.ndarray, root: int = 0) -> CollectiveResult:
    """Rank i's buffer lands in the i-th slot of ``recvbuf`` at the root."""
    p = comm.p
    if not 0 <= root < p:
        raise CommunicatorError(f"root {root} out of range")
    if len(send) != p:
        raise CommunicatorError(f"expected {p} send buffers")
    total = sum(s.size for s in send)
    if recvbuf.size != total:
        raise CommunicatorError(
            f"recvbuf has {recvbuf.size} elements, senders provide {total}"
        )
    result = CollectiveResult()
    flat = recvbuf.reshape(-1)
    pos = 0
    for r in range(p):
        chunk = send[r].reshape(-1)
        flat[pos : pos + chunk.size] = chunk.astype(recvbuf.dtype, copy=False)
        pos += chunk.size
        if r != root:
            comm.account_step(result, [(r, root, float(chunk.nbytes))])
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
    itemsize = chunks[0].itemsize
    for b in buffers:
        if b.size != size * p:
            raise CommunicatorError("output buffers must hold p chunks")
    result = CollectiveResult()
    # State: each rank holds a set of (owner) chunks, kept contiguous by
    # virtual index.
    held: list[dict[int, np.ndarray]] = [
        {r: chunks[r].reshape(-1).astype(np.float64)} for r in range(p)
    ]
    if p & (p - 1) == 0:
        d = 1
        while d < p:
            pairs = []
            exchanges = []
            for v in range(p):
                w = v ^ d
                if w < v:
                    continue
                bytes_v = sum(c.nbytes for c in held[v].values())
                bytes_w = sum(c.nbytes for c in held[w].values())
                pairs.append((v, w, float(max(bytes_v, bytes_w))))
                exchanges.append((v, w))
            snapshot = [dict(h) for h in held]
            for v, w in exchanges:
                held[v].update(snapshot[w])
                held[w].update(snapshot[v])
            comm.account_step(result, pairs)
            d *= 2
    else:
        # Ring fallback: p-1 steps, each forwarding one chunk.
        for t in range(p - 1):
            pairs = []
            moves = []
            for r in range(p):
                src_chunk = (r - t) % p
                dst = (r + 1) % p
                pairs.append((r, dst, float(size * itemsize)))
                moves.append((dst, src_chunk, held[r][src_chunk]))
            for dst, idx, data in moves:
                held[dst][idx] = data
            comm.account_step(result, pairs)
    for r in range(p):
        out = np.concatenate([held[r][i] for i in range(p)])
        np.copyto(buffers[r].reshape(-1), out.astype(buffers[r].dtype, copy=False))
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
        np.copyto(
            outputs[r].reshape(-1),
            work[r][off[r] : off[r + 1]].astype(outputs[r].dtype, copy=False),
        )
    return result


def _validate(comm: SimComm, buffers: list[np.ndarray], root: int) -> None:
    if len(buffers) != comm.p:
        raise CommunicatorError(f"expected {comm.p} buffers, got {len(buffers)}")
    if not 0 <= root < comm.p:
        raise CommunicatorError(f"root {root} out of range [0, {comm.p})")
