"""Collective schedules as data: step lists and their two interpreters.

A collective algorithm (``ring_steps``, ``binomial_steps``, ``rhd_steps``
and the basic collectives' generators in
:mod:`~repro.simmpi.collectives.basic`) only *generates* lockstep
:class:`Step` s. :func:`run_steps` moves real data in one flat vector per
rank and charges every step — :func:`execute` runs an allreduce that way
in float64 work copies of the caller's buffers; :func:`account` only
charges, pricing payloads too large to materialise. Both hand
:meth:`SimComm.account_step <repro.simmpi.comm.SimComm.account_step>` the
identical pair lists in the identical order, so simulated time, traffic
counters and trace spans agree exactly between them.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from repro import ambient
from repro.simmpi.comm import CollectiveResult, SimComm
from repro.simmpi.collectives.reduce_ops import check_buffers


@dataclass(frozen=True)
class Step:
    """One lockstep round of a collective schedule.

    ``pairs`` are the concurrent ``(rank_a, rank_b, nbytes)`` exchanges the
    round is charged for, ``reduce_bytes`` the per-rank reduction. Each
    ``(dst, src, lo, hi, reduce)`` move lands elements ``[lo, hi)`` of rank
    ``src``'s vector in rank ``dst``'s, summed in when ``reduce`` else
    copied. Every move reads before any move of the step writes.
    """

    pairs: tuple[tuple[int, int, float], ...]
    reduce_bytes: float = 0.0
    moves: tuple[tuple[int, int, int, int, bool], ...] = ()


#: A schedule generator: ``(p, n_elements, itemsize) -> steps``.
Schedule = Callable[[int, int, int], Iterable[Step]]


#: An allreduce entry point: ``(comm, buffers, *, average) -> result``.
Allreduce = Callable[..., CollectiveResult]


def collective(name: str) -> Callable[[Allreduce], Allreduce]:
    """Name an allreduce: every counter it feeds while metrics are being
    collected carries the label ``collective=<name>``."""

    def wrap(fn: Allreduce) -> Allreduce:
        @functools.wraps(fn)
        def labelled(comm: SimComm, buffers: list[np.ndarray], *, average: bool = False):
            mx = ambient.current().metrics
            if mx is None:
                return fn(comm, buffers, average=average)
            with mx.labelled(collective=name):
                return fn(comm, buffers, average=average)

        return labelled

    return wrap


def run_steps(comm: SimComm, work: list[np.ndarray], steps: Iterable[Step]) -> CollectiveResult:
    """Apply each step's moves to the flat per-rank ``work`` vectors, then charge it."""
    result = CollectiveResult()
    for step in steps:
        received = [work[src][lo:hi].copy() for _, src, lo, hi, _ in step.moves]
        for (dst, _, lo, hi, reduce), data in zip(step.moves, received):
            if reduce:
                work[dst][lo:hi] += data
            else:
                work[dst][lo:hi] = data
        comm.account_step(result, step.pairs, reduce_bytes=step.reduce_bytes)
    return result


def execute(
    comm: SimComm, buffers: list[np.ndarray], schedule: Schedule, *, average: bool = False
) -> CollectiveResult:
    """Run ``schedule`` as an in-place allreduce over the per-rank ``buffers``.

    The sum (or mean) accumulates in float64 and is cast back to each
    buffer's dtype at the end.
    """
    p = comm.p
    if len(buffers) != p:
        raise ValueError(f"expected {p} buffers, got {len(buffers)}")
    n, itemsize = check_buffers(buffers)
    work = [np.array(b, dtype=np.float64, copy=True).ravel() for b in buffers]
    result = run_steps(comm, work, schedule(p, n, itemsize))
    for dst, src in zip(buffers, work):
        out = src.reshape(dst.shape) / p if average else src.reshape(dst.shape)
        np.copyto(dst, out.astype(dst.dtype, copy=False))
    return result


def account(comm: SimComm, steps: Iterable[Step]) -> CollectiveResult:
    """Charge ``comm`` for ``steps`` without moving any data."""
    result = CollectiveResult()
    for step in steps:
        comm.account_step(result, step.pairs, reduce_bytes=step.reduce_bytes)
    return result
