"""Point-to-point transfers between simulated ranks.

The collectives in this package are lockstep algorithms; pipeline-parallel
training needs the other MPI primitive family — matched ``send``/``recv``
between two ranks (activations downstream, gradients upstream). A
:class:`P2PTransport` prices those messages on the same fabric/topology
cost model the collectives use (:meth:`~repro.simmpi.comm.SimComm.pair_time`)
and follows the package's data/time split:

* the *data* path is exact — every send deposits a bitwise copy of the
  payload into a (src, dst, tag)-keyed mailbox, and ``recv`` hands back
  exactly those bytes, so pipeline-stage training stays bit-identical to
  a single-rank run;
* the *time* path is accounted — ``send`` advances the communicator
  clock by the priced transfer.

Fault hooks ride the existing ``"comm"`` transient site (a flaky link
retries the transfer with identical data, time charged to the clock's
``"fault"`` category), dead ranks raise
:class:`~repro.errors.CollectiveTimeout` like a collective step would, and
``p2p_transfer`` spans carry dep edges so the critical-path profiler sees
activation transfers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import ambient
from repro.errors import CommunicatorError
from repro.faults.injector import charge_comm
from repro.simmpi.comm import CollectiveResult, SimComm
from repro.trace.tracer import Span


@dataclass
class P2PResult:
    """Outcome accounting of one blocking point-to-point transfer."""

    time_s: float = 0.0
    nbytes: float = 0.0
    src: int = 0
    dst: int = 0
    cross_supernode: bool = False
    #: The transfer's trace span (None when tracing is off) — callers wire
    #: producer/consumer dep edges off it.
    span: Span | None = None


class P2PTransport:
    """Matched send/recv between ranks of one communicator.

    Parameters
    ----------
    comm:
        The communicator transfers are priced over (fabric, placement,
        cost model, clock, failed-rank set).
    """

    def __init__(self, comm: SimComm) -> None:
        self.comm = comm
        self._mailbox: dict[tuple[int, int, str], list[np.ndarray]] = {}
        #: The previous transfer's span — the fabric serves one
        #: message at a time, so each transfer depends on the last.
        self._prev_span: Span | None = None

    def _check_ranks(self, src: int, dst: int) -> None:
        p = self.comm.p
        for r in (src, dst):
            if not 0 <= r < p:
                raise CommunicatorError(f"rank {r} out of range for p={p}")
        if src == dst:
            raise CommunicatorError(f"p2p transfer needs distinct ranks, got {src}")
        if self.comm.failed_ranks:
            dead = frozenset(r for r in (src, dst) if r in self.comm.failed_ranks)
            if dead:
                self.comm._timeout(dead)

    def _price(self, src: int, dst: int, nbytes: float) -> tuple[float, float]:
        """(final transfer seconds, straggler slowdown seconds)."""
        base = self.comm.pair_time(src, dst, nbytes)
        t = base
        amb = ambient.current()
        if amb.faults is not None:
            t *= amb.faults.comm_scale(src, dst)
        slow_s = t - base
        if amb.scaling is not None:
            t *= amb.scaling.factor("p2p")
        return t, slow_s

    def send(self, src: int, dst: int, payload, *, tag: str = "") -> P2PResult:
        """Blocking send of ``payload`` from ``src`` to ``dst``.

        Deposits a bitwise copy into the mailbox for a matching
        :meth:`recv` and advances the communicator clock by the priced
        transfer time. Raises :class:`~repro.errors.CollectiveTimeout`
        if either endpoint is dead.
        """
        self._check_ranks(src, dst)
        arr = np.array(payload, copy=True)
        nbytes = float(arr.nbytes)
        t, slow_s = self._price(src, dst, nbytes)
        cross = self.comm.crosses_supernode(src, dst)
        result = P2PResult(
            time_s=t, nbytes=nbytes, src=src, dst=dst, cross_supernode=cross
        )
        amb = ambient.current()
        tr = amb.tracer
        if tr is not None:
            span = tr.emit(
                f"send {src}->{dst}" + (f" {tag}" if tag else ""),
                "p2p_transfer",
                track="p2p/fabric",
                start=self.comm.clock.now,
                dur=t,
                args={
                    "src": src,
                    "dst": dst,
                    "bytes": nbytes,
                    "tag": tag,
                    "cross_supernode": cross,
                },
            )
            if self._prev_span is not None:
                tr.edge(self._prev_span, span)
            self._prev_span = span
            result.span = span
        if amb.metrics is not None:
            amb.metrics.count("comm.p2p_sends", 1)
            amb.metrics.count("comm.p2p_bytes", nbytes, link="cross" if cross else "intra")
        self.comm.clock.advance(t, category="comm")
        charge_comm(self.comm.clock, t, slow_s)
        self._mailbox.setdefault((src, dst, tag), []).append(arr)
        return result

    def recv(self, src: int, dst: int, *, tag: str = "") -> np.ndarray:
        """Receive the oldest matching message (FIFO per (src, dst, tag)).

        The simulator executes ranks in dependency order, so the matching
        send has already run; an unmatched recv is a protocol bug and
        raises :class:`~repro.errors.CommunicatorError`.
        """
        box = self._mailbox.get((src, dst, tag))
        if not box:
            raise CommunicatorError(
                f"recv({src}->{dst}, tag={tag!r}) has no matching send"
            )
        return box.pop(0)


def p2p_shift(comm: SimComm, buffers: list[np.ndarray]) -> CollectiveResult:
    """Ring shift built from matched p2p sends: rank ``r``'s buffer moves
    to rank ``(r + 1) % p``, in place.

    The conformance registry uses this to fuzz the p2p primitives with
    the same differential machinery as the collectives: each transfer is
    one accounted "step", and the delivered data must equal the rotated
    inputs bit for bit.
    """
    p = comm.p
    result = CollectiveResult()
    if p == 1:
        return result
    transport = P2PTransport(comm)
    for src in range(p):
        res = transport.send(src, (src + 1) % p, buffers[src], tag="shift")
        result.add_step(res.time_s)
        result.alpha_count += 1
        if res.cross_supernode:
            result.bytes_cross += res.nbytes
        else:
            result.bytes_intra += res.nbytes
    received = [transport.recv((dst - 1) % p, dst, tag="shift") for dst in range(p)]
    for dst in range(p):
        buffers[dst][...] = received[dst]
    return result
