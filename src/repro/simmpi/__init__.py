"""Simulated MPI for the TaihuLight fabric.

A tiny message-passing model sufficient to reproduce the paper's parameter
synchronization study (Sec. V-A): simulated ranks hold real NumPy buffers,
collectives move the real data (so reductions are verified bit-for-bit) and
charge simulated time from the topology cost models.

The collective family:

* :func:`~repro.simmpi.collectives.ring.ring_allreduce` — the
  bandwidth-optimal ring (rejected by the paper for its ``p * alpha``
  latency term);
* :func:`~repro.simmpi.collectives.binomial.binomial_allreduce` — naive
  reduce + broadcast trees;
* :func:`~repro.simmpi.collectives.rhd.rhd_allreduce` — MPICH's recursive
  halving/doubling (Rabenseifner), the paper's baseline;
* :func:`~repro.simmpi.collectives.topo_aware.topo_aware_allreduce` — the
  paper's contribution: RHD over a round-robin logical-to-physical rank
  renumbering that keeps heavy steps inside supernodes.
"""

from repro.simmpi.process import Placement
from repro.simmpi.comm import SimComm, CollectiveResult
from repro.simmpi.nonblocking import IAllreduceQueue, PendingCollective
from repro.simmpi.p2p import P2PResult, P2PTransport, p2p_shift
from repro.simmpi.reorder import block_placement, round_robin_placement
from repro.simmpi.collectives import (
    ring_allreduce,
    binomial_allreduce,
    rhd_allreduce,
    topo_aware_allreduce,
)
from repro.simmpi.collectives.basic import (
    allgather,
    broadcast,
    gather,
    reduce,
    reduce_scatter,
    scatter,
)
from repro.simmpi.collectives.tuned import tuned_allreduce

__all__ = [
    "allgather",
    "broadcast",
    "gather",
    "reduce",
    "reduce_scatter",
    "scatter",
    "tuned_allreduce",
    "Placement",
    "SimComm",
    "CollectiveResult",
    "IAllreduceQueue",
    "PendingCollective",
    "P2PResult",
    "P2PTransport",
    "p2p_shift",
    "block_placement",
    "round_robin_placement",
    "ring_allreduce",
    "binomial_allreduce",
    "rhd_allreduce",
    "topo_aware_allreduce",
]
