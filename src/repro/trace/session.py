"""Trace sessions: end-to-end timelines of a simulated training step.

Ties the tracer to the workload the CLI exposes (``python -m repro trace
<model> --ranks N``): every rank runs one data-parallel training iteration
(identical compute, Algorithm 1's node-local half priced by the layer
plans), then the ranks synchronize gradients with the recursive
halving/doubling allreduce over the TaihuLight fabric, placed after the
compute phase on the shared timeline.

The collective is traced through :func:`replay_rhd`: the accounting
interpreter :func:`~repro.simmpi.collectives.schedule.account` charges
the RHD step list that :func:`~repro.simmpi.collectives.rhd.rhd_allreduce`
executes, without materializing the gradient buffers (a VGG-16 payload is
0.5 GB per rank; the replay prices it in milliseconds).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro import ambient
from repro.simmpi.collectives.rhd import rhd_steps
from repro.simmpi.collectives.schedule import account
from repro.simmpi.comm import CollectiveResult, SimComm
from repro.simmpi.process import Placement
from repro.simmpi.reorder import block_placement, round_robin_placement
from repro.topology.fabric import TaihuLightFabric
from repro.trace.tracer import Span, Tracer, emit_layer_span, suspended, tracing


def replay_rhd(comm: SimComm, nbytes: float, *, itemsize: int = 4) -> CollectiveResult:
    """Accounting-only recursive halving/doubling allreduce.

    Charges ``comm`` for :func:`~repro.simmpi.collectives.rhd.rhd_steps` over
    ``nbytes / itemsize`` elements but moves no data, so arbitrarily large
    gradients trace cheaply.
    """
    n = max(1, int(round(float(nbytes) / itemsize)))
    return account(comm, rhd_steps(comm.p, n, itemsize))


def session_layout(
    ranks: int, scheme: str, nodes_per_supernode: int | None
) -> tuple[TaihuLightFabric, Placement]:
    """Fabric and placement (round-robin if ``"improved"``, else block) of a session.

    The supernode size defaults to two supernodes' worth, so cross-supernode
    steps show up, or one supernode for tiny or odd rank counts.
    """
    if ranks < 1:
        raise ValueError("ranks must be >= 1")
    if scheme not in ("improved", "original"):
        raise ValueError(f"scheme must be 'improved' or 'original', got {scheme!r}")
    q = nodes_per_supernode
    if q is None:
        q = ranks // 2 if ranks % 2 == 0 and ranks > 2 else ranks
    if ranks % q != 0:
        raise ValueError(f"ranks={ranks} must be a multiple of nodes_per_supernode={q}")
    place = round_robin_placement if scheme == "improved" else block_placement
    return TaihuLightFabric(n_nodes=ranks, nodes_per_supernode=q), place(ranks, q)


def _price_iteration(net) -> list:
    """``net``'s per-layer cost table, scaled by any ambient what-if factors.

    Priced with ambient tracing *suspended* so the plan search inside the
    cost hooks does not spam the trace with candidate LDM-allocation events.
    """
    with suspended():
        costs = net.sw_layer_costs()
    sc = ambient.current().scaling
    if sc is not None:
        # What-if validation: scale each layer's component costs exactly
        # as the projection does, then let total_s re-derive the
        # dual-pipeline bound from the scaled components.
        costs = [
            (
                layer,
                cost.__class__(
                    sc.scale_plan_cost(cost.forward, layer.name),
                    sc.scale_plan_cost(cost.backward, layer.name),
                ),
            )
            for layer, cost in costs
        ]
    return costs


def emit_iteration(tr: Tracer, net, costs: list) -> float:
    """Emit one training iteration of a priced cost table as spans.

    Under the tracer's current track context: ``layer_fwd`` spans in layer
    order, ``layer_bwd`` spans in reverse order (each with compute/DMA/RLC
    component children on the resource tracks), and one ``solver_iter``
    span covering the sweep. Returns the iteration's simulated seconds.
    """
    start = tr.cursor("layers")
    prev = None
    for layer, cost in costs:
        prev = emit_layer_span(tr, layer, "fwd", cost.forward, prev)
    for layer, cost in reversed(costs):
        prev = emit_layer_span(tr, layer, "bwd", cost.backward, prev)
    dur = tr.cursor("layers") - start
    tr.emit(
        f"{net.name} iteration",
        "solver_iter",
        track="solver",
        dur=dur,
        args={"layers": len(net.layers)},
    )
    return dur


def run_iterations(
    net,
    costs: list,
    replay: Callable[[SimComm], CollectiveResult],
    *,
    ranks: int,
    iterations: int,
    fabric: TaihuLightFabric,
    placement: Placement,
) -> list[CollectiveResult]:
    """Run ``iterations`` data-parallel steps of a priced cost table.

    Each iteration's compute runs on every rank, emitted under
    ``rank<r>/`` when a tracer is installed. With ``ranks > 1`` its
    gradient allreduce follows: ``replay(comm)`` on a fresh communicator
    whose clock starts where the compute ends. The next iteration starts
    on every rank where that allreduce ends, so no rank computes on
    gradients it has not received. Dep edges tie each allreduce's first
    round to every rank's last backward pass, and every rank's next
    forward pass to the allreduce's final round. Returns the allreduce
    results in order.
    """
    tr = ambient.current().tracer
    results: list[CollectiveResult] = []
    end = 0.0  # where the previous phase ends on the shared timeline
    final: Span | None = None  # the previous allreduce's final round
    for _ in range(iterations):
        last_bwd: list[Span] = []
        if tr is not None:
            for r in range(ranks):
                with tr.context(f"rank{r}"):
                    for track in ("layers", "solver"):
                        tr.wait_until(track, end)
                    mark = len(tr.spans)
                    emit_iteration(tr, net, costs)
                passes = [s for s in tr.spans[mark:] if s.cat in ("layer_fwd", "layer_bwd")]
                if passes:
                    if final is not None:
                        tr.edge(final, passes[0])
                    last_bwd.append(passes[-1])
            end = tr.cursor("/rank0/layers")
        if ranks == 1:
            continue
        comm = SimComm(fabric, placement)
        comm.clock.advance(end, category="comm")
        mark = len(tr.spans) if tr is not None else 0
        results.append(replay(comm))
        if tr is None:
            continue
        steps = [s for s in tr.spans[mark:] if s.cat == "collective_step"]
        # Barrier: the first lockstep round waits on every rank's
        # backward pass of the iteration it synchronizes.
        for span in steps:
            if span.name != "step0":
                break
            for bwd in last_bwd:
                tr.edge(bwd, span)
        if steps:
            final = steps[-1]
        end = comm.clock.now
    return results


@dataclass(frozen=True)
class SessionSummary:
    """What one traced training step simulated."""

    model: str
    ranks: int
    iterations: int
    compute_s: float
    allreduce_s: float
    allreduce_steps: int
    payload_bytes: float
    scheme: str

    @property
    def total_s(self) -> float:
        return self.compute_s + self.allreduce_s


def trace_training_step(
    net,
    *,
    ranks: int = 4,
    iterations: int = 1,
    tracer: Tracer | None = None,
    scheme: str = "improved",
    nodes_per_supernode: int | None = None,
) -> tuple[Tracer, SessionSummary]:
    """Trace ``iterations`` data-parallel training steps of ``net``.

    Every rank gets an identical compute timeline (tracks
    ``rank<r>/{solver,layers,cpe,dma,rlc}``); each iteration's gradient
    allreduce follows on ``rank<r>/collective``, priced over a TaihuLight
    fabric with ``round-robin`` (``scheme="improved"``) or ``block``
    (``scheme="original"``) rank placement (see :func:`run_iterations`).
    """
    fabric, placement = session_layout(ranks, scheme, nodes_per_supernode)
    tr = tracer if tracer is not None else Tracer()
    payload = float(net.param_bytes())
    with tracing(tr):
        # Every rank runs the same iteration: price it once, emit it
        # ranks x iterations times.
        costs = _price_iteration(net)
        results = run_iterations(
            net, costs, lambda comm: replay_rhd(comm, payload),
            ranks=ranks, iterations=iterations, fabric=fabric, placement=placement,
        )
    # Compute seconds of the sweeps back to back, added in the order a
    # track cursor adds them (the allreduce waits are not compute).
    sweep = [c.forward.total_s for _, c in costs] + [
        c.backward.total_s for _, c in reversed(costs)
    ]
    compute_s = 0.0
    for _ in range(iterations):
        for dur in sweep:
            compute_s += float(dur)
    summary = SessionSummary(
        model=net.name,
        ranks=ranks,
        iterations=iterations,
        compute_s=compute_s,
        allreduce_s=sum((res.time_s for res in results), 0.0),
        allreduce_steps=sum(res.steps for res in results),
        payload_bytes=payload,
        scheme=scheme,
    )
    return tr, summary
