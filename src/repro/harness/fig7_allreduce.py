"""Fig. 7: the 8-node / 2-supernode allreduce example.

Reproduces both the closed-form costs in the figure's caption

* original: ``6a + 7/8 n gamma + 3/4 n b1 + n b2``
* improved: ``6a + 7/8 n gamma + 3/2 n b1 + 1/4 n b2``

and the *executed* simulated collectives (real buffers through the real
schedule over both placements), verifying they coincide and that the
reduction result is exact.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro import ambient, trace
from repro.simmpi import SimComm, block_placement, rhd_allreduce, round_robin_placement
from repro.simmpi.collectives import improved_allreduce_cost, original_allreduce_cost
from repro.topology import LinearCostModel, TaihuLightFabric
from repro.utils.tables import Table

#: The figure's configuration: 8 nodes in 2 supernodes of 4.
P, Q = 8, 4
#: Default payload: 1 MB of gradients.
DEFAULT_NBYTES = 1 << 20
#: Cost model used for the example (absolute values are illustrative; the
#: figure compares coefficients).
MODEL = LinearCostModel(alpha=1e-6, beta1=1.0 / 10e9, beta2=4.0 / 10e9, gamma=3e-10)


@dataclass(frozen=True)
class Fig7Result:
    """Simulated and analytic costs of both schemes."""

    nbytes: float
    original_simulated_s: float
    original_analytic_s: float
    improved_simulated_s: float
    improved_analytic_s: float
    original_cross_bytes: float
    improved_cross_bytes: float
    reduction_exact: bool

    @property
    def improvement(self) -> float:
        """Original / improved cost ratio (> 1 means the paper's scheme wins)."""
        return self.original_simulated_s / self.improved_simulated_s


def generate(nbytes: int = DEFAULT_NBYTES) -> Fig7Result:
    """Run both schemes over real buffers and compare with the closed forms."""
    n_elems = nbytes // 8
    fabric = TaihuLightFabric(n_nodes=P, nodes_per_supernode=Q)
    rng = np.random.default_rng(7)
    reference = None
    results = {}
    tr = ambient.current().tracer
    for scheme, placement in (
        ("original", block_placement(P, Q)),
        ("improved", round_robin_placement(P, Q)),
    ):
        bufs = [rng.normal(size=n_elems) for _ in range(P)]
        expected = np.sum(bufs, axis=0)
        comm = SimComm(fabric, placement, cost=MODEL)
        # When tracing is enabled, each scheme's per-rank collective steps
        # land under their own track group ("original/rank3/collective").
        with tr.context(scheme) if tr is not None else nullcontext():
            res = rhd_allreduce(comm, bufs)
        exact = all(np.allclose(b, expected, rtol=1e-10) for b in bufs)
        results[scheme] = (res, exact)
        reference = expected if reference is None else reference
    orig, orig_ok = results["original"]
    impr, impr_ok = results["improved"]
    payload = n_elems * 8
    return Fig7Result(
        nbytes=payload,
        original_simulated_s=orig.time_s,
        original_analytic_s=original_allreduce_cost(payload, P, Q, MODEL),
        improved_simulated_s=impr.time_s,
        improved_analytic_s=improved_allreduce_cost(payload, P, Q, MODEL),
        original_cross_bytes=orig.bytes_cross,
        improved_cross_bytes=impr.bytes_cross,
        reduction_exact=orig_ok and impr_ok,
    )


def render(result: Fig7Result | None = None) -> str:
    r = result if result is not None else generate()
    table = Table(
        headers=["scheme", "simulated (us)", "analytic (us)", "cross-supernode bytes/rank"],
        title=(
            f"Fig. 7: allreduce of {int(r.nbytes)} B over {P} nodes in "
            f"{P // Q} supernodes (q={Q})"
        ),
    )
    table.add_row(
        "original (block)", r.original_simulated_s * 1e6,
        r.original_analytic_s * 1e6, r.original_cross_bytes,
    )
    table.add_row(
        "improved (round-robin)", r.improved_simulated_s * 1e6,
        r.improved_analytic_s * 1e6, r.improved_cross_bytes,
    )
    footer = (
        f"improvement: {r.improvement:.2f}x | reduction bit-exact: "
        f"{r.reduction_exact}"
    )
    return table.render() + "\n" + footer


def main(argv: list[str] | None = None) -> None:
    """CLI entry; ``--trace FILE`` exports the executed collectives' spans."""
    import argparse

    parser = argparse.ArgumentParser(description="Fig. 7 allreduce example")
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write Chrome trace-event JSON of both schemes' collective steps",
    )
    ns = parser.parse_args(argv)
    if ns.trace:
        with trace.tracing() as tr:
            print(render())
        trace.write_chrome_json(tr, ns.trace)
        print(f"wrote {len(tr.spans)} spans to {ns.trace} (load in ui.perfetto.dev)")
    else:
        print(render())


if __name__ == "__main__":  # pragma: no cover
    main()
