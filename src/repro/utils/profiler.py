"""Net profiling: the ``caffe time`` equivalent for the simulated SW26010.

Renders the rows of ``Net.sw_layer_costs()`` — each layer's simulated cost
breakdown (compute / DMA / RLC / overhead) and its bottleneck resource
(:attr:`~repro.frame.layer.LayerCost.bottleneck`) — as a profile table,
the tool you'd use to decide where the next kernel optimization goes.
"""

from __future__ import annotations

from repro.frame.layer import Layer, LayerCost
from repro.frame.net import Net
from repro.utils.tables import Table
from repro.utils.units import format_time


class NetProfiler:
    """Profiles a net's simulated per-layer costs on one core group."""

    def __init__(self, net: Net) -> None:
        self.net = net

    def totals(
        self, costs: list[tuple[Layer, LayerCost]] | None = None
    ) -> dict[str, float]:
        """Whole-net resource totals in seconds over ``Net.sw_layer_costs()``
        rows (priced here when ``costs`` is not given)."""
        costs = costs if costs is not None else self.net.sw_layer_costs()
        agg = {"compute": 0.0, "dma": 0.0, "rlc": 0.0, "overhead": 0.0, "total": 0.0}
        for _, layer_cost in costs:
            for cost in (layer_cost.forward, layer_cost.backward):
                agg["compute"] += cost.compute_s
                agg["dma"] += cost.dma_s
                agg["rlc"] += cost.rlc_s
                agg["overhead"] += cost.overhead_s
                agg["total"] += cost.total_s
        return agg

    def render(self, min_fraction: float = 0.005) -> str:
        """Profile table; layers under ``min_fraction`` of total are folded."""
        costs = self.net.sw_layer_costs()
        agg = self.totals(costs)
        total = agg["total"] or 1.0
        table = Table(
            headers=["layer", "type", "fwd", "bwd", "share", "bottleneck"],
            title=f"SW26010 profile of {self.net.name!r} (one CG per iteration)",
        )
        folded = 0.0
        for layer, cost in costs:
            share = cost.total_s / total
            if share < min_fraction:
                folded += cost.total_s
                continue
            table.add_row(
                layer.name, layer.type,
                format_time(cost.forward.total_s), format_time(cost.backward.total_s),
                f"{100 * share:.1f}%", cost.bottleneck,
            )
        if folded:
            table.add_row(
                f"({sum(1 for _, c in costs if c.total_s / total < min_fraction)} small layers)",
                "-", "-", "-", f"{100 * folded / total:.1f}%", "-",
            )
        lines = [table.render()]
        lines.append(
            "totals: "
            + ", ".join(
                f"{k}={format_time(v)}" for k, v in agg.items() if k != "total"
            )
            + f" | iteration={format_time(agg['total'])}"
        )
        return "\n".join(lines)
