"""Bottleneck attribution over a trace.

Generalizes :class:`~repro.utils.profiler.NetProfiler`: instead of
re-pricing a net's layers, it answers the same question — *which resource
bounds the time?* — from whatever a trace actually recorded, so the answer
covers collectives, mesh schedules and solver phases as well as layer
costs, and splits per rank.

Resource busy-time comes from the leaf span categories (``cpe_compute``,
``dma_transfer``, ``rlc_exchange``, ``collective_step``); container spans
(``layer_*``, ``solver_iter``) are reported as structure, not
double-counted as busy time.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.trace.tracer import Span, Tracer
from repro.utils.tables import Table
from repro.utils.units import format_time

#: Leaf categories whose durations are resource busy time.
RESOURCE_CATEGORIES = (
    "cpe_compute",
    "dma_transfer",
    "rlc_exchange",
    "collective_step",
)

#: Container categories (structure only).
CONTAINER_CATEGORIES = ("layer_fwd", "layer_bwd", "solver_iter")


@dataclass
class GroupAttribution:
    """One top-level group's (usually one rank's) resource accounting."""

    group: str
    busy_s: dict[str, float] = field(default_factory=dict)
    span_end_s: float = 0.0
    n_spans: int = 0

    @property
    def bottleneck(self) -> str:
        """The resource category with the most busy time."""
        if not self.busy_s:
            return "-"
        return max(self.busy_s, key=lambda k: self.busy_s[k])

    def share(self, cat: str) -> float:
        """A resource's fraction of the group's wall (track-span) time."""
        if self.span_end_s <= 0:
            return 0.0
        return self.busy_s.get(cat, 0.0) / self.span_end_s


@dataclass
class AttributionReport:
    """Whole-trace attribution: per-group plus aggregate."""

    groups: list[GroupAttribution]
    total_end_s: float

    def overall_bottleneck(self) -> str:
        totals: dict[str, float] = defaultdict(float)
        for g in self.groups:
            for cat, t in g.busy_s.items():
                totals[cat] += t
        return max(totals, key=lambda k: totals[k]) if totals else "-"


def attribute(tracer: Tracer | list[Span]) -> AttributionReport:
    """Aggregate resource busy time per top-level track group."""
    spans = tracer.spans if isinstance(tracer, Tracer) else list(tracer)
    groups: dict[str, GroupAttribution] = {}
    total_end = 0.0
    for s in spans:
        head = s.track.split("/", 1)[0]
        g = groups.setdefault(head, GroupAttribution(group=head))
        g.n_spans += 1
        g.span_end_s = max(g.span_end_s, s.end_s)
        total_end = max(total_end, s.end_s)
        if s.cat in RESOURCE_CATEGORIES and not s.instant:
            g.busy_s[s.cat] = g.busy_s.get(s.cat, 0.0) + s.dur_s
    ordered = [groups[k] for k in sorted(groups)]
    return AttributionReport(groups=ordered, total_end_s=total_end)


def render_attribution(report: AttributionReport | Tracer | list[Span]) -> str:
    """The bottleneck-attribution table for a trace."""
    if not isinstance(report, AttributionReport):
        report = attribute(report)
    table = Table(
        headers=["group", "end", "compute", "dma", "rlc", "collective", "bottleneck"],
        title="trace attribution (simulated busy time per resource)",
    )
    for g in report.groups:
        table.add_row(
            g.group,
            format_time(g.span_end_s),
            f"{format_time(g.busy_s.get('cpe_compute', 0.0))} ({100 * g.share('cpe_compute'):.0f}%)",
            f"{format_time(g.busy_s.get('dma_transfer', 0.0))} ({100 * g.share('dma_transfer'):.0f}%)",
            f"{format_time(g.busy_s.get('rlc_exchange', 0.0))} ({100 * g.share('rlc_exchange'):.0f}%)",
            f"{format_time(g.busy_s.get('collective_step', 0.0))} ({100 * g.share('collective_step'):.0f}%)",
            g.bottleneck,
        )
    footer = (
        f"trace end: {format_time(report.total_end_s)} | overall bottleneck: "
        f"{report.overall_bottleneck()}"
    )
    return table.render() + "\n" + footer
