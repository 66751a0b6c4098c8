"""Critical-path profiler over the span stream.

Aggregate attribution (:mod:`repro.trace.attribution`, the roofline) says
how much time each resource consumed *in total*; this module says whether
that time actually bounded the end-to-end result. It builds a dependency
graph over a trace session's typed spans — explicit causal edges recorded
by :meth:`~repro.trace.tracer.Tracer.edge` at the instrumentation sites,
plus inferred same-track ordering — walks the longest path to the
terminal span, and attributes critical-path time by resource class and by
layer, with slack for everything off the path.

The same graph supports *projection*: scale any resource class (or one
layer) by a factor and re-walk the schedule to a new end-to-end time.
:mod:`repro.trace.whatif` wraps that into the ``python -m repro whatif``
command with a validation mode that re-runs the simulator under
:mod:`repro.trace.scaling` and pins projection == simulation.

Graph model
-----------
* **Leaf spans** (``cpe_compute``, ``dma_transfer``, ``rlc_exchange``,
  ``collective_step``, ``collective_service``, ``batch_compute``,
  ``fault_retry``) carry resource time and scale with their class factor.
* **Container spans** (``layer_fwd``, ``layer_bwd``) derive
  their duration from their member components by the dual-pipeline rule
  (``max(members) + overhead``), so scaling one component re-evaluates the
  ``max`` — a DMA-bound layer does not speed up when compute shrinks.
* **Instants** (arrivals, launches) are zero-duration nodes anchored at
  their recorded time: external events a what-if cannot move.
* Summary spans (``solver_iter``, ``overlap_window``, ``batch_dispatch``,
  ``request_shed``) decorate the trace but are not scheduled.

A node starts at ``max(release floor, latest predecessor end)``; the
floor is the recorded start for anchored nodes and the ``ready_s`` arg
for serially-served windows (batches, nonblocking collectives).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro import ambient
from repro.errors import CritPathError
from repro.trace.tracer import Span, Tracer

#: Leaf span category -> what-if resource class.
RESOURCE_CLASS = {
    "cpe_compute": "cpe",
    "dma_transfer": "dma",
    "rlc_exchange": "rlc",
    "collective_step": "collective",
    "collective_service": "collective",
    "batch_compute": "batch",
    "fault_retry": "fault",
    "p2p_transfer": "p2p",
    "activation_xfer": "p2p",
    "stage_fwd": "stage",
    "stage_bwd": "stage",
}

#: Containers whose duration derives from member components + overhead.
CONTAINER_CATS = ("layer_fwd", "layer_bwd")

#: Decoration-only categories: never scheduled as graph nodes.
EXCLUDED_CATS = (
    "solver_iter",
    "overlap_window",
    "batch_dispatch",
    "request_shed",
    "pipeline_bubble",
)

#: Tolerance for inferring same-track ordering from recorded geometry.
_CHAIN_EPS = 1e-12


def _layer_of(span: Span) -> str | None:
    """The layer name a ``layer_fwd``/``layer_bwd`` container belongs to."""
    if span.cat not in ("layer_fwd", "layer_bwd"):
        return None
    name, sep, suffix = span.name.rpartition(" ")
    return name if sep and suffix in ("fwd", "bwd") else span.name


@dataclass
class CritNode:
    """One scheduled span in the dependency graph."""

    span: Span
    index: int
    #: "leaf" | "container" | "marker" (zero-duration anchor/instant).
    kind: str
    resource: str | None = None
    layer: str | None = None
    #: Earliest allowed start independent of predecessors (None: roots
    #: fall back to the recorded start, non-roots to their predecessors).
    floor_s: float | None = None
    preds: list[int] = field(default_factory=list)
    succs: list[int] = field(default_factory=list)
    #: Member component node indices (containers only).
    members: list[int] = field(default_factory=list)


@dataclass
class CritGraph:
    """The full dependency graph of one trace."""

    nodes: list[CritNode]
    #: Scheduled (dep + inferred-chain) edges as (src, dst) node indices.
    edges: list[tuple[int, int]]
    #: Member spans (by node index) — priced inside containers, not scheduled.
    member_nodes: set[int]

    @property
    def n_scheduled(self) -> int:
        return len(self.nodes) - len(self.member_nodes)


def build_graph(tracer: Tracer | list[Span]) -> CritGraph:
    """Build the dependency graph of a trace.

    Accepts a :class:`Tracer` (explicit edges included) or a bare span
    list (same-track inference only).
    """
    if isinstance(tracer, Tracer):
        spans = tracer.spans
        raw_edges = tracer.edges
    else:
        spans = list(tracer)
        raw_edges = []

    nodes: list[CritNode] = []
    by_span: dict[int, int] = {}
    for span in spans:
        if span.cat in EXCLUDED_CATS:
            continue
        if span.cat in CONTAINER_CATS:
            kind = "container"
        elif span.instant:
            kind = "marker"
        else:
            kind = "leaf"
        node = CritNode(
            span=span,
            index=len(nodes),
            kind=kind,
            resource=RESOURCE_CLASS.get(span.cat),
            layer=_layer_of(span),
        )
        if kind == "marker":
            node.floor_s = span.start_s
        elif span.args and "ready_s" in span.args:
            node.floor_s = float(span.args["ready_s"])
        by_span[id(span)] = node.index
        nodes.append(node)

    member_nodes: set[int] = set()
    dep_edges: set[tuple[int, int]] = set()
    for src, dst, kind in raw_edges:
        si = by_span.get(id(src))
        di = by_span.get(id(dst))
        if si is None or di is None or si == di:
            continue
        if kind == "member":
            nodes[di].members.append(si)
            member_nodes.add(si)
        else:
            dep_edges.add((si, di))

    # Same-track ordering: non-member interval spans emitted on one track
    # chain when the next one starts at/after the previous end (clock- and
    # cursor-driven emission are both monotone per track; spans that
    # overlap are concurrent and stay unchained).
    last_on_track: dict[str, int] = {}
    for node in nodes:
        if node.index in member_nodes or node.kind == "marker":
            continue
        track = node.span.track
        prev = last_on_track.get(track)
        if prev is not None:
            prev_span = nodes[prev].span
            if node.span.start_s >= prev_span.end_s - _CHAIN_EPS:
                dep_edges.add((prev, node.index))
        # ``>=``: a zero-duration span ending exactly where its predecessor
        # did must still become the chain head, or the next span would
        # bypass it (and any explicit dependency riding on it).
        if prev is None or node.span.end_s >= nodes[prev].span.end_s:
            last_on_track[track] = node.index
    # Members recorded before their container may have chained; drop any
    # edge touching a member node (they are priced, not scheduled).
    edges = sorted(
        (s, d)
        for s, d in dep_edges
        if s not in member_nodes and d not in member_nodes
    )
    for s, d in edges:
        nodes[d].preds.append(s)
        nodes[s].succs.append(d)
    return CritGraph(nodes=nodes, edges=edges, member_nodes=member_nodes)


# --------------------------------------------------------------------------- #
# scheduling / projection
# --------------------------------------------------------------------------- #
def _factor(factors: Mapping[str, float] | None, cls: str) -> float:
    if not factors:
        return 1.0
    return factors.get(cls, 1.0)


def effective_duration(
    graph: CritGraph, node: CritNode, factors: Mapping[str, float] | None
) -> float:
    """A node's duration under what-if ``factors`` (identity when None).

    Mirrors, operation for operation, what the simulator recomputes under
    :class:`~repro.trace.scaling.CostScaling` — containers re-apply the
    dual-pipeline ``max(members) + overhead`` rule to scaled components.
    """
    span = node.span
    if node.kind == "marker":
        return 0.0
    if node.kind == "container":
        lf = _factor(factors, f"layer:{node.layer}") if node.layer else 1.0
        bound = 0.0
        for mi in node.members:
            m = graph.nodes[mi]
            d = m.span.dur_s * (_factor(factors, m.resource or "") * lf)
            if d > bound:
                bound = d
        overhead = 0.0
        if span.args and "overhead_s" in span.args:
            overhead = float(span.args["overhead_s"])
        return bound + overhead * (_factor(factors, "overhead") * lf)
    if node.resource is not None:
        return span.dur_s * _factor(factors, node.resource)
    return span.dur_s


@dataclass
class ScheduleResult:
    """Projected start/end times for every node, in node-index order."""

    start_s: list[float]
    end_s: list[float]
    dur_s: list[float]
    order: list[int]  # topological order over scheduled nodes

    @property
    def end_to_end_s(self) -> float:
        return max(self.end_s, default=0.0)


def schedule(
    graph: CritGraph, factors: Mapping[str, float] | None = None
) -> ScheduleResult:
    """Walk the graph forward: ``start = max(floor, latest pred end)``."""
    n = len(graph.nodes)
    start = [0.0] * n
    end = [0.0] * n
    dur = [0.0] * n
    indegree = [0] * n
    for node in graph.nodes:
        indegree[node.index] = len(node.preds)
    ready = [
        i
        for i in range(n)
        if indegree[i] == 0 and i not in graph.member_nodes
    ]
    order: list[int] = []
    head = 0
    while head < len(ready):
        i = ready[head]
        head += 1
        order.append(i)
        node = graph.nodes[i]
        d = effective_duration(graph, node, factors)
        release = node.floor_s
        if release is None:
            release = node.span.start_s if not node.preds else 0.0
        s = release
        for p in node.preds:
            if end[p] > s:
                s = end[p]
        start[i], dur[i] = s, d
        end[i] = s + d
        for j in node.succs:
            indegree[j] -= 1
            if indegree[j] == 0:
                ready.append(j)
    if len(order) != graph.n_scheduled:
        raise CritPathError(
            f"dependency graph has a cycle: scheduled {len(order)} of "
            f"{graph.n_scheduled} nodes"
        )
    return ScheduleResult(start_s=start, end_s=end, dur_s=dur, order=order)


# --------------------------------------------------------------------------- #
# critical path extraction
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PathEntry:
    """One span on the critical path."""

    name: str
    cat: str
    track: str
    start_s: float
    dur_s: float
    resource: str | None
    layer: str | None


@dataclass
class CritPathReport:
    """Critical-path attribution of one trace."""

    end_to_end_s: float
    terminal: str
    terminal_track: str
    path: list[PathEntry]
    #: Critical-path time by resource class (containers attribute their
    #: binding component; fixed overheads land under "overhead").
    by_resource: dict[str, float]
    #: Critical-path time by layer (layer containers only).
    by_layer: dict[str, float]
    #: Exposed collective seconds on the path — the ``exposed_s`` portion
    #: of on-path collective windows (full duration when untagged, e.g.
    #: the fused allreduce whose steps all start after the barrier).
    collective_exposed_s: float
    #: (name, track, slack_s) for the largest-slack off-path spans.
    top_slack: list[tuple[str, str, float]]
    n_nodes: int
    n_edges: int
    #: Contiguous path segments grouped by phase (compute / collective /
    #: serve), in path order — one compute+collective pair per solver
    #: iteration on training traces.
    segments: list[dict[str, Any]]

    def to_json(self) -> dict[str, Any]:
        """Machine-readable report (schema ``repro-critpath/1``)."""
        return {
            "schema": "repro-critpath/1",
            "end_to_end_s": self.end_to_end_s,
            "terminal": self.terminal,
            "terminal_track": self.terminal_track,
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "by_resource": {k: self.by_resource[k] for k in sorted(self.by_resource)},
            "by_layer": {k: self.by_layer[k] for k in sorted(self.by_layer)},
            "collective_exposed_s": self.collective_exposed_s,
            "segments": self.segments,
            "top_slack": [
                {"name": n, "track": t, "slack_s": s} for n, t, s in self.top_slack
            ],
            "path": [
                {
                    "name": e.name,
                    "cat": e.cat,
                    "track": e.track,
                    "start_s": e.start_s,
                    "dur_s": e.dur_s,
                    "resource": e.resource,
                }
                for e in self.path
            ],
        }

    def write_json(self, path: str) -> str:
        """Serialize :meth:`to_json` to ``path``; returns the path."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return path


def _phase_of(entry: PathEntry) -> str:
    if entry.resource == "collective":
        return "collective"
    if entry.track.split("/", 1)[0] == "serve" or entry.resource == "batch":
        return "serve"
    if entry.cat in ("layer_fwd", "layer_bwd") or entry.resource in (
        "cpe", "dma", "rlc"
    ):
        return "compute"
    return "other"


def extract_path(
    graph: CritGraph, sched: ScheduleResult
) -> tuple[list[int], int]:
    """Walk binding predecessors back from the terminal node.

    Returns (path node indices in time order, terminal index). The walk
    stops where a node is bound by its own release floor rather than a
    predecessor — the path's source event.
    """
    scheduled = [i for i in sched.order]
    if not scheduled:
        return [], -1
    terminal = max(scheduled, key=lambda i: (sched.end_s[i], i))
    path = [terminal]
    node = terminal
    while True:
        preds = graph.nodes[node].preds
        if not preds:
            break
        binding = max(preds, key=lambda p: (sched.end_s[p], -p))
        if sched.end_s[binding] < sched.start_s[node]:
            break  # release-bound: the path starts here
        node = binding
        path.append(node)
    path.reverse()
    return path, terminal


def critical_path(
    tracer: Tracer | list[Span] | CritGraph,
    factors: Mapping[str, float] | None = None,
    *,
    top_slack: int = 5,
) -> CritPathReport:
    """The critical-path report of a trace (optionally under what-if factors)."""
    graph = tracer if isinstance(tracer, CritGraph) else build_graph(tracer)
    sched = schedule(graph, factors)
    path_idx, terminal = extract_path(graph, sched)

    by_resource: dict[str, float] = {}
    by_layer: dict[str, float] = {}
    exposed = 0.0
    entries: list[PathEntry] = []
    for i in path_idx:
        node = graph.nodes[i]
        span = node.span
        dur = sched.dur_s[i]
        entries.append(
            PathEntry(
                name=span.name,
                cat=span.cat,
                track=span.track,
                start_s=sched.start_s[i],
                dur_s=dur,
                resource=node.resource,
                layer=node.layer,
            )
        )
        if node.kind == "container":
            lf = _factor(factors, f"layer:{node.layer}") if node.layer else 1.0
            bound, bound_res = 0.0, None
            for mi in node.members:
                m = graph.nodes[mi]
                d = m.span.dur_s * (_factor(factors, m.resource or "") * lf)
                if d > bound:
                    bound, bound_res = d, m.resource
            if bound_res is not None:
                by_resource[bound_res] = by_resource.get(bound_res, 0.0) + bound
            overhead = dur - bound
            if overhead > 0:
                by_resource["overhead"] = by_resource.get("overhead", 0.0) + overhead
            if node.layer:
                by_layer[node.layer] = by_layer.get(node.layer, 0.0) + dur
        elif node.resource is not None:
            by_resource[node.resource] = by_resource.get(node.resource, 0.0) + dur
        if node.resource == "collective":
            if span.args and "exposed_s" in span.args:
                exposed += float(span.args["exposed_s"])
            else:
                exposed += dur

    # Slack: classic CPM late-finish backward pass over the projection.
    end_to_end = sched.end_to_end_s
    n = len(graph.nodes)
    late = [end_to_end] * n
    for i in reversed(sched.order):
        node = graph.nodes[i]
        if node.succs:
            late[i] = min(late[j] - sched.dur_s[j] for j in node.succs)
    on_path = set(path_idx)
    slack_rows = sorted(
        (
            (late[i] - sched.end_s[i], i)
            for i in sched.order
            if i not in on_path and not graph.nodes[i].span.instant
        ),
        key=lambda t: (-t[0], t[1]),
    )
    slack = [
        (graph.nodes[i].span.name, graph.nodes[i].span.track, s)
        for s, i in slack_rows[:top_slack]
    ]

    segments: list[dict[str, Any]] = []
    for e in entries:
        phase = _phase_of(e)
        if segments and segments[-1]["phase"] == phase:
            segments[-1]["dur_s"] += e.dur_s
            segments[-1]["spans"] += 1
        else:
            segments.append({"phase": phase, "dur_s": e.dur_s, "spans": 1})

    report = CritPathReport(
        end_to_end_s=end_to_end,
        terminal=graph.nodes[terminal].span.name if terminal >= 0 else "",
        terminal_track=graph.nodes[terminal].span.track if terminal >= 0 else "",
        path=entries,
        by_resource=by_resource,
        by_layer=by_layer,
        collective_exposed_s=exposed,
        top_slack=slack,
        n_nodes=graph.n_scheduled,
        n_edges=len(graph.edges),
        segments=segments,
    )
    mx = ambient.current().metrics
    if mx is not None:
        mx.count("trace.critpath.nodes", report.n_nodes)
        mx.count("trace.critpath.edges", report.n_edges)
        mx.gauge("trace.critpath.end_to_end_s", report.end_to_end_s)
        for res, t in sorted(report.by_resource.items()):
            mx.count("trace.critpath.on_path_s", t, resource=res)
    return report


def path_spans(
    tracer: Tracer | list[Span] | CritGraph,
    factors: Mapping[str, float] | None = None,
) -> list[Span]:
    """The on-path spans themselves (for timeline highlighting)."""
    graph = tracer if isinstance(tracer, CritGraph) else build_graph(tracer)
    sched = schedule(graph, factors)
    path_idx, _ = extract_path(graph, sched)
    return [graph.nodes[i].span for i in path_idx]


def request_completions(
    graph: CritGraph, sched: ScheduleResult
) -> dict[int, float]:
    """Per-served-request completion times under a schedule.

    A request completes when the batch it joined finishes; the request's
    longest path is arrival -> batch formation -> serial engine wait ->
    batch compute, all encoded in the graph's edges. Keyed by ``rid``.
    """
    out: dict[int, float] = {}
    for node in graph.nodes:
        span = node.span
        if span.cat != "request_queued" or not span.args:
            continue
        rid = span.args.get("rid")
        if rid is None:
            continue
        for j in node.succs:
            if graph.nodes[j].span.cat == "batch_compute":
                out[int(rid)] = sched.end_s[j]
                break
    return out


# --------------------------------------------------------------------------- #
# rendering
# --------------------------------------------------------------------------- #
def render_critpath(report: CritPathReport | Tracer | list[Span]) -> str:
    """The terminal critical-path section (``python -m repro trace``)."""
    from repro.utils.tables import Table
    from repro.utils.units import format_time

    if not isinstance(report, CritPathReport):
        report = critical_path(report)
    total = report.end_to_end_s
    table = Table(
        headers=["resource", "on critical path", "share"],
        title="critical path (time that bounded the end-to-end result)",
    )
    for res in sorted(report.by_resource, key=lambda r: -report.by_resource[r]):
        t = report.by_resource[res]
        share = 100.0 * t / total if total > 0 else 0.0
        table.add_row(res, format_time(t), f"{share:.0f}%")
    lines = [table.render()]
    lines.append(
        f"end-to-end: {format_time(total)} | terminal: {report.terminal!r} "
        f"on {report.terminal_track} | {len(report.path)} spans on path "
        f"({report.n_nodes} nodes, {report.n_edges} edges)"
    )
    if report.collective_exposed_s > 0:
        lines.append(
            f"exposed collective on path: {format_time(report.collective_exposed_s)}"
        )
    if report.by_layer:
        top = sorted(report.by_layer.items(), key=lambda kv: -kv[1])[:5]
        lines.append(
            "top layers on path: "
            + ", ".join(f"{name} {format_time(t)}" for name, t in top)
        )
    if report.top_slack:
        name, track, s = report.top_slack[0]
        lines.append(
            f"largest slack off path: {name!r} on {track} "
            f"(could grow {format_time(s)} for free)"
        )
    return "\n".join(lines)
