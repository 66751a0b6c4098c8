"""Host-time probes around ``repro``'s public entry points.

:class:`Recorder` keeps spans (name, start, end, parent, op id, tag, value)
in memory; :func:`install` wraps the entry points each per-layer metric
needs, patching every name where its caller looks it up (for example the
trainer imports ``save_solver`` by name, so ``repro.parallel.trainer`` is
patched, not ``repro.frame.snapshot``). Calls that take a few microseconds
and run thousands of times per op (``CoreGroup`` construction, GEMM
blocking, ``DMAEngine.bulk_time``) get counters instead of spans.

:func:`layer_metrics` turns a recorded phase into the per-layer metrics
that ``BENCHMARK.json`` lists, all normalized per op.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict

from stats import self_time

#: Layer type -> bucket of the ``frame.<bucket>.{fwd,bwd}_s`` metrics.
LAYER_BUCKETS = {
    "Convolution": "conv",
    "InnerProduct": "ip",
    "BatchNorm": "bn",
    "Scale": "bn",
    "Pooling": "pool",
    "ReLU": "relu",
    "Eltwise": "eltwise",
    "SoftmaxWithLoss": "loss",
    "EuclideanLoss": "loss",
    "Accuracy": "loss",
    "Data": "data",
}
EXEC_BUCKETS = ("conv", "ip", "bn", "pool", "relu", "eltwise", "loss", "other")


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit of one section of ``BENCHMARK.json``, in the
    order it lists them (the order the benchmark prints them in)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


#: Every per-layer metric, with its unit, as ``BENCHMARK.json`` declares it.
LAYER_METRICS = declared_units("per_layer")
#: Measured by ``run.py`` from two workers, not from a recorded phase.
TRACE_OVERHEAD = "bench.trace_overhead"


class Recorder:
    """In-memory span store for one worker process (single-threaded)."""

    def __init__(self) -> None:
        self.enabled = False
        self.op = "setup"
        # One list per span field keeps begin/end cheap.
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op_of: list[object] = []
        self.tag: list[str | None] = []
        self.value: list[float] = []
        self._stack: list[int] = []
        self.counters: dict[tuple[object, str], float] = defaultdict(float)
        self._priced: set[tuple[int, str]] = set()

    def begin(self, name: str, tag: str | None = None) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self.op)
        self.tag.append(tag)
        self.value.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[(self.op, key)] += amount

    def start_op(self, op_id: object) -> None:
        self.op = op_id
        self._priced.clear()

    def end_op(self) -> None:
        self.count("frame.price.unique", len(self._priced))
        self._priced.clear()
        self.op = None

    def note_priced(self, layer: object, direction: str) -> None:
        self._priced.add((id(layer), direction))


# ---------------------------------------------------------------------- #
# patching
# ---------------------------------------------------------------------- #
class Patches:
    """Applied patches, restorable in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def setitem(self, mapping: dict, key: str, value: object) -> None:
        self._saved.append((mapping, key, mapping[key]))
        mapping[key] = value

    def restore(self) -> None:
        for owner, attr, old in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._saved.clear()


def _span(rec: Recorder, name: str, fn, *, tag=None, after=None):
    """Wrap ``fn`` in a span; ``tag(args)`` labels it, ``after`` sees the
    call's arguments and result and may set the span's value."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        idx = rec.begin(name, tag(args) if tag else None)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.finish(idx)
        if after is not None:
            after(rec, idx, args, kwargs, out)
        return out

    return wrapper


def _hot(rec: Recorder, key: str, fn, *, timed: bool):
    """Count (and optionally time) a hot call without recording a span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        rec.count(f"{key}.calls")
        if not timed:
            return fn(*args, **kwargs)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.count(f"{key}.s", time.perf_counter() - t0)

    return wrapper


def _set_value(value_fn):
    def after(rec, idx, args, kwargs, out):
        rec.value[idx] = float(value_fn(args, kwargs, out))

    return after


def _layer_type(args) -> str:
    return args[0].type


def _price_tag(direction: str):
    return lambda args: f"{args[0].type}/{direction}"


def _priced(direction: str):
    def after(rec, idx, args, kwargs, out):
        rec.note_priced(args[0], direction)
        rec.value[idx] = float(out.total_s)

    return after


def _snapshot_mb(args, kwargs, out) -> float:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return os.path.getsize(path) / 1e6


def _chaos_after(rec, idx, args, kwargs, report):
    rec.count("faults.injected", sum(report.injected.values()))
    rec.count("faults.retries", report.retries)
    rec.count("faults.rank_rebuilds", report.rank_rebuilds)
    rec.count("faults.recoveries", len(report.recoveries))


def install(rec: Recorder, builders: dict[str, tuple[str, str]]) -> Patches:
    """Wrap every probed entry point; returns the patches for restoring.

    ``builders`` maps a net name to ``(module path, function name)`` of its
    model-zoo builder, as in ``repro.__main__.NETWORKS``.
    """
    from repro.frame.layer import Layer
    import repro.frame.layers  # noqa: F401  (registers every Layer subclass)
    from repro.frame.net import Net
    from repro.frame.solver import SGDSolver
    from repro.hw.core_group import CoreGroup
    from repro.hw.dma import DMAEngine
    from repro.kernels.autotune import PlanAutotuner
    from repro.kernels.gemm import SWGemmPlan
    from repro.parallel import trainer as trainer_mod
    from repro.parallel.packing import BucketedPacker, GradientPacker
    from repro.parallel.ssgd import SSGDIterationModel
    from repro.perf import layer_cost
    from repro.pipeline import model as pipeline_model
    from repro.pipeline import partition
    from repro.serve.costmodel import NetForwardCostModel
    from repro.serve.engine import ServingEngine
    from repro.faults import session as faults_session
    from repro.metrics import session as metrics_session
    from repro.trace import attribution, critpath, export
    from repro.trace import session as trace_session

    p = Patches()

    # --- frame: builds ------------------------------------------------- #
    for mod_path, fn_name in set(builders.values()):
        mod = importlib.import_module(mod_path)
        p.set(mod, fn_name, _span(
            rec, "frame.build", getattr(mod, fn_name),
            after=_set_value(lambda a, k, net: net.param_bytes() / 1e6),
        ))

    # --- frame: pricing, on every class that defines it ----------------- #
    classes, todo = [], [Layer]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    for cls in classes:
        for attr, direction in (("sw_forward_cost", "fwd"), ("sw_backward_cost", "bwd")):
            if attr in vars(cls):
                p.set(cls, attr, _span(
                    rec, "frame.price", vars(cls)[attr],
                    tag=_price_tag(direction), after=_priced(direction),
                ))

    # --- frame: execution and solver ------------------------------------ #
    p.set(Layer, "forward", _span(rec, "frame.layer.fwd", Layer.forward, tag=_layer_type))
    p.set(Layer, "backward", _span(rec, "frame.layer.bwd", Layer.backward, tag=_layer_type))
    p.set(Net, "forward", _span(rec, "frame.forward", Net.forward))
    p.set(Net, "backward", _span(rec, "frame.backward", Net.backward))
    p.set(SGDSolver, "apply_update", _span(rec, "frame.update", SGDSolver.apply_update))

    # --- frame: snapshots, where the trainer looks them up --------------- #
    p.set(trainer_mod, "save_solver", _span(
        rec, "frame.snapshot.save", trainer_mod.save_solver,
        after=_set_value(_snapshot_mb),
    ))
    p.set(trainer_mod, "load_solver", _span(
        rec, "frame.snapshot.load", trainer_mod.load_solver,
    ))

    # --- kernels and hw -------------------------------------------------- #
    choose = PlanAutotuner.choose

    @functools.wraps(choose)
    def autotune(self, *args, **kwargs):
        if not rec.enabled:
            return choose(self, *args, **kwargs)
        # ``choose`` probes (and bumps ``probe_count``) only on a cache miss.
        before = self.probe_count
        idx = rec.begin("kernels.autotune")
        try:
            return choose(self, *args, **kwargs)
        finally:
            rec.finish(idx)
            rec.value[idx] = 1.0 if self.probe_count == before else 0.0

    p.set(PlanAutotuner, "choose", autotune)
    p.set(SWGemmPlan, "__init__", _hot(rec, "kernels.gemm_plan", SWGemmPlan.__init__, timed=True))
    p.set(CoreGroup, "__init__", _hot(rec, "hw.core_group", CoreGroup.__init__, timed=True))
    p.set(DMAEngine, "bulk_time", _hot(rec, "hw.dma_cost", DMAEngine.bulk_time, timed=False))

    # --- simmpi ---------------------------------------------------------- #
    for key, fn in list(trainer_mod.ALGORITHMS.items()):
        p.setitem(trainer_mod.ALGORITHMS, key, _span(
            rec, "simmpi.allreduce", fn,
            after=_set_value(lambda a, k, out: a[1][0].nbytes / 1e6),
        ))
    for mod in (trace_session, metrics_session):
        p.set(mod, "replay_rhd", _span(rec, "simmpi.replay", mod.replay_rhd))

    # --- parallel -------------------------------------------------------- #
    for cls in (GradientPacker, BucketedPacker):
        for attr in ("pack_diffs", "unpack_diffs", "pack_bucket_diffs", "unpack_bucket_diffs"):
            if attr in vars(cls):
                nbytes = (
                    (lambda a, k, out: out.nbytes / 1e6)
                    if attr.startswith("pack")
                    else (lambda a, k, out: a[-1].nbytes / 1e6)
                )
                p.set(cls, attr, _span(
                    rec, "parallel.pack", vars(cls)[attr], after=_set_value(nbytes),
                ))
    p.set(SSGDIterationModel, "breakdown", _span(
        rec, "parallel.model", SSGDIterationModel.breakdown,
    ))
    p.set(trainer_mod.DistributedTrainer, "step", _span(
        rec, "parallel.step", trainer_mod.DistributedTrainer.step,
        after=_set_value(lambda a, k, out: k.get("n_iters", a[1] if len(a) > 1 else 1)),
    ))

    # --- pipeline, serve, perf ------------------------------------------- #
    p.set(partition, "plan_stages", _span(rec, "pipeline.partition", partition.plan_stages))
    p.set(pipeline_model, "simulate_pipeline", _span(
        rec, "pipeline.schedule", pipeline_model.simulate_pipeline,
    ))
    p.set(ServingEngine, "run", _span(
        rec, "serve.engine", ServingEngine.run,
        after=_set_value(lambda a, k, report: report.n_requests),
    ))
    p.set(NetForwardCostModel, "cost", _span(rec, "serve.costmodel", NetForwardCostModel.cost))
    timings = _span(rec, "perf.layer_timings", layer_cost.net_layer_timings)
    p.set(layer_cost, "net_layer_timings", timings)
    p.set(partition, "net_layer_timings", timings)

    # --- faults, trace, metrics ------------------------------------------ #
    p.set(faults_session, "run_chaos", _span(
        rec, "faults.session", faults_session.run_chaos, after=_chaos_after,
    ))
    p.set(trace_session, "trace_training_step", _span(
        rec, "trace.step", trace_session.trace_training_step,
        after=_set_value(lambda a, k, out: len(out[0].spans)),
    ))
    p.set(critpath, "critical_path", _span(rec, "trace.critpath", critpath.critical_path))
    p.set(attribution, "render_attribution", _span(
        rec, "trace.attribution", attribution.render_attribution,
    ))
    p.set(export, "write_chrome_json", _span(
        rec, "trace.export", export.write_chrome_json,
        after=_set_value(lambda a, k, path: os.path.getsize(path) / 1e6),
    ))
    p.set(metrics_session, "collect_training_step", _span(
        rec, "metrics.collect", metrics_session.collect_training_step,
        after=_set_value(lambda a, k, out: len(k["registry"]) if k.get("registry") is not None else 0),
    ))
    return p


# ---------------------------------------------------------------------- #
# aggregation
# ---------------------------------------------------------------------- #
class Phase:
    """The spans and counters of a set of ops, with the per-span helpers
    the metrics need (outermost-of-name inclusive time and self time)."""

    def __init__(self, rec: Recorder, ops: set) -> None:
        self.rec = rec
        self.ops = ops
        self.idx = [i for i, op in enumerate(rec.op_of) if op in ops]
        self.children: dict[int, list[int]] = defaultdict(list)
        self._by_name: dict[str, list[int]] = defaultdict(list)
        for i in self.idx:
            if rec.parent[i] >= 0:
                self.children[rec.parent[i]].append(i)
            if self._outermost(i):
                self._by_name[rec.name[i]].append(i)

    def _outermost(self, i: int) -> bool:
        rec, name = self.rec, self.rec.name[i]
        j = rec.parent[i]
        while j >= 0:
            if rec.name[j] == name:
                return False
            j = rec.parent[j]
        return True

    def spans(self, name: str, tag: str | None = None) -> list[int]:
        """Outermost spans of ``name`` (a recursive call counts once)."""
        found = self._by_name.get(name, [])
        if tag is None:
            return found
        return [i for i in found if self.rec.tag[i] == tag]

    def incl(self, name: str, tag=None) -> float:
        rec = self.rec
        return sum(rec.end[i] - rec.start[i] for i in self.spans(name, tag))

    def self_s(self, i: int) -> float:
        rec = self.rec
        kids = [(rec.start[c], rec.end[c]) for c in self.children.get(i, ())]
        return self_time(rec.start[i], rec.end[i], kids)

    def total_self(self, name: str) -> float:
        return sum(self.self_s(i) for i in self.idx if self.rec.name[i] == name)

    def value(self, name: str) -> float:
        return sum(self.rec.value[i] for i in self.spans(name))

    def counter(self, key: str) -> float:
        return sum(v for (op, k), v in self.rec.counters.items() if k == key and op in self.ops)

    def self_split(self) -> dict[str, float]:
        """Self seconds by span name (the per-layer split of an op)."""
        out: dict[str, float] = defaultdict(float)
        for i in self.idx:
            out[self.rec.name[i]] += self.self_s(i)
        return dict(out)

    def by_tag(self, name: str, *, sim: bool = False) -> dict[str, float]:
        """Inclusive seconds (or summed span values) of ``name`` by tag."""
        rec = self.rec
        out: dict[str, float] = defaultdict(float)
        for i in self.spans(name):
            out[rec.tag[i]] += rec.value[i] if sim else rec.end[i] - rec.start[i]
        return dict(out)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(phase: Phase, n_ops: int) -> dict[str, float]:
    """Every metric of :data:`LAYER_METRICS` but :data:`TRACE_OVERHEAD`,
    per op over ``phase``.

    Ratios read 0 when their layer was not exercised.
    """
    per = 1.0 / n_ops
    m: dict[str, float] = {}
    calls = lambda name: len(phase.spans(name))  # noqa: E731

    m["frame.build.calls"] = calls("frame.build") * per
    m["frame.build.s"] = phase.incl("frame.build") * per
    m["frame.build.param_mb"] = phase.value("frame.build") * per
    price_calls = calls("frame.price")
    m["frame.price.calls"] = price_calls * per
    m["frame.price.s"] = phase.incl("frame.price") * per
    m["frame.price.unique_ratio"] = _ratio(phase.counter("frame.price.unique"), price_calls)
    m["frame.forward.s"] = phase.incl("frame.forward") * per
    m["frame.backward.s"] = phase.incl("frame.backward") * per
    for span, d in (("frame.layer.fwd", "fwd"), ("frame.layer.bwd", "bwd")):
        by_bucket: dict[str, float] = defaultdict(float)
        for tag, s in phase.by_tag(span).items():
            by_bucket[LAYER_BUCKETS.get(tag, "other")] += s
        for b in EXEC_BUCKETS:
            m[f"frame.{b}.{d}_s"] = by_bucket[b] * per
        if d == "fwd":
            m["frame.data.fwd_s"] = by_bucket["data"] * per
    m["frame.update.calls"] = calls("frame.update") * per
    m["frame.update.s"] = phase.incl("frame.update") * per
    m["frame.snapshot.saves"] = calls("frame.snapshot.save") * per
    m["frame.snapshot.save_s"] = phase.incl("frame.snapshot.save") * per
    m["frame.snapshot.loads"] = calls("frame.snapshot.load") * per
    m["frame.snapshot.load_s"] = phase.incl("frame.snapshot.load") * per
    m["frame.snapshot.mb"] = phase.value("frame.snapshot.save") * per
    tune_calls = calls("kernels.autotune")
    m["kernels.autotune.calls"] = tune_calls * per
    m["kernels.autotune.s"] = phase.incl("kernels.autotune") * per
    m["kernels.autotune.hit_ratio"] = _ratio(phase.value("kernels.autotune"), tune_calls)
    m["kernels.gemm_plan.builds"] = phase.counter("kernels.gemm_plan.calls") * per
    m["kernels.gemm_plan.s"] = phase.counter("kernels.gemm_plan.s") * per
    m["hw.core_group.builds"] = phase.counter("hw.core_group.calls") * per
    m["hw.core_group.s"] = phase.counter("hw.core_group.s") * per
    m["hw.dma_cost.calls"] = phase.counter("hw.dma_cost.calls") * per
    allreduces = calls("simmpi.allreduce")
    m["simmpi.allreduce.calls"] = allreduces * per
    m["simmpi.allreduce.s"] = phase.incl("simmpi.allreduce") * per
    m["simmpi.allreduce.mb"] = phase.value("simmpi.allreduce") * per
    m["simmpi.replay.calls"] = calls("simmpi.replay") * per
    m["simmpi.replay.s"] = phase.incl("simmpi.replay") * per
    m["parallel.pack.s"] = phase.incl("parallel.pack") * per
    m["parallel.pack.mb"] = phase.value("parallel.pack") * per
    m["parallel.model.s"] = phase.incl("parallel.model") * per
    m["parallel.step.self_s"] = phase.total_self("parallel.step") * per
    # Each iteration run, including a crashed attempt, makes one fused
    # allreduce call; ``step(n)`` asks for n effective iterations.
    m["parallel.useful_iter_ratio"] = _ratio(phase.value("parallel.step"), allreduces)
    m["pipeline.partition.s"] = phase.incl("pipeline.partition") * per
    m["pipeline.schedule.s"] = phase.incl("pipeline.schedule") * per
    m["serve.requests"] = phase.value("serve.engine") * per
    m["serve.engine.s"] = phase.incl("serve.engine") * per
    m["serve.costmodel.s"] = phase.incl("serve.costmodel") * per
    m["perf.layer_timings.s"] = phase.incl("perf.layer_timings") * per
    for key in ("injected", "retries", "rank_rebuilds", "recoveries"):
        m[f"faults.{key}"] = phase.counter(f"faults.{key}") * per
    m["faults.session.self_s"] = phase.total_self("faults.session") * per
    m["trace.step.s"] = phase.incl("trace.step") * per
    m["trace.spans"] = phase.value("trace.step") * per
    m["trace.critpath.s"] = phase.incl("trace.critpath") * per
    m["trace.attribution.s"] = phase.incl("trace.attribution") * per
    m["trace.export.s"] = phase.incl("trace.export") * per
    m["trace.export.mb"] = phase.value("trace.export") * per
    m["metrics.collect.s"] = phase.incl("metrics.collect") * per
    m["metrics.series"] = phase.value("metrics.collect") * per
    return {k: m[k] for k in LAYER_METRICS if k != TRACE_OVERHEAD}
