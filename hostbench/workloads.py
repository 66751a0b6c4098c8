"""The three closed-loop workloads of the host-time benchmark.

Each workload turns the benchmark seed into its inputs, runs one op at a
time through ``repro``'s public API and checks the op's simulated outputs.
Ops come in decks (:meth:`Workload.decks`), so every run of a workload
does the same mix of work whatever the seed. NOTES.md says why each
workload exists and what it should stress.

Entry points are looked up on their modules at call time (``layer_cost.
net_layer_timings``, not a name bound at import), so the probes that
:mod:`probes` installs see the benchmark's own calls too.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import math
import os
import random
import shutil
import tempfile
import zlib

#: The seed whose simulated outputs ``expected.json`` pins.
DEFAULT_SEED = 1


def _sub_seed(*parts: object) -> int:
    """A stable 32-bit seed derived from the benchmark seed and a path."""
    return zlib.crc32("/".join(str(p) for p in parts).encode("utf-8"))


def _sha(obj: object) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def networks() -> dict[str, tuple[str, str]]:
    """Net name -> (module path, builder name), as the CLI resolves them."""
    from repro.__main__ import NETWORKS

    return {name: (mod, fn) for name, (mod, fn, _batch) in NETWORKS.items()}


def builder(name: str):
    """The model-zoo builder of ``name``, looked up at call time."""
    mod, fn = networks()[name]
    return getattr(importlib.import_module(mod), fn)


class Workload:
    """One workload: inputs from a seed, ops, and output checks."""

    name = ""
    #: Ops per deck; the timed phase runs at least one deck.
    deck = 1
    #: Nominal host seconds of one deck (measured on a 2-core Xeon box).
    #: If set, the timed phase runs round(--seconds / DECK_S) whole decks,
    #: for workloads whose decks differ in mix. If None, it runs ops until
    #: --seconds have passed, for workloads whose ops cost alike.
    DECK_S: float | None = None

    def __init__(self, seed: int, tmpdir: str, expected: dict | None) -> None:
        self.seed = seed
        self.tmpdir = tmpdir
        self.expected = expected or {}
        self.rng = random.Random(_sub_seed(self.name, seed))

    def setup(self) -> None:
        """Imports and builds that precede the warm-up op."""

    def warmup(self):
        """The spec of the warm-up op, the last step of set-up."""
        return None

    def decks(self):
        """Endless iterator of decks (lists of op specs)."""
        raise NotImplementedError

    def run(self, spec):
        """Run one op; returns its output."""
        raise NotImplementedError

    def record(self, index: int, spec, out) -> dict:
        """The op's simulated outputs as JSON values (what expected pins)."""
        raise NotImplementedError

    def problems(self, index: int, spec, out, rec: dict) -> list[str]:
        """Self-consistency failures of one op's output."""
        return []

    def key(self, index: int, spec) -> str:
        """Where ``expected.json`` keeps this op's record."""
        raise NotImplementedError

    def check(self, index: int, spec, out) -> list[str]:
        """Every reason the op's output is wrong (empty = correct)."""
        rec = self.record(index, spec, out)
        found = self.problems(index, spec, out, rec)
        want = self.expected.get(self.key(index, spec))
        if want is not None and want != rec:
            found.append(f"{self.key(index, spec)}: {rec} != expected {want}")
        return found

    def cleanup(self, spec, out) -> None:
        """Drop files an op left behind (runs outside the timed op)."""

    def sim_by_type(self) -> dict[str, tuple[float, float]] | None:
        """Simulated (fwd, bwd) seconds per layer type of one iteration,
        for workloads that execute a fixed net; None otherwise."""
        return None


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


# ---------------------------------------------------------------------- #
class Analyze(Workload):
    """Cost-only queries over zoo nets: build, then price (no NumPy run)."""

    name = "analyze"
    #: Nets queried (None = every zoo net the CLI knows).
    NETS: tuple[str, ...] | None = None
    BATCHES = (8, 32, 128)
    KINDS = ("profile", "scale", "pipeline", "serve")
    DEVICES = ("sw26010", "k40m", "cpu")
    RANKS = tuple(2 ** i for i in range(11))
    #: fused, and bucketed at the 96 MB bound of the fig10 study.
    BUCKETS = (None, 96.0)

    #: A deck took 6-7.5 s on the quiet reference host and up to 13 s on
    #: a slow stretch. Budgeting 10 s a deck makes run_seconds 20 run two
    #: decks, 16 ops: below 21 ops op_tail_s is the slowest query, while
    #: at 24 ops it was a mid-cost query whose rank order noise reshuffled.
    DECK_S = 10.0

    def __init__(self, seed, tmpdir, expected) -> None:
        super().__init__(seed, tmpdir, expected)
        self.nets = list(self.NETS or sorted(networks()))
        self.deck = len(self.nets)
        self._seen: dict[tuple, str] = {}

    def warmup(self):
        return ("resnet18", 32, "profile")

    def decks(self):
        # A fixed, balanced sample of the grid in seeded order. Every deck
        # queries every net once and every kind twice. Odd decks repeat
        # the previous deck's grid point on the first half of the nets, so
        # a run holds repeated points for a build or plan cache to hit.
        # Only the order comes from the seed: with kinds and batches drawn
        # at random, which mid-cost nets got an expensive kind moved
        # op_p50_s by a fifth from seed to seed.
        half = len(self.nets) // 2
        for d in itertools.count():
            deck = []
            for i, net in enumerate(self.nets):
                shift = d - 1 if d % 2 and i < half else d
                deck.append((
                    net,
                    self.BATCHES[(i + shift) % len(self.BATCHES)],
                    self.KINDS[(i + shift) % len(self.KINDS)],
                ))
            self.rng.shuffle(deck)
            yield deck

    def run(self, spec):
        from repro.perf import layer_cost
        from repro.parallel.ssgd import SSGDIterationModel
        from repro.pipeline import model as pipeline_model
        from repro.pipeline import partition
        from repro.serve import session as serve_session
        from repro.serve.engine import ServeConfig

        net_name, batch, kind = spec
        build = builder(net_name)
        if kind == "serve":
            # max_batch 4 keeps every serve query to one build: batches 1-4
            # share one core-group price (docs/serving.md).
            report = serve_session.run_serving(
                build,
                arrivals_seed=f"poisson:0x{_sub_seed(net_name, batch):x}:0",
                n_requests=4 * batch,
                config=ServeConfig(max_batch=4),
                model=net_name,
            )
            return [
                report.makespan_s, float(report.n_batches),
                float(report.n_completed), float(report.n_shed),
                report.latency_percentile(50), report.latency_percentile(99),
                report.goodput_rps,
            ]
        net = build(batch_size=batch)
        if kind == "profile":
            return [
                s
                for device in self.DEVICES
                for t in layer_cost.net_layer_timings(net, device)
                for s in (t.forward_s, t.backward_s)
            ]
        if kind == "scale":
            compute_s = layer_cost.net_iteration_time(net, "sw26010")
            out = []
            for bucket in self.BUCKETS:
                model = SSGDIterationModel(
                    compute_s=compute_s, model_bytes=net.param_bytes(), bucket_mb=bucket
                )
                out.extend(model.breakdown(n).total_s for n in self.RANKS)
            return out
        plan = partition.plan_stages(net, 4)
        bd = pipeline_model.PipelineIterationModel(
            plan, n_microbatches=8, bucket_mb=32.0
        ).breakdown()
        return [*plan.stage_cost_s, bd.total_s, bd.bubble_frac, bd.comm_fraction]

    def record(self, index, spec, out):
        return {"sha256": _sha(out), "summary": [out[0], out[-1], len(out)]}

    def problems(self, index, spec, out, rec):
        found = []
        if not _finite(out):
            found.append(f"{spec}: non-finite output")
        first = self._seen.setdefault(tuple(spec), rec["sha256"])
        if first != rec["sha256"]:
            found.append(f"{spec}: repeated query disagrees with its first answer")
        return found

    def key(self, index, spec):
        net, batch, kind = spec
        return f"analyze/{net}/{batch}/{kind}"


# ---------------------------------------------------------------------- #
class Recover(Workload):
    """Chaos sessions: faulted LeNet training, snapshots, verified replay."""

    name = "recover"
    PROFILES = ("crash", "chaos", "transient", "degrade")
    deck = len(PROFILES)

    def __init__(self, seed, tmpdir, expected) -> None:
        super().__init__(seed, tmpdir, expected)
        self._index = 0

    def _net(self, rank: int):
        from repro.frame.model_zoo.common import default_source
        from repro.utils.rng import seeded_rng

        return builder("lenet")(
            batch_size=4,
            source=default_source(10, (1, 28, 28), seed=_sub_seed("recover", self.seed, rank)),
            rng=seeded_rng(_sub_seed("recover", self.seed)),
        )

    def warmup(self):
        # A crash session touches every recovery path (snapshot load, rank
        # rebuild, shrunken replay), so nothing is cold after it.
        return f"crash:0x{_sub_seed('recover-warmup', self.seed):x}:0"

    def decks(self):
        # Each deck runs every fault profile once, in seeded order.
        while True:
            profiles = list(self.PROFILES)
            self.rng.shuffle(profiles)
            deck = []
            for profile in profiles:
                deck.append(f"{profile}:0x{self.rng.getrandbits(32):x}:{self._index}")
                self._index += 1
            yield deck

    def run(self, spec):
        from repro.faults import session as faults_session

        return faults_session.run_chaos(
            self._net,
            ranks=4,
            iterations=4,
            seed=spec,
            algorithm="rhd",
            nodes_per_supernode=4,
            snapshot_every=1,
            snapshot_dir=tempfile.mkdtemp(prefix="chaos-", dir=self.tmpdir),
            verify=True,
        )

    def cleanup(self, spec, report):
        for name in os.listdir(self.tmpdir):
            if name.startswith("chaos-"):
                shutil.rmtree(os.path.join(self.tmpdir, name), ignore_errors=True)

    def record(self, index, spec, report):
        return {
            "fault_seed": spec,
            "losses": list(report.losses),
            "comm_s": report.total_time_s,
            "survivors": report.surviving_ranks,
            "recoveries": [[r, list(s)] for r, s in report.recoveries],
        }

    def problems(self, index, spec, report, rec):
        found = []
        if report.weights_match is not True:
            found.append(f"{spec}: recovered weights differ from the fault-free replay")
        if not _finite(report.losses):
            found.append(f"{spec}: non-finite loss")
        return found

    def key(self, index, spec):
        return f"recover/seed{self.seed}/op{index}"

    def sim_by_type(self):
        from repro.perf import layer_cost

        out: dict[str, tuple[float, float]] = {}
        for t in layer_cost.net_layer_timings(self._net(0), "sw26010"):
            f, b = out.get(t.layer_type, (0.0, 0.0))
            out[t.layer_type] = (f + t.forward_s, b + t.backward_s)
        return out


# ---------------------------------------------------------------------- #
class Observe(Workload):
    """Traced and metered 64-rank VGG-16 step, exported to Chrome JSON."""

    name = "observe"
    NET = "vgg16"
    BATCH = 64
    RANKS = 64

    def setup(self):
        from repro.utils.rng import seeded_rng

        self.net = builder(self.NET)(
            batch_size=self.BATCH, rng=seeded_rng(_sub_seed("observe", self.seed))
        )
        self.path = os.path.join(self.tmpdir, "observe-trace.json")

    def decks(self):
        while True:
            yield [None]

    def run(self, spec):
        from repro.metrics import session as metrics_session
        from repro.metrics.registry import MetricsRegistry
        from repro.trace import attribution, critpath, export
        from repro.trace import session as trace_session

        tracer, summary = trace_session.trace_training_step(self.net, ranks=self.RANKS)
        path_report = critpath.critical_path(tracer)
        table = attribution.render_attribution(tracer)
        export.write_chrome_json(tracer, self.path)
        registry = MetricsRegistry()
        metrics = metrics_session.collect_training_step(
            self.net, ranks=self.RANKS, registry=registry
        )
        return tracer, summary, path_report, table, metrics, registry

    def record(self, index, spec, out):
        tracer, s, path_report, table, metrics, registry = out
        return {
            "compute_s": s.compute_s,
            "allreduce_s": s.allreduce_s,
            "allreduce_steps": s.allreduce_steps,
            "payload_bytes": s.payload_bytes,
            "end_to_end_s": path_report.end_to_end_s,
            "spans": len(tracer.spans),
            "attribution_sha": hashlib.sha256(table.encode("utf-8")).hexdigest(),
            "metrics_sha": _sha(metrics.to_json_dict()),
            "series": len(registry),
        }

    def problems(self, index, spec, out, rec):
        from repro.trace.export import validate_chrome

        with open(self.path, encoding="utf-8") as fh:
            errors = validate_chrome(json.load(fh))
        found = [f"chrome trace: {e}" for e in errors[:3]]
        last_end = max(span.end_s for span in out[0].spans)
        if rec["end_to_end_s"] != last_end:
            found.append(
                f"critical path ends at {rec['end_to_end_s']!r}, latest span at {last_end!r}"
            )
        return found

    def key(self, index, spec):
        return f"observe/{self.NET}/{self.BATCH}/{self.RANKS}"


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Analyze, Recover, Observe)
}
