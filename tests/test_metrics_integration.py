"""End-to-end metrics tests: instrumentation, inertness, roofline, CLI.

Pins the ISSUE acceptance criteria:

* enabling metrics collection changes no simulated-time results (the
  no-op guarantee, mirroring the tracing inertness pin);
* trace and metrics agree on total DMA bytes within one session;
* the roofline analyzer pins a stride-degraded/pure-movement plan as
  DMA-bound and a large GEMM as compute-bound;
* ``python -m repro`` exits 2 with a usable message on unknown input;
* the merged Chrome export with counter tracks still validates.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.__main__ import main as repro_main
from repro.frame.model_zoo import lenet
from repro.hw.clock import SimClock
from repro.hw.dma import DMAEngine
from repro.kernels.gemm import SWGemmPlan
from repro.kernels.im2col import Im2colPlan
from repro.metrics import (
    classify_cost,
    collect_training_step,
    net_roofline,
    to_chrome_with_metrics,
)
from repro.metrics.registry import MetricsRegistry, collecting
from repro.simmpi import SimComm, block_placement, rhd_allreduce
from repro.topology import TaihuLightFabric
from repro.trace.export import validate_chrome
from repro.trace.session import trace_training_step
from repro.trace.tracer import Tracer, tracing


def _comm(p: int, q: int | None = None) -> SimComm:
    q = q if q is not None else p
    fabric = TaihuLightFabric(n_nodes=p, nodes_per_supernode=q)
    return SimComm(fabric, block_placement(p, q))


class TestMetricsAreInert:
    """Enabling metrics collection never changes simulated-time results."""

    def test_allreduce_identical_with_metrics(self):
        bufs_a = [np.ones(1 << 14) for _ in range(8)]
        bufs_b = [np.ones(1 << 14) for _ in range(8)]
        bare = rhd_allreduce(_comm(8, 4), bufs_a)
        with collecting():
            counted = rhd_allreduce(_comm(8, 4), bufs_b)
        assert counted.time_s == bare.time_s
        assert counted.steps == bare.steps
        np.testing.assert_array_equal(bufs_a[0], bufs_b[0])

    def test_dma_clock_identical_with_metrics(self):
        src = np.ones((256, 256))
        bare = DMAEngine(clock=SimClock())
        bare.get(src)
        with collecting():
            counted = DMAEngine(clock=SimClock())
            counted.get(src)
        assert counted.clock.now == bare.clock.now

    def test_plan_costs_identical_with_metrics(self):
        plan = SWGemmPlan(256, 256, 256)
        bare = plan.cost()
        with collecting():
            counted = plan.cost()
        assert counted.total_s == bare.total_s


class TestCounterContents:
    def test_dma_round_trip_counts_both_directions(self):
        src = np.ones((64, 64))  # 32 KiB of float64
        dst = np.empty_like(src)
        with collecting() as mx:
            eng = DMAEngine(clock=SimClock())
            ldm = eng.get(src)
            eng.put(ldm, dst)
        assert mx.value("dma.bytes", dir="get") == src.nbytes
        assert mx.value("dma.bytes", dir="put") == src.nbytes
        assert mx.value("dma.transfers") == 2
        assert mx.value("dma.busy_s") == pytest.approx(eng.clock.now)

    def test_collective_labels_reach_comm_counters(self):
        bufs = [np.ones(1 << 12) for _ in range(4)]
        with collecting() as mx:
            rhd_allreduce(_comm(4), bufs)
        assert mx.value("comm.steps", collective="rhd") > 0
        assert mx.value("comm.bytes") > 0


    def test_emitted_names_are_in_the_taxonomy(self):
        from repro.metrics.registry import METRIC_NAMES
        from repro.pipeline import PipelineTrainer
        from repro.simmpi.p2p import P2PTransport

        with collecting() as mx:
            trainer = PipelineTrainer(
                lambda rank=0: lenet.build(batch_size=4, rng=np.random.default_rng(7)),
                2,
                n_microbatches=2,
                replicas=2,
            )
            trainer.step(1)
            comm = SimComm(TaihuLightFabric(n_nodes=4, nodes_per_supernode=2),
                           block_placement(4, 2))
            p2p = P2PTransport(comm)
            p2p.send(0, 1, np.ones(8))
        names = set(mx.names())
        assert {"comm.p2p_sends", "comm.p2p_bytes", "pipeline.bubble_frac",
                "pipeline.makespan_s", "pipeline.stage_imbalance"} <= names
        assert names <= set(METRIC_NAMES), sorted(names - set(METRIC_NAMES))


class TestTraceMetricsConsistency:
    """Counters and trace spans must describe the same simulated work."""

    def test_dma_bytes_match_span_payloads(self):
        src = np.ones((128, 128))
        dst = np.empty_like(src)
        tracer = Tracer()
        with collecting() as mx, tracing(tracer):
            eng = DMAEngine(clock=SimClock())
            ldm = eng.get(src)
            eng.put(ldm, dst)
        span_bytes = sum(s.args["bytes"] for s in tracer.by_category("dma_transfer"))
        assert span_bytes == mx.value("dma.bytes")

    def test_session_dma_bytes_match_span_payloads(self):
        tracer = Tracer()
        mx = MetricsRegistry()
        collect_training_step(
            lenet.build(batch_size=16), ranks=2, registry=mx, tracer=tracer
        )
        spans = tracer.by_category("dma_transfer")
        assert spans, "session trace should contain dma_transfer spans"
        span_bytes = sum(s.args["bytes"] for s in spans)
        assert span_bytes == pytest.approx(mx.value("dma.bytes", dir="model"))

    def test_session_layer_spans_match_trace_session(self):
        # Forwards in layer order, then backwards last-to-first, dep-chained;
        # later iterations wait on the allreduce in both sessions alike.
        net = lenet.build(batch_size=16)

        def rank0_layers(tr):
            spans = [(s.name, s.start_s, s.dur_s) for s in tr.spans
                     if s.track == "rank0/layers" and s.cat.startswith("layer_")]
            deps = [(a.name, b.name) for a, b, kind in tr.edges
                    if kind == "dep" and a.track == b.track == "rank0/layers"]
            return spans, deps

        for iterations in (1, 2):
            metered = Tracer()
            collect_training_step(net, ranks=2, iterations=iterations, tracer=metered)
            traced, _ = trace_training_step(net, ranks=2, iterations=iterations)
            assert rank0_layers(metered) == rank0_layers(traced)
            assert len(metered.by_category("solver_iter")) == 2 * iterations


class TestRooflinePins:
    def test_pure_movement_plan_is_dma_bound(self):
        plan = Im2colPlan(channels=64, height=56, width=56, k=3)
        verdict = classify_cost(plan.cost(), plan.params)
        assert verdict.bound == "dma"
        assert verdict.intensity == 0.0  # no flops, pure data movement
        # Strided K*K line writes keep achieved bandwidth below peak.
        assert 0.0 < verdict.dma_frac < 1.0

    def test_large_gemm_is_compute_bound(self):
        plan = SWGemmPlan(2048, 2048, 2048)
        verdict = classify_cost(plan.cost(), plan.params)
        assert verdict.bound == "compute"
        assert verdict.intensity > 10  # flops per DMA byte

    def test_net_roofline_covers_priced_layers(self):
        net = lenet.build(batch_size=16)
        rows = net_roofline(net)
        assert rows
        names = {layer.name for layer in net.layers}
        assert {r.layer for r in rows} <= names
        assert all(r.verdict.bound in ("compute", "dma", "rlc", "overhead") for r in rows)


class TestCliHardening:
    def test_unknown_command_exits_2(self, capsys):
        assert repro_main(["bogus"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "--help" in err

    def test_unknown_net_exits_2(self, capsys):
        assert repro_main(["profile", "nosuchnet"]) == 2
        assert "nosuchnet" in capsys.readouterr().err

    def test_unknown_experiment_exits_2(self, capsys):
        assert repro_main(["experiment", "nosuchexp"]) == 2
        assert "nosuchexp" in capsys.readouterr().err

    def test_metrics_command_runs_and_writes_json(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        code = repro_main(
            ["metrics", "lenet", "--ranks", "2", "--json", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-metrics/1"
        assert payload["layers"] and payload["resources"]
        stdout = capsys.readouterr().out
        assert "roofline" in stdout.lower()


class TestChromeCounterExport:
    def test_merged_export_validates_and_has_counters(self):
        tracer = Tracer()
        collect_training_step(lenet.build(batch_size=16), ranks=2, tracer=tracer)
        obj = to_chrome_with_metrics(tracer)
        assert validate_chrome(obj) == []
        counters = [ev for ev in obj["traceEvents"] if ev.get("ph") == "C"]
        assert counters, "expected counter ('C') events in merged export"
        # Counter samples are cumulative, hence monotonic per counter name.
        by_name: dict[str, list[float]] = {}
        for ev in counters:
            for value in ev["args"].values():
                by_name.setdefault(ev["name"], []).append(value)
        for series in by_name.values():
            assert series == sorted(series)
