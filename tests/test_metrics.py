"""Unit tests for the repro.metrics counter registry."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import ambient
from repro.metrics.registry import (
    Counter,
    Gauge,
    HighWaterMark,
    Histogram,
    MetricsRegistry,
    collecting,
)


class TestCounter:
    def test_accumulates(self):
        c = Counter()
        c.inc(3)
        c.inc(0.5)
        assert c.value == 3.5

    def test_monotonic_rejects_negative(self):
        c = Counter()
        with pytest.raises(ValueError, match=">= 0"):
            c.inc(-1)
        assert c.value == 0.0

    def test_rejects_nan(self):
        c = Counter()
        with pytest.raises(ValueError):
            c.inc(float("nan"))


class TestHighWaterMark:
    def test_keeps_maximum(self):
        hwm = HighWaterMark()
        for v in (3, 7, 2, 7, 1):
            hwm.update(v)
        assert hwm.value == 7
        assert hwm.count == 5


class TestHistogram:
    @pytest.mark.parametrize("q", [0, 1, 25, 50, 73.5, 95, 99, 100])
    @pytest.mark.parametrize("n", [1, 2, 5, 100, 997])
    def test_percentile_matches_numpy_linear(self, q, n):
        rng = np.random.default_rng(n)
        h = Histogram()
        samples = rng.normal(size=n)
        for s in samples:
            h.observe(s)
        assert h.percentile(q) == pytest.approx(
            float(np.percentile(samples, q, method="linear")), rel=1e-12, abs=1e-12
        )

    def test_percentile_validates(self):
        h = Histogram()
        with pytest.raises(ValueError):
            h.percentile(5)  # empty
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_summary_stats(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.count == 3 and h.sum == 6.0 and h.mean == 2.0
        assert h.min == 1.0 and h.max == 3.0


class TestRegistry:
    def test_counter_accumulates_per_label_set(self):
        mx = MetricsRegistry()
        mx.count("dma.bytes", 100, dir="get")
        mx.count("dma.bytes", 50, dir="get")
        mx.count("dma.bytes", 30, dir="put")
        assert mx.value("dma.bytes", dir="get") == 150
        assert mx.value("dma.bytes", dir="put") == 30
        assert mx.value("dma.bytes") == 180  # label superset sums all

    def test_kind_conflict_raises(self):
        mx = MetricsRegistry()
        mx.count("x", 1)
        with pytest.raises(TypeError, match="already registered"):
            mx.gauge("x", 2.0)

    def test_gauge_and_high_water(self):
        mx = MetricsRegistry()
        mx.gauge("level", 5.0)
        mx.gauge("level", 2.0)
        assert mx.value("level") == 2.0
        mx.high_water("hwm", 5.0)
        mx.high_water("hwm", 3.0)
        assert mx.value("hwm") == 5.0

    def test_labelled_context_merges(self):
        mx = MetricsRegistry()
        with mx.labelled(rank="0"):
            mx.count("comm.steps", 1)
            with mx.labelled(collective="rhd"):
                mx.count("comm.steps", 1)
        assert mx.get("comm.steps", rank="0") is not None
        assert mx.get("comm.steps", rank="0", collective="rhd") is not None
        assert mx.value("comm.steps", rank="0") == 2
        assert mx.value("comm.steps", collective="rhd") == 1

    def test_explicit_labels_win_over_context(self):
        mx = MetricsRegistry()
        with mx.labelled(dir="ambient"):
            mx.count("dma.bytes", 7, dir="get")
        assert mx.value("dma.bytes", dir="get") == 7
        assert mx.value("dma.bytes", dir="ambient") == 0

    def test_histogram_contributes_sample_sum_to_value(self):
        mx = MetricsRegistry()
        mx.observe("dma.achieved_frac", 0.25)
        mx.observe("dma.achieved_frac", 0.75)
        assert mx.value("dma.achieved_frac") == 1.0

    def test_snapshot_is_json_serializable(self):
        mx = MetricsRegistry()
        mx.count("dma.bytes", 10, dir="get")
        mx.observe("cpe.efficiency", 0.8)
        mx.high_water("ldm.high_water_bytes", 4096)
        snap = mx.snapshot()
        round_tripped = json.loads(json.dumps(snap))
        assert round_tripped["dma.bytes"][0]["value"] == 10
        assert round_tripped["cpe.efficiency"][0]["count"] == 1
        assert round_tripped["ldm.high_water_bytes"][0]["kind"] == "high_water"


class TestDisabledMode:
    def test_default_ambient_is_shared_null(self):
        assert ambient.current().metrics is None

    def test_null_registry_labelled_is_noop(self):
        # A collective's label applies only while a registry collects;
        # with collection off the collective runs, and prices, the same.
        from repro.simmpi import SimComm, block_placement, rhd_allreduce
        from repro.topology import TaihuLightFabric

        def run():
            comm = SimComm(TaihuLightFabric(n_nodes=4, nodes_per_supernode=2),
                           block_placement(4, 2))
            return rhd_allreduce(comm, [np.ones(8) for _ in range(4)])

        off = run()
        with collecting() as mx:
            on = run()
        assert off.time_s == on.time_s
        assert mx.value("comm.steps", collective="rhd") == on.steps > 0

    def test_collecting_installs_and_restores(self):
        assert ambient.current().metrics is None
        with collecting() as mx:
            assert ambient.current().metrics is mx
        assert ambient.current().metrics is None

    def test_suspended_disables_inside_collecting(self):
        with collecting() as mx:
            mx.count("a", 1)
            with ambient.installed(metrics=None):
                assert ambient.current().metrics is None
            assert ambient.current().metrics is mx

    def test_install_returns_previous(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with collecting(outer):
            with collecting(inner):
                assert ambient.current().metrics is inner
            assert ambient.current().metrics is outer
        assert ambient.current().metrics is None
