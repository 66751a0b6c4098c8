"""Span bookkeeping: outermost-of-name time, self time and per-op metrics."""

import time

from probes import LAYER_METRICS, TRACE_OVERHEAD, Phase, Recorder, layer_metrics


def _span(rec, name, start, end, tag=None):
    idx = rec.begin(name, tag)
    rec.start[idx] = start
    return idx, end


def _close(rec, opened):
    idx, end = opened
    rec.finish(idx)
    rec.end[idx] = end


def test_recursive_calls_count_once_and_self_time_excludes_children():
    rec = Recorder()
    rec.start_op(0)
    outer = _span(rec, "frame.price", 0.0, 10.0, "Concat/bwd")
    inner = _span(rec, "frame.price", 1.0, 4.0, "Concat/fwd")
    _close(rec, inner)
    tune = _span(rec, "kernels.autotune", 5.0, 6.0)
    _close(rec, tune)
    _close(rec, outer)
    rec.end_op()
    phase = Phase(rec, {0})
    assert len(phase.spans("frame.price")) == 1
    assert phase.incl("frame.price") == 10.0
    assert phase.self_split() == {"frame.price": 6.0 + 3.0, "kernels.autotune": 1.0}


def test_phase_selects_ops_and_metrics_are_per_op():
    rec = Recorder()
    for op in (0, 1, 2):
        rec.start_op(op)
        _close(rec, _span(rec, "frame.update", 0.0, 2.0))
        rec.end_op()
    m = layer_metrics(Phase(rec, {1, 2}), 2)
    assert list(m) == [k for k in LAYER_METRICS if k != TRACE_OVERHEAD]
    assert m["frame.update.calls"] == 1.0 and m["frame.update.s"] == 2.0
    assert m["frame.build.calls"] == 0.0 and m["kernels.autotune.hit_ratio"] == 0.0


def test_disabled_recorder_records_nothing():
    from probes import _span as wrap

    rec = Recorder()
    f = wrap(rec, "x", lambda v: v + 1)
    assert f(1) == 2 and rec.name == []
    rec.enabled = True
    assert f(1) == 2 and rec.name == ["x"]
    assert rec.end[0] >= rec.start[0] and rec.end[0] <= time.perf_counter()
