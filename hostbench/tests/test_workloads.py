"""Smoke runs of every workload at a tiny size, and the output checks.

The tiny variants shrink nets and rank counts; the checks against
``expected.json`` use the real configurations at the default seed.
"""

import copy
import json
import math
import os

import pytest

from probes import LAYER_METRICS, TRACE_OVERHEAD, Phase, Recorder, install, layer_metrics
from worker import Runner
from workloads import DEFAULT_SEED, Analyze, Observe, Recover, networks

HOSTBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(HOSTBENCH, "expected.json"), encoding="utf-8") as fh:
    EXPECTED = json.load(fh)


class TinyAnalyze(Analyze):
    NETS = ("lenet", "googlenet")


class TinyObserve(Observe):
    NET = "lenet"
    BATCH = 8
    RANKS = 4


@pytest.mark.parametrize("cls", [TinyAnalyze, Recover, TinyObserve])
def test_tiny_workload_runs_a_deck_with_correct_outputs(cls, tmp_path):
    wl = cls(seed=3, tmpdir=str(tmp_path), expected=EXPECTED)
    runner = Runner(wl, Recorder())
    wl.setup()
    runner.op(wl.warmup(), traced=False)
    phase = runner.phase(0.0, traced=False)
    assert len(phase["walls"]) == wl.deck
    assert runner.failed == 0, runner.problems
    assert os.listdir(tmp_path) in ([], ["observe-trace.json"])


def test_phase_without_deck_time_runs_ops_until_the_seconds_pass(tmp_path):
    wl = TinyObserve(seed=3, tmpdir=str(tmp_path), expected=None)
    wl.setup()
    phase = Runner(wl, Recorder()).phase(1.0, traced=False)
    assert len(phase["walls"]) > wl.deck
    assert sum(phase["walls"]) < 1.0 + max(phase["walls"])


def test_phase_with_deck_time_runs_whole_decks(tmp_path):
    wl = TinyAnalyze(seed=3, tmpdir=str(tmp_path), expected=None)
    phase = Runner(wl, Recorder()).phase(1.6 * wl.DECK_S, traced=False)
    assert len(phase["walls"]) == 2 * wl.deck


@pytest.mark.parametrize("cls", [TinyAnalyze, Recover])
def test_traced_phase_fills_the_layers_it_exercises(cls, tmp_path):
    rec = Recorder()
    patches = install(rec, networks())
    try:
        wl = cls(seed=3, tmpdir=str(tmp_path), expected=None)
        runner = Runner(wl, rec)
        wl.setup()
        phase = runner.phase(0.0, traced=True)
    finally:
        patches.restore()
    n = len(phase["walls"])
    m = layer_metrics(Phase(rec, phase["ops"]), n)
    assert set(m) == set(LAYER_METRICS) - {TRACE_OVERHEAD}
    if cls is Recover:
        assert m["frame.conv.fwd_s"] > 0 and m["frame.conv.bwd_s"] > 0
        assert m["frame.update.calls"] > 0 and m["simmpi.allreduce.calls"] > 0
        assert m["frame.snapshot.saves"] > 0 and m["faults.injected"] > 0
        assert 0 < m["parallel.useful_iter_ratio"] <= 1
    else:
        assert m["frame.build.calls"] == 1 and m["frame.price.calls"] > 0
        assert m["frame.forward.s"] == 0


def _perturb(record):
    """Copy of an expected record with its first float moved by one ulp."""
    bad = copy.deepcopy(record)
    for key in sorted(bad):
        value = bad[key]
        if isinstance(value, list) and value and isinstance(value[0], float):
            value[0] = math.nextafter(value[0], math.inf)
            return bad
        if isinstance(value, float):
            bad[key] = math.nextafter(value, math.inf)
            return bad
    raise AssertionError(f"no number to perturb in {record}")


def _first_op(cls, tmp_path):
    wl = cls(seed=DEFAULT_SEED, tmpdir=str(tmp_path), expected=EXPECTED)
    wl.setup()
    spec = ("lenet", 8, "profile") if cls is Analyze else wl.warmup()
    return wl, spec, wl.run(spec)


@pytest.mark.parametrize("cls", [Analyze, Recover, Observe])
def test_default_seed_matches_expected_and_a_perturbed_value_fails(cls, tmp_path):
    wl, spec, out = _first_op(cls, tmp_path)
    key = wl.key(0, spec)
    assert key in EXPECTED
    assert wl.check(0, spec, out) == []
    wl.expected = {**EXPECTED, key: _perturb(EXPECTED[key])}
    assert wl.check(0, spec, out) != []
    wl.cleanup(spec, out)


def test_perturbed_expected_value_raises_the_error_rate(tmp_path):
    spec = ("lenet", 32, "scale")
    key = f"analyze/{spec[0]}/{spec[1]}/{spec[2]}"
    bad = {**EXPECTED, key: _perturb(EXPECTED[key])}
    for expected, failed in ((EXPECTED, 0), (bad, 1)):
        runner = Runner(Analyze(DEFAULT_SEED, str(tmp_path), expected), Recorder())
        runner.op(spec, traced=False)
        assert (runner.attempted, runner.failed) == (1, failed)
