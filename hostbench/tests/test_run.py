"""The benchmark command end to end: the result line and failure modes."""

import json
import os
import shutil
import subprocess
import sys

HOSTBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HOSTBENCH)
RUN = os.path.join(HOSTBENCH, "run.py")


def _result(trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "recover", "--seed", "5",
         "--seconds", "0.01", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    assert not os.path.exists(os.path.join(ROOT, ".hostbench_tmp"))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    return result["metrics"]


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[section]


def test_run_prints_every_end_to_end_metric_as_the_last_line():
    metrics = _result(0)
    assert list(metrics) == [m["name"] for m in _declared("end_to_end")]
    for metric in _declared("end_to_end"):
        got = metrics[metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


def test_traced_run_prints_every_per_layer_metric():
    metrics = _result(1)
    assert list(metrics) == [m["name"] for m in _declared("per_layer")]
    for metric in _declared("per_layer"):
        assert metrics[metric["name"]]["unit"] == metric["unit"]
    assert metrics["frame.snapshot.saves"]["value"] > 0
    assert metrics["bench.trace_overhead"]["value"] > 0


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HOSTBENCH, tmp_path / "hostbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "analyze", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_scaled_metrics_divide_every_time_by_the_host_slowdown():
    from run import end_to_end
    from speed import REF_S as SPEED_CHECK_REF_S

    result = {"walls": [2.0, 4.0, 6.0], "cpu_s": 9.0, "peak_rss_mb": 5.0,
              "speed_check_s": 2 * SPEED_CHECK_REF_S}
    setups = [(4.0, 2 * SPEED_CHECK_REF_S), (9.0, 3 * SPEED_CHECK_REF_S), (8.0, SPEED_CHECK_REF_S)]
    raw = end_to_end(setups, result, scaled=False)
    assert raw == {"setup_s": 8.0, "ops_per_s": 0.25, "op_p50_s": 4.0,
                   "op_tail_s": 6.0, "cpu_s_per_op": 3.0, "peak_rss_mb": 5.0}
    scaled = end_to_end(setups, result)
    assert scaled == {"setup_s": 3.0, "ops_per_s": 0.5, "op_p50_s": 2.0,
                      "op_tail_s": 3.0, "cpu_s_per_op": 1.5, "peak_rss_mb": 5.0}


def test_speed_check_times_its_kernels():
    from speed import SpeedCheck

    check = SpeedCheck()
    assert 0 < check() < 2.0
