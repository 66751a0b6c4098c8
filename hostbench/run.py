#!/usr/bin/env python3
"""Host-time benchmark of the swCaffe simulator.

Usage (from the repository root)::

    python3 hostbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Runs one closed-loop workload (``analyze``, ``recover`` or ``observe``;
see NOTES.md) in a worker process of its own and prints its
end-to-end host metrics, each with its unit, the op count and the result of
the output check. With ``--trace 1`` it prints the per-layer metrics of a
traced run instead. The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Set-up is measured ``SETUP_SAMPLES`` times, each in a fresh process (the
last one goes on to the timed phase), and ``setup_s`` is their median.
A traced run starts two workers on the same ops, each over half of
``--seconds``: one untraced, then one traced; ``bench.trace_overhead`` is
the traced worker's op rate over the untraced one's.
Every process runs under the settings of ``pinned.py`` (one BLAS thread,
a fixed OpenBLAS kernel, a fixed hash seed), set before NumPy loads.

Every time it reports is scaled to the quiet reference host: a worker
times a fixed mix of host work (``speed.SpeedCheck``) right after
set-up and before each timed op, and a run's times are divided by its
host slowdown, the median check over ``speed.REF_S``. The
unscaled values and the slowdown are printed too; NOTES.md says why.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from pinned import BLAS_THREADS, ENV  # noqa: E402

os.environ.update(ENV)  # before NumPy loads, here and in every worker

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

from probes import LAYER_METRICS, TRACE_OVERHEAD, declared_units  # noqa: E402
from speed import REF_S as SPEED_CHECK_REF_S  # noqa: E402
from stats import tail  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
#: Workers still running this long after the start (a fixed margin plus a
#: multiple of --seconds; 170 s at --seconds 20) are killed and the run fails.
TIMEOUT_BASE_S = 110.0
TIMEOUT_PER_S = 3.0
#: Scratch space inside the checkout, removed when the run ends.
TMP_PARENT = os.path.join(ROOT, ".hostbench_tmp")

E2E_UNITS = declared_units("end_to_end")


class WorkerError(RuntimeError):
    """A worker process failed, timed out or broke the protocol."""


def _worker(args: list[str], env: dict, deadline: float) -> tuple[float, float, dict | None]:
    """Run one worker; returns (seconds from spawn to ready, the speed
    check timed right after, result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    ready_s = speed_s = None
    result = None
    try:
        for line in proc.stdout:
            msg = json.loads(line)
            if "ready" in msg:
                ready_s = time.perf_counter() - t0
            elif "speed_check_s" in msg:
                speed_s = msg["speed_check_s"]
            elif "result" in msg:
                result = msg["result"]
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready_s is None or speed_s is None or (
        result is None and "--setup-only" not in args
    ):
        raise WorkerError(f"worker {' '.join(args)} exited with code {code}")
    return ready_s, speed_s, result


def calibrate() -> dict[str, float]:
    """Best-of-5 seconds of a fixed NumPy GEMM and a pure-Python loop."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((256, 256))
    gemm = loop = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        a @ a
        gemm = min(gemm, time.perf_counter() - t0)
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        loop = min(loop, time.perf_counter() - t0)
    return {"gemm_256_s": gemm, "py_loop_100k_s": loop}


def provenance(seed: int) -> dict:
    """Where and on what the numbers were measured."""
    import numpy as np

    sha = "unavailable (not a git checkout)"
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            sha = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "blas_core": ENV["OPENBLAS_CORETYPE"],
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def slowdown(speed_check_s: float, scaled: bool = True) -> float:
    """How much slower than the quiet reference host the host ran (1 if
    not ``scaled``)."""
    return speed_check_s / SPEED_CHECK_REF_S if scaled else 1.0


def _rate(result: dict, scaled: bool = True) -> float:
    return len(result["walls"]) * slowdown(result["speed_check_s"], scaled) / sum(result["walls"])


def end_to_end(setups: list[tuple[float, float]], result: dict, scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics; with ``scaled``, every time is divided by
    the host's slowdown over the same stretch (see NOTES.md)."""
    k = slowdown(result["speed_check_s"], scaled)
    walls = [w / k for w in result["walls"]]
    return {
        "setup_s": statistics.median(s / slowdown(c, scaled) for s, c in setups),
        "ops_per_s": _rate(result, scaled),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail(walls)[0],
        "cpu_s_per_op": result["cpu_s"] / k / len(walls),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    # On SIGTERM, unwind through the finally blocks that stop the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIMEOUT_BASE_S + TIMEOUT_PER_S * ns.seconds
    os.makedirs(TMP_PARENT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_PARENT)
    env = dict(os.environ)
    env.update(PYTHONPATH=SRC, TMPDIR=tmp)
    args = ["--workload", ns.workload, "--seed", str(ns.seed), "--tmp", tmp]
    try:
        calib_start = calibrate()
        setups = []
        if ns.trace:
            half = ["--seconds", str(ns.seconds / 2)]
            *_, untraced = _worker([*args, *half, "--trace", "0"], env, deadline)
            *_, result = _worker([*args, *half, "--trace", "1"], env, deadline)
        else:
            args += ["--seconds", str(ns.seconds), "--trace", "0"]
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_worker([*args, "--setup-only"], env, deadline)[:2])
            *setup, result = _worker(args, env, deadline)
            setups.append(tuple(setup))
        calib_end = calibrate()
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass  # another run still uses it

    walls = result["walls"]
    attempted, failed = result["attempted"], result["failed"]
    problems = result["problems"]
    if ns.trace:
        attempted += untraced["attempted"]
        failed += untraced["failed"]
        problems = untraced["problems"] + problems
    print(f"workload {ns.workload}, seed {ns.seed}, {ns.seconds:g} s, trace {ns.trace}")
    print("provenance: " + json.dumps(provenance(ns.seed), sort_keys=True))
    print("calibration: " + json.dumps({"start": calib_start, "end": calib_end}))
    print(
        f"output check: {'ok' if failed == 0 else 'FAILED'} "
        f"({failed} of {attempted} ops failed, error_rate {failed / attempted:.4f})"
    )
    for problem in problems[:5]:
        print(f"  {problem}")
    if ns.trace:
        measured = {**result["layer_metrics"], TRACE_OVERHEAD: _rate(result) / _rate(untraced)}
        metrics = {k: measured[k] for k in LAYER_METRICS}
        units = LAYER_METRICS
        fmt = lambda ws: " ".join(f"{w:.4g}" for w in ws)  # noqa: E731
        print(f"traced ops: {len(walls)}; s/op traced {fmt(walls)}, untraced {fmt(untraced['walls'])}")
        for line in result["view"]:
            print(line)
    else:
        metrics = end_to_end(setups, result)
        units = E2E_UNITS
        _, pct, beyond = tail(walls)
        print(f"timed ops: {len(walls)}; set-up samples (s, speed check s): {setups}")
        print(f"op_tail_s is p{pct:g} of {len(walls)} ops ({beyond} ops beyond it)")
        print(
            f"host slowdown over the timed ops: {slowdown(result['speed_check_s']):.4f} "
            f"(speed check {result['speed_check_s']:.6f} s, quiet reference {SPEED_CHECK_REF_S} s)"
        )
        print("unscaled: " + json.dumps(end_to_end(setups, result, scaled=False)))
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
