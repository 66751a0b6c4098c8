"""One workload process: set up, warm up, run the timed phase, report.

Started by ``run.py`` with the BLAS thread cap and ``PYTHONPATH`` already
in its environment. Talks to its parent over stdout in JSON lines: one
``{"ready": ...}`` when set-up (imports, builds and the warm-up op) is
done, one ``{"speed_check_s": ...}`` timed right after it, then one
``{"result": ...}``. Progress and errors go to stderr.

With ``--trace 1`` every probe of :mod:`probes` records, from set-up on,
and the result carries the per-layer metrics of the timed ops.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from probes import Phase, Recorder, install, layer_metrics  # noqa: E402
from speed import SpeedCheck  # noqa: E402
from stats import TAIL_BEYOND  # noqa: E402
from workloads import WORKLOADS, networks  # noqa: E402


# The protocol owns the real stdout; anything else printed goes to stderr.
_PROTOCOL = sys.stdout
sys.stdout = sys.stderr


def _send(**msg) -> None:
    _PROTOCOL.write(json.dumps(msg) + "\n")
    _PROTOCOL.flush()


class Runner:
    """Runs ops of one workload, timing each and checking its output."""

    def __init__(self, wl, rec: Recorder) -> None:
        self.wl = wl
        self.rec = rec
        self.index = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, spec, *, traced: bool) -> tuple[float, float]:
        """One op: returns (wall seconds, CPU seconds); checks run untimed."""
        rec = self.rec
        index = self.index
        self.index += 1
        self.attempted += 1
        out = None
        error = None
        if traced:
            rec.start_op(index)
            rec.enabled = True
            span = rec.begin("bench.op")
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = self.wl.run(spec)
        except Exception:  # an op that raises is a failed op, not a crash
            error = traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        c1 = time.process_time()
        if traced:
            rec.finish(span)
            rec.enabled = False
            rec.end_op()
        found = [f"op {index} {spec!r} raised: {error}"] if error else self.wl.check(index, spec, out)
        self.wl.cleanup(spec, out)
        if found:
            self.failed += 1
            self.problems.extend(found)
        return t1 - t0, c1 - c0

    def phase(self, seconds: float, *, traced: bool) -> dict:
        """The timed ops of one run.

        A workload with a ``DECK_S`` runs the whole decks that fill
        ``seconds`` at its nominal pace: its decks differ in mix, so every
        run and every commit times the same ones. Any other workload runs
        one deck, then ops until ``seconds`` have passed: its ops cost
        alike, and the run stays near ``seconds`` however slow the host.
        It stops at ``2 * TAIL_BEYOND`` ops, below the count at which
        ``op_tail_s`` would switch to another order statistic.
        """
        speed_check = SpeedCheck()
        walls: list[float] = []
        checks: list[float] = []
        cpu = 0.0
        first = self.index
        least, most = self.wl.deck, 2 * TAIL_BEYOND
        if self.wl.DECK_S is not None:
            least = most = self.wl.deck * max(1, round(seconds / self.wl.DECK_S))
        start = time.perf_counter()
        for k, spec in enumerate(itertools.chain.from_iterable(self.wl.decks())):
            if k >= most or (k >= least and time.perf_counter() - start >= seconds):
                break
            checks.append(speed_check())
            wall, c = self.op(spec, traced=traced)
            walls.append(wall)
            cpu += c
        return {
            "walls": walls,
            "cpu_s": cpu,
            "speed_check_s": statistics.median(checks),
            "ops": set(range(first, self.index)),
        }


def _layer_view(phase: Phase, n_ops: int, sim: dict | None) -> list[str]:
    """Host fwd/bwd/pricing seconds per layer type beside simulated ones."""
    fwd = phase.by_tag("frame.layer.fwd")
    bwd = phase.by_tag("frame.layer.bwd")
    # Pricing spans are tagged "<layer type>/<fwd|bwd>".
    price: dict[str, float] = {}
    priced_sim: dict[str, list[float]] = {}
    for tag, s in phase.by_tag("frame.price").items():
        t = tag.rsplit("/", 1)[0]
        price[t] = price.get(t, 0.0) + s
    for tag, v in phase.by_tag("frame.price", sim=True).items():
        t, d = tag.rsplit("/", 1)
        priced_sim.setdefault(t, [0.0, 0.0])[d == "bwd"] += v / n_ops
    if sim is None:
        sim = {t: tuple(v) for t, v in priced_sim.items()}
        sim_note = "sim = SW26010 s/op the op priced"
    else:
        sim_note = "sim = SW26010 s of one iteration on one rank"
    types = sorted(set(fwd) | set(bwd) | set(price) | set(sim))
    if not types:
        return []
    lines = [
        "per network layer type (host s/op; " + sim_note + "):",
        f"  {'layer type':<16} {'host fwd':>10} {'host bwd':>10} {'host price':>10}"
        f" {'sim fwd':>12} {'sim bwd':>12}",
    ]
    for t in types:
        sf, sb = sim.get(t, (0.0, 0.0))
        lines.append(
            f"  {t:<16} {fwd.get(t, 0.0) / n_ops:>10.5f} {bwd.get(t, 0.0) / n_ops:>10.5f}"
            f" {price.get(t, 0.0) / n_ops:>10.5f} {sf:>12.6g} {sb:>12.6g}"
        )
    return lines


def _split_view(title: str, phase: Phase, n_ops: int, top: int = 12) -> list[str]:
    """Self seconds per probed layer (``bench.op`` = benchmark's own code
    and unprobed ``repro`` code)."""
    split = phase.self_split()
    total = sum(split.values()) or 1.0
    rows = sorted(split.items(), key=lambda kv: -kv[1])[:top]
    lines = [f"{title} (self s/op, share):"]
    for name, s in rows:
        lines.append(f"  {name:<22} {s / n_ops:>10.4f}  {100 * s / total:5.1f}%")
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ns = ap.parse_args(argv)

    import numpy  # noqa: F401  (set-up includes the NumPy import)
    import repro.__main__  # noqa: F401

    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    rec = Recorder()
    patches = None
    if ns.trace:
        # Installed before set-up: the trainer binds its collective then.
        patches = install(rec, networks())
        rec.enabled = True
    wl = WORKLOADS[ns.workload](ns.seed, ns.tmp, expected)
    runner = Runner(wl, rec)
    wl.setup()
    runner.op(wl.warmup(), traced=False)
    rec.enabled = False
    _send(ready=True)
    speed_check = SpeedCheck()
    _send(speed_check_s=statistics.median(speed_check() for _ in range(5)))
    if ns.setup_only:
        return 0

    phase = runner.phase(ns.seconds, traced=bool(ns.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "walls": phase["walls"],
        "cpu_s": phase["cpu_s"],
        "speed_check_s": phase["speed_check_s"],
        "peak_rss_mb": peak_rss_mb,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:5],
    }
    if ns.trace:
        n = len(phase["walls"])
        ops = Phase(rec, phase["ops"])
        result["layer_metrics"] = layer_metrics(ops, n)
        view = _split_view("measured split of a traced op", ops, n)
        view += _split_view("measured split of set-up", Phase(rec, {"setup"}), 1)
        view += _layer_view(ops, n, wl.sim_by_type())
        result["view"] = view
        patches.restore()
    _send(result=result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
