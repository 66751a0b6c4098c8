#!/usr/bin/env python3
"""Regenerate ``expected.json``: the default seed's simulated outputs.

Usage (from the repository root; takes a few minutes)::

    python3 hostbench/make_expected.py

Runs each workload's ops with today's code and records what
:meth:`workloads.Workload.record` keeps. ``analyze`` outputs depend only on
the grid point, so every point of the grid is recorded and checked on every
seed; ``observe`` outputs depend on nothing the seed draws. ``recover``
records are per op of the default seed and cover every op of a run with
``--seconds`` up to 60; later ops get only the self-consistency checks. Only regenerate after a change that is meant to move simulated
outputs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from pinned import ENV  # noqa: E402

# Same settings as run.py gives its workers; they must hold from start-up.
if any(os.environ.get(k) != v for k, v in ENV.items()):
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **ENV})

sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import DEFAULT_SEED, Analyze, Observe, Recover  # noqa: E402

#: Op indices recorded for the per-op workloads (0 is the warm-up op).
RECOVER_OPS = 32


def generate(tmp: str) -> dict:
    expected: dict = {}

    def keep(wl, index, spec, out):
        problems = wl.problems(index, spec, out, wl.record(index, spec, out))
        if problems:
            raise SystemExit(f"{wl.name} op {index} fails its own checks: {problems}")
        expected[wl.key(index, spec)] = wl.record(index, spec, out)
        print(f"  {wl.key(index, spec)}", flush=True)

    wl = Analyze(DEFAULT_SEED, tmp, None)
    for net in wl.nets:
        for batch in wl.BATCHES:
            for kind in wl.KINDS:
                spec = (net, batch, kind)
                keep(wl, 0, spec, wl.run(spec))

    wl = Recover(DEFAULT_SEED, tmp, None)
    specs = [wl.warmup()]
    decks = wl.decks()
    while len(specs) < RECOVER_OPS:
        specs.extend(next(decks))
    for index, spec in enumerate(specs):
        report = wl.run(spec)
        keep(wl, index, spec, report)
        wl.cleanup(spec, report)

    wl = Observe(DEFAULT_SEED, tmp, None)
    wl.setup()
    keep(wl, 0, None, wl.run(None))
    return expected


def main() -> int:
    parent = os.path.join(os.path.dirname(HERE), ".hostbench_tmp")
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="expected-", dir=parent)
    try:
        expected = generate(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
