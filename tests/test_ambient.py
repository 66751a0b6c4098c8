"""The ambient instrument record (:mod:`repro.ambient`).

Pins the record's install discipline (restore on exit and on exceptions,
nesting that composes field by field), that every session entry point
leaves the record as it found it, that an instrument which is not
installed receives nothing, and that the record is the only module-level
mutable state the instrumentation keeps.
"""

from __future__ import annotations

import pathlib
import re

import numpy as np
import pytest

from repro import ambient, trace
from repro.faults import FaultInjector, FaultPlan, injecting
from repro.metrics import MetricsRegistry, collecting
from repro.trace.scaling import CostScaling, scaling
from repro.trace.tracer import Tracer, tracing

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


class TestInstalled:
    def test_off_by_default(self):
        assert ambient.current() == ambient.Ambient(
            tracer=None, metrics=None, faults=None, scaling=None
        )

    def test_restores_previous_record_after_exception(self):
        before = ambient.current()
        tr = Tracer()
        with pytest.raises(RuntimeError, match="boom"):
            with ambient.installed(tracer=tr) as amb:
                assert amb is ambient.current()
                assert amb.tracer is tr
                raise RuntimeError("boom")
        assert ambient.current() is before

    def test_nested_installs_compose(self):
        tr, mx = Tracer(), MetricsRegistry()
        fi = FaultInjector(FaultPlan.from_seed("chaos:0x5caffe:0", ranks=2))
        sc = CostScaling({"dma": 0.5})
        with tracing(tr), collecting(mx):
            with injecting(fi), scaling(sc):
                amb = ambient.current()
                assert (amb.tracer, amb.metrics, amb.faults, amb.scaling) == (tr, mx, fi, sc)
                inner = Tracer()
                with tracing(inner):
                    # Replacing one field keeps the other three.
                    amb = ambient.current()
                    assert (amb.tracer, amb.metrics, amb.faults, amb.scaling) == (
                        inner, mx, fi, sc,
                    )
                assert ambient.current().tracer is tr
            amb = ambient.current()
            assert (amb.tracer, amb.metrics, amb.faults, amb.scaling) == (tr, mx, None, None)
        assert ambient.current() == ambient.Ambient()

    def test_trace_suspended_turns_off_only_the_tracer(self):
        with tracing() as tr, collecting() as mx:
            with trace.suspended():
                amb = ambient.current()
                assert amb.tracer is None
                assert amb.metrics is mx
            assert ambient.current().tracer is tr

    def test_record_is_frozen(self):
        with pytest.raises(AttributeError):
            ambient.current().tracer = Tracer()  # type: ignore[misc]

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError):
            with ambient.installed(profiler=object()):
                pass
        assert ambient.current() == ambient.Ambient()


# --------------------------------------------------------------------------- #
# session entry points leave the record as they found it
# --------------------------------------------------------------------------- #
ENTRY_POINTS = {
    "trace": ["trace", "lenet", "--ranks", "2", "--batch", "4", "--out", "{tmp}/t.json"],
    "metrics": ["metrics", "lenet", "--ranks", "2", "--batch", "4", "--trace", "{tmp}/m.json"],
    "chaos": ["chaos", "lenet", "--ranks", "2", "--iters", "2", "--batch", "4",
              "--trace", "{tmp}/c.json"],
    "serve": ["serve", "lenet", "--requests", "20", "--trace", "{tmp}/s.json"],
    "whatif": ["whatif", "lenet", "--ranks", "2", "--batch", "4", "--scale", "dma=0.5",
               "--validate"],
    "pipeline": ["pipeline", "lenet", "--stages", "2", "--microbatches", "2", "--batch", "4"],
}


@pytest.mark.parametrize("command", sorted(ENTRY_POINTS))
def test_nothing_stays_installed_after_session(command, tmp_path, capsys):
    from repro.__main__ import main

    argv = [a.format(tmp=tmp_path) for a in ENTRY_POINTS[command]]
    assert main(argv) == 0
    capsys.readouterr()
    assert ambient.current() == ambient.Ambient()
    # ... and inside a caller's own install, that install comes back.
    outer = Tracer()
    with tracing(outer):
        assert main(argv) == 0
        capsys.readouterr()
        assert ambient.current() == ambient.Ambient(tracer=outer)


# --------------------------------------------------------------------------- #
# a disabled run records nothing
# --------------------------------------------------------------------------- #
def _workload() -> dict:
    """Exercise every hook family once; returns what the run simulated."""
    from repro.frame.model_zoo import lenet
    from repro.frame.solver import SGDSolver
    from repro.hw.clock import SimClock
    from repro.hw.dma import DMAEngine
    from repro.hw.rlc import RegisterComm
    from repro.simmpi import SimComm, block_placement, rhd_allreduce
    from repro.simmpi.p2p import P2PTransport
    from repro.topology import TaihuLightFabric

    clock = SimClock()
    dma = DMAEngine(clock=clock)
    buf = dma.get(np.arange(4096, dtype=np.float64))
    dma.put(buf, np.empty_like(buf))
    rlc = RegisterComm(clock=clock)
    rlc.charge_p2p(4096)
    rlc.charge_broadcast(4096)
    comm = SimComm(TaihuLightFabric(n_nodes=4, nodes_per_supernode=2), block_placement(4, 2))
    res = rhd_allreduce(comm, [np.ones(64) for _ in range(4)])
    p2p = P2PTransport(comm)
    p2p.send(0, 3, np.ones(64))
    stats = SGDSolver(lenet.build(batch_size=4), base_lr=0.01).step(1)
    return {
        "clock": clock.breakdown(),
        "comm": comm.clock.breakdown(),
        "allreduce_s": res.time_s,
        "sim_s": stats.simulated_time_s,
    }


def test_disabled_run_records_nothing():
    tr, mx = Tracer(), MetricsRegistry()
    plan = FaultPlan(seed="always", profile="chaos", ranks=4, iterations=1,
                     dma_rate=0.9, rlc_rate=0.9, comm_rate=0.9)
    fi = FaultInjector(plan)
    bare = _workload()
    # Built but never installed: nothing reaches the instruments, and no
    # fault category appears on any clock.
    assert len(tr) == 0 and not tr.edges
    assert len(mx) == 0
    assert not fi.injected and fi.retries == 0
    assert "fault" not in bare["clock"] and "fault" not in bare["comm"]
    # Installed, the same workload feeds all three ...
    with tracing(tr), collecting(mx), injecting(fi):
        faulted = _workload()
    assert len(tr) > 0 and len(mx) > 0 and fi.retries > 0
    assert faulted["clock"]["fault"] > 0
    # ... and tracing plus metrics alone never change simulated time.
    with tracing(), collecting():
        observed = _workload()
    assert observed == bare


# --------------------------------------------------------------------------- #
# ratchet: the record is the one piece of global instrumentation state
# --------------------------------------------------------------------------- #
def test_global_statement_only_in_ambient():
    pattern = re.compile(r"^\s*global\s", re.MULTILINE)
    users = sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if pattern.search(path.read_text(encoding="utf-8"))
    )
    assert users == ["repro/ambient.py"]
