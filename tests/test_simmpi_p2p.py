"""Point-to-point transport tests (:mod:`repro.simmpi.p2p`).

The transport follows the package's data/time split: payload delivery is
bitwise-exact and instantaneous (the simulator executes ranks in
dependency order), while the priced transfer windows ride the fabric cost
model. These tests pin both halves — mailbox semantics, clock accounting,
endpoint validation, and the what-if ``p2p`` scale hook.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CollectiveTimeout, CommunicatorError
from repro.simmpi import P2PTransport, p2p_shift
from repro.testing.registry import make_fuzz_comm
from repro.trace.scaling import CostScaling, scaling


@pytest.fixture()
def transport():
    return P2PTransport(make_fuzz_comm(4))


class TestBlocking:
    def test_send_recv_is_bit_exact(self, transport):
        rng = np.random.default_rng(11)
        payload = rng.normal(size=(3, 17)).astype(np.float32)
        transport.send(0, 1, payload, tag="act")
        got = transport.recv(0, 1, tag="act")
        assert got.dtype == payload.dtype
        assert np.array_equal(got, payload)

    def test_send_copies_the_payload(self, transport):
        payload = np.ones(8)
        transport.send(0, 1, payload)
        payload[:] = -1.0
        assert np.array_equal(transport.recv(0, 1), np.ones(8))

    def test_mailbox_is_fifo_per_tag(self, transport):
        transport.send(0, 1, np.full(4, 1.0), tag="a")
        transport.send(0, 1, np.full(4, 2.0), tag="a")
        transport.send(0, 1, np.full(4, 9.0), tag="b")
        assert transport.recv(0, 1, tag="a")[0] == 1.0
        assert transport.recv(0, 1, tag="b")[0] == 9.0
        assert transport.recv(0, 1, tag="a")[0] == 2.0

    def test_send_advances_clock_by_priced_transfer(self, transport):
        payload = np.zeros(1024)
        before = transport.comm.clock.now
        res = transport.send(0, 1, payload)
        assert res.time_s == transport.comm.pair_time(0, 1, payload.nbytes)
        assert transport.comm.clock.now == pytest.approx(before + res.time_s)

    def test_unmatched_recv_raises(self, transport):
        with pytest.raises(CommunicatorError, match="no matching send"):
            transport.recv(2, 3, tag="nope")
        transport.send(0, 1, np.zeros(2), tag="t")
        transport.recv(0, 1, tag="t")
        with pytest.raises(CommunicatorError):
            transport.recv(0, 1, tag="t")

    @pytest.mark.parametrize("src,dst", [(-1, 0), (0, 4), (2, 2)])
    def test_endpoint_validation(self, transport, src, dst):
        with pytest.raises(CommunicatorError):
            transport.send(src, dst, np.zeros(2))

    def test_dead_endpoint_times_out(self):
        comm = make_fuzz_comm(4)
        comm.failed_ranks = frozenset({2})
        transport = P2PTransport(comm)
        with pytest.raises(CollectiveTimeout):
            transport.send(0, 2, np.zeros(4))
        with pytest.raises(CollectiveTimeout):
            transport.send(2, 0, np.zeros(4))
        # Transfers avoiding the dead rank still go through.
        transport.send(0, 1, np.zeros(4))


class TestShift:
    @pytest.mark.parametrize("p", [2, 5, 8])
    def test_rotates_buffers_bitwise(self, p):
        rng = np.random.default_rng([0xB0B, p])
        bufs = [rng.normal(size=37) for _ in range(p)]
        expect = [bufs[(r - 1) % p].copy() for r in range(p)]
        p2p_shift(make_fuzz_comm(p), bufs)
        for r in range(p):
            assert np.array_equal(bufs[r], expect[r])

    def test_singleton_is_a_no_op(self):
        bufs = [np.arange(5.0)]
        result = p2p_shift(make_fuzz_comm(1), bufs)
        assert result.time_s == 0.0
        assert np.array_equal(bufs[0], np.arange(5.0))


class TestScaling:
    def test_p2p_factor_scales_priced_time_not_data(self):
        payload = np.ones(2048)
        base = P2PTransport(make_fuzz_comm(4))
        t0 = base.send(0, 1, payload).time_s
        scaled = P2PTransport(make_fuzz_comm(4))
        with scaling(CostScaling({"p2p": 3.0})):
            res = scaled.send(0, 1, payload)
        assert res.time_s == pytest.approx(3.0 * t0)
        assert np.array_equal(scaled.recv(0, 1), payload)
