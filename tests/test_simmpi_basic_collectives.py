"""Tests for the basic MPI collectives (broadcast/reduce/scatter/gather/
allgather/reduce-scatter) and their composition into allreduce."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CommunicatorError
from repro.simmpi import SimComm, block_placement, rhd_allreduce
from repro.simmpi.collectives.basic import (
    allgather,
    broadcast,
    gather,
    reduce,
    reduce_scatter,
    scatter,
)
from repro.simmpi.collectives.reduce_ops import block_offsets
from repro.topology import LinearCostModel, TaihuLightFabric
from repro.trace.tracer import Tracer, tracing

MODEL = LinearCostModel(alpha=1e-6, beta1=1e-10, beta2=4e-10, gamma=3e-11)


def make_comm(p, q=4):
    fab = TaihuLightFabric(n_nodes=max(p, q), nodes_per_supernode=q)
    return SimComm(fab, block_placement(p, 1), cost=MODEL)


def bufs(p, n, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=n) for _ in range(p)]


class TestBroadcast:
    @settings(max_examples=15, deadline=None)
    @given(p=st.integers(min_value=1, max_value=13), root=st.integers(min_value=0, max_value=12))
    def test_everyone_gets_root_data(self, p, root):
        root = root % p
        data = bufs(p, 17, seed=p)
        expected = data[root].copy()
        broadcast(make_comm(p), data, root=root)
        for b in data:
            np.testing.assert_array_equal(b, expected)

    def test_log_depth(self):
        comm = make_comm(16)
        res = broadcast(comm, bufs(16, 8), root=0)
        assert res.alpha_count == 4

    def test_bad_root(self):
        with pytest.raises(CommunicatorError):
            broadcast(make_comm(4), bufs(4, 4), root=4)


class TestReduce:
    @settings(max_examples=15, deadline=None)
    @given(p=st.integers(min_value=1, max_value=11), root=st.integers(min_value=0, max_value=10))
    def test_root_holds_sum(self, p, root):
        root = root % p
        data = bufs(p, 9, seed=p + 50)
        expected = np.sum(data, axis=0)
        others_before = [d.copy() for d in data]
        reduce(make_comm(p), data, root=root)
        np.testing.assert_allclose(data[root], expected, rtol=1e-12)
        for r, (now, before) in enumerate(zip(data, others_before)):
            if r != root:
                np.testing.assert_array_equal(now, before)

    def test_average(self):
        p = 6
        data = bufs(p, 5, seed=3)
        expected = np.mean(data, axis=0)
        reduce(make_comm(p), data, root=2, average=True)
        np.testing.assert_allclose(data[2], expected, rtol=1e-12)


class TestScatterGather:
    def test_scatter_round_trips_with_gather(self):
        p, n = 4, 23  # uneven chunks
        comm = make_comm(p)
        rng = np.random.default_rng(1)
        sendbuf = rng.normal(size=n)
        off = block_offsets(n, p)
        recv = [np.zeros(off[i + 1] - off[i]) for i in range(p)]
        scatter(comm, sendbuf, recv, root=0)
        for i in range(p):
            np.testing.assert_array_equal(recv[i], sendbuf[off[i] : off[i + 1]])
        out = np.zeros(n)
        gather(comm, recv, out, root=0)
        np.testing.assert_array_equal(out, sendbuf)

    def test_scatter_size_mismatch(self):
        comm = make_comm(2)
        with pytest.raises(CommunicatorError):
            scatter(comm, np.zeros(10), [np.zeros(3), np.zeros(3)])

    def test_gather_size_mismatch(self):
        comm = make_comm(2)
        with pytest.raises(CommunicatorError):
            gather(comm, [np.zeros(3), np.zeros(3)], np.zeros(5))

    def test_gather_mixed_dtypes_rejected(self):
        """Every pair is priced at one itemsize, so senders share a dtype."""
        send = [np.zeros(3), np.zeros(3, dtype=np.float32)]
        with pytest.raises(CommunicatorError, match="same dtype"):
            gather(make_comm(2), send, np.zeros(6))


class TestStridedOutputs:
    """Output buffers that no flat view covers still receive the result."""

    @staticmethod
    def strided(k):
        return np.zeros((4, 2 * k))[::2, :k]  # 2 x k, rows 4k floats apart

    def test_scatter_and_gather(self):
        recv = [self.strided(2) for _ in range(2)]
        scatter(make_comm(2), np.arange(8.0), recv)
        np.testing.assert_array_equal(np.concatenate([r.ravel() for r in recv]), np.arange(8.0))
        out = self.strided(4)
        gather(make_comm(2), [np.arange(4.0), np.arange(4.0, 8.0)], out)
        np.testing.assert_array_equal(out.ravel(), np.arange(8.0))

    def test_allgather_and_reduce_scatter(self):
        buffers = [self.strided(2) for _ in range(2)]
        allgather(make_comm(2), buffers, [np.arange(2.0), np.arange(2.0, 4.0)])
        for b in buffers:
            np.testing.assert_array_equal(b.ravel(), np.arange(4.0))
        outputs = [self.strided(2) for _ in range(2)]
        reduce_scatter(make_comm(2), [np.arange(8.0), np.ones(8)], outputs)
        np.testing.assert_array_equal(outputs[1].ravel(), np.arange(4.0, 8.0) + 1)


class TestAllgather:
    @pytest.mark.parametrize("p", [2, 4, 8, 3, 6])  # powers of two + ring fallback
    def test_concatenation_everywhere(self, p):
        size = 7
        rng = np.random.default_rng(p)
        chunks = [rng.normal(size=size) for _ in range(p)]
        expected = np.concatenate(chunks)
        buffers = [np.zeros(size * p) for _ in range(p)]
        allgather(make_comm(p), buffers, chunks)
        for b in buffers:
            np.testing.assert_allclose(b, expected, rtol=1e-12)

    def test_unequal_chunks_rejected(self):
        comm = make_comm(2)
        with pytest.raises(CommunicatorError):
            allgather(comm, [np.zeros(5), np.zeros(5)], [np.zeros(2), np.zeros(3)])


class TestReduceScatter:
    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_each_rank_gets_its_reduced_block(self, p):
        n = p * 6 + 3  # uneven blocks
        data = bufs(p, n, seed=p + 9)
        expected = np.sum(data, axis=0)
        off = block_offsets(n, p)
        outputs = [np.zeros(off[r + 1] - off[r]) for r in range(p)]
        reduce_scatter(make_comm(p), data, outputs)
        for r in range(p):
            np.testing.assert_allclose(outputs[r], expected[off[r] : off[r + 1]], rtol=1e-12)

    def test_non_power_of_two_rejected(self):
        p = 3
        with pytest.raises(CommunicatorError):
            reduce_scatter(make_comm(p), bufs(p, 6), [np.zeros(2)] * 3)


def _composition_case(dtype):
    """Run RHD fused and as reduce_scatter + allgather on the same inputs."""
    p, n = 8, 64
    data = [b.astype(dtype) for b in bufs(p, n, seed=42)]
    fused = [d.copy() for d in data]
    res_fused = rhd_allreduce(make_comm(p), fused)

    comm_comp = make_comm(p)
    off = block_offsets(n, p)
    outputs = [np.zeros(off[r + 1] - off[r], dtype=dtype) for r in range(p)]
    rs = reduce_scatter(comm_comp, data, outputs)
    buffers = [np.zeros(n, dtype=dtype) for _ in range(p)]
    ag = allgather(comm_comp, buffers, outputs)
    return fused, res_fused, buffers, rs, ag


class TestComposition:
    def test_reduce_scatter_plus_allgather_equals_allreduce(self):
        """Rabenseifner's identity, executed: the fused rhd_allreduce must
        match the composition of its two phases — in result AND in cost."""
        fused, res_fused, buffers, rs, ag = _composition_case(np.float64)
        for fb, cb in zip(fused, buffers):
            np.testing.assert_allclose(fb, cb, rtol=1e-12)
        assert res_fused.time_s == pytest.approx(rs.time_s + ag.time_s, rel=1e-9)

    def test_reduce_scatter_plus_allgather_equals_allreduce_float32(self):
        """The same identity on float32 inputs: both phases must price the
        payload at 4 bytes per element, as the fused allreduce does."""
        fused, res_fused, buffers, rs, ag = _composition_case(np.float32)
        for fb, cb in zip(fused, buffers):
            assert cb.dtype == np.float32
            np.testing.assert_array_equal(fb, cb)
        assert res_fused.time_s == pytest.approx(rs.time_s + ag.time_s, rel=1e-9)
        assert res_fused.bytes_intra == rs.bytes_intra + ag.bytes_intra
        assert res_fused.bytes_cross == rs.bytes_cross + ag.bytes_cross


class TestIntegerRoundTrip:
    """Copy-only collectives are exact in any dtype: int64 values past
    2**53 (where float64 stops representing every integer) survive."""

    @staticmethod
    def big_ints(n, seed):
        rng = np.random.default_rng(seed)
        return 2**53 + 1 + 2 * rng.integers(0, 2**60, size=n, dtype=np.int64)

    @pytest.mark.parametrize("p", [4, 6])
    def test_broadcast(self, p):
        data = [self.big_ints(9, seed=r) for r in range(p)]
        expected = data[1].copy()
        broadcast(make_comm(p), data, root=1)
        for b in data:
            assert b.dtype == np.int64
            np.testing.assert_array_equal(b, expected)

    @pytest.mark.parametrize("p", [4, 6])
    def test_scatter_then_gather(self, p):
        n = 4 * p + 3
        sendbuf = self.big_ints(n, seed=p)
        off = block_offsets(n, p)
        recv = [np.zeros(off[r + 1] - off[r], dtype=np.int64) for r in range(p)]
        scatter(make_comm(p), sendbuf, recv, root=p - 1)
        for r in range(p):
            np.testing.assert_array_equal(recv[r], sendbuf[off[r] : off[r + 1]])
        out = np.zeros(n, dtype=np.int64)
        gather(make_comm(p), recv, out, root=2)
        np.testing.assert_array_equal(out, sendbuf)

    @pytest.mark.parametrize("p", [4, 6])
    def test_allgather(self, p):
        chunks = [self.big_ints(5, seed=10 + r) for r in range(p)]
        expected = np.concatenate(chunks)
        buffers = [np.zeros(5 * p, dtype=np.int64) for _ in range(p)]
        allgather(make_comm(p), buffers, chunks)
        for b in buffers:
            np.testing.assert_array_equal(b, expected)


# --------------------------------------------------------------------------- #
# float64 results pinned to the digests recorded before the basic
# collectives became step lists
# --------------------------------------------------------------------------- #
PIN_RANKS = (1, 2, 3, 5, 8, 13, 16)


def _pin_comms(p):
    """A linear-model comm with 2-node supernodes and a fabric-curve comm."""
    linear = SimComm(
        TaihuLightFabric(n_nodes=max(p, 2), nodes_per_supernode=2),
        block_placement(p, 1),
        cost=MODEL,
    )
    curve = SimComm(
        TaihuLightFabric(n_nodes=max(p, 4), nodes_per_supernode=4), block_placement(p, 1)
    )
    return linear, curve


def _pin_runs(name, p, n):
    """Yield ``(label, run)``: ``run(comm)`` returns (result, output buffers)."""
    rng = np.random.default_rng([p, n, len(name)])
    data = [rng.normal(size=n) for _ in range(p)]
    off = block_offsets(n, p)
    if name == "allgather":
        def run(comm):
            out = [np.zeros(n * p) for _ in range(p)]
            return allgather(comm, out, [d.copy() for d in data]), out

        yield "all", run
        return
    for root in range(p):
        if name == "broadcast":
            def run(comm, root=root):
                out = [d.copy() for d in data]
                return broadcast(comm, out, root=root), out

            yield f"root{root}", run
        elif name == "reduce":
            for average in (False, True):
                def run(comm, root=root, average=average):
                    out = [d.copy() for d in data]
                    return reduce(comm, out, root=root, average=average), out

                yield f"root{root}/avg{average}", run
        elif name == "scatter":
            def run(comm, root=root):
                out = [np.zeros(off[r + 1] - off[r]) for r in range(p)]
                return scatter(comm, data[root].copy(), out, root=root), out

            yield f"root{root}", run
        elif name == "gather":
            def run(comm, root=root):
                out = np.zeros(n)
                send = [data[r][: off[r + 1] - off[r]].copy() for r in range(p)]
                return gather(comm, send, out, root=root), [out]

            yield f"root{root}", run


def pin_digest(name, p):
    """SHA-256 over every result field, clock, trace span and output byte."""
    h = hashlib.sha256()
    for n in (5, 37):
        for label, run in _pin_runs(name, p, n):
            for comm in _pin_comms(p):
                tracer = Tracer()
                with tracing(tracer):
                    result, outputs = run(comm)
                h.update(f"{name}/{p}/{n}/{label}".encode())
                h.update(repr(dataclasses.astuple(result)).encode())
                h.update(repr(comm.clock.now).encode())
                for s in tracer.spans:
                    h.update(repr((s.name, s.cat, s.track, s.start_s, s.dur_s,
                                   sorted((s.args or {}).items()))).encode())
                for out in outputs:
                    h.update(f"{out.dtype}{out.shape}".encode())
                    h.update(out.tobytes())
    return h.hexdigest()


PARENT_DIGESTS = {
    ('broadcast', 1): "1c9a1caf667db2625d2d7e6c7053ed4c67d669f1f6fbef502c5376f552aefae9",
    ('broadcast', 2): "e2adac3c77e50eaea07244c676d5f2d42b908c4b8c8c65c70ef636edc22852a6",
    ('broadcast', 3): "7ee1d87aa6e443c6a67cc5b56978f9822ee6725bc6c14f868eb7f610b146022c",
    ('broadcast', 5): "b55647920c31d13a670ce12de1797b1d5d9d8890e70a4e26dc9a360a1d63218f",
    ('broadcast', 8): "0030202e11a5176d9014cb31e5e19c4f4a45451a9a8aa316c9e90b9c40013981",
    ('broadcast', 13): "9d4017b20613a7899fea26996206ff535c5f4e31b92f713f20e175284c54c10a",
    ('broadcast', 16): "496cd04d487b5ba8d0e6228696239cdd1a849b7d874d36dae1479c231c19e346",
    ('reduce', 1): "f7235dabb275e16c39a5e2a7ef59207b9620800a01712cf43b4e34a43f2dc3d8",
    ('reduce', 2): "6a887df90c880e68615d1e53c60751e711d16d872565ef71d79b04a27337c59c",
    ('reduce', 3): "c252830620bbac1e9c34a5481f1e68d286bff1c3a35d5a5dc6f5747ac4a54ef7",
    ('reduce', 5): "62095c595c369b98143f6361504fb4f60061453d2bec4bf5b60754eab3d31501",
    ('reduce', 8): "3b027b7e279ce6b7ed110ccdf77763abf5c37684395eab9fae1708db27569f6e",
    ('reduce', 13): "3d2a9950159afd8b9d2cb152eef38245366028dfabaa83d9a717e172aec25e07",
    ('reduce', 16): "fc7b436ab5e7b24b04743a1e7ceb26a3ba2fb6b2a35349629d13de9eb51f5686",
    ('scatter', 1): "b9883f1ddbc59ed9de482a18da9b987665f500a5f7a086fe9d088afd57d0b8e9",
    ('scatter', 2): "ec46c7bf0721f07d1c4e0de4db32b6e19f2def2ee019ab30e0f54ed6611318d7",
    ('scatter', 3): "012cebefa0c2db7551ede7f8ce89bb9ec53cc6e0735d353f9cb31142418b4e54",
    ('scatter', 5): "7f468b650cf9e3f0c99d1cbb15adf2e581a77f1d9231d84d09283d72c31376c5",
    ('scatter', 8): "6b476eb71c4bd7d1058c6e972a47738074f46db0b4bda3fd0721546fea0cc3e0",
    ('scatter', 13): "744f4e2f3b8e705bdca931119df4ae1d61b17bd3f2d872a40618277524160493",
    ('scatter', 16): "8fcfe5eed8271671fd6ed9dc07133d265b9cc6cae8877214321faa2a1f0badf8",
    ('gather', 1): "5b3360245e125a149184ceaa930fa39793ae1185c5add87eb9d48a75d0e407e5",
    ('gather', 2): "aad96909dbc00b906bd08512bb55dcad4ed3c1fc58c27c0e867a1e96e88e2e5b",
    ('gather', 3): "9ca99e646c57765b1314ee2f731cf30409e8bfaedecea58a482a703ececb7118",
    ('gather', 5): "b3eef7ba931d768fd602ae7ebe67c77042c18aacee40d6b7407689a7ebe06556",
    ('gather', 8): "9da061f9c75074713e092e479e77b8b6273a728e18d8a0feee1f6205ee620e81",
    ('gather', 13): "92a84816e50eb882bd0c3eca939fc2befa1091b081b45a431b41a046afec81d3",
    ('gather', 16): "b792399316f61efc1034a47962bc7174d5eed5f910175b01f7a47aad386bb7dc",
    ('allgather', 1): "1a0ef4b37a87d9b8fff5e1d2f9b2f8e81aae12771b688d7af4c5816a7ee80796",
    ('allgather', 2): "cf7ff4ded1bc06c9eac40c622e656a16566e9a29b48c34310f61ee2e6c6566d6",
    ('allgather', 3): "5e822baa74874fa081f8671232b879e305b01e686ab5e400959782c14aae99d7",
    ('allgather', 5): "6d6e8e061f164be5cbca6ad3bd6a1d9d94682a194b29eccb5abf852b26301d14",
    ('allgather', 8): "868c102c3b09e26ed1f884efcb48c60e9da686aa4b087f5624dc4cd914f606c6",
    ('allgather', 13): "72a7c7c4f582225fe0a2e01c3ddd0a274c1518846cb91681521e066c56ae02c1",
    ('allgather', 16): "8e3d3393244837951c8e60335f29196ea80b8aea607ec0f671a0ca1ab4fdafc7",
}


@pytest.mark.parametrize("name", ["broadcast", "reduce", "scatter", "gather", "allgather"])
@pytest.mark.parametrize("p", PIN_RANKS)
def test_float64_results_match_parent_digests(name, p):
    """Bit-identity pin: every CollectiveResult field, the clock, each
    trace span and every output buffer, all roots, both comms."""
    assert pin_digest(name, p) == PARENT_DIGESTS[name, p]
