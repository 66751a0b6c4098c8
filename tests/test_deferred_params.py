"""Deferred parameter fills: shape-only builds, bitwise-eager weights.

Builders register weights as shape-known blobs plus pending fills
(:mod:`repro.frame.blob`). These tests pin that materialized weights are
byte-for-byte what eager builds drew, that a stray draw from a builder's
generator fails loudly, and that cost-only queries never allocate weights.
"""

import hashlib

import numpy as np
import pytest

from repro.errors import OutOfBandDrawError
from repro.frame.blob import Blob
from repro.frame.layers import LSTMLayer
from repro.frame.model_zoo import alexnet, googlenet, lenet, resnet_small, vgg
from repro.frame.model_zoo.common import NetBuilder
from repro.frame.solver import SGDSolver
from repro.utils.rng import seeded_rng

#: SHA-256 of every parameter's bytes, in ``net.params`` order, as the
#: eager builds (fills drawn inside ``reshape``) produced them.
EAGER_DIGESTS = {
    "lenet": (lenet.build, "7765962f5eaabfe3ba00d4faf77900c07460dea0efd37d70bb6474f892fa2944"),
    "alexnet": (alexnet.build, "1c1fa14b6acaa999a190f1175bc460c94fbbaedb82384d089007c15f6a4471df"),
    "resnet18": (
        resnet_small.build_resnet18,
        "b647e64002176ddcf1de04ba1507b4aa5154df057e30df8a32ba8ea791dd017f",
    ),
    "googlenet": (googlenet.build, "28760d88729909d9d76dd927dcf89906b571fecb7f6022b803273e2a15816490"),
}


def digest(params) -> str:
    h = hashlib.sha256()
    for p in params:
        h.update(p.data.tobytes())
    return h.hexdigest()


def drawn_weights(net):
    """The parameters a generator fills, in build order."""
    return [l.weight for l in net.layers if getattr(l, "weight", None) is not None]


def assert_shape_only(net):
    drawn = [p.name for p in net.params if p.has_data()]
    assert not drawn, f"{net.name}: parameters materialized: {drawn[:5]}"


@pytest.mark.parametrize("name", sorted(EAGER_DIGESTS))
def test_materialized_weights_match_eager_build(name):
    build, want = EAGER_DIGESTS[name]
    net = build(batch_size=2)
    assert_shape_only(net)
    assert digest(net.params) == want


@pytest.mark.parametrize("name", sorted(EAGER_DIGESTS))
def test_touching_last_weight_first_draws_in_build_order(name):
    build, want = EAGER_DIGESTS[name]
    net = build(batch_size=2)
    weights = drawn_weights(net)
    weights[-1].data  # the classifier weight, drawn last by an eager build
    assert all(w.has_data() for w in weights)
    assert digest(net.params) == want


def test_shape_queries_exact_without_drawing():
    net = alexnet.build(batch_size=2)
    fc6 = net.layer_by_name("fc6").weight
    assert fc6.shape == (4096, 9216)
    assert fc6.count == 4096 * 9216 and fc6.nbytes == 4 * 4096 * 9216
    assert net.param_bytes() == sum(p.data.nbytes for p in net.params)


def test_assigning_data_draws_pending_fills_first():
    # snapshot loads assign .data; the generator must still advance as an
    # eager build advanced it, so later draws are unchanged.
    rng_a, rng_b = seeded_rng(4), seeded_rng(4)
    a = lenet.build(batch_size=2, rng=rng_a)
    lenet.build(batch_size=2, rng=rng_b).params[0].data
    a.params[0].data = np.zeros(a.params[0].shape)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def _dropout_net():
    # Dropout ahead of every learnable layer: the first draw of the forward
    # sweep is a mask, from the generator that still owes every weight.
    b = NetBuilder("dropnet", 4, 5, (2, 8, 8), rng=seeded_rng(5))
    b.dropout("drop0", 0.25)
    b.conv("conv1", 4, 3, pad=1)
    b.relu("relu1")
    b.fc("fc1", 16)
    b.dropout("drop1", 0.5)
    return b.head("fc2")


def test_dropout_training_matches_eager_build():
    net = _dropout_net()
    stats = SGDSolver(net, base_lr=0.05, momentum=0.9, weight_decay=1e-3).step(2)
    assert [float(x).hex() for x in stats.losses] == [
        "0x1.d6fca00000000p+1", "0x1.3136fa0000000p+0",
    ]
    assert digest(net.params) == (
        "a72b29d8f40e43ce1aac80544f6c462172b5e066c60dc15da24def01703ca71a"
    )


def test_lstm_fills_match_eager_build():
    layer = LSTMLayer("lstm", 6, rng=seeded_rng(3))
    layer.setup([Blob("x", (2, 4, 5))], [Blob("h")])
    assert not any(p.has_data() for p in layer.params)
    assert digest(layer.params) == (
        "c7116d8c678fd3448ae3643d2b4539402021808bf8f42c79a9f6e4d9616a8a15"
    )


def test_nets_sharing_a_generator_materialize_as_eager():
    rng = seeded_rng(11)
    a = lenet.build(batch_size=2, rng=rng)
    b = lenet.build(batch_size=2, rng=rng)
    assert_shape_only(a)
    assert_shape_only(b)
    assert digest(a.params) == (
        "d13b6a861c1b4b3426c67a72f5423da613181440a842da358173365e50a9ac14"
    )
    assert all(w.has_data() for w in drawn_weights(b))  # one queue, flushed whole
    assert digest(b.params) == (
        "8c37b6a6109c5ea5cad23503f59ee16325804cfabcc240880190c8d23006dbb5"
    )


def test_out_of_band_draw_raises():
    rng = seeded_rng(11)
    net = lenet.build(batch_size=2, rng=rng)
    rng.random()
    with pytest.raises(OutOfBandDrawError, match="conv1/weight"):
        net.params[0].data
    with pytest.raises(OutOfBandDrawError):  # still refused, nothing drawn
        net.layer_by_name("ip2").weight.data = np.zeros((10, 500))
    assert_shape_only(net)


def test_drawing_after_first_touch_is_allowed():
    rng = seeded_rng(11)
    net = lenet.build(batch_size=2, rng=rng)
    net.params[0].data
    rng.random()
    assert digest(net.params) == (
        "d13b6a861c1b4b3426c67a72f5423da613181440a842da358173365e50a9ac14"
    )


def test_cost_only_queries_stay_shape_only():
    """The analyze/observe query mix prices nets without drawing a weight."""
    from repro.metrics.session import collect_training_step
    from repro.parallel.ssgd import SSGDIterationModel
    from repro.perf import layer_cost
    from repro.pipeline import model as pipeline_model
    from repro.pipeline import partition
    from repro.serve import session as serve_session
    from repro.serve.engine import ServeConfig
    from repro.trace.session import trace_training_step

    built = []

    def recording(build):
        def wrapper(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]
        return wrapper

    net = recording(googlenet.build)(batch_size=8)
    for device in ("sw26010", "k40m", "cpu"):
        layer_cost.net_layer_timings(net, device)

    net = recording(vgg.build_vgg16)(batch_size=8)
    SSGDIterationModel(
        compute_s=layer_cost.net_iteration_time(net, "sw26010"),
        model_bytes=net.param_bytes(), bucket_mb=96.0,
    ).breakdown(64)

    plan = partition.plan_stages(recording(resnet_small.build_resnet18)(batch_size=8), 4)
    pipeline_model.PipelineIterationModel(plan, n_microbatches=8, bucket_mb=32.0).breakdown()

    serve_session.run_serving(
        recording(alexnet.build), arrivals_seed="poisson:0x1:0",
        n_requests=16, config=ServeConfig(max_batch=4), model="alexnet",
    )

    net = recording(lenet.build)(batch_size=8)
    trace_training_step(net, ranks=4)
    collect_training_step(net, ranks=4)

    assert len(built) >= 5
    for net in built:
        assert_shape_only(net)
