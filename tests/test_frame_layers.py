"""Per-layer unit tests: forward semantics and gradient checks."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.frame.blob import Blob
from repro.frame.layers import (
    AccuracyLayer,
    BatchNormLayer,
    ConcatLayer,
    ConvolutionLayer,
    DropoutLayer,
    EltwiseLayer,
    InnerProductLayer,
    LRNLayer,
    LSTMLayer,
    PoolingLayer,
    ReLULayer,
    SoftmaxLayer,
    SoftmaxWithLossLayer,
    TensorTransformLayer,
)
from repro.utils.rng import seeded_rng

from repro.testing.gradcheck import check_input_gradients, check_param_gradients, run_layer

RNG = np.random.default_rng(12345)


class TestConvolutionLayer:
    def make(self):
        return ConvolutionLayer("conv", num_output=4, kernel_size=3, pad=1, rng=seeded_rng(7))

    def test_input_gradient(self):
        x = RNG.normal(size=(2, 3, 6, 6))
        check_input_gradients(self.make, [x])

    def test_weight_gradient(self):
        x = RNG.normal(size=(2, 3, 6, 6))
        check_param_gradients(self.make, [x], param_index=0)

    def test_bias_gradient(self):
        x = RNG.normal(size=(2, 3, 6, 6))
        check_param_gradients(self.make, [x], param_index=1)

    def test_output_shape_stride2(self):
        layer = ConvolutionLayer("c", 8, 3, stride=2, pad=1, rng=seeded_rng(0))
        blobs = run_layer(layer, [RNG.normal(size=(1, 2, 9, 9))])
        assert blobs[1].shape == (1, 8, 5, 5)

    def test_chosen_plans_reported(self):
        layer = self.make()
        run_layer(layer, [RNG.normal(size=(2, 3, 6, 6))])
        plans = layer.chosen_plans()
        assert plans["forward"] == "explicit"  # Ni=3 rules out implicit

    def test_rejects_non_4d(self):
        layer = self.make()
        with pytest.raises(ShapeError):
            run_layer(layer, [RNG.normal(size=(2, 3))])

    def test_reshape_rejects_changed_input_channels(self):
        layer = self.make()
        x, y = Blob("x", (2, 3, 6, 6)), Blob("y")
        layer.setup([x], [y])
        x.reshape((2, 5, 6, 6))
        with pytest.raises(ShapeError, match=r"input channels changed \(3 -> 5\)"):
            layer.reshape([x], [y])


class TestInnerProductLayer:
    def make(self):
        return InnerProductLayer("ip", num_output=5, rng=seeded_rng(8))

    def test_forward_matches_matmul(self):
        x = RNG.normal(size=(3, 7))
        layer = self.make()
        blobs = run_layer(layer, [x])
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(blobs[1].data, expected, rtol=1e-6)

    def test_flattens_4d_input(self):
        layer = self.make()
        blobs = run_layer(layer, [RNG.normal(size=(2, 3, 4, 5))])
        assert blobs[1].shape == (2, 5)

    def test_input_gradient(self):
        check_input_gradients(self.make, [RNG.normal(size=(3, 7))])

    def test_weight_gradient(self):
        check_param_gradients(self.make, [RNG.normal(size=(3, 7))], param_index=0)

    def test_bias_gradient(self):
        check_param_gradients(self.make, [RNG.normal(size=(3, 7))], param_index=1)


class TestReLULayer:
    def test_forward(self):
        layer = ReLULayer("r")
        blobs = run_layer(layer, [np.array([[-1.0, 2.0, -3.0, 4.0]])])
        np.testing.assert_array_equal(blobs[1].data, [[0.0, 2.0, 0.0, 4.0]])

    def test_leaky(self):
        layer = ReLULayer("r", negative_slope=0.1)
        blobs = run_layer(layer, [np.array([[-10.0, 5.0]])])
        np.testing.assert_allclose(blobs[1].data, [[-1.0, 5.0]])

    def test_input_gradient(self):
        # Keep x away from the kink for finite differences.
        x = RNG.normal(size=(4, 6))
        x[np.abs(x) < 0.05] = 0.5
        check_input_gradients(lambda: ReLULayer("r", negative_slope=0.2), [x])


class TestPoolingLayer:
    def test_shapes(self):
        layer = PoolingLayer("p", kernel_size=2, stride=2)
        blobs = run_layer(layer, [RNG.normal(size=(2, 3, 8, 8))])
        assert blobs[1].shape == (2, 3, 4, 4)

    def test_global_pooling(self):
        layer = PoolingLayer("p", kernel_size=1, mode="avg", global_pooling=True)
        x = RNG.normal(size=(2, 3, 5, 5))
        blobs = run_layer(layer, [x])
        assert blobs[1].shape == (2, 3, 1, 1)
        np.testing.assert_allclose(
            blobs[1].data[:, :, 0, 0], x.mean(axis=(2, 3)), rtol=1e-6
        )

    def test_avg_input_gradient(self):
        check_input_gradients(
            lambda: PoolingLayer("p", 2, 2, mode="avg"), [RNG.normal(size=(1, 2, 4, 4))]
        )

    def test_max_input_gradient(self):
        x = RNG.normal(size=(1, 2, 4, 4)) * 10  # well-separated maxima
        check_input_gradients(lambda: PoolingLayer("p", 2, 2), [x])


class TestBatchNormLayer:
    def test_train_normalizes(self):
        layer = BatchNormLayer("bn")
        x = RNG.normal(loc=5.0, scale=3.0, size=(16, 4, 3, 3))
        blobs = run_layer(layer, [x])
        y = blobs[1].data
        assert np.abs(y.mean(axis=(0, 2, 3))).max() < 1e-5
        assert np.abs(y.std(axis=(0, 2, 3)) - 1).max() < 1e-3

    def test_running_stats_used_in_test_phase(self):
        layer = BatchNormLayer("bn", momentum=0.0)  # running = last batch
        x = RNG.normal(loc=2.0, size=(32, 3, 4, 4))
        run_layer(layer, [x])
        layer.phase = "test"
        b = Blob("b", x.shape, dtype=np.float64)
        b.data = x
        t = Blob("t")
        layer.reshape([b], [t])
        layer.forward([b], [t])
        assert np.abs(t.data.mean(axis=(0, 2, 3))).max() < 0.1

    def test_input_gradient(self):
        check_input_gradients(
            lambda: BatchNormLayer("bn"), [RNG.normal(size=(6, 3, 2, 2))], rtol=1e-3
        )

    def test_gamma_beta_gradients(self):
        x = RNG.normal(size=(6, 3, 2, 2))
        check_param_gradients(lambda: BatchNormLayer("bn"), [x], param_index=0, rtol=1e-3)
        check_param_gradients(lambda: BatchNormLayer("bn"), [x], param_index=1, rtol=1e-3)

    def test_2d_input(self):
        layer = BatchNormLayer("bn")
        blobs = run_layer(layer, [RNG.normal(size=(8, 5))])
        assert blobs[1].shape == (8, 5)


class TestLRNLayer:
    def test_matches_direct_formula(self):
        layer = LRNLayer("lrn", local_size=3, alpha=2.0, beta=0.5, k=1.5)
        x = RNG.normal(size=(2, 5, 2, 2))
        blobs = run_layer(layer, [x])
        b, c = 1, 2
        window = x[b, 1:4, :, :] ** 2  # channels 1..3 around channel 2
        scale = 1.5 + (2.0 / 3) * window.sum(axis=0)
        np.testing.assert_allclose(
            blobs[1].data[b, c], x[b, c] * scale**-0.5, rtol=1e-6
        )

    def test_input_gradient(self):
        check_input_gradients(
            lambda: LRNLayer("lrn", local_size=3, alpha=0.3, beta=0.75),
            [RNG.normal(size=(2, 6, 3, 3))],
            rtol=1e-3,
        )

    def test_even_window_rejected(self):
        with pytest.raises(ShapeError):
            LRNLayer("lrn", local_size=4)


class TestDropoutLayer:
    def test_test_phase_identity(self):
        layer = DropoutLayer("d", 0.5, rng=seeded_rng(0))
        layer.phase = "test"
        x = RNG.normal(size=(4, 4))
        blobs = run_layer(layer, [x])
        np.testing.assert_array_equal(blobs[1].data, x)

    def test_train_scales_kept_units(self):
        layer = DropoutLayer("d", 0.5, rng=seeded_rng(1))
        x = np.ones((1000,)).reshape(1, 1000)
        blobs = run_layer(layer, [x])
        y = blobs[1].data
        kept = y[y != 0]
        np.testing.assert_allclose(kept, 2.0)
        assert 0.35 < (y != 0).mean() < 0.65

    def test_backward_uses_same_mask(self):
        layer = DropoutLayer("d", 0.5, rng=seeded_rng(2))
        x = RNG.normal(size=(3, 8))
        blobs = run_layer(layer, [x])
        mask = layer._mask
        blobs[1].diff = np.ones_like(x)
        layer.backward([blobs[1]], [blobs[0]])
        np.testing.assert_allclose(blobs[0].diff, mask)

    def test_invalid_ratio(self):
        with pytest.raises(ShapeError):
            DropoutLayer("d", 1.0)


class TestSoftmaxLayers:
    def test_softmax_rows_sum_to_one(self):
        layer = SoftmaxLayer("s")
        blobs = run_layer(layer, [RNG.normal(size=(5, 7)) * 10])
        np.testing.assert_allclose(blobs[1].data.sum(axis=1), np.ones(5), rtol=1e-6)

    def test_softmax_input_gradient(self):
        check_input_gradients(lambda: SoftmaxLayer("s"), [RNG.normal(size=(3, 5))])

    def test_loss_value_matches_manual(self):
        logits = np.array([[2.0, 1.0, 0.1], [0.0, 3.0, 0.0]])
        labels = np.array([0.0, 1.0])
        layer = SoftmaxWithLossLayer("loss")
        blobs = run_layer(layer, [logits, labels])
        p0 = np.exp(2.0) / np.exp([2.0, 1.0, 0.1]).sum()
        p1 = np.exp(3.0) / np.exp([0.0, 3.0, 0.0]).sum()
        expected = -(np.log(p0) + np.log(p1)) / 2
        assert blobs[2].data[0] == pytest.approx(expected, rel=1e-5)

    def test_loss_gradient_is_p_minus_onehot(self):
        logits = RNG.normal(size=(4, 6))
        labels = np.array([0.0, 2.0, 5.0, 3.0])
        layer = SoftmaxWithLossLayer("loss")
        blobs = run_layer(layer, [logits, labels])
        blobs[2].diff = np.ones(1)
        layer.backward([blobs[2]], blobs[:2])
        p = layer._probs.copy()
        p[np.arange(4), labels.astype(int)] -= 1
        np.testing.assert_allclose(blobs[0].diff, p / 4, rtol=1e-6)

    def test_label_shape_validation(self):
        layer = SoftmaxWithLossLayer("loss")
        with pytest.raises(ShapeError):
            run_layer(layer, [RNG.normal(size=(4, 6)), np.zeros(3)])


class TestAccuracyLayer:
    def test_top1(self):
        logits = np.array([[1.0, 5.0], [3.0, 0.0], [0.0, 2.0]])
        labels = np.array([1.0, 0.0, 0.0])
        blobs = run_layer(AccuracyLayer("acc"), [logits, labels])
        assert blobs[2].data[0] == pytest.approx(2 / 3)

    def test_topk(self):
        logits = np.array([[5.0, 4.0, 0.0, 1.0]])
        labels = np.array([1.0])
        blobs = run_layer(AccuracyLayer("acc", top_k=2), [logits, labels])
        assert blobs[2].data[0] == pytest.approx(1.0)

    def test_topk_too_large(self):
        with pytest.raises(ShapeError):
            run_layer(AccuracyLayer("acc", top_k=5), [np.zeros((2, 3)), np.zeros(2)])


class TestConcatEltwise:
    def test_concat_forward_backward(self):
        a = RNG.normal(size=(2, 3, 4, 4))
        b = RNG.normal(size=(2, 5, 4, 4))
        layer = ConcatLayer("cat")
        blobs = run_layer(layer, [a, b])
        assert blobs[2].shape == (2, 8, 4, 4)
        np.testing.assert_array_equal(blobs[2].data[:, :3], a)
        blobs[2].diff = RNG.normal(size=(2, 8, 4, 4))
        layer.backward([blobs[2]], blobs[:2])
        np.testing.assert_array_equal(blobs[0].diff, blobs[2].diff[:, :3])
        np.testing.assert_array_equal(blobs[1].diff, blobs[2].diff[:, 3:])

    def test_concat_off_axis_mismatch(self):
        with pytest.raises(ShapeError):
            run_layer(ConcatLayer("cat"), [np.zeros((2, 3, 4, 4)), np.zeros((3, 3, 4, 4))])

    def test_eltwise_sum_with_coeffs(self):
        a, b = np.ones((2, 2)), np.full((2, 2), 3.0)
        layer = EltwiseLayer("e", coeffs=[2.0, -1.0])
        blobs = run_layer(layer, [a, b])
        np.testing.assert_allclose(blobs[2].data, -1.0)

    def test_eltwise_max_routes_gradient(self):
        a = np.array([[1.0, 5.0]])
        b = np.array([[2.0, 3.0]])
        layer = EltwiseLayer("e", operation="max")
        blobs = run_layer(layer, [a, b])
        np.testing.assert_array_equal(blobs[2].data, [[2.0, 5.0]])
        blobs[2].diff = np.array([[1.0, 1.0]])
        layer.backward([blobs[2]], blobs[:2])
        np.testing.assert_array_equal(blobs[0].diff, [[0.0, 1.0]])
        np.testing.assert_array_equal(blobs[1].diff, [[1.0, 0.0]])

    def test_eltwise_prod_gradient(self):
        a = RNG.normal(size=(3, 3)) + 3.0
        b = RNG.normal(size=(3, 3)) + 3.0
        check_input_gradients(lambda: EltwiseLayer("e", operation="prod"), [a, b])
        check_input_gradients(
            lambda: EltwiseLayer("e", operation="prod"), [a, b], input_index=1
        )

    def test_eltwise_needs_two(self):
        with pytest.raises(ShapeError):
            run_layer(EltwiseLayer("e"), [np.zeros((2, 2))])


class TestTensorTransformLayer:
    def test_round_trip(self):
        x = RNG.normal(size=(2, 3, 4, 5))
        fwd = TensorTransformLayer("t", to_implicit=True)
        blobs = run_layer(fwd, [x])
        assert blobs[1].shape == (4, 5, 3, 2)
        inv = TensorTransformLayer("ti", to_implicit=False)
        blobs2 = run_layer(inv, [blobs[1].data])
        np.testing.assert_array_equal(blobs2[1].data, x)

    def test_gradient_is_inverse_transpose(self):
        x = RNG.normal(size=(2, 3, 4, 5))
        check_input_gradients(lambda: TensorTransformLayer("t"), [x])


class TestLSTMLayer:
    def make(self):
        return LSTMLayer("lstm", num_output=4, rng=seeded_rng(21))

    def test_output_shape(self):
        blobs = run_layer(self.make(), [RNG.normal(size=(2, 5, 3))])
        assert blobs[1].shape == (2, 5, 4)

    def test_input_gradient(self):
        x = RNG.normal(size=(2, 3, 3))
        check_input_gradients(self.make, [x], rtol=1e-3)

    def test_weight_gradients(self):
        x = RNG.normal(size=(2, 3, 3))
        for p in range(3):  # wx, wh, bias
            check_param_gradients(self.make, [x], param_index=p, rtol=1e-3)

    def test_forget_bias_initialized_to_one(self):
        layer = self.make()
        run_layer(layer, [RNG.normal(size=(1, 2, 3))])
        h = layer.hidden
        np.testing.assert_array_equal(layer.bias.data[h : 2 * h], np.ones(h))
