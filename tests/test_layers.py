import math

import numpy as np
import pytest

from microvoc.archdsl import parse
from microvoc.errors import ShapeError, StateError
from microvoc.layers import (
    ConvConfig,
    DropoutConfig,
    LrnConfig,
    Mode,
    conv2d_forward,
    dropout_apply,
    dropout_backward,
    fc_forward,
    lrn_forward,
    maxpool_forward,
    relu_forward,
    softmax_cross_entropy,
)
from microvoc.tensor import Tensor4
from microvoc.trainer import DISPATCH, build


def t4(values, dims):
    return Tensor4(np.array(values, dtype=np.float64).reshape(dims))


class TestConvForward:
    def test_identity_kernel(self):
        x = t4([1, 2, 3, 4, 5, 6, 7, 8, 9], (1, 1, 3, 3))
        w = t4([1.0], (1, 1, 1, 1))
        b = Tensor4.new((1, 1, 1, 1), 0.0)
        out, _ = conv2d_forward(x, w, b, ConvConfig(1, (1, 1), 1, 0))
        assert np.array_equal(out.data, x.data)

    def test_diagonal_2x2_kernel(self):
        # sliding window sums computed by hand:
        #  (1+5, 2+6; 4+8, 5+9) = (6, 8; 12, 14)
        x = t4([1, 2, 3, 4, 5, 6, 7, 8, 9], (1, 1, 3, 3))
        w = t4([1, 0, 0, 1], (1, 1, 2, 2))
        b = Tensor4.new((1, 1, 1, 1), 0.0)
        out, _ = conv2d_forward(x, w, b, ConvConfig(1, (2, 2), 1, 0))
        assert np.array_equal(out.data.reshape(2, 2), [[6, 8], [12, 14]])

    def test_non_integral_output_rejected(self):
        x = Tensor4.new((1, 1, 3, 3), 0.0)
        w = Tensor4.new((1, 1, 2, 2), 0.0)
        b = Tensor4.new((1, 1, 1, 1), 0.0)
        with pytest.raises(ShapeError):
            conv2d_forward(x, w, b, ConvConfig(1, (2, 2), 2, 0))

    def test_channel_mismatch_rejected(self):
        x = Tensor4.new((1, 2, 3, 3), 0.0)
        w = Tensor4.new((1, 3, 2, 2), 0.0)
        b = Tensor4.new((1, 1, 1, 1), 0.0)
        with pytest.raises(ShapeError):
            conv2d_forward(x, w, b, ConvConfig(1, (2, 2), 1, 0))

    def test_bias_added_per_filter(self):
        x = Tensor4.new((1, 1, 2, 2), 0.0)
        w = Tensor4.new((3, 1, 1, 1), 0.0)
        b = t4([1.0, 2.0, 3.0], (1, 3, 1, 1))
        out, _ = conv2d_forward(x, w, b, ConvConfig(3, (1, 1), 1, 0))
        assert np.array_equal(out.data[0, :, 0, 0], [1, 2, 3])

    def test_padding_preserves_shape(self):
        x = Tensor4.new((2, 3, 8, 8), 1.0)
        w = Tensor4.new((4, 3, 3, 3), 0.1)
        b = Tensor4.new((1, 4, 1, 1), 0.0)
        out, _ = conv2d_forward(x, w, b, ConvConfig(4))
        assert out.dims == (2, 4, 8, 8)


class TestRelu:
    def test_definition(self):
        x = t4([-1.0, 0.0, 2.0], (1, 1, 1, 3))
        out, _ = relu_forward(x)
        assert np.array_equal(out.data.ravel(), [0, 0, 2])

    def test_all_negative(self):
        out, _ = relu_forward(Tensor4.new((1, 2, 2, 2), -3.0))
        assert np.all(out.data == 0)

    def test_identity_on_positive(self):
        x = Tensor4(np.random.default_rng(0).random((2, 2, 3, 3)) + 0.5)
        out, _ = relu_forward(x)
        assert np.array_equal(out.data, x.data)

    def test_idempotent_and_nonnegative(self):
        x = Tensor4(np.random.default_rng(1).standard_normal((2, 3, 4, 4)))
        once, _ = relu_forward(x)
        twice, _ = relu_forward(once)
        assert np.array_equal(once.data, twice.data)
        assert np.all(once.data >= 0)


class TestMaxPool:
    def test_single_window(self):
        x = t4([1, 2, 3, 4], (1, 1, 2, 2))
        out, cache = maxpool_forward(x, 2, 2)
        assert out.data.reshape(()) == 4
        assert cache.argmax.ravel()[0] == 3  # flat offset of the 4

    def test_4x4_windows(self):
        # windows [[1,2],[5,6]] etc. of 1..16 -> maxima 6, 8, 14, 16
        x = t4(list(range(1, 17)), (1, 1, 4, 4))
        out, _ = maxpool_forward(x, 2, 2)
        assert np.array_equal(out.data.reshape(2, 2), [[6, 8], [14, 16]])

    def test_tie_break_first_in_window(self):
        x = Tensor4.new((1, 1, 4, 4), 5.0)
        out, cache = maxpool_forward(x, 2, 2)
        assert np.all(out.data == 5.0)
        # first element of each window in row-major scan order
        assert np.array_equal(cache.argmax.reshape(2, 2), [[0, 2], [8, 10]])

    def test_output_is_window_max(self):
        rng = np.random.default_rng(2)
        x = Tensor4(rng.standard_normal((2, 3, 6, 6)))
        out, _ = maxpool_forward(x, 2, 2)
        for i in range(2):
            for j in range(3):
                for y in range(3):
                    for xx in range(3):
                        window = x.data[i, j, 2 * y:2 * y + 2, 2 * xx:2 * xx + 2]
                        assert out.data[i, j, y, xx] == window.max()

    def test_non_integral_rejected(self):
        with pytest.raises(ShapeError):
            maxpool_forward(Tensor4.new((1, 1, 5, 5), 0.0), 2, 2)


class TestLrn:
    def test_zero_input(self):
        out, _ = lrn_forward(Tensor4.new((1, 3, 2, 2), 0.0), LrnConfig())
        assert np.all(out.data == 0)

    def test_scalar_formula(self):
        # single channel, a=1: b = 1 / (k + alpha*1)^beta
        out, _ = lrn_forward(Tensor4.new((1, 1, 1, 1), 1.0),
                             LrnConfig(k=2.0, n=5, alpha=1e-4, beta=0.75))
        expected = 1.0 / (2.0 + 1e-4) ** 0.75
        assert abs(out.data.reshape(()) - expected) < 1e-12

    def test_identity_when_k1_alpha0(self):
        x = Tensor4(np.random.default_rng(3).standard_normal((2, 4, 3, 3)))
        out, _ = lrn_forward(x, LrnConfig(k=1.0, n=3, alpha=0.0, beta=0.75))
        assert np.allclose(out.data, x.data)

    def test_window_clamped_at_edges(self):
        # 2 channels, n=3: each channel sees both squared activations
        x = t4([1.0, 2.0], (1, 2, 1, 1))
        cfg = LrnConfig(k=1.0, n=3, alpha=1.0, beta=1.0)
        out, _ = lrn_forward(x, cfg)
        s = 1.0 + (1.0 + 4.0)
        assert np.allclose(out.data.ravel(), [1.0 / s, 2.0 / s])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LrnConfig(n=4)
        with pytest.raises(ValueError):
            LrnConfig(k=0.0)


class TestDropout:
    def test_p0_train_is_identity(self):
        x = Tensor4(np.random.default_rng(4).standard_normal((2, 3, 4, 4)))
        out, mask = dropout_apply(x, DropoutConfig(0.0), Mode.TRAIN, np.random.default_rng(0))
        assert np.array_equal(out.data, x.data)
        assert mask.all()

    def test_test_mode_scales_by_keep_prob(self):
        x = Tensor4.new((1, 1, 10, 10), 2.0)
        out, mask = dropout_apply(x, DropoutConfig(0.5), Mode.TEST)
        assert np.all(out.data == 1.0)
        assert mask.all()

    def test_train_outputs_zero_or_input(self):
        x = Tensor4(np.random.default_rng(5).standard_normal((1, 2, 10, 10)) + 3.0)
        out, mask = dropout_apply(x, DropoutConfig(0.3), Mode.TRAIN, np.random.default_rng(1))
        dropped = out.data == 0.0
        kept = out.data == x.data
        assert np.all(dropped | kept)
        assert np.array_equal(kept, mask)

    def test_expectation_matches_test_mode(self):
        # constant input, 1e5 elements: train-mode mean ~ (1-p) * value
        x = Tensor4.new((1, 10, 100, 100), 1.0)
        cfg = DropoutConfig(0.5)
        train_out, _ = dropout_apply(x, cfg, Mode.TRAIN, np.random.default_rng(12))
        test_out, _ = dropout_apply(x, cfg, Mode.TEST)
        test_value = test_out.data.ravel()[0]
        assert abs(train_out.data.mean() - test_value) / test_value < 0.02

    def test_p_validation(self):
        with pytest.raises(ValueError):
            DropoutConfig(1.0)
        with pytest.raises(ValueError):
            DropoutConfig(-0.1)


class TestFc:
    def test_identity_weights(self):
        x = t4([1, 2, 3, 4], (1, 1, 2, 2))
        w = Tensor4(np.eye(4).reshape(4, 4, 1, 1))
        b = Tensor4.new((1, 4, 1, 1), 0.0)
        out, _ = fc_forward(x, w, b)
        assert np.array_equal(out.data.ravel(), [1, 2, 3, 4])

    def test_2x2_matrix_by_hand(self):
        x = t4([1.0, 2.0], (1, 2, 1, 1))
        w = t4([1, 1, 1, -1], (2, 2, 1, 1))
        b = Tensor4.new((1, 2, 1, 1), 0.0)
        out, _ = fc_forward(x, w, b)
        assert np.array_equal(out.data.ravel(), [3, -1])

    def test_zero_weights_yield_bias(self):
        x = Tensor4(np.random.default_rng(6).standard_normal((3, 2, 2, 2)))
        w = Tensor4.new((5, 8, 1, 1), 0.0)
        b = t4([1, 2, 3, 4, 5], (1, 5, 1, 1))
        out, _ = fc_forward(x, w, b)
        for i in range(3):
            assert np.array_equal(out.data[i].ravel(), [1, 2, 3, 4, 5])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            fc_forward(Tensor4.new((1, 1, 2, 2), 0.0),
                       Tensor4.new((3, 5, 1, 1), 0.0),
                       Tensor4.new((1, 3, 1, 1), 0.0))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_c20(self):
        loss, probs, _ = softmax_cross_entropy(Tensor4.new((2, 20, 1, 1), 0.0), [3, 17])
        assert abs(loss - math.log(20)) < 1e-12
        assert np.allclose(probs.data, 1 / 20)

    def test_stability_with_huge_logits(self):
        loss, probs, _ = softmax_cross_entropy(Tensor4.new((1, 2, 1, 1), 1000.0), [0])
        assert np.isfinite(loss)
        assert abs(loss - math.log(2)) < 1e-12
        assert np.isfinite(probs.data).all()

    def test_two_class_by_hand(self):
        logits = t4([2.0, 0.0], (1, 2, 1, 1))
        loss, probs, grad = softmax_cross_entropy(logits, [0])
        p0 = math.exp(2) / (math.exp(2) + 1)
        assert abs(probs.data.ravel()[0] - p0) < 1e-12
        assert abs(probs.data.ravel()[0] - 0.8808) < 1e-4
        assert abs(loss - (-math.log(p0))) < 1e-12
        assert abs(loss - 0.1269) < 1e-4
        assert np.allclose(grad.data.ravel(), [p0 - 1.0, 1.0 - p0])

    def test_rows_sum_to_one_and_grad_rows_to_zero(self):
        rng = np.random.default_rng(7)
        logits = Tensor4(rng.standard_normal((8, 5, 1, 1)) * 4)
        labels = rng.integers(0, 5, size=8)
        _, probs, grad = softmax_cross_entropy(logits, labels)
        assert np.all(probs.data >= 0)
        assert np.allclose(probs.data.reshape(8, 5).sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(grad.data.reshape(8, 5).sum(axis=1), 0.0, atol=1e-9)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(Tensor4.new((1, 3, 1, 1), 0.0), [3])


class TestLayerBackwardDispatch:
    """The backward adapters of the trainer's kind table."""

    def test_relu_gates_gradient(self):
        x = t4([-1.0, 2.0], (1, 1, 1, 2))
        _, cache = relu_forward(x)
        gx, grads = DISPATCH["relu"][1](cache, t4([5.0, 5.0], (1, 1, 1, 2)))
        assert np.array_equal(gx.data.ravel(), [0, 5])
        assert grads == {}

    def test_maxpool_routes_to_argmax(self):
        x = t4([1, 2, 3, 4], (1, 1, 2, 2))
        _, cache = maxpool_forward(x, 2, 2)
        gx, _ = DISPATCH["maxpool"][1](cache, t4([7.0], (1, 1, 1, 1)))
        assert np.array_equal(gx.data.reshape(2, 2), [[0, 0], [0, 7]])

    def test_dropout_backward_uses_mask(self):
        mask = np.array([[[[True, False]]]])
        gx = dropout_backward(mask, t4([3.0, 3.0], (1, 1, 1, 2)))
        assert np.array_equal(gx.data.ravel(), [3, 0])

    def test_missing_cache_raises(self):
        for kind in ("conv", "relu", "maxpool", "lrn", "dropout", "fc"):
            with pytest.raises(StateError):
                DISPATCH[kind][1](None, Tensor4.new((1, 1, 1, 1), 0.0))
        net = build(parse("IMG-Conv2-ReLU-FC2-Softmax", (1, 4, 4)))
        net.forward(Tensor4.new((1, 1, 4, 4), 1.0), Mode.TRAIN)
        net.nodes[1].cache = None
        with pytest.raises(StateError, match="layer 1"):
            net.backward(Tensor4.new((1, 2, 1, 1), 1.0))

    def test_shape_mismatch_raises(self):
        x = Tensor4.new((1, 1, 2, 2), 1.0)
        _, cache = relu_forward(x)
        with pytest.raises(ShapeError):
            DISPATCH["relu"][1](cache, Tensor4.new((1, 1, 2, 3), 0.0))
