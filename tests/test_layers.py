import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microvoc import layers
from microvoc.archdsl import PRESETS, parse
from microvoc.errors import ShapeError, StateError
from microvoc.layers import (
    ConvConfig,
    DropoutConfig,
    LrnConfig,
    Mode,
    conv2d_backward,
    conv2d_forward,
    conv_out_dim,
    dropout_apply,
    dropout_backward,
    fc_forward,
    lrn_backward,
    lrn_forward,
    maxpool_backward,
    maxpool_forward,
    relu_forward,
    softmax_cross_entropy,
)
from microvoc.tensor import Tensor4
from microvoc.trainer import DISPATCH, LayerNode, build


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


def _conv_reference(x, w, b, stride, pad, g):
    """Direct per-tap sums in float64: the conv output and the gradients
    of sum(out * g) with respect to x, w and b."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho, wo = g.shape[2:]
    out = np.zeros((n, f, ho, wo)) + b.reshape(1, f, 1, 1)
    gxp = np.zeros_like(xp)
    gw = np.zeros((f, c, kh, kw))
    for u in range(kh):
        for v in range(kw):
            patch = xp[:, :, u:u + stride * ho:stride, v:v + stride * wo:stride]
            out += np.einsum("ncyx,fc->nfyx", patch, w[:, :, u, v])
            gw[:, :, u, v] = np.einsum("nfyx,ncyx->fc", g, patch)
            gxp[:, :, u:u + stride * ho:stride, v:v + stride * wo:stride] += np.einsum(
                "nfyx,fc->ncyx", g, w[:, :, u, v])
    gx = gxp[:, :, pad:pad + h, pad:pad + wd]
    return out, gx, gw, g.sum(axis=(0, 2, 3)).reshape(1, f, 1, 1)


class TestConvGeometries:
    """Output and all three gradients against direct per-tap sums, on
    non-square inputs across kernel, stride, pad and dtype."""

    @pytest.mark.parametrize("h, w, k, stride, pad, dtype", [
        (5, 9, 1, 1, 0, np.float32),
        (6, 11, 5, 1, 2, np.float64),
        (9, 13, 3, 2, 0, np.float32),
        (8, 14, 3, 3, 2, np.float64),
        (7, 11, 5, 2, 2, np.float32),
        (7, 10, 1, 3, 0, np.float64),
        (6, 9, 3, 1, 0, np.float32),
    ])
    def test_matches_direct_sums(self, h, w, k, stride, pad, dtype):
        rng = np.random.default_rng(h * 100 + w * 10 + k)
        n, c, f = 2, 3, 4
        x = rng.standard_normal((n, c, h, w)).astype(dtype)
        wt = rng.standard_normal((f, c, k, k)).astype(dtype)
        b = rng.standard_normal((1, f, 1, 1)).astype(dtype)
        out, cache = conv2d_forward(Tensor4(x), Tensor4(wt), Tensor4(b),
                                    ConvConfig(f, (k, k), stride, pad))
        ho, wo = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
        g = rng.standard_normal((n, f, ho, wo)).astype(dtype)
        gx, grads = conv2d_backward(cache, Tensor4(g))
        ref = _conv_reference(x, wt, b, stride, pad, g)
        tol = 1e-4 if dtype == np.float32 else 1e-11
        for got, want in zip((out, gx, grads["w"], grads["b"]), ref):
            assert got.data.dtype == dtype
            assert got.data.shape == want.shape
            assert got.data.flags.c_contiguous
            np.testing.assert_allclose(got.data, want, rtol=tol, atol=tol)

    @pytest.mark.parametrize("n, h, w, k, stride, pad, block_rows, dtype", [
        # 100 grid rows an image: 20 images a block, the last block holds 5
        (45, 8, 8, 3, 1, 1, None, np.float32),
        # 1764 rows an image, one image a block
        (3, 40, 40, 3, 1, 1, None, np.float64),
        # blocks of 3, 3 and 1 images on a non-square strided geometry
        (7, 7, 10, 3, 3, 1, 3 * 9 * 12 + 5, np.float64),
        # an image of 117 rows against blocks of 50: one image a block
        (4, 9, 13, 3, 2, 0, 50, np.float32),
    ])
    def test_blocks_in_both_modes(self, n, h, w, k, stride, pad, block_rows, dtype,
                                  monkeypatch):
        if block_rows is not None:
            monkeypatch.setattr(layers, "CONV_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(n * 1000 + h * 10 + w)
        c, f = 3, 5
        x = rng.standard_normal((n, c, h, w)).astype(dtype)
        wt = rng.standard_normal((f, c, k, k)).astype(dtype)
        b = rng.standard_normal((1, f, 1, 1)).astype(dtype)
        node = LayerNode(None, ConvConfig(f, (k, k), stride, pad),
                         {"w": Tensor4(wt), "b": Tensor4(b)})
        forward, backward = DISPATCH["conv"]
        out, cache = forward(node, Tensor4(x), Mode.TRAIN, None)
        test_out, _ = forward(node, Tensor4(x), Mode.TEST, None)
        assert test_out.data.tobytes() == out.data.tobytes()
        g = rng.standard_normal(out.dims).astype(dtype)
        gx, grads = backward(cache, Tensor4(g))
        ref = _conv_reference(x, wt, b, stride, pad, g)
        tol = 1e-4 if dtype == np.float32 else 1e-11
        for got, want in zip((out, gx, grads["w"], grads["b"]), ref):
            assert got.data.dtype == dtype
            np.testing.assert_allclose(got.data, want, rtol=tol, atol=tol)

    def test_train_cache_holds_the_input_and_backward_pads_it(self):
        rng = np.random.default_rng(31)
        x = Tensor4(rng.standard_normal((3, 2, 5, 7)))
        _, cache = conv2d_forward(x, Tensor4(rng.standard_normal((4, 2, 3, 3))),
                                  Tensor4.new((1, 4, 1, 1)), ConvConfig(4, (3, 3), 1, 2))
        assert cache.x is x.data  # a reference, not a copy
        assert cache.x_dims == (3, 2, 5, 7)

    def test_backward_without_input_gradient(self):
        rng = np.random.default_rng(32)
        x = Tensor4(rng.standard_normal((2, 3, 6, 6)))
        _, cache = conv2d_forward(x, Tensor4(rng.standard_normal((4, 3, 3, 3))),
                                  Tensor4.new((1, 4, 1, 1)), ConvConfig(4))
        g = Tensor4(rng.standard_normal((2, 4, 6, 6)))
        gx, grads = conv2d_backward(cache, g)
        none, grads_only = conv2d_backward(cache._replace(input_grad=False), g)
        assert gx.dims == x.dims and none is None
        assert grads_only["w"].data.tobytes() == grads["w"].data.tobytes()
        assert grads_only["b"].data.tobytes() == grads["b"].data.tobytes()


def _draw_conv_case(data):
    """A random conv: input x and weights (standard normal, in a drawn
    dtype), its config and output dims (ho, wo), a block size of up to
    three padded images and the rng that drew the arrays."""
    k = data.draw(st.integers(1, 4), "k")
    stride = data.draw(st.integers(1, 3), "stride")
    pad = data.draw(st.integers(0, 2), "pad")
    c = data.draw(st.sampled_from([1, 2, 3, 8]), "c")
    f = data.draw(st.sampled_from([1, 3, 4, 9]), "f")
    dtype = data.draw(st.sampled_from([np.float32, np.float64]), "dtype")
    n = data.draw(st.integers(1, 7), "n")
    ho = data.draw(st.integers(1, 4), "ho")
    wo = data.draw(st.integers(1, 4), "wo")
    h, w = (ho - 1) * stride + k - 2 * pad, (wo - 1) * stride + k - 2 * pad
    if h < 1 or w < 1:
        h, w, pad = (ho - 1) * stride + k, (wo - 1) * stride + k, 0
    block_rows = data.draw(st.integers(1, 3 * (h + 2 * pad) * (w + 2 * pad)), "block_rows")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
    x = rng.standard_normal((n, c, h, w)).astype(dtype)
    wt = rng.standard_normal((f, c, k, k)).astype(dtype)
    return x, wt, ConvConfig(f, (k, k), stride, pad), (ho, wo), block_rows, rng


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_blocked_forward_matches_whole_batch(data):
    """Any block size gives the whole-batch forward (one block holding
    every image) within rounding: the blocks change only the GEMMs' row
    counts, and on some BLAS libraries that changes the last bits."""
    x, wt, cfg, (ho, wo), block_rows, rng = _draw_conv_case(data)
    n, f, dtype = x.shape[0], cfg.filters, x.dtype
    args = (Tensor4(x), Tensor4(wt),
            Tensor4(rng.standard_normal((1, f, 1, 1)).astype(dtype)), cfg)
    with mock.patch.object(layers, "CONV_BLOCK_ROWS", 2**62):
        whole, _ = conv2d_forward(*args)
    with mock.patch.object(layers, "CONV_BLOCK_ROWS", block_rows):
        blocked, cache = conv2d_forward(*args)
    assert blocked.dims == whole.dims == (n, f, ho, wo)
    assert blocked.data.dtype == dtype and blocked.data.flags.c_contiguous
    tol = 1e-5 if dtype == np.float32 else 1e-13
    np.testing.assert_allclose(blocked.data, whole.data, rtol=tol, atol=tol)
    assert cache.x is args[0].data


def _backward_at(block_rows, cache, g):
    with mock.patch.object(layers, "CONV_BLOCK_ROWS", block_rows):
        gx, grads = conv2d_backward(cache, g)
    return gx, grads["w"], grads["b"]


def _assert_blocked_backward_matches_whole_batch(cache, g, block_rows, tol):
    """The three gradients at ``block_rows`` against one block of the
    whole batch; returns the blocked ones."""
    whole = _backward_at(2**62, cache, g)
    blocked = _backward_at(block_rows, cache, g)
    for got, want in zip(blocked, whole):
        assert got.data.dtype == want.data.dtype and got.data.flags.c_contiguous
        np.testing.assert_allclose(got.data, want.data, rtol=tol, atol=tol)
    return blocked


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_blocked_backward_matches_whole_batch(data):
    """As for the forward: the input gradient runs on the forward's image
    blocks, and any block size gives the one-block result within
    rounding."""
    x, wt, cfg, (ho, wo), block_rows, rng = _draw_conv_case(data)
    cache = layers.ConvCache(x, x.shape, wt, cfg)
    g = Tensor4(rng.standard_normal((x.shape[0], cfg.filters, ho, wo)).astype(x.dtype))
    tol = 1e-5 if x.dtype == np.float32 else 1e-13
    gx, _, _ = _assert_blocked_backward_matches_whole_batch(cache, g, block_rows, tol)
    assert gx.dims == x.shape


def _net_conv_geometries():
    """(n, (c, h, w), ConvConfig) of each distinct conv layer of M1-M4 at
    32x32 (n = 32) and 128x128 (n = 2), and of the c06 and c10 nets."""
    nets = [(PRESETS[name], size, n) for size, n in ((32, 32), (128, 2))
            for name in ("M1", "M2", "M3", "M4")]
    nets += [("IMG-(Conv8-ReLU-MaxPool)-(FC32-ReLU-FC2)-Softmax", 32, 32),
             ("IMG-(Conv4-ReLU-MaxPool)-(FC16-ReLU-FC2)-Softmax", 16, 32)]
    found = []
    for arch, size, n in nets:
        dims = (3, size, size)
        for layer in parse(arch, dims).realized:
            case = (n, dims, layer.cfg)
            if isinstance(layer.cfg, ConvConfig) and case not in found:
                found.append(case)
            dims = layer.out_dims
    return [pytest.param(*case, id=f"n{case[0]}-c{case[1][0]}-h{case[1][1]}-f{case[2].filters}")
            for case in found]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n, dims, cfg", _net_conv_geometries())
def test_blocked_backward_on_the_nets_geometries(n, dims, cfg, dtype):
    """Each conv of the presets and the acceptance nets, at its default
    block size, against one block of the whole batch."""
    rng = np.random.default_rng(n + sum(dims) + cfg.filters)
    k = cfg.kernel[0]
    x = rng.standard_normal((n, *dims)).astype(dtype)
    # weights at the scale of the input gradient's fan-in, so its sums stay near 1
    wt = rng.standard_normal((cfg.filters, dims[0], k, k)) / math.sqrt(cfg.filters * k * k)
    cache = layers.ConvCache(x, x.shape, wt.astype(dtype), cfg)
    ho = conv_out_dim(dims[1], k, cfg.stride, cfg.pad)
    wo = conv_out_dim(dims[2], k, cfg.stride, cfg.pad)
    g = Tensor4(rng.standard_normal((n, cfg.filters, ho, wo)).astype(dtype))
    tol = 1e-5 if dtype == np.float32 else 1e-13
    _assert_blocked_backward_matches_whole_batch(cache, g, layers.CONV_BLOCK_ROWS, tol)


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_negative_zero_and_nan_give_positive_zero(self, dtype):
        # every length up to two SIMD widths, so vector loops and their tails both run
        for size in range(1, 18):
            for value in (-0.0, np.nan):
                out, _ = relu_forward(Tensor4.new((1, 1, 1, size), value, dtype))
                assert not np.signbit(out.data).any() and not out.data.any()


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

    def test_test_and_train_forwards_agree(self):
        x = Tensor4(np.random.default_rng(8).standard_normal((2, 3, 7, 9)))
        node = build(parse("IMG-MaxPool[k=3,s=2]-FC2-Softmax", (3, 7, 9))).nodes[0]
        test_out, _ = DISPATCH["maxpool"][0](node, x, Mode.TEST, None)
        train_out, _ = DISPATCH["maxpool"][0](node, x, Mode.TRAIN, None)
        assert np.array_equal(test_out.data, train_out.data)

    def test_overlapping_ties_route_to_first_maximizer(self):
        # integer values give many ties; k3 s2 windows share rows and columns
        rng = np.random.default_rng(9)
        x = rng.integers(0, 3, size=(2, 2, 7, 9)).astype(np.float64)
        out, cache = maxpool_forward(Tensor4(x), 3, 2)
        g = rng.standard_normal(out.dims)
        gx = maxpool_backward(cache, Tensor4(g))
        want_gx = np.zeros(x.size)
        for i in range(2):
            for j in range(2):
                for y in range(3):
                    for xx in range(4):
                        window = x[i, j, 2 * y:2 * y + 3, 2 * xx:2 * xx + 3]
                        u, v = divmod(int(window.argmax()), 3)
                        offset = ((i * 2 + j) * 7 + 2 * y + u) * 9 + 2 * xx + v
                        assert out.data[i, j, y, xx] == window.max()
                        assert cache.argmax[i, j, y, xx] == offset
                        want_gx[offset] += g[i, j, y, xx]
        assert np.array_equal(gx.data.ravel(), want_gx)

    def test_nan_in_window_gives_nan(self):
        x = t4(list(range(16)), (1, 1, 4, 4))
        x.data[0, 0, 0, 1] = np.nan
        x.data[0, 0, 1, 0] = np.nan
        out, cache = maxpool_forward(x, 2, 2)
        assert np.isnan(out.data[0, 0, 0, 0])
        assert np.array_equal(out.data.ravel()[1:], [7, 13, 15])
        assert cache.argmax[0, 0, 0, 0] == 1  # the first NaN, as np.argmax


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


# the ReLU and LRN kernels as they were before they streamed: the
# streaming ones must reproduce them bit for bit

def ref_relu_forward(a):
    mask = a > 0
    return np.where(mask, a, 0.0).astype(a.dtype, copy=False), mask


def ref_channel_window_sum(a, n):
    half = n // 2
    padded = np.pad(a, ((0, 0), (half, half), (0, 0), (0, 0)))
    c = a.shape[1]
    out = np.zeros_like(a)
    for d in range(n):
        out += padded[:, d:d + c]
    return out


def ref_lrn_forward(a, cfg):
    scale = cfg.k + cfg.alpha * ref_channel_window_sum(a * a, cfg.n)
    out = a * scale ** (-cfg.beta)
    return out.astype(a.dtype, copy=False), scale


def ref_lrn_backward(a, scale, cfg, g):
    inner = ref_channel_window_sum(g * a * scale ** (-cfg.beta - 1.0), cfg.n)
    gx = g * scale ** (-cfg.beta) - 2.0 * cfg.alpha * cfg.beta * a * inner
    return gx.astype(a.dtype, copy=False)


def awkward_values(rng, dims, dtype, nan):
    """Normal draws over seven decades, with about a third of the elements
    replaced by +-0, denormals, magnitudes whose square overflows and, if
    ``nan``, NaN."""
    info = np.finfo(dtype)
    x = rng.standard_normal(dims) * 10.0 ** rng.integers(-3, 4, size=dims)
    specials = [0.0, -0.0, float(info.smallest_subnormal), -float(info.smallest_subnormal) * 7,
                float(info.tiny) / 3, float(info.max) / 2, -float(np.sqrt(info.max)) * 4]
    if nan:
        specials.append(np.nan)
    hit = rng.random(dims) < 0.3
    x[hit] = rng.choice(specials, size=int(hit.sum()))
    return x.astype(dtype)


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64]),
       batch=st.integers(1, 4), c=st.integers(1, 9), h=st.integers(1, 4), w=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_relu_matches_reference_bytes(dtype, batch, c, h, w, seed):
    a = awkward_values(np.random.default_rng(seed), (batch, c, h, w), dtype, nan=True)
    want, want_mask = ref_relu_forward(a)
    out, mask = relu_forward(Tensor4(a.copy()), Mode.TRAIN)
    assert_same_bytes(out.data, want)
    assert_same_bytes(mask, want_mask)
    out, cache = relu_forward(Tensor4(a.copy()), Mode.TEST)
    assert_same_bytes(out.data, want)
    assert cache is None


@settings(max_examples=80, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64]),
       batch=st.integers(1, 4), n=st.sampled_from([1, 3, 5, 7]), c=st.integers(1, 9),
       h=st.integers(1, 4), w=st.integers(1, 4),
       k=st.floats(1e-3, 10.0), alpha=st.one_of(st.just(0.0), st.floats(1e-6, 2.0)),
       beta=st.one_of(st.sampled_from([0.5, 0.75, 1.0]), st.floats(0.05, 3.0)),
       seed=st.integers(0, 2**32 - 1))
def test_lrn_matches_reference_bytes(dtype, batch, n, c, h, w, k, alpha, beta, seed):
    rng = np.random.default_rng(seed)
    dims = (batch, c, h, w)
    a = awkward_values(rng, dims, dtype, nan=False)
    g = awkward_values(rng, dims, dtype, nan=False)
    cfg = LrnConfig(k=k, n=n, alpha=alpha, beta=beta)
    with np.errstate(all="ignore"):  # squares overflow; alpha = 0 times inf
        want, want_scale = ref_lrn_forward(a, cfg)
        out, cache = lrn_forward(Tensor4(a.copy()), cfg, Mode.TRAIN)
        test_out, test_cache = lrn_forward(Tensor4(a.copy()), cfg, Mode.TEST)
        gx = lrn_backward(cache, Tensor4(g.copy()))
        want_gx = ref_lrn_backward(a, want_scale, cfg, g)
    assert_same_bytes(out.data, want)
    assert_same_bytes(cache.scale, want_scale)
    assert_same_bytes(gx.data, want_gx)
    assert_same_bytes(test_out.data, want)
    assert test_cache is None


@pytest.mark.parametrize("kind", ["relu", "lrn", "dropout"])
def test_no_mode_writes_into_the_input(kind):
    net = build(parse("IMG-ReLU-LRN[n=3]-Dropout-FC2-Softmax", (3, 4, 4)))
    node = next(node for node in net.nodes if node.spec.kind == kind)
    for mode in (Mode.TRAIN, Mode.TEST):
        x = Tensor4(np.random.default_rng(9).standard_normal((2, 3, 4, 4)))
        out, _ = DISPATCH[kind][0](node, x, mode, np.random.default_rng(0))
        assert not np.shares_memory(out.data, x.data), mode


def test_test_mode_adapters_cache_nothing():
    # the adapters that take the Mode; the network drops the other caches
    net = build(parse("IMG-ReLU-LRN[n=3]-Dropout-FC2-Softmax", (3, 4, 4)))
    x = Tensor4(np.random.default_rng(8).standard_normal((2, 3, 4, 4)))
    for node in net.nodes[:3]:
        x, cache = DISPATCH[node.spec.kind][0](node, x, Mode.TEST, None)
        assert cache is None, node.spec.kind


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
        assert mask is None

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
