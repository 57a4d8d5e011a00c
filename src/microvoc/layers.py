"""Forward and backward passes for every layer type the engine supports.

Layers are pure functions: each ``*_forward`` returns its output plus a
cache object, and the matching ``*_backward`` turns the cache and an
upstream gradient into the input gradient, plus for conv and FC a dict
of parameter gradients keyed by the names their kind's ``realize``
gives. No kernel writes into its input. ReLU, max pooling, LRN and
dropout take the ``Mode``: in test mode they cache nothing, as only
backward reads a cache. The caches of conv and FC refer to arrays their
forwards make anyway, so the network drops them in test mode. Every
kernel takes and returns NCHW tensors. Inside, conv works on the
zero-padded input laid out as an NHWC row grid, one row of C channels
per position, where each kernel tap is one GEMM on a contiguous row
slice. Its forward and its input gradient (the forward run backwards)
share one loop over blocks of whole images of about CONV_BLOCK_ROWS grid
rows, on one reused block-sized grid, accumulator and tap term, so a
block's working set stays in cache; only the weight gradient pads the
whole batch, once. Max pooling takes a running maximum over the k*k
strided views of its input; in train mode its cache is one byte per
window, the tap u*k + v of the window's first maximizer, to which
backward routes the gradient. LRN runs one image at a time on reused
(c, h, w) buffers. FC backward computes its input gradient first and,
given a sink in its cache, hands the sink its weight gradient in blocks
of FC_BLOCK_ROWS output rows instead of returning it, so the whole
gradient never exists.
A flag in the conv and FC caches makes their backward skip the parameter
gradients, for a frozen layer. ``KINDS`` holds one row per kind: its
token and options in architecture strings, and its ``realize``, which
gives its validated config, output dims and parameter shapes for a given
input.

Output spatial dims obey the exact-division rule: (H + 2*pad - k) must
be divisible by the stride, otherwise a ShapeError is raised. This makes
bad architecture geometry fail at build time instead of silently
flooring away pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import ShapeError, StateError, require_finite
from .tensor import Tensor4


class Mode(Enum):
    TRAIN = "train"
    TEST = "test"


# geometry defaults applied when an architecture string gives none
DEFAULT_CONV_KERNEL = (3, 3)
DEFAULT_CONV_STRIDE = 1
DEFAULT_CONV_PAD = 1
DEFAULT_POOL_KERNEL = 2
DEFAULT_POOL_STRIDE = 2
DEFAULT_DROPOUT_P = 0.5


@dataclass(frozen=True)
class ConvConfig:
    filters: int
    kernel: tuple[int, int] = DEFAULT_CONV_KERNEL
    stride: int = DEFAULT_CONV_STRIDE
    pad: int = DEFAULT_CONV_PAD

    def __post_init__(self):
        if self.filters < 1:
            raise ValueError(f"filters must be >= 1, got {self.filters}")
        if self.kernel[0] < 1 or self.kernel[1] < 1:
            raise ValueError(f"kernel dims must be >= 1, got {self.kernel}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.pad < 0:
            raise ValueError(f"pad must be >= 0, got {self.pad}")


@dataclass(frozen=True)
class LrnConfig:
    k: float = 2.0
    n: int = 5
    alpha: float = 1e-4
    beta: float = 0.75

    def __post_init__(self):
        require_finite(self, "k", "alpha", "beta")
        if self.n < 1 or self.n % 2 == 0:
            raise ValueError(f"window size n must be odd and >= 1, got {self.n}")
        if not self.k > 0:
            raise ValueError(f"k must be > 0, got {self.k}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not self.beta > 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")


@dataclass(frozen=True)
class DropoutConfig:
    p: float = DEFAULT_DROPOUT_P  # probability of dropping a neuron

    def __post_init__(self):
        if not 0.0 <= self.p < 1.0:
            raise ValueError(f"p must be in [0, 1), got {self.p}")


def conv_out_dim(size: int, kernel: int, stride: int, pad: int, what: str = "conv") -> int:
    """Exact output size (size + 2*pad - kernel)/stride + 1; ShapeError if not integral."""
    span = size + 2 * pad - kernel
    if span < 0 or span % stride != 0:
        raise ShapeError(
            f"{what}: ({size} + 2*{pad} - {kernel}) not a non-negative multiple of stride {stride}"
        )
    return span // stride + 1


# ---------------------------------------------------------------------------
# the layer-kind table: token, count, options and geometry of each kind

class Realized(NamedTuple):
    cfg: object  # ConvConfig / LrnConfig / DropoutConfig / (k, stride) / None
    out_dims: tuple[int, int, int]
    param_shapes: dict  # name -> dims, in the order the weights are drawn

    @property
    def param_count(self) -> int:
        return sum(math.prod(dims) for dims in self.param_shapes.values())


def _dense_params(count: int, fan_dims: tuple) -> dict:
    """Weights (count, *fan_dims) and a (1, count, 1, 1) bias."""
    return {"w": (count, *fan_dims), "b": (1, count, 1, 1)}


def _realize_conv(spec, dims) -> Realized:
    c, h, w = dims
    k = spec.opts.get("k", DEFAULT_CONV_KERNEL[0])
    cfg = ConvConfig(spec.count, (k, k), spec.opts.get("s", DEFAULT_CONV_STRIDE),
                     spec.opts.get("p", DEFAULT_CONV_PAD))
    out = (spec.count, conv_out_dim(h, k, cfg.stride, cfg.pad),
           conv_out_dim(w, k, cfg.stride, cfg.pad))
    return Realized(cfg, out, _dense_params(spec.count, (c, k, k)))


def _realize_maxpool(spec, dims) -> Realized:
    c, h, w = dims
    k, s = spec.opts.get("k", DEFAULT_POOL_KERNEL), spec.opts.get("s", DEFAULT_POOL_STRIDE)
    if k < 1 or s < 1:
        raise ValueError(f"pool kernel/stride must be >= 1, got k={k} s={s}")
    out = (c, conv_out_dim(h, k, s, 0, "maxpool"), conv_out_dim(w, k, s, 0, "maxpool"))
    return Realized((k, s), out, {})


def _realize_fc(spec, dims) -> Realized:
    return Realized(None, (spec.count, 1, 1), _dense_params(spec.count, (math.prod(dims), 1, 1)))


def _realize_softmax(spec, dims) -> Realized:
    c, h, w = dims
    if (h, w) != (1, 1):
        raise ShapeError(f"Softmax needs (C,1,1) input, got ({c},{h},{w})")
    return Realized(None, dims, {})


class Kind(NamedTuple):
    token: str  # its name in architecture strings
    counted: bool  # the token takes a count: filters for conv, neurons for fc
    opts: dict  # bracket option -> value type (int or float)
    realize: Callable  # (LayerSpec, in_dims) -> Realized; ShapeError, ValueError if bad


#: kind -> Kind; the parser, the printer and shape inference read this table
KINDS = {
    "conv": Kind("Conv", True, {"k": int, "s": int, "p": int}, _realize_conv),
    "relu": Kind("ReLU", False, {}, lambda spec, dims: Realized(None, dims, {})),
    "maxpool": Kind("MaxPool", False, {"k": int, "s": int}, _realize_maxpool),
    "lrn": Kind("LRN", False, {"n": int, "k": float, "alpha": float, "beta": float},
                lambda spec, dims: Realized(LrnConfig(**spec.opts), dims, {})),
    "dropout": Kind("Dropout", False, {"p": float},
                    lambda spec, dims: Realized(DropoutConfig(**spec.opts), dims, {})),
    "fc": Kind("FC", True, {}, _realize_fc),
    "softmax": Kind("Softmax", False, {}, _realize_softmax),
}


# ---------------------------------------------------------------------------
# convolution

#: grid rows per block of conv's forward and input gradient; a block is
#: whole images, at least one. Timed when a test-mode forward ran conv on
#: the whole batch: M4's test-mode forward at 32x32 in float32, batch 256,
#: took (median of 4, 2 vCPU) 1.37-1.41 s for 1024 to 8192 rows, 1.45 s
#: for 16384, 1.73 s for 65536 and 2.09 s as one block of the whole batch.
#: Conv now sees slices of ``trainer.TRUNK_PIECE`` images in test mode and
#: the training batch in train mode; the value was not timed again on those.
CONV_BLOCK_ROWS = 2048


class ConvCache(NamedTuple):
    x: np.ndarray  # the forward input (n, c, h, w), not a copy
    x_dims: tuple
    weights: np.ndarray  # (f, c, kh, kw), in the input's dtype
    cfg: ConvConfig
    input_grad: bool = True  # False: backward returns None for grad_input
    param_grads: bool = True  # False: backward computes no "w"/"b" and returns {}


def _tap_offsets(kh: int, kw: int, grid_w: int) -> list[int]:
    """Row offset of kernel tap (u, v) on a row grid grid_w wide, row-major."""
    return [u * grid_w + v for u in range(kh) for v in range(kw)]


def _tap_sums(src: np.ndarray, put: tuple[int, int], mats: np.ndarray, offsets: list[int],
              grid_hw: tuple[int, int], take: tuple[int, int], out: np.ndarray,
              bias: np.ndarray | None = None) -> None:
    """Shifted GEMMs over an NHWC row grid, on blocks of whole images.

    Each image of src (n, c, sh, sw) sits on a zero grid of grid_hw
    positions, one row of c each, at rows and columns start + step*j of
    ``put = (start, step)``. acc[r] = sum_t grid[r + offsets[t]] @ mats[t]
    is summed in tap order, with -min(offsets) zero rows ahead of the
    grid, and out (n, cols, oh, ow) gets acc at the positions of ``take``,
    plus ``bias``. A block is whole images, at least one, of about
    CONV_BLOCK_ROWS grid rows, on one reused grid, accumulator and tap
    term, so its working set stays in cache. Each sum row depends only on
    its own operands, so blocking changes no bit unless the BLAS picks
    its kernel by row count.
    """
    n, c, sh, sw = src.shape
    hg, wg = grid_hw
    (p0, ps), (t0, ts), (oh, ow) = put, take, out.shape[2:]
    lead, tail, cols = -min(offsets), max(offsets), mats.shape[2]
    starts = [lead + off for off in offsets]  # each tap's first row in ``rows``
    per = min(n, max(1, CONV_BLOCK_ROWS // (hg * wg)))  # images per block
    rows = np.zeros((lead + per * hg * wg, c), dtype=src.dtype)
    grid = rows[lead:].reshape(per, hg, wg, c)
    acc = np.empty((per * hg * wg, cols), dtype=src.dtype)
    term = np.empty((per * hg * wg - tail, cols), dtype=src.dtype)
    for i0 in range(0, n, per):
        nb = min(per, n - i0)
        grid[:nb, p0:p0 + ps * sh:ps, p0:p0 + ps * sw:ps] = src[i0:i0 + nb].transpose(0, 2, 3, 1)
        length = nb * hg * wg - tail
        sums, tap = acc[:length], term[:length]
        np.matmul(rows[starts[0]:starts[0] + length], mats[0], out=sums)
        for start, mat in zip(starts[1:], mats[1:]):
            np.matmul(rows[start:start + length], mat, out=tap)
            sums += tap
        valid = acc[:nb * hg * wg].reshape(nb, hg, wg, cols)
        valid = valid[:, t0:t0 + ts * oh:ts, t0:t0 + ts * ow:ts].transpose(0, 3, 1, 2)
        if bias is None:
            out[i0:i0 + nb] = valid
        else:
            np.add(valid, bias, out=out[i0:i0 + nb])


def conv2d_forward(x: Tensor4, weights: Tensor4, bias: Tensor4,
                   cfg: ConvConfig) -> tuple[Tensor4, ConvCache]:
    """Cross-correlate x (n,c,h,w) with weights (f,c,kh,kw) plus bias (1,f,1,1).

    out[i,f,y,x] = bias[f] + sum_{j,u,v} x_pad[i,j,y*s+u,x*s+v] * w[f,j,u,v]

    The padded input is laid out as NHWC rows, one per grid position, so
    tap (u, v) reads the rows u*Wp + v further on: the stride-1 result on
    the grid is kh*kw shifted GEMMs (``_tap_sums``, on blocks of whole
    images), of which the output keeps every s-th valid position. The
    cache holds the input itself, not a copy, for backward; the trainer's
    test-mode adapter drops it.
    """
    n, c, h, w = x.dims
    f, wc, kh, kw = weights.dims
    if wc != c:
        raise ShapeError(f"weight channels {wc} != input channels {c}")
    if (kh, kw) != tuple(cfg.kernel) or f != cfg.filters:
        raise ShapeError(f"weights {weights.dims} disagree with config {cfg}")
    if bias.dims != (1, f, 1, 1):
        raise ShapeError(f"bias dims {bias.dims}, expected (1, {f}, 1, 1)")
    s, p = cfg.stride, cfg.pad
    ho = conv_out_dim(h, kh, s, p)
    wo = conv_out_dim(w, kw, s, p)
    hp, wp = h + 2 * p, w + 2 * p

    dtype = x.data.dtype
    wd = weights.data.astype(dtype, copy=False)
    b = bias.data.astype(dtype, copy=False).reshape(1, f, 1, 1)
    out = np.empty((n, f, ho, wo), dtype=dtype)
    _tap_sums(x.data, (p, 1), wd.transpose(2, 3, 1, 0).reshape(kh * kw, c, f),
              _tap_offsets(kh, kw, wp), (hp, wp), (0, s), out, b)
    return Tensor4(out), ConvCache(x.data, x.dims, wd, cfg)


def conv2d_backward(cache: ConvCache, grad_out: Tensor4) -> tuple[Tensor4 | None, dict]:
    """Return (grad_input, {"w": grad_weights, "b": grad_bias});
    grad_input is None when ``cache.input_grad`` is False, and the dict
    is empty when ``cache.param_grads`` is False.

    grad_w[:, :, u, v] is one (f x K)(K x c) GEMM over the K output
    positions of the whole batch, its patch copied from the zero-padded
    input as an NHWC grid into one reused buffer.
    grad_x is the forward's shifted GEMMs run backwards on the same image
    blocks: the gradient sits on the padded grid at the output positions
    (zero elsewhere), tap (u, v) reads it u*Wp + v rows back, and grad_x
    keeps the valid interior.
    """
    if cache is None:
        raise StateError("conv backward called without cached forward state")
    x, x_dims, wd, cfg, input_grad, param_grads = cache
    n, c, h, w = x_dims
    f, _, kh, kw = wd.shape
    s, p = cfg.stride, cfg.pad
    go = grad_out.data
    ho, wo = go.shape[2], go.shape[3]
    if go.shape != (n, f, ho, wo) or ho != conv_out_dim(h, kh, s, p) or wo != conv_out_dim(w, kw, s, p):
        raise ShapeError(f"grad_out dims {go.shape} do not match forward output")
    hp, wp = h + 2 * p, w + 2 * p

    grads = {}
    if param_grads:
        grad_b = go.sum(axis=(0, 2, 3)).reshape(1, f, 1, 1)
        grid = np.zeros((n, hp, wp, c), dtype=x.dtype)
        grid[:, p:p + h, p:p + w] = x.transpose(0, 2, 3, 1)
        go_fk = go.transpose(1, 0, 2, 3).reshape(f, n * ho * wo)
        patch = np.empty((n, ho, wo, c), dtype=x.dtype)
        grad_w = np.empty_like(wd)
        for u in range(kh):
            for v in range(kw):
                patch[...] = grid[:, u:u + s * ho:s, v:v + s * wo:s]
                grad_w[:, :, u, v] = go_fk @ patch.reshape(n * ho * wo, c)
        del go_fk, grid, patch
        grads = {"w": Tensor4(grad_w), "b": Tensor4(grad_b)}
    if not input_grad:
        return None, grads

    gx = np.empty((n, c, h, w), dtype=x.dtype)
    _tap_sums(go, (0, s), wd.transpose(2, 3, 0, 1).reshape(kh * kw, f, c),
              [-t for t in _tap_offsets(kh, kw, wp)], (hp, wp), (p, 1), gx)
    return Tensor4(gx), grads


# ---------------------------------------------------------------------------
# relu

def relu_forward(x: Tensor4, mode: Mode = Mode.TRAIN) -> tuple[Tensor4, np.ndarray | None]:
    """max(0, x), with +0 for -0 and for NaN; the train-mode cache is the
    positive mask (gradient at exactly 0 is 0), test mode caches nothing."""
    out = np.fmax(x.data, 0)  # fmax maps NaN to 0
    out += 0  # -0 -> +0
    return Tensor4(out), (x.data > 0 if mode is Mode.TRAIN else None)


def relu_backward(mask: np.ndarray, grad_out: Tensor4) -> Tensor4:
    if mask is None:
        raise StateError("relu backward called without cached forward state")
    if mask.shape != grad_out.dims:
        raise ShapeError(f"grad_out dims {grad_out.dims} != forward dims {mask.shape}")
    return Tensor4(grad_out.data * mask)


# ---------------------------------------------------------------------------
# max pooling

def _pool_windows(a: np.ndarray, k: int, stride: int) -> list[np.ndarray]:
    """The k*k strided views of a (n,c,h,w): entry u*k + v holds element
    (u, v) of every window, shaped like the output."""
    ho = conv_out_dim(a.shape[2], k, stride, 0, "maxpool")
    wo = conv_out_dim(a.shape[3], k, stride, 0, "maxpool")
    return [a[:, :, u:u + stride * ho:stride, v:v + stride * wo:stride]
            for u in range(k) for v in range(k)]


def _window_max(windows: list[np.ndarray]) -> np.ndarray:
    out = windows[0].copy()
    for view in windows[1:]:
        np.maximum(view, out, out=out)  # on a tie of +0 and -0 keeps the earlier one
    return out


def _first_max_tap(windows: list[np.ndarray], out: np.ndarray) -> np.ndarray:
    """Index u*k + v into ``windows`` of each window's first maximizer: the
    first view that equals the window's maximum ``out`` or is NaN, as in
    np.argmax. Counts, per window, the views before that one; the last
    view is never tested, as a window that missed every other routes there."""
    tap = np.zeros(out.shape, dtype=np.min_scalar_type(len(windows) - 1))
    unrouted = np.ones(out.shape, dtype=bool)
    miss, not_nan = np.empty_like(unrouted), np.empty_like(unrouted)
    for view in windows[:-1]:
        np.not_equal(view, out, out=miss)
        miss &= np.equal(view, view, out=not_nan)  # a NaN is its window's maximizer
        unrouted &= miss
        tap += unrouted
    return tap


class PoolCache(NamedTuple):
    tap: np.ndarray  # (n,c,ho,wo): u*k + v of each window's first maximizer, uint8 for k <= 16
    x_dims: tuple
    k: int
    stride: int

    @property
    def argmax(self) -> np.ndarray:
        """Flat input offset of each window's first (row-major) maximizer,
        shape (n,c,ho,wo), int64; a NaN counts as the maximum, as in
        np.argmax. Tap t = u*k + v lies u*w + v = t + u*(w - k) past its
        window's element (0, 0)."""
        n, c, h, w = self.x_dims
        k, s, ho, wo = self.k, self.stride, *self.tap.shape[2:]
        offsets = self.tap.astype(np.int64)
        offsets //= k
        offsets *= w - k
        offsets += self.tap
        offsets += np.arange(0, n * c * h * w, h * w, dtype=np.int64).reshape(n, c, 1, 1)
        offsets += np.arange(0, s * ho * w, s * w, dtype=np.int64).reshape(ho, 1)
        offsets += np.arange(0, s * wo, s, dtype=np.int64)
        return offsets


def maxpool_forward(x: Tensor4, k: int, stride: int,
                    mode: Mode = Mode.TRAIN) -> tuple[Tensor4, PoolCache | None]:
    """Max over k*k windows, as a running np.maximum over the k*k strided
    views (a NaN in a window gives a NaN). Train mode caches only the tap
    of each window's first maximizer, to which backward routes its
    gradient; test mode caches nothing."""
    windows = _pool_windows(x.data, k, stride)
    out = _window_max(windows)
    if mode is not Mode.TRAIN:
        return Tensor4(out), None
    return Tensor4(out), PoolCache(_first_max_tap(windows, out), x.dims, k, stride)


def maxpool_backward(cache: PoolCache, grad_out: Tensor4) -> Tensor4:
    if cache is None:
        raise StateError("maxpool backward called without cached forward state")
    if grad_out.dims != cache.tap.shape:
        raise ShapeError(f"grad_out dims {grad_out.dims} != forward output dims {cache.tap.shape}")
    gx = np.zeros(cache.x_dims, dtype=grad_out.data.dtype)
    np.add.at(gx.reshape(-1), cache.argmax.ravel(), grad_out.data.ravel())
    return Tensor4(gx)


# ---------------------------------------------------------------------------
# local response normalization (across channels)

class LrnCache(NamedTuple):
    x: np.ndarray
    scale: np.ndarray  # k + alpha * windowed sum of squares
    cfg: LrnConfig


def _channel_window_sum(a: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """out[j] = sum of a[j + d] over the window d in [-n//2, n//2], added in
    window order into a zeroed ``out``, for one (c, h, w) image; terms
    beyond the channel edges are skipped, as adding +0 to a sum that
    starts at +0 changes no bit."""
    half, c = n // 2, a.shape[0]
    out.fill(0)
    for d in range(-half, half + 1):
        lo, hi = max(0, -d), min(c, c - d)
        if lo < hi:
            out[lo:hi] += a[lo + d:hi + d]
    return out


def lrn_forward(x: Tensor4, cfg: LrnConfig,
                mode: Mode = Mode.TRAIN) -> tuple[Tensor4, LrnCache | None]:
    """b[i] = a[i] / (k + alpha * sum_{j in window(i)} a[j]^2)^beta,
    window spanning n channels centered on i, clamped at the edges.
    Runs one image at a time on two reused (c, h, w) buffers; only train
    mode caches the scale (the bracketed denominator) for backward."""
    a = x.data
    out = np.empty_like(a)
    scale = np.empty_like(a) if mode is Mode.TRAIN else None
    sq, acc = np.empty_like(a[0]), np.empty_like(a[0])
    for i in range(a.shape[0]):
        np.multiply(a[i], a[i], out=sq)
        _channel_window_sum(sq, cfg.n, acc)
        acc *= cfg.alpha
        acc += cfg.k
        if scale is not None:
            scale[i] = acc
        acc **= -cfg.beta  # as scale ** -beta: NumPy may route some exponents to other ufuncs
        np.multiply(a[i], acc, out=out[i])
    return Tensor4(out), (LrnCache(a, scale, cfg) if scale is not None else None)


def lrn_backward(cache: LrnCache, grad_out: Tensor4) -> Tensor4:
    """grad_x = g * scale^-beta - 2*alpha*beta * a * window_sum(g * a * scale^(-beta-1)),
    one image at a time."""
    if cache is None:
        raise StateError("lrn backward called without cached forward state")
    a, scale, cfg = cache
    if grad_out.dims != a.shape:
        raise ShapeError(f"grad_out dims {grad_out.dims} != forward dims {a.shape}")
    g = grad_out.data
    gx = np.empty_like(a)
    term = np.empty(a.shape[1:], dtype=np.result_type(g, a))
    inner = np.empty_like(term)
    coef = 2.0 * cfg.alpha * cfg.beta
    for i in range(a.shape[0]):
        np.multiply(g[i], a[i], out=term)
        term *= scale[i] ** (-cfg.beta - 1.0)
        _channel_window_sum(term, cfg.n, inner)
        np.multiply(a[i], coef, out=term)
        term *= inner
        np.multiply(g[i], scale[i] ** (-cfg.beta), out=inner)
        np.subtract(inner, term, out=gx[i])
    return Tensor4(gx)


# ---------------------------------------------------------------------------
# dropout

def dropout_apply(x: Tensor4, cfg: DropoutConfig, mode: Mode,
                  rng: np.random.Generator | None = None) -> tuple[Tensor4, np.ndarray | None]:
    """Train: zero each element independently with probability p (mask
    records kept positions). Test: scale everything by (1 - p), no mask.
    One uniform draw per element per training call."""
    if mode is Mode.TRAIN:
        if rng is None:
            raise ValueError("dropout in train mode needs an rng")
        mask = rng.random(size=x.dims) >= cfg.p
        return Tensor4(x.data * mask), mask
    return Tensor4(x.data * (1.0 - cfg.p)), None


def dropout_backward(mask: np.ndarray, grad_out: Tensor4) -> Tensor4:
    """Train-mode backward: gradient flows only through kept positions."""
    if mask is None:
        raise StateError("dropout backward called without cached mask")
    if mask.shape != grad_out.dims:
        raise ShapeError(f"grad_out dims {grad_out.dims} != mask dims {mask.shape}")
    return Tensor4(grad_out.data * mask)


# ---------------------------------------------------------------------------
# fully connected

#: output rows per block of the weight gradient that ``fc_backward`` hands
#: its sink; the last block takes the remainder, so a layer with fewer than
#: 2 * FC_BLOCK_ROWS outputs is one block, the whole GEMM
FC_BLOCK_ROWS = 64


class FcCache(NamedTuple):
    x_flat: np.ndarray
    x_dims: tuple
    weights: np.ndarray
    sink: Callable | None = None  # takes the weight gradient's row blocks; see fc_backward
    param_grads: bool = True  # False: backward computes no "w"/"b" and returns {}


def fc_forward(x: Tensor4, weights: Tensor4, bias: Tensor4) -> tuple[Tensor4, FcCache]:
    """out[i,o] = bias[o] + sum_k flat(x)[i,k] * w[o,k]; weights are
    (out, c*h*w, 1, 1), flattening follows the tensor's row-major layout."""
    n = x.dims[0]
    in_size = x.dims[1] * x.dims[2] * x.dims[3]
    out_size, w_in = weights.dims[0], weights.dims[1]
    if weights.dims[2:] != (1, 1):
        raise ShapeError(f"FC weights must be (out, in, 1, 1), got {weights.dims}")
    if w_in != in_size:
        raise ShapeError(f"FC weight inner dim {w_in} != flattened input size {in_size}")
    if bias.dims != (1, out_size, 1, 1):
        raise ShapeError(f"bias dims {bias.dims}, expected (1, {out_size}, 1, 1)")
    x_flat = x.data.reshape(n, in_size)
    wd = weights.data.reshape(out_size, in_size).astype(x.data.dtype, copy=False)
    out = x_flat @ wd.T + bias.data.reshape(out_size).astype(x.data.dtype, copy=False)
    return Tensor4(out.reshape(n, out_size, 1, 1)), FcCache(x_flat, x.dims, wd)


def fc_backward(cache: FcCache, grad_out: Tensor4) -> tuple[Tensor4, dict]:
    """Return (grad_input, {"w": grad_weights, "b": grad_bias}), or
    (grad_input, {}) when ``cache.param_grads`` is False.

    With ``cache.sink`` set, the weight gradient goes to the sink instead,
    as ``sink(lo, rows)`` for blocks of FC_BLOCK_ROWS output rows starting
    at row ``lo`` (each (rows, in)), and the dict holds only "b": the
    whole weight gradient never exists. The input gradient is computed
    first, from the weights the sink may then update (the cached weights
    are a view of them)."""
    if cache is None:
        raise StateError("fc backward called without cached forward state")
    x_flat, x_dims, wd, sink, param_grads = cache
    n, out_size = x_flat.shape[0], wd.shape[0]
    if grad_out.dims != (n, out_size, 1, 1):
        raise ShapeError(f"grad_out dims {grad_out.dims}, expected ({n}, {out_size}, 1, 1)")
    go = grad_out.data.reshape(n, out_size)
    gx = (go @ wd).reshape(x_dims)
    if not param_grads:
        return Tensor4(gx), {}
    grad_b = go.sum(axis=0).reshape(1, out_size, 1, 1)
    if sink is None:
        grad_w = (go.T @ x_flat).reshape(out_size, x_flat.shape[1], 1, 1)
        return Tensor4(gx), {"w": Tensor4(grad_w), "b": Tensor4(grad_b)}
    blocks = max(1, out_size // FC_BLOCK_ROWS)
    for i in range(blocks):
        lo = i * FC_BLOCK_ROWS
        hi = lo + FC_BLOCK_ROWS if i + 1 < blocks else out_size
        sink(lo, go[:, lo:hi].T @ x_flat)
    return Tensor4(gx), {"b": Tensor4(grad_b)}


# ---------------------------------------------------------------------------
# softmax + cross-entropy loss

def softmax_cross_entropy(logits: Tensor4, labels) -> tuple[float, Tensor4, Tensor4]:
    """Mean cross-entropy over the batch with max-subtracted softmax.

    Returns (loss, probs, grad_logits) where
    grad_logits[i] = (probs[i] - onehot(label_i)) / n.
    """
    n, ncls = logits.dims[0], logits.dims[1]
    if logits.dims[2:] != (1, 1):
        raise ShapeError(f"logits must be (n, C, 1, 1), got {logits.dims}")
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (n,):
        raise ShapeError(f"labels must have length {n}, got shape {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= ncls):
        raise ValueError(f"label out of range [0, {ncls})")

    z = logits.data.reshape(n, ncls).astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    denom = ez.sum(axis=1, keepdims=True)
    probs = ez / denom
    log_probs = z - np.log(denom)
    loss = float(-log_probs[np.arange(n), y].mean())

    grad = probs.copy()
    grad[np.arange(n), y] -= 1.0
    grad /= n
    dtype = logits.data.dtype
    return (
        loss,
        Tensor4(probs.reshape(n, ncls, 1, 1).astype(dtype)),
        Tensor4(grad.reshape(n, ncls, 1, 1).astype(dtype)),
    )
