"""Forward and backward passes for every layer type the engine supports.

Layers are pure functions: each ``*_forward`` returns its output plus a
cache object, and the matching ``*_backward`` turns the cache and an
upstream gradient into input/parameter gradients. Shapes follow NCHW
throughout. ``GEOMETRY`` holds each kind's ``realize``: its validated
config, output dims and parameter shapes for a given input.

Output spatial dims obey the exact-division rule: (H + 2*pad - k) must
be divisible by the stride, otherwise a ShapeError is raised. This makes
bad architecture geometry fail at build time instead of silently
flooring away pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError, StateError
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
DEFAULT_LRN = dict(k=2.0, n=5, alpha=1e-4, beta=0.75)


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
    k: float = DEFAULT_LRN["k"]
    n: int = DEFAULT_LRN["n"]
    alpha: float = DEFAULT_LRN["alpha"]
    beta: float = DEFAULT_LRN["beta"]

    def __post_init__(self):
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
# geometry: one realize function per layer kind

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


def _realize_conv(spec, dims, dropout_p) -> Realized:
    c, h, w = dims
    k = spec.opts.get("k", DEFAULT_CONV_KERNEL[0])
    cfg = ConvConfig(spec.count, (k, k), spec.opts.get("s", DEFAULT_CONV_STRIDE),
                     spec.opts.get("p", DEFAULT_CONV_PAD))
    out = (spec.count, conv_out_dim(h, k, cfg.stride, cfg.pad),
           conv_out_dim(w, k, cfg.stride, cfg.pad))
    return Realized(cfg, out, _dense_params(spec.count, (c, k, k)))


def _realize_maxpool(spec, dims, dropout_p) -> Realized:
    c, h, w = dims
    k, s = spec.opts.get("k", DEFAULT_POOL_KERNEL), spec.opts.get("s", DEFAULT_POOL_STRIDE)
    if k < 1 or s < 1:
        raise ValueError(f"pool kernel/stride must be >= 1, got k={k} s={s}")
    out = (c, conv_out_dim(h, k, s, 0, "maxpool"), conv_out_dim(w, k, s, 0, "maxpool"))
    return Realized((k, s), out, {})


def _realize_fc(spec, dims, dropout_p) -> Realized:
    return Realized(None, (spec.count, 1, 1), _dense_params(spec.count, (math.prod(dims), 1, 1)))


def _realize_softmax(spec, dims, dropout_p) -> Realized:
    c, h, w = dims
    if (h, w) != (1, 1):
        raise ShapeError(f"Softmax needs (C,1,1) input, got ({c},{h},{w})")
    return Realized(None, dims, {})


#: kind -> realize(spec, in_dims, dropout_p) -> Realized
GEOMETRY = {
    "conv": _realize_conv,
    "relu": lambda spec, dims, dropout_p: Realized(None, dims, {}),
    "maxpool": _realize_maxpool,
    "lrn": lambda spec, dims, dropout_p: Realized(LrnConfig(**spec.opts), dims, {}),
    "dropout": lambda spec, dims, dropout_p: Realized(
        DropoutConfig(spec.opts.get("p", dropout_p)), dims, {}),
    "fc": _realize_fc,
    "softmax": _realize_softmax,
}


def realize(spec, in_dims: tuple[int, int, int],
            dropout_p: float = DEFAULT_DROPOUT_P) -> Realized:
    """Validated config, (C, H, W) output dims and parameter shapes of one
    parsed layer (an archdsl.LayerSpec) on ``in_dims`` input. ``dropout_p``
    is the drop probability of a Dropout without a ``p`` override. Bad
    geometry raises ShapeError, bad option values ValueError."""
    return GEOMETRY[spec.kind](spec, tuple(in_dims), dropout_p)


# ---------------------------------------------------------------------------
# convolution

class ConvCache(NamedTuple):
    x_padded: np.ndarray
    x_dims: tuple
    weights: np.ndarray
    cfg: ConvConfig


def conv2d_forward(x: Tensor4, weights: Tensor4, bias: Tensor4,
                   cfg: ConvConfig) -> tuple[Tensor4, ConvCache]:
    """Cross-correlate x (n,c,h,w) with weights (f,c,kh,kw) plus bias (1,f,1,1).

    out[i,f,y,x] = bias[f] + sum_{j,u,v} x_pad[i,j,y*s+u,x*s+v] * w[f,j,u,v]
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

    xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p))) if p else x.data
    out = np.zeros((n, f, ho, wo), dtype=x.data.dtype)
    wd = weights.data.astype(x.data.dtype, copy=False)
    for u in range(kh):
        for v in range(kw):
            patch = xp[:, :, u:u + s * ho:s, v:v + s * wo:s]  # (n,c,ho,wo)
            # contract channel axis against the (f,c) slice of the kernel
            out += np.tensordot(patch, wd[:, :, u, v], axes=([1], [1])).transpose(0, 3, 1, 2)
    out += bias.data.astype(x.data.dtype, copy=False).reshape(1, f, 1, 1)
    return Tensor4(out), ConvCache(xp, x.dims, wd, cfg)


def conv2d_backward(cache: ConvCache, grad_out: Tensor4) -> tuple[Tensor4, Tensor4, Tensor4]:
    """Return (grad_input, grad_weights, grad_bias)."""
    if cache is None:
        raise StateError("conv backward called without cached forward state")
    xp, x_dims, wd, cfg = cache
    n, c, h, w = x_dims
    f, _, kh, kw = wd.shape
    s, p = cfg.stride, cfg.pad
    go = grad_out.data
    ho, wo = go.shape[2], go.shape[3]
    if go.shape != (n, f, ho, wo) or ho != conv_out_dim(h, kh, s, p) or wo != conv_out_dim(w, kw, s, p):
        raise ShapeError(f"grad_out dims {go.shape} do not match forward output")

    grad_b = go.sum(axis=(0, 2, 3)).reshape(1, f, 1, 1)
    grad_w = np.zeros_like(wd)
    gxp = np.zeros_like(xp)
    for u in range(kh):
        for v in range(kw):
            patch = xp[:, :, u:u + s * ho:s, v:v + s * wo:s]
            grad_w[:, :, u, v] = np.tensordot(go, patch, axes=([0, 2, 3], [0, 2, 3]))
            gp = np.tensordot(go, wd[:, :, u, v], axes=([1], [0])).transpose(0, 3, 1, 2)
            gxp[:, :, u:u + s * ho:s, v:v + s * wo:s] += gp
    gx = gxp[:, :, p:p + h, p:p + w] if p else gxp
    return Tensor4(gx), Tensor4(grad_w), Tensor4(grad_b)


# ---------------------------------------------------------------------------
# relu

def relu_forward(x: Tensor4) -> tuple[Tensor4, np.ndarray]:
    """max(0, x); cache is the positive mask (gradient at exactly 0 is 0)."""
    mask = x.data > 0
    return Tensor4(np.where(mask, x.data, 0.0).astype(x.data.dtype, copy=False)), mask


def relu_backward(mask: np.ndarray, grad_out: Tensor4) -> Tensor4:
    if mask is None:
        raise StateError("relu backward called without cached forward state")
    if mask.shape != grad_out.dims:
        raise ShapeError(f"grad_out dims {grad_out.dims} != forward dims {mask.shape}")
    return Tensor4(grad_out.data * mask)


# ---------------------------------------------------------------------------
# max pooling

class PoolCache(NamedTuple):
    argmax: np.ndarray  # flat input offsets, shape (n,c,ho,wo)
    x_dims: tuple
    k: int
    stride: int


def maxpool_forward(x: Tensor4, k: int = DEFAULT_POOL_KERNEL,
                    stride: int = DEFAULT_POOL_STRIDE) -> tuple[Tensor4, PoolCache]:
    """Max over k*k windows; records the flat input offset of the first
    (row-major within the window) maximizer for the backward pass."""
    n, c, h, w = x.dims
    ho = conv_out_dim(h, k, stride, 0, "maxpool")
    wo = conv_out_dim(w, k, stride, 0, "maxpool")
    windows = sliding_window_view(x.data, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    flat = windows.reshape(n, c, ho, wo, k * k)
    idx = flat.argmax(axis=-1)  # first occurrence of the max, row-major in window
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

    oy = np.arange(ho).reshape(1, 1, ho, 1) * stride + idx // k
    ox = np.arange(wo).reshape(1, 1, 1, wo) * stride + idx % k
    bi = np.arange(n).reshape(n, 1, 1, 1)
    ci = np.arange(c).reshape(1, c, 1, 1)
    offsets = ((bi * c + ci) * h + oy) * w + ox
    return Tensor4(np.ascontiguousarray(out)), PoolCache(offsets, x.dims, k, stride)


def maxpool_backward(cache: PoolCache, grad_out: Tensor4) -> Tensor4:
    if cache is None:
        raise StateError("maxpool backward called without cached forward state")
    offsets, x_dims, _, _ = cache
    if grad_out.dims != offsets.shape:
        raise ShapeError(f"grad_out dims {grad_out.dims} != forward output dims {offsets.shape}")
    gx = np.zeros(int(np.prod(x_dims)), dtype=grad_out.data.dtype)
    np.add.at(gx, offsets.ravel(), grad_out.data.ravel())
    return Tensor4(gx.reshape(x_dims))


# ---------------------------------------------------------------------------
# local response normalization (across channels)

class LrnCache(NamedTuple):
    x: np.ndarray
    scale: np.ndarray  # k + alpha * windowed sum of squares
    cfg: LrnConfig


def _channel_window_sum(a: np.ndarray, n: int) -> np.ndarray:
    """Sum over the clamped channel window [i - n//2, i + n//2]."""
    half = n // 2
    padded = np.pad(a, ((0, 0), (half, half), (0, 0), (0, 0)))
    c = a.shape[1]
    out = np.zeros_like(a)
    for d in range(n):
        out += padded[:, d:d + c]
    return out


def lrn_forward(x: Tensor4, cfg: LrnConfig) -> tuple[Tensor4, LrnCache]:
    """b[i] = a[i] / (k + alpha * sum_{j in window(i)} a[j]^2)^beta,
    window spanning n channels centered on i, clamped at the edges."""
    a = x.data
    scale = cfg.k + cfg.alpha * _channel_window_sum(a * a, cfg.n)
    out = a * scale ** (-cfg.beta)
    return Tensor4(out.astype(a.dtype, copy=False)), LrnCache(a, scale, cfg)


def lrn_backward(cache: LrnCache, grad_out: Tensor4) -> Tensor4:
    if cache is None:
        raise StateError("lrn backward called without cached forward state")
    a, scale, cfg = cache
    if grad_out.dims != a.shape:
        raise ShapeError(f"grad_out dims {grad_out.dims} != forward dims {a.shape}")
    g = grad_out.data
    inner = _channel_window_sum(g * a * scale ** (-cfg.beta - 1.0), cfg.n)
    gx = g * scale ** (-cfg.beta) - 2.0 * cfg.alpha * cfg.beta * a * inner
    return Tensor4(gx.astype(a.dtype, copy=False))


# ---------------------------------------------------------------------------
# dropout

def dropout_apply(x: Tensor4, cfg: DropoutConfig, mode: Mode,
                  rng: np.random.Generator | None = None) -> tuple[Tensor4, np.ndarray]:
    """Train: zero each element independently with probability p (mask
    records kept positions). Test: scale everything by (1 - p), mask of
    ones. One uniform draw per element per training call."""
    if mode is Mode.TRAIN:
        if rng is None:
            raise ValueError("dropout in train mode needs an rng")
        mask = rng.random(size=x.dims) >= cfg.p
        return Tensor4(x.data * mask), mask
    out = x.data * (1.0 - cfg.p)
    return Tensor4(out.astype(x.data.dtype, copy=False)), np.ones(x.dims, dtype=bool)


def dropout_backward(mask: np.ndarray, grad_out: Tensor4) -> Tensor4:
    """Train-mode backward: gradient flows only through kept positions."""
    if mask is None:
        raise StateError("dropout backward called without cached mask")
    if mask.shape != grad_out.dims:
        raise ShapeError(f"grad_out dims {grad_out.dims} != mask dims {mask.shape}")
    return Tensor4(grad_out.data * mask)


# ---------------------------------------------------------------------------
# fully connected

class FcCache(NamedTuple):
    x_flat: np.ndarray
    x_dims: tuple
    weights: np.ndarray


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


def fc_backward(cache: FcCache, grad_out: Tensor4) -> tuple[Tensor4, Tensor4, Tensor4]:
    """Return (grad_input, grad_weights, grad_bias)."""
    if cache is None:
        raise StateError("fc backward called without cached forward state")
    x_flat, x_dims, wd = cache
    n, out_size = x_flat.shape[0], wd.shape[0]
    if grad_out.dims != (n, out_size, 1, 1):
        raise ShapeError(f"grad_out dims {grad_out.dims}, expected ({n}, {out_size}, 1, 1)")
    go = grad_out.data.reshape(n, out_size)
    grad_w = (go.T @ x_flat).reshape(out_size, x_flat.shape[1], 1, 1)
    grad_b = go.sum(axis=0).reshape(1, out_size, 1, 1)
    gx = (go @ wd).reshape(x_dims)
    return Tensor4(gx), Tensor4(grad_w), Tensor4(grad_b)


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
