"""Finite-difference verification of every analytic gradient.

One generic check runs each layer kind's cases through the trainer's
forward/backward table. It builds a scalar probe loss L from the layer's
output (the sum of output * R for a fixed random R, or the cross-entropy
loss itself), computes the analytic gradient through the backward pass,
and compares it elementwise against central differences
(f(x+eps) - f(x-eps)) / 2eps in double precision.

Relative error is |a - b| / max(1e-8, |a| + |b|), and a check passes
when its maximum over all components is below the threshold.
"""

from __future__ import annotations

import copy

import numpy as np

from . import archdsl, trainer
from .archdsl import LayerSpec
from .layers import Mode, realize, softmax_cross_entropy
from .tensor import Tensor4

EPS = 1e-5
THRESHOLD = 1e-4


def numerical_grad(f, x: np.ndarray, eps: float = EPS) -> np.ndarray:
    """Central finite differences of a scalar function, elementwise."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def max_rel_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(1e-8, np.abs(a) + np.abs(b))
    return float((np.abs(a - b) / denom).max())


def _worst(loss, pairs) -> float:
    """Max relative error over (analytic gradient, input array) pairs."""
    return max(max_rel_error(got, numerical_grad(loss, arr)) for got, arr in pairs)


def _normal(rng, dims):
    return rng.standard_normal(dims)


def _off_kink(rng, dims):
    x = rng.standard_normal(dims)
    x += np.sign(x) * 0.1  # keep every element away from ReLU's kink at 0
    return x


def _distinct(rng, dims):
    # distinct values with gaps far above eps, so no maxpool argmax flips
    return (rng.permutation(np.prod(dims)).astype(np.float64) * 0.01).reshape(dims)


def _random_probe(rng, out):
    """L = sum(out * R) for a fixed random R, whose gradient is R."""
    r = rng.standard_normal(out.dims)
    return lambda o: float((o.data * r).sum()), Tensor4(r)


def _xent_probe(rng, out):
    """L = the cross-entropy of the logits ``out`` for random labels."""
    labels = rng.integers(0, out.dims[1], size=out.dims[0])
    return (lambda o: softmax_cross_entropy(o, labels)[0],
            softmax_cross_entropy(out, labels)[2])


#: kind -> cases of (input maker, input dims, layer, probe); every
#: parameter is drawn standard normal after the input
CASES = {
    "conv": [  # shape-preserving and strided geometries
        (_normal, (2, 3, 5, 5), LayerSpec("conv", 4, {"k": 3, "s": 1, "p": 1}), _random_probe),
        (_normal, (2, 2, 6, 6), LayerSpec("conv", 3, {"k": 2, "s": 2, "p": 0}), _random_probe),
    ],
    "relu": [(_off_kink, (2, 3, 5, 5), LayerSpec("relu"), _random_probe)],
    "maxpool": [  # non-overlapping and overlapping windows
        (_distinct, (2, 3, 6, 6), LayerSpec("maxpool", opts={"k": 2, "s": 2}), _random_probe),
        (_distinct, (2, 2, 7, 7), LayerSpec("maxpool", opts={"k": 3, "s": 2}), _random_probe),
    ],
    "lrn": [(_normal, (2, 6, 4, 4),
             LayerSpec("lrn", opts={"k": 2.0, "n": 5, "alpha": 0.05, "beta": 0.75}),
             _random_probe)],
    "dropout": [(_normal, (2, 3, 5, 5), LayerSpec("dropout", opts={"p": 0.5}), _random_probe)],
    "fc": [(_normal, (2, 3, 4, 4), LayerSpec("fc", 5), _random_probe)],
    "softmax": [(_normal, (4, 7, 1, 1), LayerSpec("softmax"), _xent_probe)],
}


def check_layer(kind: str, seed: int = 0) -> float:
    """Input and parameter gradients of every case of ``kind``, through
    the trainer's forward/backward adapters in train mode, against central
    differences. The probe loss reruns the forward on a copy of the
    generator as it was before the analytic forward, so dropout keeps the
    same mask throughout."""
    forward, backward = trainer.DISPATCH[kind]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for make_input, dims, spec, probe in CASES[kind]:
        x = Tensor4(make_input(rng, dims))
        layer = realize(spec, dims[1:])
        params = {name: Tensor4(rng.standard_normal(d)) for name, d in layer.param_shapes.items()}
        node = trainer.LayerNode(spec, layer.cfg, params)
        replay = copy.deepcopy(rng)
        out, cache = forward(node, x, Mode.TRAIN, rng)
        probe_loss, grad_out = probe(rng, out)

        def loss() -> float:
            return probe_loss(forward(node, x, Mode.TRAIN, copy.deepcopy(replay))[0])

        gx, grads = backward(cache, grad_out)
        pairs = [(gx.data, x.data)] + [(grads[k].data, p.data) for k, p in params.items()]
        worst = max(worst, _worst(loss, pairs))
    return worst


TINY_ARCH = "IMG-(Conv2-ReLU-MaxPool)-(FC4-ReLU-FC3)-Softmax"


def check_network(seed: int = 0) -> float:
    """Whole-network check over a small conv/pool/fc stack on 8x8 input:
    every parameter gradient plus the input gradient against central
    differences of the cross-entropy loss."""
    rng = np.random.default_rng(seed)
    net = trainer.build(archdsl.parse(TINY_ARCH, (3, 8, 8)), seed=seed)
    x = Tensor4(rng.standard_normal((2, 3, 8, 8)))
    labels = rng.integers(0, 3, size=2)

    def loss() -> float:
        logits = net.forward(x, Mode.TEST)
        l, _, _ = softmax_cross_entropy(logits, labels)
        return l

    logits = net.forward(x, Mode.TRAIN)
    _, _, grad_logits = softmax_cross_entropy(logits, labels)
    grads = net.backward(grad_logits)

    pairs = [(grads[key].data, p.data) for key, p in net.param_dict().items()]
    return _worst(loss, pairs + [(net._grad_input.data, x.data)])


LAYER_KINDS = (*trainer.DISPATCH, "network")


def run_checks(only: str | None = None, seed: int = 0) -> dict[str, float]:
    """Run one or all finite-difference suites; returns kind -> max
    relative error."""
    if only is not None and only not in LAYER_KINDS:
        raise ValueError(f"unknown check {only!r}; expected one of {LAYER_KINDS}")
    results = {kind: check_layer(kind, seed) for kind in trainer.DISPATCH if only in (None, kind)}
    if only in (None, "network"):
        results["network"] = check_network(seed)
    return results
