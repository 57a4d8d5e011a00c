"""Synthetic image tasks shared by the trainer and acceptance tests, a
binary PPM writer for tests that ingest image files, and the references
that ``trainer.train_step`` and test-mode ``Network.forward`` must match:
the whole-gradient training step and the one-pass forward, and a digest
of a loaded checkpoint's arrays.

Bar images: 3-channel squares with a bright horizontal or vertical bar
at a random position over Gaussian background noise. Orientation is the
label, so a small conv net can learn the task quickly, while noise keeps
it from being trivial at high noise levels.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from microvoc import trainer
from microvoc.augment import Dataset, Sample, mean_subtract, split_60_40
from microvoc.layers import Mode, softmax_cross_entropy
from microvoc.optim import adam_step, apply_l2
from microvoc.tensor import Tensor4


def bar_image(rng: np.random.Generator, size: int, orientation: int, *,
              noise: float, strength: float, thickness: int) -> np.ndarray:
    img = rng.normal(128.0, noise, (1, 3, size, size))
    pos = int(rng.integers(1, size - thickness - 1))
    if orientation == 0:
        img[:, :, pos:pos + thickness, :] += strength
    else:
        img[:, :, :, pos:pos + thickness] += strength
    return np.clip(img, 0.0, 255.0)


def bar_dataset(n: int = 500, size: int = 32, seed: int = 0, *,
                noise: float = 12.0, strength: float = 100.0,
                thickness: int = 4, prefix: str = "bar") -> Dataset:
    """Two classes: horizontal (0) vs vertical (1) bars."""
    rng = np.random.default_rng([seed, 0xBA5])
    samples = []
    for i in range(n):
        label = int(rng.integers(0, 2))
        img = bar_image(rng, size, label, noise=noise, strength=strength,
                        thickness=thickness)
        samples.append(Sample(Tensor4(img), label, f"{prefix}{i}"))
    return mean_subtract(split_60_40(samples, seed))


def fourbar_dataset(n: int = 100, size: int = 32, seed: int = 0, *,
                    noise: float = 50.0, strength: float = 55.0) -> Dataset:
    """Four classes crossing orientation with thickness (thin/thick x
    horizontal/vertical) under heavy noise. Small train splits overfit
    badly, and flips/crops preserve the labels."""
    rng = np.random.default_rng([seed, 0x4BA5])
    thickness = {0: 2, 1: 6, 2: 2, 3: 6}
    samples = []
    for i in range(n):
        label = int(rng.integers(0, 4))
        t = thickness[label]
        img = rng.normal(128.0, noise, (1, 3, size, size))
        pos = int(rng.integers(1, size - t - 1))
        if label < 2:
            img[:, :, pos:pos + t, :] += strength
        else:
            img[:, :, :, pos:pos + t] += strength
        img = np.clip(img, 0.0, 255.0)
        samples.append(Sample(Tensor4(img), label, f"fourbar{i}"))
    return mean_subtract(split_60_40(samples, seed))


def encode_ppm(image: np.ndarray) -> bytes:
    """(3, H, W) values in [0, 255] to binary PPM bytes."""
    c, h, w = image.shape
    if c != 3:
        raise ValueError(f"expected 3 channels, got {c}")
    pixels = np.clip(np.rint(image), 0, 255).astype(np.uint8).transpose(1, 2, 0)
    return b"P6\n%d %d\n255\n" % (w, h) + pixels.tobytes()


def write_ppm(path, image: np.ndarray) -> None:
    Path(path).write_bytes(encode_ppm(image))


def whole_gradient_step(net, x, labels, state, cfg, *, include_biases=False, rng=None):
    """``trainer.train_step`` without streaming: backward returns every
    gradient whole, then ``apply_l2`` over all parameters and
    ``adam_step`` over the unfrozen ones. Returns the loss."""
    logits = net.forward(x, Mode.TRAIN, rng)
    data_loss, _, grad_logits = softmax_cross_entropy(logits, labels)
    grads = net.backward(grad_logits)
    penalty = apply_l2(net.param_dict(), grads, cfg.lam, include_biases)
    adam_step(net.param_dict(trainable_only=True), grads, state, cfg)
    return data_loss + penalty


def one_pass_forward(net, batch):
    """A test-mode forward that runs each layer once on the whole batch,
    as ``Network.forward`` did before its trunk went in slices; returns
    the logits. It runs in the net's dtype, as ``Network.forward`` does."""
    x = batch.astype(net.dtype)
    for node in net.nodes:
        x, _ = trainer.DISPATCH[node.spec.kind][0](node, x, Mode.TEST, None)
    return x


def checkpoint_arrays_sha256(ck) -> str:
    """sha256 over a loaded checkpoint's parameters in ``param_dict``
    order, in their in-memory dtype, then, with Adam state, its step
    count ``t`` as u64 and the m and v moments of each key in sorted order."""
    h = hashlib.sha256()
    for p in ck.net.param_dict().values():
        h.update(p.data)
    if ck.adam_state is not None:
        h.update(np.uint64(ck.adam_state.t).tobytes())
        for key in sorted(ck.adam_state.m):
            h.update(ck.adam_state.m[key].data)
            h.update(ck.adam_state.v[key].data)
    return h.hexdigest()
