"""Dataset preprocessing and label-preserving augmentation.

The pipeline order is: resize every decoded image to the working
resolution, reduce multi-label records to one label, split 60:40 into
train/val, subtract the train split's per-channel means from both
splits. Augmentation (flip + random crops, a 5x expansion) applies to
the train split only and preserves labels.

The expansion stores no pixels: each flip and crop is a ``View`` of its
source sample (the crop offsets are drawn up front), and ``stack_batch``,
the one place that turns train entries into pixels, builds a batch's
flips and crops when the batch is assembled. Memory stays that of the
un-augmented split.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import StateError
from .tensor import Tensor4

_STREAM_SPLIT = 0x51
_STREAM_AUG = 0x52


@dataclass
class Sample:
    image: Tensor4  # (1, 3, H, W)
    label: int
    id: str


@dataclass
class Dataset:
    samples: list[Sample | View]
    split: list[str]  # 'train' or 'val', aligned with samples
    channel_means: np.ndarray | None = None  # set by mean_subtract
    class_names: list[str] = field(default_factory=list)

    def train_samples(self) -> list[Sample | View]:
        return [s for s, tag in zip(self.samples, self.split) if tag == "train"]

    def val_samples(self) -> list[Sample | View]:
        return [s for s, tag in zip(self.samples, self.split) if tag == "val"]


@dataclass(frozen=True)
class View:
    """An augmented train entry that stores no pixels: its source
    sample's image mirrored (``window`` None), or cropped to ``window`` =
    (oy, ox, height, width) and resized back to the source resolution.
    ``stack_batch`` builds the pixels."""

    source: Sample
    id: str
    window: tuple[int, int, int, int] | None = None

    @property
    def label(self) -> int:
        return self.source.label


def _id_stream(seed: int, sample_id: str) -> np.random.Generator:
    """Per-sample RNG stream, stable across runs and sample order."""
    digest = hashlib.sha256(sample_id.encode("utf-8")).digest()
    return np.random.default_rng([seed, _STREAM_AUG, int.from_bytes(digest[:8], "little")])


#: resize plans kept, one per (h, w, th, tw) geometry. A plan holds
#: 64 bytes per output pixel, so the cache holds at most
#: RESIZE_PLANS * 64 * th * tw bytes: 32 MiB at 128x128, 2 MiB at 32x32.
RESIZE_PLANS = 32


@functools.lru_cache(maxsize=RESIZE_PLANS)
def _resize_plan(h: int, w: int, th: int, tw: int) -> tuple[np.ndarray, np.ndarray]:
    """For each output pixel of a (h, w) -> (th, tw) resize, in row-major
    order: the flat source offsets of its four neighbours A, B (row y0,
    columns x0 and x1) and C, D (row y1), shape (4, th*tw), and its weights
    1-fx, fx, 1-fy, fy as whole planes, shape (4, th*tw). Read-only, since
    every call of one geometry shares them."""

    def grid(out_size: int, in_size: int) -> np.ndarray:
        if out_size == 1:
            return np.zeros(1)
        return np.arange(out_size) * (in_size - 1) / (out_size - 1)

    ys = grid(th, h)
    xs = grid(tw, w)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0).reshape(th, 1)
    fx = xs - x0
    offsets = np.empty((4, th, tw), dtype=np.intp)
    weights = np.empty((4, th, tw))
    for k, (rows, cols) in enumerate([(y0, x0), (y0, x1), (y1, x0), (y1, x1)]):
        np.add(rows.reshape(th, 1) * w, cols, out=offsets[k])
    for k, plane in enumerate([1 - fx, fx, 1 - fy, fy]):
        weights[k] = plane
    offsets.flags.writeable = weights.flags.writeable = False
    return offsets.reshape(4, th * tw), weights.reshape(4, th * tw)


def resize_to(image: Tensor4, target: tuple[int, int] = (128, 128)) -> Tensor4:
    """Bilinear resample to target (height, width), corner-aligned so a
    same-size call is the identity. Interpolation is convex, so outputs
    stay within the source value range.

    Each output pixel is ``(A*(1-fx) + B*fx)*(1-fy) + (C*(1-fx) + D*fx)*fy``
    over its four neighbours, computed in float64 from a plan cached per
    geometry (``RESIZE_PLANS`` of them) and cast to the input dtype."""
    n, c, h, w = image.dims
    th, tw = target
    if th < 1 or tw < 1:
        raise ValueError(f"target dims must be >= 1, got {target}")
    if (h, w) == (th, tw):
        return image.copy()
    offsets, (wx0, wx1, wy0, wy1) = _resize_plan(h, w, th, tw)
    g = image.data.reshape(n * c, h * w).take(offsets, axis=1)  # (n*c, 4, th*tw)
    top = g[:, 0] * wx0
    top += g[:, 1] * wx1
    bot = g[:, 2] * wx0
    bot += g[:, 3] * wx1
    top *= wy0
    bot *= wy1
    top += bot
    return Tensor4(top.reshape(n, c, th, tw).astype(image.dtype, copy=False))


def _crop_window(image: Tensor4, crop: tuple[int, int],
                 rng: np.random.Generator) -> tuple[int, int, int, int]:
    """(oy, ox, height, width) of a crop at a uniformly random valid
    offset; draws oy, then ox."""
    n, c, h, w = image.dims
    ch, cw = crop
    if ch < 1 or cw < 1 or ch > h or cw > w:
        raise ValueError(f"crop {crop} invalid for image {h}x{w}")
    return int(rng.integers(0, h - ch + 1)), int(rng.integers(0, w - cw + 1)), ch, cw


def stack_batch(samples: list[Sample | View], dtype) -> tuple[Tensor4, np.ndarray]:
    """One batch's (n, c, h, w) pixels in ``dtype``, what concatenating
    each entry's image and casting would give, and its labels. Plain
    samples are copied and flips written from reversed views; the crops
    of one source shape, dtype and crop size are gathered and resized in
    one ``resize_to`` call, whose bilinear arithmetic is elementwise, so
    each crop gets the bytes of a one-image call."""
    sources = [s.source.image.data if isinstance(s, View) else s.image.data
               for s in samples]
    out = np.empty((len(samples),) + sources[0].shape[1:], dtype)
    crops: dict[tuple, tuple[list[int], list[np.ndarray]]] = {}
    for i, (s, src) in enumerate(zip(samples, sources)):
        if not isinstance(s, View):
            out[i] = src[0]
        elif s.window is None:
            out[i] = src[0, :, :, ::-1]
        else:
            oy, ox, ch, cw = s.window
            rows, parts = crops.setdefault((src.shape, src.dtype, ch, cw), ([], []))
            rows.append(i)
            parts.append(src[:, :, oy:oy + ch, ox:ox + cw])
    for (shape, *_), (rows, parts) in crops.items():
        out[rows] = resize_to(Tensor4(np.concatenate(parts)), shape[2:]).data
    return Tensor4(out), np.array([s.label for s in samples], dtype=np.int64)


def augment_train_split(dataset: Dataset, crop: tuple[int, int], seed: int) -> Dataset:
    """Expand every train sample 5x into {original, horizontal flip, 3
    random crops resized back to the source resolution}, all with the
    original label; validation samples pass through. The original shares
    the sample's image; the flip and the crops are views, their crop
    offsets drawn here from the sample's own RNG stream, derived from
    (seed, sample id), so a crop too large raises here."""
    samples: list[Sample | View] = []
    split: list[str] = []
    for s, tag in zip(dataset.samples, dataset.split):
        if tag == "train":
            rng = _id_stream(seed, s.id)
            samples += [Sample(s.image, s.label, f"{s.id}#orig"), View(s, f"{s.id}#flip")]
            samples += [View(s, f"{s.id}#crop{k}", _crop_window(s.image, crop, rng))
                        for k in range(3)]
            split += ["train"] * 5
        else:
            samples.append(s)
            split.append("val")
    return Dataset(samples, split, dataset.channel_means, dataset.class_names)


def split_60_40(samples: list[Sample], seed: int,
                class_names: list[str] | None = None) -> Dataset:
    """Deterministic shuffle, then the first ceil(0.6*N) samples are the
    train split and the rest validation."""
    if not samples:
        raise ValueError("cannot split an empty sample list")
    perm = np.random.default_rng([seed, _STREAM_SPLIT]).permutation(len(samples))
    shuffled = [samples[i] for i in perm]
    n_train = math.ceil(0.6 * len(samples))
    split = ["train"] * n_train + ["val"] * (len(samples) - n_train)
    return Dataset(shuffled, split, None, class_names or [])


def mean_subtract(dataset: Dataset) -> Dataset:
    """Subtract the train split's per-channel scalar means from every
    image in both splits; records the means on the dataset."""
    train = dataset.train_samples()
    if not train:
        raise StateError("cannot compute channel means: train split is empty")
    c = train[0].image.dims[1]
    sums = np.zeros(c)
    count = 0
    for s in train:
        sums += s.image.data.sum(axis=(0, 2, 3))
        count += s.image.dims[2] * s.image.dims[3]
    means = sums / count
    centered = [
        replace(s, image=Tensor4(s.image.data - means.reshape(1, c, 1, 1)))
        for s in dataset.samples
    ]
    return Dataset(centered, list(dataset.split), means, dataset.class_names)


def reduce_multilabel(labels) -> str:
    """Deterministic multi-label reduction: lexicographically smallest name."""
    labels = list(labels)
    if not labels:
        raise ValueError("label set is empty")
    return min(labels)
