"""Synthetic benchmark inputs: binary PPM images plus a manifest.

Everything is drawn from the benchmark seed, so one seed always gives
the same bytes. The program under test sees only the files: images are
written here with a local P6 encoder, not with microvoc's own, and their
source sizes are mixed and non-square so ingestion has to resize them.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

MANIFEST_HEADER = "#microvoc-manifest v1"

#: (height, width) of the generated source images, all non-square
SOURCE_SIZES = ((40, 48), (48, 40), (36, 52), (52, 36), (44, 56), (60, 38))

VOC_CLASSES = (
    "aeroplane", "bicycle", "bird", "boat", "bottle",
    "bus", "car", "cat", "chair", "cow",
    "diningtable", "dog", "horse", "motorbike", "person",
    "pottedplant", "sheep", "sofa", "train", "tvmonitor",
)
BAR_CLASSES = ("horizontal", "vertical")

_STREAM_VOC = 0x70C
_STREAM_BARS = 0xBA5


def _encode_ppm(image: np.ndarray) -> bytes:
    """(3, H, W) values to binary P6 bytes."""
    _, h, w = image.shape
    pixels = np.clip(np.rint(image), 0, 255).astype(np.uint8).transpose(1, 2, 0)
    return b"P6\n%d %d\n255\n" % (w, h) + pixels.tobytes()


def _write_set(root: Path, name: str, images, labels) -> tuple[Path, np.ndarray]:
    """Write images/<name>_<i>.ppm and <name>.manifest under ``root``;
    returns the manifest path and the per-channel pixel mean."""
    (root / "images").mkdir(parents=True, exist_ok=True)
    lines = [MANIFEST_HEADER]
    sums, count = np.zeros(3), 0
    for i, (img, label) in enumerate(zip(images, labels)):
        rel = f"images/{name}_{i:04d}.ppm"
        (root / rel).write_bytes(_encode_ppm(img))
        lines.append(f"{rel}\t{label}")
        sums += img.sum(axis=(1, 2))
        count += img.shape[1] * img.shape[2]
    manifest = root / f"{name}.manifest"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest, sums / count


def voc_like(root: Path, name: str, n: int, seed: int) -> tuple[Path, np.ndarray]:
    """``n`` images over the 20 VOC classes: a class-tinted noise field
    with a brighter block at a class-dependent place. Only the cost of
    the work matters for these sets, not whether a net can learn them."""
    rng = np.random.default_rng([seed, _STREAM_VOC])
    palette = np.random.default_rng([0, _STREAM_VOC]).uniform(60, 200, (len(VOC_CLASSES), 3))
    images, labels = [], []
    for _ in range(n):
        k = int(rng.integers(0, len(VOC_CLASSES)))
        h, w = SOURCE_SIZES[int(rng.integers(0, len(SOURCE_SIZES)))]
        img = rng.normal(palette[k].reshape(3, 1, 1), 40.0, (3, h, w))
        y, x = (k // 5) * h // 4, (k % 5) * w // 5
        img[:, y:y + h // 4, x:x + w // 5] += 60.0
        images.append(np.clip(img, 0.0, 255.0))
        labels.append(VOC_CLASSES[k])
    return _write_set(root, name, images, labels)


def bars(root: Path, name: str, n: int, seed: int) -> tuple[Path, np.ndarray]:
    """The two-class bar task of the c06 acceptance test (noise 12,
    strength 100, a bar 4/32 of the side thick), drawn at the source
    size instead of 32x32: label 0 is a horizontal bar, 1 a vertical."""
    rng = np.random.default_rng([seed, _STREAM_BARS])
    images, labels = [], []
    for _ in range(n):
        label = int(rng.integers(0, 2))
        h, w = SOURCE_SIZES[int(rng.integers(0, len(SOURCE_SIZES)))]
        img = rng.normal(128.0, 12.0, (3, h, w))
        side = h if label == 0 else w
        t = round(4 * side / 32)
        pos = int(rng.integers(1, side - t - 1))
        if label == 0:
            img[:, pos:pos + t, :] += 100.0
        else:
            img[:, :, pos:pos + t] += 100.0
        images.append(np.clip(img, 0.0, 255.0))
        labels.append(BAR_CLASSES[label])
    return _write_set(root, name, images, labels)
