"""Image decoding and manifest-based dataset ingestion.

Manifest format (UTF-8 text)::

    #microvoc-manifest v1
    images/dog1.ppm<TAB>dog
    images/both.ppm<TAB>train;person

One record per line after the header: a relative image path, a tab, and
one or more label names separated by ';'. Multi-label records are
reduced to the lexicographically smallest name. Binary PPM (P6) is the
baseline image format; PNG works when Pillow is installed.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import numpy as np

from .augment import Dataset, Sample, mean_subtract, reduce_multilabel, resize_to, split_60_40
from .errors import IngestError, ManifestError
from .tensor import Tensor4

MANIFEST_HEADER = "#microvoc-manifest v1"

#: ingest aborts when more than this fraction of the manifest's records fail
MAX_FAILURE_FRACTION = 0.01

VOC_CLASSES = (
    "aeroplane", "bicycle", "bird", "boat", "bottle",
    "bus", "car", "cat", "chair", "cow",
    "diningtable", "dog", "horse", "motorbike", "person",
    "pottedplant", "sheep", "sofa", "train", "tvmonitor",
)


#: a P6 header: the magic, then width, height and maxval, each after
#: whitespace and '#' comments, then the one whitespace byte before the samples
_PPM_HEADER = re.compile(rb"P6" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


def decode_ppm(data: bytes) -> np.ndarray:
    """Binary PPM (P6) to a (3, H, W) float64 array of values in
    [0, 255]: samples of a maxval below 255 are scaled by 255/maxval, and
    a sample above maxval is an error."""
    if data[:2] != b"P6":
        raise ValueError("not a P6 PPM file")
    header = _PPM_HEADER.match(data)
    if header is None:
        raise ValueError("truncated or malformed PPM header")
    width, height, maxval = map(int, header.groups())
    if width < 1 or height < 1:
        raise ValueError(f"bad PPM dimensions {width}x{height}")
    if not 1 <= maxval <= 255:
        raise ValueError(f"unsupported PPM maxval {maxval}")
    expected = width * height * 3
    if len(data) - header.end() < expected:
        raise ValueError("truncated PPM pixel data")
    raw = np.frombuffer(data, np.uint8, expected, header.end())
    arr = raw.reshape(height, width, 3).transpose(2, 0, 1).astype(np.float64, order="C")
    if maxval < 255:
        if raw.max() > maxval:
            raise ValueError(f"PPM sample {raw.max()} above maxval {maxval}")
        arr *= 255.0
        arr /= maxval
    return arr


def _decode_png(data: bytes) -> np.ndarray:
    try:
        from PIL import Image
    except ImportError as e:
        raise ValueError("PNG support needs Pillow (pip install microvoc[png])") from e
    import io

    with Image.open(io.BytesIO(data)) as img:
        rgb = np.asarray(img.convert("RGB"))
    return rgb.transpose(2, 0, 1).astype(np.float64)


def read_image(path) -> np.ndarray:
    """Decode a PPM (P6) or PNG file to (3, H, W) raw values in [0, 255]."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] == b"P6":
        return decode_ppm(data)
    if data[:8] == b"\x89PNG\r\n\x1a\n":
        return _decode_png(data)
    raise ValueError("unrecognized image format (want binary PPM or PNG)")


def class_index(class_names) -> dict[str, int]:
    """Each class name's label index, its position in ``class_names``;
    an empty list or a repeated name raises ValueError."""
    index = {name: i for i, name in enumerate(class_names)}
    if not index:
        raise ValueError("the class list is empty")
    if len(index) != len(class_names):
        raise ValueError(f"class names must be distinct, got {','.join(class_names)}")
    return index


def read_manifest(path, class_names=VOC_CLASSES) -> list[tuple[str, str, int]]:
    """Parse a manifest into (relative path, reduced label name, line
    number) records, validating labels against the class list."""
    known = set(class_names)
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise ManifestError(f"manifest is not UTF-8 text: {e}") from e
    if not lines or lines[0].strip() != MANIFEST_HEADER:
        raise ManifestError(f"missing header {MANIFEST_HEADER!r}", line=1)
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if "\t" not in line:
            raise ManifestError("expected '<path>\\t<label[;label...]>'", line=lineno)
        rel, label_field = line.split("\t", 1)
        rel = rel.strip()
        labels = [lbl.strip() for lbl in label_field.split(";")]
        if not rel or any(not lbl for lbl in labels):
            raise ManifestError("empty path or label", line=lineno)
        for lbl in labels:
            if lbl not in known:
                raise ManifestError(f"unknown label {lbl!r}", line=lineno)
        records.append((rel, reduce_multilabel(labels), lineno))
    if not records:
        raise ManifestError("manifest has no records")
    return records


def load_image(path, size: tuple[int, int], channel_means=None) -> Tensor4:
    """An image file as a (1, 3, H, W) network input: decoded, resized to
    ``size`` = (H, W) unless already that size, and centered with the
    per-channel means when they are given."""
    img = Tensor4(read_image(path)[np.newaxis])
    if img.dims[2:] != size:
        img = resize_to(img, size)
    if channel_means is not None:  # img holds a fresh array either way
        img.data -= np.asarray(channel_means, dtype=np.float64).reshape(1, -1, 1, 1)
    return img


def ingest(manifest_path, image_root=None, *, class_names=VOC_CLASSES,
           seed: int, resize: tuple[int, int], stats_path=None) -> Dataset:
    """Decode everything a manifest names, resize to ``resize`` = (H, W),
    split 60:40 under ``seed`` and mean-center. Per-record failures are
    collected; the run aborts when over MAX_FAILURE_FRACTION of records fail.

    A JSON stats sidecar (channel means and the split assignment) is
    written next to the manifest, or to ``stats_path``.
    """
    manifest_path = Path(manifest_path)
    root = os.fspath(image_root if image_root is not None else manifest_path.parent)
    class_names = list(class_names)
    index = class_index(class_names)

    records = read_manifest(manifest_path, class_names)
    samples: list[Sample] = []
    failures: list[tuple[int, str, str]] = []
    for rel, label, lineno in records:
        try:
            samples.append(Sample(load_image(os.path.join(root, rel), resize), index[label], rel))
        except (OSError, ValueError) as e:
            failures.append((lineno, rel, str(e)))
    if failures:
        summary = "; ".join(f"line {ln} ({rel}): {msg}" for ln, rel, msg in failures[:5])
        if len(failures) > MAX_FAILURE_FRACTION * len(records):
            raise IngestError(
                f"{len(failures)}/{len(records)} records failed to load: {summary}")
    if not samples:
        raise IngestError("no loadable records in manifest")

    dataset = mean_subtract(split_60_40(samples, seed))

    stats = {
        "format": "microvoc-stats v1",
        "seed": seed,
        "channel_means": [float(m) for m in dataset.channel_means],
        "split": {s.id: tag for s, tag in zip(dataset.samples, dataset.split)},
        "failed_records": [{"line": ln, "path": rel, "error": msg}
                           for ln, rel, msg in failures],
    }
    out = Path(stats_path) if stats_path is not None else manifest_path.with_suffix(
        manifest_path.suffix + ".stats.json")
    out.write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return dataset


def load_eval_samples(manifest_path, image_root=None, *, class_names=VOC_CLASSES,
                      resize: tuple[int, int], channel_means=None) -> list[Sample]:
    """Load every record of a held-out manifest without splitting,
    resized to ``resize`` = (H, W) and centered with the supplied channel
    means (from a checkpoint). The first record that fails to load raises
    IngestError naming its line and path."""
    manifest_path = Path(manifest_path)
    root = os.fspath(image_root if image_root is not None else manifest_path.parent)
    class_names = list(class_names)
    index = class_index(class_names)
    samples = []
    for rel, label, lineno in read_manifest(manifest_path, class_names):
        try:
            image = load_image(os.path.join(root, rel), resize, channel_means)
        except (OSError, ValueError) as e:
            raise IngestError(f"line {lineno} ({rel}): {e}") from e
        samples.append(Sample(image, index[label], rel))
    return samples
