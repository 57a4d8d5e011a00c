import hashlib
import json

import numpy as np
import pytest

from microvoc.dataio import (
    MANIFEST_HEADER,
    VOC_CLASSES,
    decode_ppm,
    encode_ppm,
    ingest,
    load_eval_samples,
    read_image,
    read_manifest,
    write_ppm,
)
from microvoc.errors import IngestError, ManifestError


def random_image(rng, h=8, w=8):
    return rng.integers(0, 256, size=(3, h, w)).astype(np.float64)


class TestPpm:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        img = random_image(rng, 5, 7)
        assert np.array_equal(decode_ppm(encode_ppm(img)), img)

    def test_header_comments_allowed(self):
        img = np.full((3, 2, 2), 9.0)
        raw = encode_ppm(img)
        with_comment = raw.replace(b"P6\n", b"P6\n# created by a test\n", 1)
        assert np.array_equal(decode_ppm(with_comment), img)

    def test_not_p6_rejected(self):
        with pytest.raises(ValueError):
            decode_ppm(b"P3\n2 2\n255\n...")

    def test_truncated_pixels_rejected(self):
        raw = encode_ppm(np.zeros((3, 4, 4)))
        with pytest.raises(ValueError):
            decode_ppm(raw[:-5])

    def test_bad_maxval_rejected(self):
        with pytest.raises(ValueError):
            decode_ppm(b"P6\n2 2\n65535\n" + b"\0" * 24)

    def test_values_clipped_on_encode(self):
        img = np.array([[[-5.0, 300.0]]] * 3)
        decoded = decode_ppm(encode_ppm(img))
        assert decoded.min() == 0.0
        assert decoded.max() == 255.0

    def test_comments_and_mixed_whitespace_between_every_field(self):
        out = decode_ppm(b"P6#a\n 2\t#b\n1\r\n#c\n255\n" + bytes(range(6)))
        assert out.tolist() == [[[0.0, 3.0]], [[1.0, 4.0]], [[2.0, 5.0]]]

    def test_every_maxval_maps_its_range_onto_0_255(self):
        for maxval in range(1, 256):
            out = decode_ppm(b"P6\n1 1\n%d\n" % maxval + bytes([0, maxval, maxval // 2]))
            assert out.ravel().tolist() == [0.0, 255.0, (maxval // 2) * 255.0 / maxval]

    def test_sample_above_maxval_rejected(self):
        with pytest.raises(ValueError, match="maxval 15"):
            decode_ppm(b"P6\n1 1\n15\n" + bytes([200, 15, 0]))


class TestReadImage:
    def test_ppm_file(self, tmp_path):
        rng = np.random.default_rng(1)
        img = random_image(rng)
        write_ppm(tmp_path / "x.ppm", img)
        assert np.array_equal(read_image(tmp_path / "x.ppm"), img)

    def test_png_file(self, tmp_path):
        PIL = pytest.importorskip("PIL.Image")
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, size=(6, 5, 3), dtype=np.uint8)
        PIL.fromarray(img).save(tmp_path / "x.png")
        out = read_image(tmp_path / "x.png")
        assert np.array_equal(out, img.transpose(2, 0, 1).astype(np.float64))

    def test_unknown_format_rejected(self, tmp_path):
        (tmp_path / "x.bin").write_bytes(b"GIF89a....")
        with pytest.raises(ValueError):
            read_image(tmp_path / "x.bin")


def make_dataset_dir(tmp_path, records, size=8, seed=0, header=MANIFEST_HEADER):
    """records: list of (filename, label_field) written as PPMs + manifest."""
    rng = np.random.default_rng(seed)
    lines = [header]
    for fname, label_field in records:
        if fname is not None:
            write_ppm(tmp_path / fname, random_image(rng, size, size))
        lines.append(f"{fname}\t{label_field}")
    manifest = tmp_path / "data.manifest"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


class TestManifest:
    def test_happy_path(self, tmp_path):
        manifest = make_dataset_dir(tmp_path, [("a.ppm", "dog"), ("b.ppm", "cat")])
        records = read_manifest(manifest)
        assert records == [("a.ppm", "dog", 2), ("b.ppm", "cat", 3)]

    def test_missing_header_names_line_1(self, tmp_path):
        manifest = make_dataset_dir(tmp_path, [("a.ppm", "dog")], header="# not it")
        with pytest.raises(ManifestError) as exc:
            read_manifest(manifest)
        assert exc.value.line == 1

    def test_unknown_label_names_line(self, tmp_path):
        manifest = make_dataset_dir(tmp_path, [("a.ppm", "dog"), ("b.ppm", "wolf")])
        with pytest.raises(ManifestError) as exc:
            read_manifest(manifest)
        assert exc.value.line == 3
        assert "wolf" in str(exc.value)

    def test_multilabel_reduction(self, tmp_path):
        manifest = make_dataset_dir(tmp_path, [("img1.ppm", "train;person")])
        records = read_manifest(manifest)
        assert records[0][1] == "person"

    def test_missing_tab_rejected(self, tmp_path):
        manifest = tmp_path / "m"
        manifest.write_text(f"{MANIFEST_HEADER}\na.ppm dog\n")
        with pytest.raises(ManifestError) as exc:
            read_manifest(manifest)
        assert exc.value.line == 2

    def test_blank_lines_skipped(self, tmp_path):
        manifest = tmp_path / "m"
        manifest.write_text(f"{MANIFEST_HEADER}\n\na.ppm\tdog\n\n")
        assert len(read_manifest(manifest)) == 1

    def test_custom_class_list(self, tmp_path):
        manifest = tmp_path / "m"
        manifest.write_text(f"{MANIFEST_HEADER}\na.ppm\tfoo\n")
        assert read_manifest(manifest, ["foo", "bar"])[0][1] == "foo"
        with pytest.raises(ManifestError):
            read_manifest(manifest, ["bar"])


class TestIngest:
    def test_ten_records_split_6_4(self, tmp_path):
        records = [(f"i{k}.ppm", VOC_CLASSES[k % 3]) for k in range(10)]
        manifest = make_dataset_dir(tmp_path, records)
        ds = ingest(manifest, seed=1, resize=(8, 8))
        assert len(ds.train_samples()) == 6
        assert len(ds.val_samples()) == 4
        assert ds.channel_means is not None

    def test_images_resized_and_centered(self, tmp_path):
        records = [(f"i{k}.ppm", "dog") for k in range(4)]
        manifest = make_dataset_dir(tmp_path, records, size=11)
        ds = ingest(manifest, seed=1, resize=(8, 8))
        assert all(s.image.dims == (1, 3, 8, 8) for s in ds.samples)
        total = sum(s.image.data.sum(axis=(0, 2, 3)) for s in ds.train_samples())
        assert np.all(np.abs(total) < 1e-6 * 64 * len(ds.train_samples()))

    def test_stats_sidecar_written(self, tmp_path):
        records = [(f"i{k}.ppm", "cat") for k in range(5)]
        manifest = make_dataset_dir(tmp_path, records)
        ds = ingest(manifest, seed=2, resize=(8, 8))
        stats = json.loads((tmp_path / "data.manifest.stats.json").read_text())
        assert stats["channel_means"] == [float(m) for m in ds.channel_means]
        assert set(stats["split"].values()) == {"train", "val"}
        assert len(stats["split"]) == 5

    def test_multilabel_record_label(self, tmp_path):
        records = [("img1.ppm", "train;person")] + [(f"i{k}.ppm", "person") for k in range(3)]
        manifest = make_dataset_dir(tmp_path, records)
        ds = ingest(manifest, seed=1, resize=(8, 8))
        by_id = {s.id: s.label for s in ds.samples}
        assert by_id["img1.ppm"] == VOC_CLASSES.index("person")

    def test_failure_over_one_percent_aborts(self, tmp_path):
        records = [(f"i{k}.ppm", "dog") for k in range(9)]
        manifest = make_dataset_dir(tmp_path, records)
        lines = manifest.read_text().splitlines()
        lines.append("missing.ppm\tdog")
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestError):
            ingest(manifest, seed=1, resize=(8, 8))

    def test_failure_under_one_percent_tolerated(self, tmp_path):
        records = [(f"i{k}.ppm", "dog") for k in range(120)]
        manifest = make_dataset_dir(tmp_path, records, size=4)
        lines = manifest.read_text().splitlines()
        lines.append("missing.ppm\tdog")
        manifest.write_text("\n".join(lines) + "\n")
        ds = ingest(manifest, seed=1, resize=(4, 4))
        assert len(ds.samples) == 120
        stats = json.loads((tmp_path / "data.manifest.stats.json").read_text())
        assert len(stats["failed_records"]) == 1

    def test_sample_above_maxval_is_a_failed_record(self, tmp_path):
        records = [(f"i{k}.ppm", "dog") for k in range(120)]
        manifest = make_dataset_dir(tmp_path, records, size=4)
        (tmp_path / "over.ppm").write_bytes(b"P6\n1 1\n15\n" + bytes([200, 15, 0]))
        manifest.write_text(manifest.read_text() + "over.ppm\tdog\n")
        ds = ingest(manifest, seed=1, resize=(4, 4))
        assert len(ds.samples) == 120
        stats = json.loads((tmp_path / "data.manifest.stats.json").read_text())
        [failed] = stats["failed_records"]
        assert failed["path"] == "over.ppm" and "maxval 15" in failed["error"]


#: perfbench/inputs.py's SOURCE_SIZES, the (height, width) of its images
PIN_SOURCE_SIZES = ((40, 48), (48, 40), (36, 52), (52, 36), (44, 56), (60, 38))
#: ``ingestion_digest`` as computed before resize plans were cached. The
#: path from PPM bytes to samples makes no BLAS call (elementwise IEEE
#: arithmetic and the channel-mean sums), so unlike tools/pinned_hashes.py
#: the value does not depend on the host's BLAS library
PINNED_INGESTION_SHA256 = "7a4d86439a7367cc7547652a10cddaa69910b39cdc5d28ab8ca520a187af4138"


def ingestion_digest(root):
    """sha256 over the id, label and pixel bytes of every sample that
    ``ingest`` at resize 32 gives for a seeded set of non-square PPMs,
    then of every sample ``load_eval_samples`` gives with ingest's means."""
    rng = np.random.default_rng(1414)
    lines = [MANIFEST_HEADER]
    for k in range(30):
        h, w = PIN_SOURCE_SIZES[k % len(PIN_SOURCE_SIZES)]
        write_ppm(root / f"p{k:02d}.ppm", rng.integers(0, 256, (3, h, w)).astype(np.float64))
        lines.append(f"p{k:02d}.ppm\t{VOC_CLASSES[int(rng.integers(0, len(VOC_CLASSES)))]}")
    manifest = root / "pin.manifest"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ds = ingest(manifest, seed=3, resize=(32, 32))
    evals = load_eval_samples(manifest, resize=(32, 32), channel_means=ds.channel_means)
    digest = hashlib.sha256()
    for s in ds.samples + evals:
        digest.update(f"{s.id}\t{s.label}\n".encode())
        digest.update(s.image.data.tobytes())
    return digest.hexdigest()


def test_ingestion_bytes_pinned(tmp_path):
    assert ingestion_digest(tmp_path) == PINNED_INGESTION_SHA256


class TestLoadEvalSamples:
    def test_no_split_and_means_applied(self, tmp_path):
        records = [(f"i{k}.ppm", "dog") for k in range(4)]
        manifest = make_dataset_dir(tmp_path, records)
        means = np.array([10.0, 20.0, 30.0])
        samples = load_eval_samples(manifest, resize=(8, 8), channel_means=means)
        assert len(samples) == 4
        raw = read_image(tmp_path / "i0.ppm")
        got = next(s for s in samples if s.id == "i0.ppm")
        assert np.allclose(got.image.data[0], raw - means.reshape(3, 1, 1))
