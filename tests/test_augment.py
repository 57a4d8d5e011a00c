import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microvoc.augment import (
    Dataset,
    Sample,
    _id_stream,
    augment_train_split,
    expand_x5,
    hflip,
    mean_subtract,
    random_crop,
    reduce_multilabel,
    resize_to,
    split_60_40,
    stack_pixels,
)
from microvoc.errors import StateError
from microvoc.tensor import Tensor4
from microvoc.trainer import stack_batch


def image(data):
    return Tensor4(np.asarray(data, dtype=np.float64))


def gray(value, size=4):
    return Tensor4(np.full((1, 3, size, size), float(value)))


class TestResize:
    def test_same_size_is_identity(self):
        rng = np.random.default_rng(0)
        img = Tensor4(rng.random((1, 3, 128, 128)) * 255)
        out = resize_to(img, (128, 128))
        assert np.array_equal(out.data, img.data)

    def test_constant_image_stays_constant(self):
        out = resize_to(gray(200, 77), (128, 128))
        assert out.dims == (1, 3, 128, 128)
        assert np.allclose(out.data, 200.0)

    def test_checkerboard_stays_within_range(self):
        yy, xx = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
        board = ((yy // 8 + xx // 8) % 2) * 255.0
        img = Tensor4(np.broadcast_to(board, (1, 3, 256, 256)).copy())
        out = resize_to(img, (128, 128))
        assert out.data.min() >= 0.0
        assert out.data.max() <= 255.0

    def test_upsample_interpolates_between_corners(self):
        img = image([[[[0.0, 10.0]]]])
        out = resize_to(img, (1, 3))
        assert np.allclose(out.data.ravel(), [0.0, 5.0, 10.0])


class TestHflip:
    def test_involution(self):
        rng = np.random.default_rng(1)
        img = Tensor4(rng.random((1, 3, 5, 7)))
        assert np.array_equal(hflip(hflip(img)).data, img.data)

    def test_symmetric_image_unchanged(self):
        img = image([[[[1.0, 2.0, 1.0]]]])
        assert np.array_equal(hflip(img).data, img.data)

    def test_row_reversed(self):
        img = image([[[[1.0, 2.0, 3.0]]]])
        assert np.array_equal(hflip(img).data.ravel(), [3, 2, 1])


class TestRandomCrop:
    def test_full_size_crop_is_identity(self):
        rng = np.random.default_rng(2)
        img = Tensor4(rng.random((1, 3, 4, 4)))
        out = random_crop(img, (4, 4), np.random.default_rng(0))
        assert np.array_equal(out.data, img.data)

    def test_crop_is_exact_subblock(self):
        rng = np.random.default_rng(3)
        img = Tensor4(rng.random((1, 3, 8, 8)))
        out = random_crop(img, (5, 5), np.random.default_rng(1))
        found = any(
            np.array_equal(out.data, img.data[:, :, oy:oy + 5, ox:ox + 5])
            for oy in range(4) for ox in range(4)
        )
        assert found

    def test_offsets_uniform_chi_square(self):
        # 2x2 crop of a 3x3 ramp: 4 possible sub-blocks, identified by corner
        img = Tensor4(np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3) *
                      np.ones((1, 3, 1, 1)))
        counts = np.zeros(4)
        n = 10_000
        rng = np.random.default_rng(1234)
        for _ in range(n):
            out = random_crop(img, (2, 2), rng)
            corner = out.data[0, 0, 0, 0]
            counts[{0.0: 0, 1.0: 1, 3.0: 2, 4.0: 3}[corner]] += 1
        expected = n / 4
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < 16.27  # chi-square 0.999 quantile, 3 dof

    def test_oversized_crop_rejected(self):
        with pytest.raises(ValueError):
            random_crop(gray(0, 4), (5, 4), np.random.default_rng(0))


class TestExpandX5:
    def make_sample(self, seed=4):
        rng = np.random.default_rng(seed)
        return Sample(Tensor4(rng.random((1, 3, 8, 8)) * 255), 1, "img0")

    def test_exactly_five_with_same_label(self):
        out = expand_x5(self.make_sample(), (6, 6), np.random.default_rng(0))
        assert len(out) == 5
        assert all(s.label == 1 for s in out)
        assert len({s.id for s in out}) == 5

    def test_first_is_original_second_is_flip(self):
        sample = self.make_sample()
        out = expand_x5(sample, (6, 6), np.random.default_rng(0))
        assert np.array_equal(out[0].image.data, sample.image.data)
        assert np.array_equal(out[1].image.data, hflip(sample.image).data)

    def test_crops_resized_back_to_source_resolution(self):
        out = expand_x5(self.make_sample(), (6, 6), np.random.default_rng(0))
        assert all(s.image.dims == (1, 3, 8, 8) for s in out)

    def test_deterministic_under_seed(self):
        sample = self.make_sample()
        a = expand_x5(sample, (6, 6), np.random.default_rng(9))
        b = expand_x5(sample, (6, 6), np.random.default_rng(9))
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.image.data, sb.image.data)


class TestSplit:
    def make_samples(self, n):
        return [Sample(gray(i), 0, f"s{i}") for i in range(n)]

    def test_10_gives_6_4(self):
        ds = split_60_40(self.make_samples(10), seed=0)
        assert len(ds.train_samples()) == 6
        assert len(ds.val_samples()) == 4

    def test_5_gives_3_2_ceiling(self):
        ds = split_60_40(self.make_samples(5), seed=0)
        assert len(ds.train_samples()) == 3
        assert len(ds.val_samples()) == 2

    def test_same_seed_same_split(self):
        a = split_60_40(self.make_samples(20), seed=7)
        b = split_60_40(self.make_samples(20), seed=7)
        assert [s.id for s in a.samples] == [s.id for s in b.samples]
        assert a.split == b.split

    def test_partition(self):
        ds = split_60_40(self.make_samples(13), seed=3)
        ids = sorted(s.id for s in ds.samples)
        assert ids == sorted(f"s{i}" for i in range(13))
        assert len(ds.train_samples()) + len(ds.val_samples()) == 13

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            split_60_40([], seed=0)


class TestMeanSubtract:
    def test_all_gray_becomes_zero(self):
        ds = split_60_40([Sample(gray(128), 0, f"g{i}") for i in range(4)], seed=0)
        out = mean_subtract(ds)
        for s in out.samples:
            assert np.allclose(s.image.data, 0.0)
        assert np.allclose(out.channel_means, 128.0)

    def test_two_train_images_centered(self):
        samples = [Sample(gray(100), 0, "a"), Sample(gray(200), 0, "b")]
        ds = Dataset(samples, ["train", "train"])
        out = mean_subtract(ds)
        values = sorted(float(s.image.data[0, 0, 0, 0]) for s in out.samples)
        assert values == [-50.0, 50.0]

    def test_val_centered_by_train_means(self):
        samples = [Sample(gray(100), 0, "t1"), Sample(gray(200), 0, "t2"),
                   Sample(gray(300), 0, "v1")]
        ds = Dataset(samples, ["train", "train", "val"])
        out = mean_subtract(ds)
        val = out.val_samples()[0]
        assert np.allclose(val.image.data, 150.0)  # 300 - train mean 150

    def test_train_means_zero_after_centering(self):
        rng = np.random.default_rng(5)
        samples = [Sample(Tensor4(rng.random((1, 3, 6, 6)) * 255), 0, f"r{i}")
                   for i in range(9)]
        out = mean_subtract(split_60_40(samples, seed=1))
        total = np.zeros(3)
        count = 0
        for s in out.train_samples():
            total += s.image.data.sum(axis=(0, 2, 3))
            count += 36
        assert np.all(np.abs(total / count) < 1e-6)

    def test_empty_train_rejected(self):
        ds = Dataset([Sample(gray(1), 0, "v")], ["val"])
        with pytest.raises(StateError):
            mean_subtract(ds)


class TestAugmentTrainSplit:
    def test_expansion_counts_and_labels(self):
        samples = [Sample(gray(i), i % 2, f"x{i}") for i in range(10)]
        ds = split_60_40(samples, seed=2)
        out = augment_train_split(ds, (3, 3), seed=0)
        assert len(out.train_samples()) == 5 * 6
        assert len(out.val_samples()) == 4
        by_id = {s.id.split("#")[0]: s.label for s in out.train_samples()}
        originals = {s.id: s.label for s in ds.train_samples()}
        assert by_id == originals

    def test_deterministic_and_order_independent_streams(self):
        samples = [Sample(gray(i), 0, f"y{i}") for i in range(5)]
        ds = split_60_40(samples, seed=2)
        a = augment_train_split(ds, (3, 3), seed=11)
        b = augment_train_split(ds, (3, 3), seed=11)
        for sa, sb in zip(a.samples, b.samples):
            assert sa.id == sb.id
            assert np.array_equal(sa.image.data, sb.image.data)


# The eager expansion that stored every flip and crop, kept as the
# reference the per-batch views must reproduce byte for byte.

def _eager_random_crop(image, crop, rng):
    n, c, h, w = image.dims
    ch, cw = crop
    if ch < 1 or cw < 1 or ch > h or cw > w:
        raise ValueError(f"crop {crop} invalid for image {h}x{w}")
    oy = int(rng.integers(0, h - ch + 1))
    ox = int(rng.integers(0, w - cw + 1))
    return Tensor4(np.ascontiguousarray(image.data[:, :, oy:oy + ch, ox:ox + cw]))


def _eager_expand_x5(sample, crop, rng):
    h, w = sample.image.dims[2], sample.image.dims[3]
    out = [
        Sample(sample.image, sample.label, f"{sample.id}#orig"),
        Sample(hflip(sample.image), sample.label, f"{sample.id}#flip"),
    ]
    for k in range(3):
        cropped = _eager_random_crop(sample.image, crop, rng)
        out.append(Sample(resize_to(cropped, (h, w)), sample.label, f"{sample.id}#crop{k}"))
    return out


def _eager_augment_train_split(dataset, crop, seed):
    samples, split = [], []
    for s, tag in zip(dataset.samples, dataset.split):
        if tag == "train":
            expanded = _eager_expand_x5(s, crop, _id_stream(seed, s.id))
            samples.extend(expanded)
            split.extend(["train"] * len(expanded))
        else:
            samples.append(s)
            split.append("val")
    return Dataset(samples, split, dataset.channel_means, dataset.class_names)


def _eager_stack_batch(samples, dtype):
    imgs = np.concatenate([s.image.data for s in samples], axis=0).astype(dtype, copy=False)
    return imgs, np.array([s.label for s in samples], dtype=np.int64)


class TestViews:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_lazy_batches_match_eager(self, data):
        h, w = data.draw(st.integers(1, 14)), data.draw(st.integers(1, 14))
        crop = (data.draw(st.integers(1, h)), data.draw(st.integers(1, w)))
        n = data.draw(st.integers(2, 7))
        seed = data.draw(st.integers(0, 2**16))
        rng = np.random.default_rng(seed)
        samples = [Sample(Tensor4(rng.normal(0.0, 60.0, (1, 3, h, w))), i % 3, f"s{i}")
                   for i in range(n)]
        ds = split_60_40(samples, seed=seed)
        lazy = augment_train_split(ds, crop, seed)
        eager = _eager_augment_train_split(ds, crop, seed)
        assert [s.id for s in lazy.samples] == [s.id for s in eager.samples]
        assert [s.label for s in lazy.samples] == [s.label for s in eager.samples]
        assert lazy.split == eager.split

        # any entries in any order, repeats allowed, val samples among them
        idx = data.draw(st.lists(st.integers(0, len(lazy.samples) - 1),
                                 min_size=1, max_size=24))
        dtype = data.draw(st.sampled_from([np.float64, np.float32]))
        x, y = stack_batch([lazy.samples[i] for i in idx], dtype)
        want_x, want_y = _eager_stack_batch([eager.samples[i] for i in idx], dtype)
        assert x.data.dtype == want_x.dtype and x.data.shape == want_x.shape
        assert x.data.tobytes() == want_x.tobytes()
        assert np.array_equal(y, want_y)

    def test_entry_image_is_its_batch_row(self):
        rng = np.random.default_rng(7)
        samples = [Sample(Tensor4(rng.random((1, 3, 9, 11)) * 255), i % 2, f"e{i}")
                   for i in range(6)]
        ds = augment_train_split(split_60_40(samples, seed=1), (6, 7), seed=5)
        batch = stack_pixels(ds.samples)
        for i, s in enumerate(ds.samples):
            assert s.image.dims == (1, 3, 9, 11)
            assert s.image.data.tobytes() == batch[i:i + 1].tobytes()

    def test_expansion_stores_no_pixels(self):
        rng = np.random.default_rng(8)
        samples = [Sample(Tensor4(rng.random((1, 3, 64, 64))), 0, f"p{i}") for i in range(50)]
        ds = Dataset(samples, ["train"] * 50)
        eager_bytes = 4 * sum(s.image.data.nbytes for s in samples)  # flip + 3 crops
        tracemalloc.start()
        try:
            out = augment_train_split(ds, (48, 48), seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out.train_samples()) == 250
        assert peak < 0.05 * eager_bytes


class TestReduceMultilabel:
    def test_two_voc_names(self):
        assert reduce_multilabel({"train", "person"}) == "person"

    def test_singleton(self):
        assert reduce_multilabel({"car"}) == "car"

    def test_car_bicycle(self):
        assert reduce_multilabel({"car", "bicycle"}) == "bicycle"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            reduce_multilabel(set())
