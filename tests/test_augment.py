import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import microvoc
from microvoc.augment import (
    RESIZE_PLANS,
    Dataset,
    Sample,
    _resize_plan,
    _crop_window,
    _id_stream,
    augment_train_split,
    mean_subtract,
    reduce_multilabel,
    resize_to,
    split_60_40,
    stack_batch,
)
from microvoc.errors import StateError
from microvoc.tensor import Tensor4


def image(data):
    return Tensor4(np.asarray(data, dtype=np.float64))


def gray(value, size=4):
    return Tensor4(np.full((1, 3, size, size), float(value)))


def random_sample(seed=4, h=8, w=8):
    rng = np.random.default_rng(seed)
    return Sample(Tensor4(rng.random((1, 3, h, w)) * 255), 1, "img0")


def expand(sample, crop, seed=0):
    """The five train entries of one sample: orig, flip, crop0-2."""
    return augment_train_split(Dataset([sample], ["train"]), crop, seed).samples


def rows(entries):
    """The float64 batch rows of entries."""
    return stack_batch(entries, np.float64)[0].data


def test_public_names_resolve():
    for name in microvoc.__all__:
        assert hasattr(microvoc, name), name


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

    @pytest.mark.parametrize("target", [(0, 4), (4, 0), (-1, 4), (4, -3)])
    def test_target_below_one_rejected(self, target):
        with pytest.raises(ValueError):
            resize_to(gray(1), target)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_bytes_match_oracle_in_any_call_order(self, data):
        """Same bytes as the pre-plan formula, +-inf and -0 included,
        whether a geometry's plan is built by the call or cached. NaN
        must sit where the formula puts it; its sign is not compared:
        which NaN of a NaN + NaN sum NumPy returns depends on the
        element's place in its loop, and the formula's loops ran over
        fancy-indexed arrays in their own memory order."""
        side = st.integers(1, 9)
        geometries = data.draw(st.lists(st.tuples(side, side, side, side),
                                        min_size=1, max_size=6))
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        n, c = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        calls = []
        for h, w, th, tw in geometries:
            x = rng.normal(0.0, 100.0, (n, c, h, w))
            special = rng.random(x.shape) < 0.15
            x[special] = rng.choice([np.nan, np.inf, -np.inf, -0.0], int(special.sum()))
            calls.append((Tensor4(x.astype(dtype)), (th, tw)))
        order = data.draw(st.permutations(range(len(calls))))
        _resize_plan.cache_clear()
        with np.errstate(invalid="ignore"):
            want = [resize_oracle(img, target) for img, target in calls]
            for i in list(range(len(calls))) + order:  # misses, then hits
                img, target = calls[i]
                got = resize_to(img, target).data
                assert got.dtype == want[i].dtype and got.shape == want[i].shape
                assert nan_signless(got).tobytes() == nan_signless(want[i]).tobytes()

    def test_plan_cache_bounded_and_evictions_keep_bytes(self):
        rng = np.random.default_rng(5)
        img = Tensor4(rng.normal(0.0, 100.0, (2, 3, 7, 9)))
        targets = [(t, t + 1) for t in range(1, RESIZE_PLANS + 6)]
        _resize_plan.cache_clear()
        for _ in range(2):
            for target in targets:
                got = resize_to(img, target).data
                assert got.tobytes() == resize_oracle(img, target).tobytes()
        assert _resize_plan.cache_info().currsize == RESIZE_PLANS


def nan_signless(a):
    """A copy of ``a`` with every NaN replaced by one positive quiet NaN."""
    out = a.copy()
    out[np.isnan(out)] = np.nan
    return out


def resize_oracle(image, target):
    """resize_to before its per-geometry plan, verbatim: two-level
    fancy-index gathers and broadcast weights, in float64."""
    n, c, h, w = image.dims
    th, tw = target
    if (h, w) == (th, tw):
        return image.data.copy()

    def grid(out_size, in_size):
        if out_size == 1:
            return np.zeros(1)
        return np.arange(out_size) * (in_size - 1) / (out_size - 1)

    ys = grid(th, h)
    xs = grid(tw, w)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0).reshape(1, 1, th, 1)
    fx = (xs - x0).reshape(1, 1, 1, tw)

    d = image.data
    top = d[:, :, y0][:, :, :, x0] * (1 - fx) + d[:, :, y0][:, :, :, x1] * fx
    bot = d[:, :, y1][:, :, :, x0] * (1 - fx) + d[:, :, y1][:, :, :, x1] * fx
    out = top * (1 - fy) + bot * fy
    return out.astype(d.dtype, copy=False)


class TestHflip:
    """The #flip entry, built by stack_batch."""

    def flip_row(self, img):
        return rows(expand(Sample(img, 0, "f"), (1, 1))[1:2])[0]

    def test_involution(self):
        rng = np.random.default_rng(1)
        img = Tensor4(rng.random((1, 3, 5, 7)))
        assert np.array_equal(self.flip_row(img)[:, :, ::-1], img.data[0])

    def test_symmetric_image_unchanged(self):
        img = image([[[[1.0, 2.0, 1.0]]]])
        assert np.array_equal(self.flip_row(img), img.data[0])

    def test_row_reversed(self):
        img = image([[[[1.0, 2.0, 3.0]]]])
        assert np.array_equal(self.flip_row(img).ravel(), [3, 2, 1])


class TestRandomCrop:
    """The #crop entries: offsets drawn by augment_train_split, pixels
    built by stack_batch."""

    def test_full_size_crop_is_identity(self):
        sample = random_sample(2, 4, 4)
        crops = expand(sample, (4, 4))[2:]
        assert [v.window for v in crops] == [(0, 0, 4, 4)] * 3
        for row in rows(crops):
            assert row.tobytes() == sample.image.data[0].tobytes()

    def test_crop_is_exact_subblock(self):
        sample = random_sample(3, 9, 11)
        crops = expand(sample, (5, 6), seed=1)[2:]
        for row, view in zip(rows(crops), crops):
            oy, ox, ch, cw = view.window
            assert (ch, cw) == (5, 6)
            block = Tensor4(sample.image.data[:, :, oy:oy + ch, ox:ox + cw])
            assert row.tobytes() == resize_to(block, (9, 11)).data[0].tobytes()

    def test_offsets_uniform_chi_square(self):
        # 2x2 crop of a 3x3 image: 4 possible offsets
        img = gray(0, 3)
        counts = np.zeros(4)
        n = 10_000
        rng = np.random.default_rng(1234)
        for _ in range(n):
            oy, ox, _, _ = _crop_window(img, (2, 2), rng)
            counts[2 * oy + ox] += 1
        expected = n / 4
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < 16.27  # chi-square 0.999 quantile, 3 dof

    def test_oversized_crop_rejected(self):
        with pytest.raises(ValueError):
            expand(Sample(gray(0, 4), 0, "g"), (5, 4))


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

    def test_centers_in_place(self):
        samples = [Sample(gray(100), 0, "a"), Sample(gray(200), 0, "b")]
        arrays = [s.image.data for s in samples]
        out = mean_subtract(Dataset(samples, ["train", "val"]))
        assert all(o is s for o, s in zip(out.samples, samples))
        assert all(o.image.data is a for o, a in zip(out.samples, arrays))
        assert np.all(arrays[1] == 100.0)

    def test_shared_image_array_centered_once(self):
        # an "#orig" entry shares its source's image; so may two Tensor4s
        shared = gray(100)
        samples = [Sample(shared, 0, "a"), Sample(shared, 0, "a#orig"),
                   Sample(Tensor4(shared.data), 0, "a#copy"), Sample(gray(300), 0, "b")]
        out = mean_subtract(Dataset(samples, ["train"] * 4))
        assert np.allclose(out.channel_means, 150.0)
        assert [float(s.image.data[0, 0, 0, 0]) for s in out.samples] == [-50.0] * 3 + [150.0]


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
        assert [s.id for s in a.samples] == [s.id for s in b.samples]
        assert rows(a.samples).tobytes() == rows(b.samples).tobytes()

    def test_exactly_five_with_same_label(self):
        out = expand(random_sample(), (6, 6))
        assert [s.id for s in out] == ["img0#orig", "img0#flip", "img0#crop0",
                                       "img0#crop1", "img0#crop2"]
        assert all(s.label == 1 for s in out)

    def test_first_is_original_second_is_flip(self):
        sample = random_sample()
        out = expand(sample, (6, 6))
        assert out[0].image is sample.image
        assert out[1].source is sample and out[1].window is None
        x = rows(out)
        assert np.array_equal(x[0], sample.image.data[0])
        assert np.array_equal(x[1], sample.image.data[0, :, :, ::-1])

    def test_crops_resized_back_to_source_resolution(self):
        out = expand(random_sample(), (6, 6))
        assert all(v.window[2:] == (6, 6) for v in out[2:])
        assert rows(out).shape == (5, 3, 8, 8)

    def test_deterministic_under_seed(self):
        sample = random_sample()
        a, b = expand(sample, (6, 6), seed=9), expand(sample, (6, 6), seed=9)
        assert [v.window for v in a[2:]] == [v.window for v in b[2:]]
        assert rows(a).tobytes() == rows(b).tobytes()


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


def _eager_hflip(image):
    return Tensor4(np.ascontiguousarray(image.data[:, :, :, ::-1]))


def _eager_expand_x5(sample, crop, rng):
    h, w = sample.image.dims[2], sample.image.dims[3]
    out = [
        Sample(sample.image, sample.label, f"{sample.id}#orig"),
        Sample(_eager_hflip(sample.image), sample.label, f"{sample.id}#flip"),
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
    return Dataset(samples, split, dataset.channel_means)


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
