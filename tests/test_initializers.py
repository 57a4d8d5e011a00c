import numpy as np
import pytest

from microvoc.initializers import InitSpec, gaussian_init, init_weights, xavier_init, zero_init


class TestXavier:
    def test_bound_fan3_fan3(self):
        # L = sqrt(6/6) = 1
        rng = np.random.default_rng(0)
        t = xavier_init(3, 3, (1, 1, 10, 100), rng)
        assert np.all(np.abs(t.data) <= 1.0)

    def test_variance_matches_uniform_formula(self):
        # Var of U[-L, L] is L^2/3 = 2/(fan_in+fan_out)
        rng = np.random.default_rng(1)
        t = xavier_init(600, 600, (1, 1, 100, 1000), rng)
        expected = 2.0 / 1200.0
        assert abs(t.data.var() - expected) / expected < 0.10

    def test_deterministic_under_seed(self):
        a = xavier_init(8, 4, (4, 2, 2, 2), np.random.default_rng(42))
        b = xavier_init(8, 4, (4, 2, 2, 2), np.random.default_rng(42))
        assert np.array_equal(a.data, b.data)

    def test_zero_fan_rejected(self):
        with pytest.raises(ValueError):
            xavier_init(0, 3, (1, 1, 1, 1), np.random.default_rng(0))


class TestGaussian:
    def test_mean_within_clt_bound(self):
        rng = np.random.default_rng(2)
        t = gaussian_init(0.005, (1, 1, 100, 1000), rng)
        assert abs(t.data.mean()) < 3 * 0.005 / np.sqrt(1e5)

    def test_std_within_5_percent(self):
        rng = np.random.default_rng(3)
        t = gaussian_init(0.005, (1, 1, 100, 1000), rng)
        assert abs(t.data.std() - 0.005) / 0.005 < 0.05

    def test_deterministic_under_seed(self):
        a = gaussian_init(0.1, (2, 2, 2, 2), np.random.default_rng(7))
        b = gaussian_init(0.1, (2, 2, 2, 2), np.random.default_rng(7))
        assert np.array_equal(a.data, b.data)

    def test_nonpositive_std_rejected(self):
        with pytest.raises(ValueError):
            gaussian_init(0.0, (1, 1, 1, 1), np.random.default_rng(0))


class TestZero:
    def test_sq_l2_zero(self):
        d = zero_init((3, 2, 5, 5)).data.ravel()
        assert float(np.dot(d, d)) == 0.0

    def test_bias_shapes(self):
        for shape in ((1, 20, 1, 1), (1, 1024, 1, 1)):
            t = zero_init(shape)
            assert t.dims == shape
            assert np.all(t.data == 0.0)


def test_init_spec_validation():
    with pytest.raises(ValueError):
        InitSpec("he")
    with pytest.raises(ValueError):
        InitSpec("gaussian", 0.0)


def test_init_weights_dispatch():
    rng = np.random.default_rng(0)
    assert np.all(init_weights(InitSpec("zero"), 4, 4, (1, 1, 2, 2), rng).data == 0)
    g = init_weights(InitSpec("gaussian", 0.5), 4, 4, (1, 1, 50, 50), rng)
    assert 0.3 < g.data.std() < 0.7
    x = init_weights(InitSpec("xavier"), 3, 3, (1, 1, 5, 5), rng)
    assert np.all(np.abs(x.data) <= 1.0)


def test_float32_generation():
    rng = np.random.default_rng(0)
    assert xavier_init(4, 4, (1, 1, 2, 2), rng, dtype=np.float32).dtype == np.float32
    assert gaussian_init(1.0, (1, 1, 2, 2), rng, dtype=np.float32).dtype == np.float32
