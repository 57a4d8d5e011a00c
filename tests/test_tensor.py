import numpy as np
import pytest

from microvoc.errors import ShapeError
from microvoc.tensor import Tensor4


class TestNew:
    def test_zero_fill(self):
        t = Tensor4.new((1, 1, 2, 2), 0.0)
        assert t.dims == (1, 1, 2, 2)
        assert np.array_equal(t.data, np.zeros((1, 1, 2, 2)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_signed_zero_fill_keeps_its_sign(self, dtype):
        # a +0 fill takes np.zeros; -0 is filled as given
        assert not np.signbit(Tensor4.new((1, 2, 3, 4), 0.0, dtype).data).any()
        assert np.signbit(Tensor4.new((1, 2, 3, 4), -0.0, dtype).data).all()

    def test_constant_fill(self):
        t = Tensor4.new((2, 3, 4, 4), 1.5)
        assert t.data.size == 96
        assert np.all(t.data == 1.5)

    def test_degenerate_dim_rejected(self):
        with pytest.raises(ShapeError):
            Tensor4.new((1, 0, 2, 2), 0.0)

    def test_wrong_rank_rejected(self):
        with pytest.raises(ShapeError):
            Tensor4(np.zeros((2, 2)))

    def test_float32_supported(self):
        t = Tensor4.new((1, 1, 2, 2), 1.0, dtype=np.float32)
        assert t.dtype == np.float32

    def test_int_input_coerced_to_float64(self):
        t = Tensor4(np.ones((1, 1, 1, 3), dtype=np.int64))
        assert t.dtype == np.float64


class TestGetSet:
    """Elements are read and written through ``data``, which is row-major
    NCHW in memory whatever the order of the array it was made from."""

    def test_layout_formula(self):
        # on (1,2,2,2) index (0,1,0,0) must live at flat offset 4
        t = Tensor4.new((1, 2, 2, 2), 0.0)
        t.data[0, 1, 0, 0] = 9.0
        assert t.data.ravel(order="K")[4] == 9.0

    def test_offset_formula_everywhere(self):
        n, c, h, w = 2, 3, 4, 5
        src = np.arange(n * c * h * w, dtype=np.float64).reshape(n, c, h, w)
        t = Tensor4(np.asfortranarray(src))
        flat = t.data.ravel(order="K")  # memory order
        for i in range(n):
            for j in range(c):
                for y in range(h):
                    for x in range(w):
                        assert t.data[i, j, y, x] == flat[((i * c + j) * h + y) * w + x]
