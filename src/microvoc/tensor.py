"""Dense rank-4 tensor in (batch, channel, height, width) layout.

One container type holds everything the engine touches: image batches,
activations, conv filters (filters, in_channels, kh, kw), FC weights
(out, in, 1, 1) and biases (1, out, 1, 1). Data is stored C-contiguous,
so flat offset of element (i, j, y, x) is ``((i*c + j)*h + y)*w + x``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError

Dims = tuple[int, int, int, int]


class Tensor4:
    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        arr = np.asarray(data)
        if arr.ndim != 4:
            raise ShapeError(f"expected 4 dims, got shape {arr.shape}")
        if any(d < 1 for d in arr.shape):
            raise ShapeError(f"all dims must be >= 1, got {arr.shape}")
        if arr.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            arr = arr.astype(np.float64)
        self.data = np.ascontiguousarray(arr)

    @classmethod
    def new(cls, dims: Dims, fill: float = 0.0, dtype=np.float64) -> "Tensor4":
        if len(dims) != 4:
            raise ShapeError(f"expected 4 dims, got {dims}")
        if any(d < 1 for d in dims):
            raise ShapeError(f"all dims must be >= 1, got {dims}")
        if np.dtype(dtype) not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ShapeError(f"unsupported dtype {dtype}")
        if fill == 0 and math.copysign(1.0, fill) > 0:
            # +0.0: np.zeros takes a large tensor from fresh zero pages, so
            # one that is overwritten at once (a checkpoint's) is written once
            return cls(np.zeros(dims, dtype=dtype))
        return cls(np.full(dims, fill, dtype=dtype))

    @property
    def dims(self) -> Dims:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def copy(self) -> "Tensor4":
        return Tensor4(self.data.copy())

    def astype(self, dtype) -> "Tensor4":
        return Tensor4(self.data.astype(dtype))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tensor4)
            and self.dims == other.dims
            and bool(np.array_equal(self.data, other.data))
        )

    def __repr__(self) -> str:
        return f"Tensor4(dims={self.dims}, dtype={self.data.dtype})"
