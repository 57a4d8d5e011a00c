"""Weight initialization schemes, the three branches of ``init_weights``.

Fan-based uniform ("Xavier") init for weights trained from scratch,
plain Gaussian init for re-initialized classifier heads, zeros for a net
whose weights a checkpoint overwrites. The drawn schemes draw from an
explicit ``numpy.random.Generator``, so builds are reproducible from a
recorded seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import require_finite
from .tensor import Dims, Tensor4


@dataclass(frozen=True)
class InitSpec:
    """kind is one of 'xavier', 'gaussian', 'zero'; std applies to gaussian."""

    kind: str = "xavier"
    std: float = 0.005

    def __post_init__(self):
        require_finite(self, "std")
        if self.kind not in ("xavier", "gaussian", "zero"):
            raise ValueError(f"unknown init kind {self.kind!r}")
        if self.kind == "gaussian" and not self.std > 0:
            raise ValueError(f"gaussian std must be > 0, got {self.std}")


def init_weights(spec: InitSpec, fan_in: int, fan_out: int, shape: Dims,
                 rng: np.random.Generator, dtype=np.float64) -> Tensor4:
    """A tensor of ``shape`` drawn per ``spec.kind``. Xavier is uniform on
    [-L, L] with L = sqrt(6 / (fan_in + fan_out)), where fan_in = c*kh*kw
    and fan_out = f*kh*kw for conv weights, and the inputs and outputs for
    FC weights; gaussian is i.i.d. normal with mean 0 and standard
    deviation ``spec.std``; zero draws nothing."""
    if spec.kind == "zero":
        return Tensor4.new(shape, 0.0, dtype=dtype)
    if spec.kind == "gaussian":
        r = rng.standard_normal(size=shape, dtype=np.dtype(dtype))
        r *= spec.std
        return Tensor4(r)
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"fans must be >= 1, got fan_in={fan_in} fan_out={fan_out}")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    # generate in the target dtype directly; the largest FC weight tensors
    # do not fit in memory as float64 intermediates
    r = rng.random(size=shape, dtype=np.dtype(dtype))
    r *= 2.0 * limit
    r -= limit
    return Tensor4(r)
