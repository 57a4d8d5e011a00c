"""Adam optimizer, L2 weight regularization and the plateau LR schedule.

The update uses the canonical bias-corrected efficient form:

    m <- b1*m + (1-b1)*g
    v <- b2*v + (1-b2)*g^2
    W <- W - alpha_t * m / (sqrt(v) + eps),   alpha_t = alpha * sqrt(1-b2^t) / (1-b1^t)

with t incremented once per step before computing alpha_t.

``chunks`` walks a tensor's flat C-contiguous view in pieces of ``CHUNK``
elements, staging each through one reused buffer when another dtype is
wanted; ``adam_step``, the gradient half of ``apply_l2``,
``StreamedStep`` and checkpoint I/O all use it, so none builds a
full-size temporary. Adam and L2 run each piece in place, with ``out=``
into chunk-sized scratch buffers, using the whole-array formula's ufuncs
in the same order, with the same operand dtypes and casts; the piece's
L2 term is ``_l2_piece``, and its Adam update is written once, in
``StreamedStep``, which ``adam_step`` runs on whole gradients. Every
one of those ops is elementwise and correctly rounded, so an element's
result does not depend on which piece it falls in: parameters, moments
and gradients are bit-identical to the whole-array evaluation, and so
are those of a ``StreamedStep``, which takes a gradient in blocks of
rows. The L2 penalty (``l2_penalty``) stays one whole-tensor ``np.dot``,
because splitting a reduction would change its rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ShapeError, StateError, require_finite
from .tensor import Tensor4

# t is serialized as uint64 in checkpoints
MAX_STEPS = 2**64 - 1

# Elements per chunk of the in-place updates; the results do not depend on
# it. At 2**15 a float64 scratch buffer is 256 KiB, so a chunk's working
# set stays in cache: on a 2-vCPU Xeon with 4 MiB L2, the M3 step (17.2M
# float32 params) ran as fast as at 2**14 and faster than at 2**13, 2**16
# and 2**17.
CHUNK = 2**15


@dataclass(frozen=True)
class AdamConfig:
    alpha: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    lam: float = 5e-4  # L2 strength; applied to weights only by default

    def __post_init__(self):
        require_finite(self, "alpha", "beta1", "beta2", "epsilon", "lam")
        if not 0.0 <= self.beta1 < 1.0:
            raise ValueError(f"beta1 must be in [0, 1), got {self.beta1}")
        if not 0.0 <= self.beta2 < 1.0:
            raise ValueError(f"beta2 must be in [0, 1), got {self.beta2}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")


@dataclass
class AdamState:
    """First/second moment accumulators per parameter tensor, plus the
    shared step counter. Keys identify parameter tensors."""

    m: dict[str, Tensor4] = field(default_factory=dict)
    v: dict[str, Tensor4] = field(default_factory=dict)
    t: int = 0

    @classmethod
    def for_params(cls, params: dict[str, Tensor4]) -> "AdamState":
        state = cls()
        for key, p in params.items():
            state.add_zero_moments(key, p.dims)
        return state

    def add_zero_moments(self, key: str, dims) -> None:
        """Start the moments of one parameter tensor at zero (float64)."""
        self.m[key] = Tensor4(np.zeros(dims, dtype=np.float64))
        self.v[key] = Tensor4(np.zeros(dims, dtype=np.float64))


def chunks(arr: np.ndarray, dtype=np.float64):
    """``(start, piece, buf)`` for each ``CHUNK``-element piece of ``arr``'s
    flat view, where ``buf`` is the ``dtype`` buffer the piece moves
    through: the piece itself when ``arr`` has ``dtype``, else one buffer
    reused for every piece. Filling ``buf`` is the caller's job."""
    flat = arr.reshape(-1)
    own = flat.dtype == np.dtype(dtype)
    buf = None if own else np.empty(min(CHUNK, flat.size), dtype=dtype)
    for lo in range(0, flat.size, CHUNK):
        piece = flat[lo:lo + CHUNK]
        yield lo, piece, piece if own else buf[:piece.size]


def _check_inplace(key: str, *arrays: np.ndarray) -> None:
    """Arrays updated through their flat view must be C-contiguous, or the
    reshape would copy and drop the update, and writable."""
    for arr in arrays:
        if not (arr.flags.c_contiguous and arr.flags.writeable):
            raise StateError(f"arrays of {key!r} updated in place must be "
                             "writable and C-contiguous")


def _l2_piece(g, w, coef: float, term) -> None:
    """The L2 gradient term of one piece: ``g += coef * w``, with ``term``
    scratch of ``w``'s dtype. 2*lam*w has w's dtype, and so has g in every
    caller: the piece's sum is the whole-array g += 2*lam*w without a cast."""
    np.multiply(coef, w, out=term)
    g += term


def _regularized(key: str, include_biases: bool) -> bool:
    """Whether L2 applies to the tensor ``key``: bias tensors (keys ending
    in '.b') only with ``include_biases``."""
    return include_biases or not key.endswith(".b")


class StreamedStep:
    """The Adam update of the next step (``state.t + 1``), with the L2 term
    of strength ``cfg.lam`` (none at 0) before it, for gradients handed
    over a block of rows at a time, so that a whole gradient need never
    exist: ``step(key, row, g)`` takes the gradient of rows ``row,
    row + 1, ...`` of ``params[key]``, adds the L2 term to it in place
    when L2 applies to the tensor, and updates those rows of the tensor
    and its moments, piece by piece with ``apply_l2``'s and Adam's ops,
    so with their bits. It does not count the step.

    Making one runs every check of ``adam_step`` that needs no gradient
    (the step counter has room, and each tensor and its moments have the
    same dims and can be written in place), then gives each tensor
    without moments zero moments.
    """

    def __init__(self, params: dict[str, Tensor4], state: AdamState, cfg: AdamConfig,
                 include_biases: bool = False):
        if state.t >= MAX_STEPS:
            raise StateError("Adam step counter exhausted")
        for key, p in params.items():
            moments = (state.m[key].data, state.v[key].data) if key in state.m else ()
            for arr in moments:
                if arr.shape != p.dims:
                    raise ShapeError(f"state dims {arr.shape} != param dims {p.dims} "
                                     f"for {key!r}")
            _check_inplace(key, p.data, *moments)
        for key, p in params.items():
            if key not in state.m:
                state.add_zero_moments(key, p.dims)
        self.params, self.state, self.cfg = params, state, cfg
        self.include_biases = include_biases
        t = state.t + 1
        self.alpha_t = cfg.alpha * math.sqrt(1.0 - cfg.beta2**t) / (1.0 - cfg.beta1**t)

    def __call__(self, key: str, row: int, g: np.ndarray) -> None:
        rows = slice(row, row + g.shape[0])
        w, m, v = (a.data[rows].reshape(-1)
                   for a in (self.params[key], self.state.m[key], self.state.v[key]))
        lam = self.cfg.lam if _regularized(key, self.include_biases) else 0.0
        b1, b2, eps = self.cfg.beta1, self.cfg.beta2, self.cfg.epsilon
        n = min(CHUNK, w.size)
        term, scaled, denom = np.empty(n, dtype=w.dtype), np.empty(n), np.empty(n)
        for lo, gc, gd in chunks(g):
            hi = lo + gc.size
            if lam:
                _l2_piece(gc, w[lo:hi], 2.0 * lam, term[:gc.size])
            np.copyto(gd, gc)  # returns at once when gd is gc
            mc, vc, u, d = m[lo:hi], v[lo:hi], scaled[:gd.size], denom[:gd.size]
            mc *= b1
            np.multiply(1.0 - b1, gd, out=u)
            mc += u
            vc *= b2
            np.multiply(gd, gd, out=u)
            np.multiply(1.0 - b2, u, out=u)
            vc += u
            np.multiply(self.alpha_t, mc, out=u)
            np.sqrt(vc, out=d)
            np.add(d, eps, out=d)
            np.divide(u, d, out=u)
            # the update is cast to the parameter dtype before the subtraction
            w[lo:hi] -= u.astype(w.dtype, copy=False)


def adam_step(params: dict[str, Tensor4], grads: dict[str, Tensor4],
              state: AdamState, cfg: AdamConfig) -> None:
    """One Adam step over every tensor in ``params``, in place: each
    gradient goes whole through a ``StreamedStep`` without L2 (that is
    ``apply_l2``'s job), and then the step is counted.

    Moments are kept in float64 regardless of parameter precision so the
    update arithmetic is identical between precisions. Every check runs
    before anything is written, so a rejected step leaves the
    parameters, the moments and ``state.t`` as they were.
    """
    missing = set(params) - set(grads)
    if missing:
        raise ShapeError(f"no gradient supplied for params {sorted(missing)}")
    for key, p in params.items():
        if grads[key].dims != p.dims:
            raise ShapeError(f"grad dims {grads[key].dims} != param dims {p.dims} for {key!r}")
    step = StreamedStep(params, state, replace(cfg, lam=0.0))
    for key in params:
        step(key, 0, grads[key].data)
    state.t += 1


def l2_penalty(params: dict[str, Tensor4], lam: float, include_biases: bool = False) -> float:
    """The loss penalty lam * sum ||W||^2 over the tensors L2 applies to,
    one whole-tensor ``np.dot`` each, summed in ``params``' order. Bias
    tensors (keys ending in '.b') count only with ``include_biases``."""
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    penalty = 0.0
    if lam == 0.0:
        return penalty
    for key, p in params.items():
        if _regularized(key, include_biases):
            w = p.data.ravel()
            penalty += lam * float(np.dot(w, w))
    return penalty


def apply_l2(params: dict[str, Tensor4], grads: dict[str, Tensor4], lam: float,
             include_biases: bool = False) -> float:
    """Add 2*lam*W to the gradient of each tensor of ``params`` that L2
    applies to and ``grads`` holds, in place, and return
    ``l2_penalty(params, lam, include_biases)``."""
    penalty = l2_penalty(params, lam, include_biases)
    if lam == 0.0:
        return penalty
    for key, p in params.items():
        if key not in grads or not _regularized(key, include_biases):
            continue
        w, g = p.data, grads[key].data
        if g.shape != w.shape:
            raise ShapeError(f"grad dims {g.shape} != param dims {w.shape} for {key!r}")
        _check_inplace(key, g)
        w = w.reshape(-1)
        term = np.empty(min(CHUNK, w.size), dtype=w.dtype)
        for lo, gc, _ in chunks(g, g.dtype):
            _l2_piece(gc, w[lo:lo + gc.size], 2.0 * lam, term[:gc.size])
    return penalty


@dataclass
class SchedulerConfig:
    metric: str = "val_acc"  # 'val_acc' (higher is better) or 'train_loss' (lower)
    patience: int = 5
    min_delta: float = 1e-3
    factor: float = 10.0
    floor: float = 1e-8

    def __post_init__(self):
        require_finite(self, "min_delta", "factor", "floor")
        if self.metric not in ("val_acc", "train_loss"):
            raise ValueError(f"unknown scheduler metric {self.metric!r}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.min_delta < 0:  # a negative one counts a fall as an improvement
            raise ValueError(f"min_delta must be >= 0, got {self.min_delta}")
        if not self.factor > 1:
            raise ValueError(f"factor must be > 1, got {self.factor}")
        if not self.floor > 0:  # drops would take alpha to 0, which Adam rejects
            raise ValueError(f"floor must be > 0, got {self.floor}")


class PlateauScheduler:
    """Divides the learning rate by ``factor`` after ``patience``
    consecutive observations without an improvement of more than
    ``min_delta``, never dropping below ``floor``. The first observation
    only sets the baseline."""

    def __init__(self, cfg: SchedulerConfig):
        self.cfg = cfg
        self.best: float | None = None
        self.bad_count: int = 0

    def _improved(self, value: float) -> bool:
        if self.cfg.metric == "val_acc":
            return value > self.best + self.cfg.min_delta
        return value < self.best - self.cfg.min_delta

    def observe(self, metric_value: float, current_alpha: float) -> float:
        """Feed one metric observation; returns the (possibly reduced) alpha."""
        if self.best is None:
            self.best = metric_value
            return current_alpha
        if self._improved(metric_value):
            self.best = metric_value
            self.bad_count = 0
            return current_alpha
        self.bad_count += 1
        if self.bad_count >= self.cfg.patience:
            # reset the improvement window so a stalled metric triggers
            # exactly one drop per patience window
            self.bad_count = 0
            self.best = metric_value
            return max(current_alpha / self.cfg.factor, self.cfg.floor)
        return current_alpha
