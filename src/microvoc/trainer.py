"""Network assembly, the per-kind forward/backward dispatch table, the
training loop, evaluation and checkpoints.

All randomness is derived from the run seed through fixed stream tags,
so a (config, dataset, seed) triple fully determines the history and the
final parameters, and training resumed from a checkpoint written at an
evaluation boundary continues bit-identically.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import math
import os
import struct
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from . import archdsl
from .archdsl import LayerSpec, NetworkSpec
from .augment import Dataset, Sample, View, augment_train_split, stack_batch
from .errors import (ArchError, CheckpointError, NumericError, ShapeError, StateError,
                     VersionError)
from .initializers import InitSpec, init_weights
from .layers import (
    DEFAULT_DROPOUT_P,
    DropoutConfig,
    Mode,
    conv2d_backward,
    conv2d_forward,
    dropout_apply,
    dropout_backward,
    fc_backward,
    fc_forward,
    lrn_backward,
    lrn_forward,
    maxpool_backward,
    maxpool_forward,
    relu_backward,
    relu_forward,
    softmax_cross_entropy,
)
from .optim import (AdamConfig, AdamState, PlateauScheduler, SchedulerConfig, StreamedStep,
                    adam_step, apply_l2, chunks, l2_penalty)
from .tensor import Tensor4

# seed-stream tags: keep init, shuffling and dropout streams independent
_STREAM_INIT = 0x11
_STREAM_SHUFFLE = 0x22
_STREAM_DROPOUT = 0x33


@dataclass
class LayerNode:
    spec: LayerSpec
    cfg: object = None  # the config its kind's realize gave this layer
    params: dict[str, Tensor4] = field(default_factory=dict)
    frozen: bool = False  # frozen layers get no parameter gradients and no update
    cache: object = None


def _conv_backward(cache, g, input_grad=True, sink=None, param_grads=True):
    if cache is not None:
        cache = cache._replace(input_grad=input_grad, param_grads=param_grads)
    return conv2d_backward(cache, g)


def _fc_backward(cache, g, input_grad=True, sink=None, param_grads=True):
    if cache is not None:
        cache = cache._replace(sink=sink, param_grads=param_grads)
    return fc_backward(cache, g)


#: kind -> (forward(node, x, mode, rng) -> (output, cache),
#:          backward(cache, grad_out, input_grad=True, sink=None, param_grads=True)
#:          -> (grad_input, {param name: grad})).
#: ``Network.forward`` drops the cache of a test-mode forward. Backward may
#: skip grad_input (and return None for it) when ``input_grad`` is False;
#: only conv does. When ``sink`` is not None, backward may hand it the
#: weight gradient "w" in blocks of rows, as ``sink(first row, rows)``,
#: instead of returning it; only fc does. When ``param_grads`` is False
#: (a frozen layer), backward computes no parameter gradient and returns
#: an empty dict. The adapters look the kernels up by their names in this
#: module at call time, so a wrapper installed on ``trainer.<kernel>``
#: sees every call; they call each kernel with its own arguments only, so
#: the mode and the switches of conv and fc (they go into the cache) do
#: not reach its argument list.
DISPATCH = {
    "conv": (lambda node, x, mode, rng: conv2d_forward(
                 x, node.params["w"], node.params["b"], node.cfg), _conv_backward),
    "relu": (lambda node, x, mode, rng: relu_forward(x, mode),
             lambda cache, g, *_: (relu_backward(cache, g), {})),
    "maxpool": (lambda node, x, mode, rng: maxpool_forward(x, *node.cfg, mode),
                lambda cache, g, *_: (maxpool_backward(cache, g), {})),
    "lrn": (lambda node, x, mode, rng: lrn_forward(x, node.cfg, mode),
            lambda cache, g, *_: (lrn_backward(cache, g), {})),
    "dropout": (lambda node, x, mode, rng: dropout_apply(x, node.cfg, mode, rng),
                lambda cache, g, *_: (dropout_backward(cache, g), {})),
    "fc": (lambda node, x, mode, rng: fc_forward(x, node.params["w"], node.params["b"]),
           _fc_backward),
    # a marker: the loss applies the softmax, and its gradient is already
    # with respect to the logits
    "softmax": (lambda node, x, mode, rng: (x, ()),
                lambda cache, g, *_: (g, {})),
}

#: images per slice of a test-mode forward's trunk (see ``Network.forward``)
TRUNK_PIECE = 8


class Network:
    """Ordered layers with parameters, freeze flags and cached activations."""

    def __init__(self, spec: NetworkSpec, nodes: list[LayerNode], seed: int, dtype):
        self.spec = spec
        self.nodes = nodes
        self.seed = seed
        self.dtype = np.dtype(dtype)
        self._grad_input: Tensor4 | None = None  # set by backward(input_grad=True)

    def param_dict(self, trainable_only: bool = False) -> dict[str, Tensor4]:
        out: dict[str, Tensor4] = {}
        for i, node in enumerate(self.nodes):
            if trainable_only and node.frozen:
                continue
            for name, p in node.params.items():
                out[f"{i}.{name}"] = p
        return out

    def forward(self, batch: Tensor4, mode: Mode = Mode.TEST,
                rng: np.random.Generator | None = None) -> Tensor4:
        """Run the layers in order; returns logits. Train mode caches the
        per-layer state needed by backward; test mode drops every layer's
        cache. Dropout only drops in train, with draws from ``rng``. No
        kernel writes into its input, so ``batch`` is never written.

        In test mode the layers before the first FC layer (the trunk) run
        on slices of TRUNK_PIECE images, whose outputs fill one buffer for
        the whole batch, and the rest (the head) runs once on that buffer.
        Every trunk kernel computes each image on its own (a conv with a
        single filter may not keep its last bits; see the README), and the
        head's GEMMs see every row at once, so the logits are those of one
        pass of every layer over the whole batch (``tools/pinned_hashes.py``
        checks that), while the trunk's activations are those of
        TRUNK_PIECE images."""
        n, c, h, w = batch.dims
        if (c, h, w) != self.spec.input_dims:
            raise ShapeError(f"batch dims {(c, h, w)} != network input {self.spec.input_dims}")
        head = next((i for i, node in enumerate(self.nodes) if node.spec.kind == "fc"),
                    len(self.nodes))
        if mode is Mode.TRAIN or head == 0:
            return self._run(self.nodes, batch, mode, rng)
        trunk = Tensor4(np.empty((n, *self.spec.shapes[head - 1]), dtype=self.dtype))
        for lo in range(0, n, TRUNK_PIECE):
            piece = Tensor4(batch.data[lo:lo + TRUNK_PIECE])
            trunk.data[lo:lo + TRUNK_PIECE] = self._run(self.nodes[:head], piece, mode, rng).data
        return self._run(self.nodes[head:], trunk, mode, rng)

    def _run(self, nodes: list[LayerNode], x: Tensor4, mode: Mode,
             rng: np.random.Generator | None) -> Tensor4:
        """Run ``nodes`` in order on ``x``, in the net's dtype; see ``forward``."""
        if x.dtype != self.dtype:
            x = x.astype(self.dtype)
        for node in nodes:
            x, node.cache = DISPATCH[node.spec.kind][0](node, x, mode, rng)
            if mode is not Mode.TRAIN:
                node.cache = None  # at once: a cache may refer to the layer's input
        return x

    def backward(self, grad_logits: Tensor4, input_grad: bool = False,
                 sink=None) -> dict[str, Tensor4]:
        """Chain layer backwards in reverse order; returns parameter
        gradients keyed like param_dict. Consumes the cached forward.
        The gradient with respect to the network's input is kept in
        ``_grad_input`` only when ``input_grad`` is set; otherwise the
        first layer may skip computing it and ``_grad_input`` is None.

        With a ``sink``, each unfrozen FC layer hands it its weight
        gradient in blocks of rows, as ``sink(key, first row, rows)``, and
        the returned dict has no key for it. Frozen layers compute no
        parameter gradient and the dict has no key for them."""
        grads: dict[str, Tensor4] = {}
        g = grad_logits
        for i in range(len(self.nodes) - 1, -1, -1):
            node = self.nodes[i]
            if node.cache is None:
                raise StateError(f"layer {i} ({node.spec.kind}) has no cached forward state")
            node_sink = None if sink is None else functools.partial(sink, f"{i}.w")
            g, node_grads = DISPATCH[node.spec.kind][1](node.cache, g, input_grad or i > 0,
                                                        node_sink, not node.frozen)
            for name, gt in node_grads.items():
                grads[f"{i}.{name}"] = gt
            node.cache = None
        self._grad_input = g if input_grad else None
        return grads


def _check_seed(seed: int) -> None:
    """Checkpoints store the seed as a u64: refuse one outside [0, 2**64)."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


def build(spec: NetworkSpec | str, *, seed: int = 0,
          init_conv: InitSpec = InitSpec(),
          init_fc: InitSpec = InitSpec(),
          dropout_p: float | None = None,
          dtype=np.float64,
          input_dims: tuple[int, int, int] = archdsl.INPUT_DIMS) -> Network:
    """Instantiate a network from a spec (or architecture string).

    Conv/FC weights follow the per-kind InitSpec; biases are zeros.
    ``dropout_p``, when given, goes to ``archdsl.with_dropout``, before
    the layers are made. Deterministic under ``seed``.
    """
    _check_seed(seed)
    if isinstance(spec, str):
        spec = archdsl.parse(archdsl.resolve_arch(spec), input_dims)
    if dropout_p is not None:
        spec = archdsl.with_dropout(spec, dropout_p)
    rng = np.random.default_rng([seed, _STREAM_INIT])
    init = {"conv": init_conv, "fc": init_fc}
    nodes = [LayerNode(spec=ls, cfg=layer.cfg,
                       params=_init_params(layer.param_shapes, init.get(ls.kind), rng, dtype))
             for ls, layer in zip(spec.layers, spec.realized)]
    return Network(spec, nodes, seed, dtype)


def _init_params(shapes: dict, init: InitSpec, rng: np.random.Generator,
                 dtype) -> dict[str, Tensor4]:
    """Weights "w" drawn per ``init`` with fans from their (out, in, kh, kw)
    shape, fan_in = in*kh*kw and fan_out = out*kh*kw; biases "b" zero."""
    params = {}
    for name, dims in shapes.items():
        if name == "b":
            params[name] = Tensor4.new(dims, 0.0, dtype=dtype)
        else:
            area = dims[2] * dims[3]
            params[name] = init_weights(init, dims[1] * area, dims[0] * area, dims, rng,
                                        dtype=dtype)
    return params


def freeze(net: Network, predicate) -> Network:
    """Mark layers matched by ``predicate(index, LayerSpec) -> bool`` as
    frozen: their parameters are never updated by the optimizer."""
    for i, node in enumerate(net.nodes):
        node.frozen = bool(predicate(i, node.spec))
    return net


def reinitialize(net: Network, kinds: tuple[str, ...] = ("fc",),
                 init: InitSpec = InitSpec("gaussian"), seed: int = 0) -> Network:
    """Re-draw the parameters of the given layer kinds (weights per
    ``init``, biases zero); the usual transfer-learning head reset."""
    rng = np.random.default_rng([seed, _STREAM_INIT, 1])
    for node in net.nodes:
        if node.spec.kind in kinds:
            shapes = {name: p.dims for name, p in node.params.items()}
            node.params = _init_params(shapes, init, rng, net.dtype)
    return net


def checked_logits(net: Network, x: Tensor4) -> np.ndarray:
    """The test-mode logits of ``x`` as an (n, classes) array. Raises
    NumericError when the forward overflows or the logits are not finite."""
    # weights that overflowed can give finite logits (a ReLU maps NaN to
    # 0), so an overflow inside the forward counts too
    with np.errstate(over="raise", invalid="raise"):
        try:
            logits = net.forward(x, Mode.TEST).data.reshape(x.dims[0], -1)
        except FloatingPointError as e:
            raise NumericError(f"evaluation forward: {e}") from None
    if not np.isfinite(logits).all():
        raise NumericError("evaluation logits are not finite")
    return logits


#: images per test-mode forward in ``evaluate``
EVAL_PIECE = 64


def evaluate(net: Network, samples: list[Sample | View], batch_size: int = 256) -> float:
    """Top-1 accuracy under test-mode forwards; argmax ties go to the
    first (lowest) class index. Raises NumericError when a forward
    overflows or its logits are not finite (see ``checked_logits``).

    The samples go in runs of ``batch_size``, and each run is stacked and
    forwarded in pieces of EVAL_PIECE images, the last piece taking the
    remainder, so a run under 2 * EVAL_PIECE stays whole. Activations
    then stay those of EVAL_PIECE images whatever ``batch_size`` is. The
    logits are those of one forward per run as long as the BLAS kernels
    pick their blocking by row count only below EVAL_PIECE rows, which
    ``tools/pinned_hashes.py`` checks on the presets and two small nets.
    """
    if not samples:
        raise ValueError("cannot evaluate an empty split")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    correct = 0
    for start in range(0, len(samples), batch_size):
        run = samples[start:start + batch_size]
        pieces = max(1, len(run) // EVAL_PIECE)
        for i in range(pieces):
            piece = run[i * EVAL_PIECE:(i + 1) * EVAL_PIECE if i + 1 < pieces else None]
            x, y = stack_batch(piece, net.dtype)
            correct += int((checked_logits(net, x).argmax(axis=1) == y).sum())
    return correct / len(samples)


@dataclass
class TrainConfig:
    arch: str | NetworkSpec
    adam: AdamConfig = field(default_factory=AdamConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    batch_size: int = 32
    max_iterations: int = 2000
    eval_every: int = 100
    seed: int = 1
    augment: bool = False
    crop: tuple[int, int] = (112, 112)
    init_conv: InitSpec = field(default_factory=InitSpec)
    init_fc: InitSpec = field(default_factory=InitSpec)
    dropout_p: float = DEFAULT_DROPOUT_P
    l2_include_biases: bool = False
    dtype: str = "float64"
    train_eval_cap: ClassVar[int] = 512  # samples used for the train-accuracy metric

    def __post_init__(self):
        if self.dtype not in ("float64", "float32"):
            raise ValueError(f"dtype must be float64 or float32, got {self.dtype!r}")
        DropoutConfig(self.dropout_p)
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        _check_seed(self.seed)


@dataclass
class HistoryPoint:
    iteration: int
    loss: float
    train_acc: float
    val_acc: float
    alpha: float


@dataclass
class EvalEvent:
    """Passed to the train() callback after each evaluation; carries the
    live state a checkpoint hook needs. ``next_alpha`` is the learning
    rate training continues with (post scheduler observation)."""

    point: HistoryPoint
    net: "Network"
    adam_state: AdamState
    scheduler: PlateauScheduler
    next_alpha: float


@dataclass
class TrainHistory:
    points: list[HistoryPoint] = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "loss", "train_acc", "val_acc", "alpha"])
            for p in self.points:
                writer.writerow([p.iteration, f"{p.loss:.17g}", f"{p.train_acc:.17g}",
                                 f"{p.val_acc:.17g}", f"{p.alpha:.17g}"])


def _epoch_perm(seed: int, epoch: int, n: int) -> np.ndarray:
    return np.random.default_rng([seed, _STREAM_SHUFFLE, epoch]).permutation(n)


def train_step(net: Network, x: Tensor4, labels, state: AdamState, cfg: AdamConfig, *,
               include_biases: bool = False,
               rng: np.random.Generator | None = None) -> float:
    """One training step on the batch ``x``: forward in train mode (Dropout
    draws from ``rng``), cross-entropy, L2, backward, and Adam on the
    unfrozen parameters. Returns the loss, cross-entropy plus the L2
    penalty. Overflow and invalid values raise no warning; a loss that is
    not finite raises ``NumericError``.

    The penalty (taken before any update), the loss check and every check
    of ``adam_step`` run before backward starts, so a step they reject
    changes nothing. Backward then hands each unfrozen FC layer's weight
    gradient, FC_BLOCK_ROWS rows at a time, to a ``StreamedStep``, which
    adds the L2 term and makes the Adam update of those rows, so the whole
    gradient never exists. The other gradients come back whole and go
    through ``apply_l2`` and ``adam_step``, which counts the step. The
    bytes are those of backward without a sink followed by ``apply_l2``
    and ``adam_step`` over every gradient, as long as the BLAS gives a
    block of rows of the weight-gradient GEMM the bits of the whole one
    (``tools/pinned_hashes.py`` checks that on M3, M4 and c06).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        logits = net.forward(x, Mode.TRAIN, rng)
        data_loss, _, grad_logits = softmax_cross_entropy(logits, labels)
        loss = data_loss + l2_penalty(net.param_dict(), cfg.lam, include_biases)
        if not math.isfinite(loss):
            raise NumericError(f"training loss is {loss}")
        params = net.param_dict(trainable_only=True)
        step = StreamedStep(params, state, cfg, include_biases)
        grads = net.backward(grad_logits, sink=step)
        whole = {key: p for key, p in params.items() if key in grads}
        apply_l2(whole, grads, cfg.lam, include_biases)  # the loss already has the penalty
        adam_step(whole, grads, state, cfg)
    return loss


def train(config: TrainConfig, dataset: Dataset, *,
          net: Network | None = None,
          adam_state: AdamState | None = None,
          start_iteration: int = 0,
          alpha: float | None = None,
          scheduler: PlateauScheduler | None = None,
          on_eval=None) -> tuple[Network, TrainHistory]:
    """Minibatch training, one ``train_step`` per batch. Every
    ``eval_every`` iterations the metrics are recorded and the configured
    metric is fed to the plateau scheduler.

    Pass ``net``/``adam_state``/``start_iteration`` to resume or to
    fine-tune an existing network. ``on_eval`` is called with an
    EvalEvent after each recorded evaluation.
    """
    ds = dataset
    if config.augment:
        ds = augment_train_split(ds, config.crop, config.seed)
    train_samples = ds.train_samples()
    val_samples = ds.val_samples()
    if not train_samples:
        raise StateError("training split is empty")
    if not val_samples:
        raise StateError("validation split is empty")

    dtype = np.dtype(config.dtype)
    img_dims = val_samples[0].image.dims  # a plain sample: augmentation leaves val alone
    if net is None:
        net = build(config.arch, seed=config.seed, init_conv=config.init_conv,
                    init_fc=config.init_fc, dropout_p=config.dropout_p, dtype=dtype,
                    input_dims=img_dims[1:])
    if img_dims[1:] != net.spec.input_dims:
        raise StateError(f"dataset images {img_dims[1:]} do not match "
                         f"network input {net.spec.input_dims}")
    ncls = net.spec.num_classes
    max_label = max(s.label for s in ds.samples)
    if ncls is not None and max_label >= ncls:
        raise StateError(f"dataset label {max_label} out of range for {ncls}-way classifier")

    state = adam_state if adam_state is not None else AdamState()
    sched = scheduler if scheduler is not None else PlateauScheduler(config.scheduler)
    lr = alpha if alpha is not None else config.adam.alpha
    history = TrainHistory()
    n_train = len(train_samples)
    batches_per_epoch = math.ceil(n_train / config.batch_size)
    train_eval = train_samples[:min(n_train, config.train_eval_cap)]
    perm = None
    loss_window: list[float] = []

    for it in range(start_iteration + 1, config.max_iterations + 1):
        epoch, pos = divmod(it - 1, batches_per_epoch)
        if pos == 0 or perm is None:
            perm = _epoch_perm(config.seed, epoch, n_train)
        idx = perm[pos * config.batch_size:(pos + 1) * config.batch_size]
        x, y = stack_batch([train_samples[i] for i in idx], dtype)

        it_rng = np.random.default_rng([config.seed, _STREAM_DROPOUT, it])
        try:
            loss = train_step(net, x, y, state, replace(config.adam, alpha=lr),
                              include_biases=config.l2_include_biases, rng=it_rng)
        except NumericError as e:
            raise NumericError(f"{e} at iteration {it}") from None
        loss_window.append(loss)

        if it % config.eval_every == 0:
            try:
                train_acc, val_acc = evaluate(net, train_eval), evaluate(net, val_samples)
            except NumericError as e:
                raise NumericError(f"{e} at iteration {it}") from None
            point = HistoryPoint(iteration=it, loss=float(np.mean(loss_window)),
                                 train_acc=train_acc, val_acc=val_acc, alpha=lr)
            history.points.append(point)
            metric = point.val_acc if config.scheduler.metric == "val_acc" else point.loss
            lr = sched.observe(metric, lr)
            loss_window = []
            if on_eval is not None:
                on_eval(EvalEvent(point, net, state, sched, lr))

    return net, history


# ---------------------------------------------------------------------------
# checkpoint persistence
#
# Versioned binary layout (all integers little-endian; see README for the
# byte-exact description):
#   magic "MVOC", version u32, flags u32, arch (u32 len + utf-8),
#   input dims 3*u32, seed u64, iteration u64, alpha f64,
#   scheduler best f64 (NaN = unset), scheduler bad count u32,
#   channel means 3*f64, class names (u32 count, each u32 len + utf-8),
#   layer count u32, freeze bitmap, per-layer tensors (u8 count, then
#   4*u32 dims + data each), optional Adam state.
# Each tensor is stored little-endian in its in-memory dtype: parameters
# as f4 when flag bit0 (float32) is set, else f8; Adam moments as f8. A
# file that holds f4 tensors is version 2. A float64 net's file is
# version 1, which stores every tensor as f8, so it is byte for byte the
# file written before version 2. The loader reads both versions.

_MAGIC = b"MVOC"
_VERSIONS = (1, 2)
_FLAG_FLOAT32 = 1
_FLAG_ADAM = 2
_FLAG_MEANS = 4
#: the fixed fields after the arch string: input dims, seed, iteration,
#: alpha, scheduler best and bad count, channel means
_FIXED = struct.Struct("<3IQQddI3d")
_F4, _F8 = np.dtype("<f4"), np.dtype("<f8")


@dataclass
class Checkpoint:
    net: Network
    adam_state: AdamState | None
    iteration: int
    alpha: float
    scheduler_best: float | None
    scheduler_bad: int
    channel_means: np.ndarray | None
    class_names: list[str]

    def make_scheduler(self, cfg: SchedulerConfig) -> PlateauScheduler:
        sched = PlateauScheduler(cfg)
        sched.best = self.scheduler_best
        sched.bad_count = self.scheduler_bad
        return sched


def _write_str(fh, s: str) -> None:
    raw = s.encode("utf-8")
    fh.write(struct.pack("<I", len(raw)) + raw)


def _write_tensor(fh, t: Tensor4, stored: np.dtype) -> None:
    fh.write(struct.pack("<4I", *t.dims))
    for _, piece, buf in chunks(t.data, stored):
        np.copyto(buf, piece)  # returns at once when buf is piece
        fh.write(buf.data)


class _Reader:
    """Checks every length read from the file against the bytes left in it
    before reading, so corrupt lengths or dims raise CheckpointError
    instead of asking for more memory than the file holds."""

    def __init__(self, fh):
        self.fh = fh
        self.left = os.fstat(fh.fileno()).st_size

    def read(self, n: int) -> bytes:
        buf = self.fh.read(n) if n <= self.left else b""
        if len(buf) != n:
            raise CheckpointError("checkpoint truncated")
        self.left -= n
        return buf

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))

    def read_str(self) -> str:
        (n,) = self.unpack("<I")
        try:
            return self.read(n).decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"corrupt string: {e}") from e

    def read_into(self, arr: np.ndarray, stored: np.dtype, what: str) -> None:
        """Fill ``arr`` from a tensor stored as ``stored`` a chunk at a time;
        stored dims that are not ``arr``'s raise before any data is read."""
        dims = self.unpack("<4I")
        if dims != arr.shape:
            raise CheckpointError(f"checkpoint tensor {what} dims {dims} != arch's {arr.shape}")
        for _, piece, buf in chunks(arr, stored):
            if buf.nbytes > self.left or self.fh.readinto(buf) != buf.nbytes:
                raise CheckpointError("checkpoint truncated")
            self.left -= buf.nbytes
            piece[...] = buf  # returns at once when buf is piece


@contextlib.contextmanager
def _replacing(path):
    """Yield a temp file beside ``path`` that replaces it once written, so
    a save that fails partway leaves the previous file and no temp file."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_checkpoint(path, net: Network, adam_state: AdamState | None = None, *,
                    iteration: int = 0, alpha: float | None = None,
                    scheduler: PlateauScheduler | None = None,
                    channel_means: np.ndarray | None = None,
                    class_names: list[str] | None = None) -> None:
    """Write the network (and optionally optimizer/scheduler state) so a
    save/load round trip is bit-exact. Each tensor is stored little-endian
    in its in-memory dtype: a float32 net's parameters as f4, in a version-2
    file; a float64 net's as f8, in a version-1 file. Adam moments are f8."""
    flags, version, stored = 0, 1, _F8
    if net.dtype == np.dtype(np.float32):
        flags, version, stored = _FLAG_FLOAT32, 2, _F4
    if adam_state is not None:
        flags |= _FLAG_ADAM
    if channel_means is not None:
        flags |= _FLAG_MEANS
    sched = scheduler or PlateauScheduler(SchedulerConfig())
    sched_best = float("nan") if sched.best is None else sched.best
    means = channel_means if channel_means is not None else np.zeros(3)

    with _replacing(path) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", version, flags))
        _write_str(fh, archdsl.render(net.spec))
        fh.write(_FIXED.pack(*net.spec.input_dims, net.seed, iteration,
                             alpha if alpha is not None else 0.0, sched_best, sched.bad_count,
                             *np.asarray(means, dtype=np.float64)))
        names = class_names or []
        fh.write(struct.pack("<I", len(names)))
        for name in names:
            _write_str(fh, name)

        fh.write(struct.pack("<I", len(net.nodes)))
        # bit i of the freeze bitmap, least significant first, is layer i's flag
        fh.write(np.packbits([node.frozen for node in net.nodes], bitorder="little").data)
        for node in net.nodes:
            fh.write(struct.pack("<B", len(node.params)))
            for name in sorted(node.params):
                _write_tensor(fh, node.params[name], stored)

        if adam_state is not None:
            fh.write(struct.pack("<Q", adam_state.t))
            keys = sorted(adam_state.m)
            fh.write(struct.pack("<I", len(keys)))
            for key in keys:
                _write_str(fh, key)
                _write_tensor(fh, adam_state.m[key], _F8)
                _write_tensor(fh, adam_state.v[key], _F8)


def load_checkpoint(path) -> Checkpoint:
    """Inverse of save_checkpoint; raises CheckpointError on corrupt or
    truncated files and VersionError on a format version mismatch."""
    try:
        fh = open(path, "rb")
    except OSError as e:
        raise CheckpointError(f"cannot open checkpoint: {e}") from e
    with fh:
        r = _Reader(fh)
        if r.read(4) != _MAGIC:
            raise CheckpointError("not a checkpoint file (bad magic)")
        version, flags = r.unpack("<II")
        if version not in _VERSIONS:
            raise VersionError(f"unsupported checkpoint version {version}")
        dtype = np.dtype(np.float32) if flags & _FLAG_FLOAT32 else np.dtype(np.float64)
        stored = _F4 if version == 2 and flags & _FLAG_FLOAT32 else _F8
        arch = r.read_str()
        fixed = _FIXED.unpack(r.read(_FIXED.size))
        input_dims, means = fixed[:3], np.array(fixed[8:])
        seed, iteration, alpha, sched_best, sched_bad = fixed[3:8]
        (n_names,) = r.unpack("<I")
        names = [r.read_str() for _ in range(n_names)]

        try:
            spec = archdsl.parse(arch, input_dims)
        except ArchError as e:
            raise CheckpointError(f"corrupt arch {arch!r}: {e}") from e
        # each parameter takes stored.itemsize bytes: no larger net can be in the file
        if stored.itemsize * spec.param_count > r.left:
            raise CheckpointError(f"arch {arch!r} at input {input_dims} has more "
                                  f"parameters than the file holds")
        # zero init: every parameter is overwritten from the file below
        net = build(spec, seed=seed, dtype=dtype,
                    init_conv=InitSpec("zero"), init_fc=InitSpec("zero"))
        (n_layers,) = r.unpack("<I")
        if n_layers != len(net.nodes):
            raise CheckpointError(f"layer count {n_layers} does not match arch {arch!r}")
        bitmap = r.read((n_layers + 7) // 8)
        for i, node in enumerate(net.nodes):
            node.frozen = bool(bitmap[i // 8] >> (i % 8) & 1)
            (n_tensors,) = r.unpack("<B")
            if n_tensors != len(node.params):
                raise CheckpointError("parameter tensor count mismatch")
            for name in sorted(node.params):
                r.read_into(node.params[name].data, stored, f"{i}.{name}")

        adam_state = None
        if flags & _FLAG_ADAM:
            state = AdamState()
            (state.t,) = r.unpack("<Q")
            (n_keys,) = r.unpack("<I")
            params = net.param_dict()  # frozen layers' moments load too
            for _ in range(n_keys):
                key = r.read_str()
                if key not in params:
                    raise CheckpointError(f"Adam state key {key!r} names no parameter of "
                                          f"arch {arch!r}")
                state.add_zero_moments(key, params[key].dims)
                r.read_into(state.m[key].data, _F8, f"Adam m of {key!r}")
                r.read_into(state.v[key].data, _F8, f"Adam v of {key!r}")
            adam_state = state

        if r.left:
            raise CheckpointError("trailing bytes after checkpoint payload")

    return Checkpoint(
        net=net,
        adam_state=adam_state,
        iteration=iteration,
        alpha=alpha,
        scheduler_best=None if math.isnan(sched_best) else sched_best,
        scheduler_bad=sched_bad,
        channel_means=means if flags & _FLAG_MEANS else None,
        class_names=names,
    )
