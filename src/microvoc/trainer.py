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
import math
import os
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from . import archdsl
from .archdsl import LayerSpec, NetworkSpec
from .augment import Dataset, Sample, augment_train_split
from .errors import CheckpointError, ShapeError, StateError, VersionError
from .initializers import InitSpec, init_weights, zero_init
from .layers import (
    DEFAULT_DROPOUT_P,
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
    realize,
    relu_backward,
    relu_forward,
    softmax_cross_entropy,
)
from .optim import AdamConfig, AdamState, PlateauScheduler, SchedulerConfig, adam_step, apply_l2
from .tensor import Tensor4

# seed-stream tags: keep init, shuffling and dropout streams independent
_STREAM_INIT = 0x11
_STREAM_SHUFFLE = 0x22
_STREAM_DROPOUT = 0x33
_STREAM_FREE = 0x44  # standalone forwards outside the training loop


@dataclass
class LayerNode:
    spec: LayerSpec
    cfg: object = None  # layers.realize's config for this kind
    params: dict[str, Tensor4] = field(default_factory=dict)
    grads: dict[str, Tensor4] = field(default_factory=dict)
    frozen: bool = False  # frozen layers still get gradients; the optimizer drops them
    cache: object = None


def _conv_forward(node, x, mode, rng):
    return conv2d_forward(x, node.params["w"], node.params["b"], node.cfg)


def _fc_forward(node, x, mode, rng):
    return fc_forward(x, node.params["w"], node.params["b"])


def _named(grads):
    """(grad_input, grad_w, grad_b) -> (grad_input, {"w": grad_w, "b": grad_b})"""
    g, gw, gb = grads
    return g, {"w": gw, "b": gb}


#: kind -> (forward(node, x, mode, rng) -> (output, cache),
#:          backward(cache, grad_out) -> (grad_input, {param name: grad})).
#: The adapters look the kernels up by their names in this module at call
#: time, so a wrapper installed on ``trainer.<kernel>`` sees every call.
DISPATCH = {
    "conv": (_conv_forward, lambda cache, g: _named(conv2d_backward(cache, g))),
    "relu": (lambda node, x, mode, rng: relu_forward(x),
             lambda cache, g: (relu_backward(cache, g), {})),
    "maxpool": (lambda node, x, mode, rng: maxpool_forward(x, *node.cfg),
                lambda cache, g: (maxpool_backward(cache, g), {})),
    "lrn": (lambda node, x, mode, rng: lrn_forward(x, node.cfg),
            lambda cache, g: (lrn_backward(cache, g), {})),
    "dropout": (lambda node, x, mode, rng: dropout_apply(x, node.cfg, mode, rng),
                lambda cache, g: (dropout_backward(cache, g), {})),
    "fc": (_fc_forward, lambda cache, g: _named(fc_backward(cache, g))),
    # a marker: the loss applies the softmax, and its gradient is already
    # with respect to the logits
    "softmax": (lambda node, x, mode, rng: (x, ()), lambda cache, g: (g, {})),
}


class Network:
    """Ordered layers with parameters, freeze flags and cached activations."""

    def __init__(self, spec: NetworkSpec, nodes: list[LayerNode], seed: int, dtype):
        self.spec = spec
        self.nodes = nodes
        self.seed = seed
        self.dtype = np.dtype(dtype)
        self.mode = Mode.TEST
        self.rng = np.random.default_rng([seed, _STREAM_FREE])
        self._grad_input: Tensor4 | None = None  # set by backward

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
        per-layer state needed by backward; dropout only drops in train."""
        n, c, h, w = batch.dims
        if (c, h, w) != self.spec.input_dims:
            raise ShapeError(f"batch dims {(c, h, w)} != network input {self.spec.input_dims}")
        self.mode = mode
        if rng is None:
            rng = self.rng
        x = batch if batch.dtype == self.dtype else batch.astype(self.dtype)
        for node in self.nodes:
            x, cache = DISPATCH[node.spec.kind][0](node, x, mode, rng)
            node.cache = cache if mode is Mode.TRAIN else None
        return x

    def backward(self, grad_logits: Tensor4) -> dict[str, Tensor4]:
        """Chain layer backwards in reverse order; returns parameter
        gradients keyed like param_dict. Consumes the cached forward."""
        if self.mode is not Mode.TRAIN:
            raise StateError("backward requires a cached train-mode forward")
        grads: dict[str, Tensor4] = {}
        g = grad_logits
        for i in range(len(self.nodes) - 1, -1, -1):
            node = self.nodes[i]
            if node.cache is None:
                raise StateError(f"layer {i} ({node.spec.kind}) has no cached forward state")
            g, node.grads = DISPATCH[node.spec.kind][1](node.cache, g)
            for name, gt in node.grads.items():
                grads[f"{i}.{name}"] = gt
            node.cache = None
        self.mode = Mode.TEST
        self._grad_input = g
        return grads


def build(spec: NetworkSpec | str, *, seed: int = 0,
          init_conv: InitSpec = InitSpec("xavier"),
          init_fc: InitSpec = InitSpec("xavier"),
          dropout_p: float | None = None,
          dtype=np.float64,
          input_dims: tuple[int, int, int] | None = None) -> Network:
    """Instantiate a network from a spec (or architecture string).

    Conv/FC weights follow the per-kind InitSpec; biases are zeros.
    ``dropout_p`` sets the drop probability for Dropout layers without a
    per-layer override. Deterministic under ``seed``.
    """
    if isinstance(spec, str):
        spec = archdsl.parse(archdsl.resolve_arch(spec),
                             input_dims or (3, 128, 128))
    rng = np.random.default_rng([seed, _STREAM_INIT])
    init = {"conv": init_conv, "fc": init_fc}
    dims = spec.input_dims
    nodes: list[LayerNode] = []
    for ls in spec.layers:
        layer = realize(ls, dims, DEFAULT_DROPOUT_P if dropout_p is None else dropout_p)
        params = _init_params(layer.param_shapes, init.get(ls.kind), rng, dtype)
        nodes.append(LayerNode(spec=ls, cfg=layer.cfg, params=params))
        dims = layer.out_dims
    return Network(spec, nodes, seed, dtype)


def _init_params(shapes: dict, init: InitSpec, rng: np.random.Generator,
                 dtype) -> dict[str, Tensor4]:
    """Weights "w" drawn per ``init`` with fans from their (out, in, kh, kw)
    shape, fan_in = in*kh*kw and fan_out = out*kh*kw; biases "b" zero."""
    params = {}
    for name, dims in shapes.items():
        if name == "b":
            params[name] = zero_init(dims, dtype=dtype)
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
                 init: InitSpec = InitSpec("gaussian", 0.005), seed: int = 0) -> Network:
    """Re-draw the parameters of the given layer kinds (weights per
    ``init``, biases zero); the usual transfer-learning head reset."""
    rng = np.random.default_rng([seed, _STREAM_INIT, 1])
    for node in net.nodes:
        if node.spec.kind in kinds:
            shapes = {name: p.dims for name, p in node.params.items()}
            node.params = _init_params(shapes, init, rng, net.dtype)
    return net


def stack_batch(samples: list[Sample], dtype) -> tuple[Tensor4, np.ndarray]:
    imgs = np.concatenate([s.image.data for s in samples], axis=0).astype(dtype, copy=False)
    labels = np.array([s.label for s in samples], dtype=np.int64)
    return Tensor4(imgs), labels


def evaluate(net: Network, samples: list[Sample], batch_size: int = 256) -> float:
    """Top-1 accuracy under test-mode forwards; argmax ties go to the
    first (lowest) class index."""
    if not samples:
        raise ValueError("cannot evaluate an empty split")
    correct = 0
    for start in range(0, len(samples), batch_size):
        chunk = samples[start:start + batch_size]
        x, y = stack_batch(chunk, net.dtype)
        logits = net.forward(x, Mode.TEST)
        pred = logits.data.reshape(len(chunk), -1).argmax(axis=1)
        correct += int((pred == y).sum())
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
    init_conv: InitSpec = field(default_factory=lambda: InitSpec("xavier"))
    init_fc: InitSpec = field(default_factory=lambda: InitSpec("xavier"))
    dropout_p: float = 0.5
    l2_include_biases: bool = False
    dtype: str = "float64"
    train_eval_cap: int = 512  # samples used for the train-accuracy metric

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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


def train(config: TrainConfig, dataset: Dataset, *,
          net: Network | None = None,
          adam_state: AdamState | None = None,
          start_iteration: int = 0,
          alpha: float | None = None,
          scheduler: PlateauScheduler | None = None,
          on_eval=None) -> tuple[Network, TrainHistory]:
    """Minibatch training: forward, cross-entropy, L2, backward, Adam on
    unfrozen parameters. Every ``eval_every`` iterations the metrics are
    recorded and the configured metric is fed to the plateau scheduler.

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
    if net is None:
        img_dims = train_samples[0].image.dims
        spec = config.arch
        if isinstance(spec, str):
            spec = archdsl.parse(archdsl.resolve_arch(spec), img_dims[1:])
        net = build(spec, seed=config.seed, init_conv=config.init_conv,
                    init_fc=config.init_fc, dropout_p=config.dropout_p, dtype=dtype)
    img_dims = train_samples[0].image.dims
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
        logits = net.forward(x, Mode.TRAIN, it_rng)
        data_loss, _, grad_logits = softmax_cross_entropy(logits, y)
        grads = net.backward(grad_logits)
        penalty = apply_l2(net.param_dict(), grads, config.adam.lam,
                           include_biases=config.l2_include_biases)
        loss_window.append(data_loss + penalty)
        adam_step(net.param_dict(trainable_only=True), grads, state,
                  replace(config.adam, alpha=lr))

        if it % config.eval_every == 0:
            point = HistoryPoint(
                iteration=it,
                loss=float(np.mean(loss_window)),
                train_acc=evaluate(net, train_eval),
                val_acc=evaluate(net, val_samples),
                alpha=lr,
            )
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
#   4*u32 dims + f64 data each), optional Adam state.

_MAGIC = b"MVOC"
_VERSION = 1
_FLAG_FLOAT32 = 1
_FLAG_ADAM = 2
_FLAG_MEANS = 4


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


def _write_tensor(fh, t: Tensor4) -> None:
    fh.write(struct.pack("<4I", *t.dims))
    fh.write(t.data.astype("<f8", copy=False).tobytes())


class _Reader:
    def __init__(self, fh):
        self.fh = fh

    def read(self, n: int) -> bytes:
        buf = self.fh.read(n)
        if len(buf) != n:
            raise CheckpointError("checkpoint truncated")
        return buf

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))

    def read_str(self) -> str:
        (n,) = self.unpack("<I")
        return self.read(n).decode("utf-8")

    def read_tensor(self, dtype) -> Tensor4:
        dims = self.unpack("<4I")
        count = dims[0] * dims[1] * dims[2] * dims[3]
        data = np.frombuffer(self.read(8 * count), dtype="<f8").reshape(dims)
        return Tensor4(data.astype(dtype))


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
    save/load round trip is bit-exact. Tensor data is stored as
    little-endian float64 regardless of the in-memory precision."""
    flags = 0
    if net.dtype == np.dtype(np.float32):
        flags |= _FLAG_FLOAT32
    if adam_state is not None:
        flags |= _FLAG_ADAM
    if channel_means is not None:
        flags |= _FLAG_MEANS
    sched_best = float("nan")
    sched_bad = 0
    if scheduler is not None:
        sched_best = scheduler.best if scheduler.best is not None else float("nan")
        sched_bad = scheduler.bad_count
    arch = archdsl.render(net.spec).encode("utf-8")
    names = class_names or []
    means = channel_means if channel_means is not None else np.zeros(3)

    with _replacing(path) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, flags))
        fh.write(struct.pack("<I", len(arch)))
        fh.write(arch)
        fh.write(struct.pack("<3I", *net.spec.input_dims))
        fh.write(struct.pack("<QQd", net.seed, iteration,
                             alpha if alpha is not None else 0.0))
        fh.write(struct.pack("<dI", sched_best, sched_bad))
        fh.write(struct.pack("<3d", *np.asarray(means, dtype=np.float64)))
        fh.write(struct.pack("<I", len(names)))
        for name in names:
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)

        nodes = net.nodes
        fh.write(struct.pack("<I", len(nodes)))
        bitmap = bytearray((len(nodes) + 7) // 8)
        for i, node in enumerate(nodes):
            if node.frozen:
                bitmap[i // 8] |= 1 << (i % 8)
        fh.write(bytes(bitmap))
        for node in nodes:
            fh.write(struct.pack("<B", len(node.params)))
            for name in sorted(node.params):
                _write_tensor(fh, node.params[name])

        if adam_state is not None:
            fh.write(struct.pack("<Q", adam_state.t))
            keys = sorted(adam_state.m)
            fh.write(struct.pack("<I", len(keys)))
            for key in keys:
                raw = key.encode("utf-8")
                fh.write(struct.pack("<I", len(raw)))
                fh.write(raw)
                _write_tensor(fh, adam_state.m[key])
                _write_tensor(fh, adam_state.v[key])


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
        if version != _VERSION:
            raise VersionError(f"unsupported checkpoint version {version}")
        dtype = np.dtype(np.float32) if flags & _FLAG_FLOAT32 else np.dtype(np.float64)
        arch = r.read_str()
        input_dims = r.unpack("<3I")
        seed, iteration, alpha = r.unpack("<QQd")
        sched_best, sched_bad = r.unpack("<dI")
        means = np.array(r.unpack("<3d"))
        (n_names,) = r.unpack("<I")
        names = [r.read_str() for _ in range(n_names)]

        spec = archdsl.parse(arch, input_dims)
        # zero init: every parameter is overwritten from the file below
        net = build(spec, seed=seed, dtype=dtype,
                    init_conv=InitSpec("zero"), init_fc=InitSpec("zero"))
        (n_layers,) = r.unpack("<I")
        if n_layers != len(net.nodes):
            raise CheckpointError(f"layer count {n_layers} does not match arch {arch!r}")
        bitmap = r.read((n_layers + 7) // 8)
        for i, node in enumerate(net.nodes):
            node.frozen = bool(bitmap[i // 8] >> (i % 8) & 1)
        for node in net.nodes:
            (n_tensors,) = r.unpack("<B")
            if n_tensors != len(node.params):
                raise CheckpointError("parameter tensor count mismatch")
            for name in sorted(node.params):
                t = r.read_tensor(dtype)
                if t.dims != node.params[name].dims:
                    raise CheckpointError(f"tensor dims {t.dims} do not match spec")
                node.params[name] = t

        adam_state = None
        if flags & _FLAG_ADAM:
            state = AdamState()
            (state.t,) = r.unpack("<Q")
            (n_keys,) = r.unpack("<I")
            for _ in range(n_keys):
                key = r.read_str()
                state.m[key] = r.read_tensor(np.float64)
                state.v[key] = r.read_tensor(np.float64)
            adam_state = state

        extra = fh.read(1)
        if extra:
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
