"""Spans recorded around the calls into each microvoc module.

The tracer patches public functions where they are *called*: ``trainer``
imports the layer, optimizer and augmentation functions by name, so the
patch goes on ``microvoc.trainer.<name>``, not on the defining module.
Nothing in ``src/`` is edited. Spans stay in memory as
(name, start, end, parent, round, work) and are written out at exit.

``work`` carries the computed work of a kernel call (FLOPs and bytes
from array shapes, not from counters), which with a measured machine
reference gives a roofline fraction, and the mode of a forward pass.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

import microvoc.archdsl
import microvoc.augment
import microvoc.dataio
import microvoc.trainer
from microvoc.layers import Mode

# ---------------------------------------------------------------------------
# computed work of the kernel layers


def _conv_fwd_work(x, weights, bias, cfg):
    n, c, h, w = x.dims
    f, _, kh, kw = weights.dims
    s, p = cfg.stride, cfg.pad
    ho, wo = (h + 2 * p - kh) // s + 1, (w + 2 * p - kw) // s + 1
    size = x.data.itemsize
    return {
        "shape": f"c{c}-f{f}-h{h}",
        "itemsize": size,
        "flop": 2 * n * f * c * kh * kw * ho * wo,
        "bytes": size * (n * c * h * w + f * c * kh * kw + n * f * ho * wo),
    }


def _conv_bwd_work(cache, grad_out):
    n, c, h, w = cache.x_dims
    f, _, kh, kw = cache.weights.shape
    _, _, ho, wo = grad_out.dims
    size = grad_out.data.itemsize
    return {
        "shape": f"c{c}-f{f}-h{h}",
        "itemsize": size,
        "flop": 4 * n * f * c * kh * kw * ho * wo,
        # read x, w, grad_out; write grad_x, grad_w
        "bytes": size * (2 * n * c * h * w + 2 * f * c * kh * kw + n * f * ho * wo),
    }


def _fc_fwd_work(x, weights, bias):
    n = x.dims[0]
    out, inp = weights.dims[0], weights.dims[1]
    size = x.data.itemsize
    return {"itemsize": size, "flop": 2 * n * inp * out,
            "bytes": size * (n * inp + out * inp + n * out)}


def _fc_bwd_work(cache, grad_out):
    n, inp = cache.x_flat.shape
    out = cache.weights.shape[0]
    size = grad_out.data.itemsize
    return {"itemsize": size, "flop": 4 * n * inp * out,
            "bytes": size * (2 * n * inp + 2 * out * inp + n * out)}


def _adam_work(params, grads, state, cfg):
    # per element: read param and grad, read+write float64 m and v, write param
    total = 0
    for p in params.values():
        total += p.data.size * (3 * p.data.itemsize + 4 * 8)
    return {"bytes": total}


def _forward_mode(net, batch, mode=Mode.TEST, rng=None):
    return {"mode": mode.value}


# (module, attribute, span name, work function or None)
_TARGETS = (
    (microvoc.dataio, "ingest", "dataio.ingest", None),
    (microvoc.dataio, "load_eval_samples", "dataio.load_eval_samples", None),
    (microvoc.dataio, "read_image", "dataio.read_image", None),
    (microvoc.dataio, "resize_to", "dataio.resize_to", None),
    (microvoc.dataio, "mean_subtract", "augment.mean_subtract", None),
    (microvoc.augment, "resize_to", "augment.resize_to", None),
    (microvoc.archdsl, "parse", "archdsl.parse", None),
    (microvoc.trainer, "init_weights", "initializers.init_weights", None),
    (microvoc.trainer, "build", "trainer.build", None),
    (microvoc.trainer, "train", "trainer.train", None),
    (microvoc.trainer, "evaluate", "trainer.evaluate", None),
    (microvoc.trainer, "stack_batch", "trainer.stack_batch", None),
    (microvoc.trainer, "save_checkpoint", "trainer.save_checkpoint", None),
    (microvoc.trainer, "load_checkpoint", "trainer.load_checkpoint", None),
    (microvoc.trainer, "augment_train_split", "augment.augment_train_split", None),
    (microvoc.trainer, "conv2d_forward", "layers.conv.fwd", _conv_fwd_work),
    (microvoc.trainer, "conv2d_backward", "layers.conv.bwd", _conv_bwd_work),
    (microvoc.trainer, "relu_forward", "layers.relu.fwd", None),
    (microvoc.trainer, "relu_backward", "layers.relu.bwd", None),
    (microvoc.trainer, "maxpool_forward", "layers.maxpool.fwd", None),
    (microvoc.trainer, "maxpool_backward", "layers.maxpool.bwd", None),
    (microvoc.trainer, "lrn_forward", "layers.lrn.fwd", None),
    (microvoc.trainer, "lrn_backward", "layers.lrn.bwd", None),
    (microvoc.trainer, "dropout_apply", "layers.dropout.fwd", None),
    (microvoc.trainer, "dropout_backward", "layers.dropout.bwd", None),
    (microvoc.trainer, "fc_forward", "layers.fc.fwd", _fc_fwd_work),
    (microvoc.trainer, "fc_backward", "layers.fc.bwd", _fc_bwd_work),
    (microvoc.trainer, "softmax_cross_entropy", "layers.softmax_xent", None),
    (microvoc.trainer, "apply_l2", "optim.apply_l2", None),
    (microvoc.trainer, "adam_step", "optim.adam_step", _adam_work),
    (microvoc.trainer.Network, "forward", "trainer.forward", _forward_mode),
    (microvoc.trainer.Network, "backward", "trainer.backward", None),
)


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, round, work]
        self.round = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, work_of):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            work = work_of(*args, **kwargs) if work_of is not None else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.round, work]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def install(self) -> None:
        for owner, attr, name, work_of in _TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, work_of))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "round", "work")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n")


def self_times(spans) -> list[float]:
    """Duration minus the part covered by direct children. Calls nest
    strictly on one thread, so child coverage is the sum of child
    durations."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def _step_ms(spans) -> list[tuple[int, float]]:
    """(round, ms) of every training step. A step runs from the start of
    a train-mode forward to the end of the next adam_step."""
    out, start = [], None
    for s in spans:
        if s[0] == "trainer.forward" and s[5]["mode"] == "train":
            start = s[1]
        elif s[0] == "optim.adam_step" and start is not None:
            out.append((s[4], (s[2] - start) * 1e3))
            start = None
    return out


def summarize(spans, rounds: int, ref: dict) -> dict:
    """Aggregate the spans of ``rounds`` traced rounds into per-layer
    figures. Times are totals per round in ms unless the name says
    otherwise; ``ref`` is the machine reference for roofline fractions."""
    selfs = self_times(spans)
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(lambda: defaultdict(float))
    ideal = defaultdict(float)  # roofline-bound seconds
    for s, st in zip(spans, selfs):
        name, dur, w = s[0], s[2] - s[1], s[5]
        total[name] += dur
        own[name] += st
        calls[name] += 1
        if w is None:
            continue
        if "shape" in w:  # layers.conv.fwd -> layers.conv.c3-f8-h32.fwd
            base, _, direction = name.rpartition(".")
            total[f"{base}.{w['shape']}.{direction}"] += dur
            calls[f"{base}.{w['shape']}.{direction}"] += 1
        for k in ("flop", "bytes"):
            if k in w:
                work[name][k] += w[k]
        if "bytes" in w:
            # roofline: the slower of peak GEMM rate and streaming the bytes
            t = w["bytes"] / (ref["copy_gbps"] * 1e9)
            if "flop" in w:
                t = max(t, w["flop"] / (ref[f"gemm_gflops_f{w['itemsize'] * 8}"] * 1e9))
            ideal[name] += t

    per_round = 1.0 / rounds
    m = {}
    for name in total:
        m[f"{name}_ms"] = total[name] * 1e3 * per_round
        m[f"{name}.calls"] = calls[name] * per_round
    for name in own:
        m[f"{name}.self_ms"] = own[name] * 1e3 * per_round
    for name, w in work.items():
        if "flop" in w:
            m[f"{name}_gflop"] = w["flop"] / 1e9 * per_round
            m[f"{name}_gflops"] = w["flop"] / 1e9 / total[name]
            m[f"{name}_flop_per_byte"] = w["flop"] / w["bytes"]
        if "bytes" in w and "flop" not in w:
            m[f"{name}_gbyte"] = w["bytes"] / 1e9 * per_round
            m[f"{name}_gbps"] = w["bytes"] / 1e9 / total[name]
        m[f"{name}_roofline_frac"] = ideal[name] / total[name]
    steps = _step_ms(spans)
    if steps:
        times = [t for _, t in steps]
        m["trainer.step_samples"] = len(times)
        m["trainer.step_ms_p50"] = statistics.median(times)
        if len(times) >= 100:  # at least ten samples beyond the 90th percentile
            m["trainer.step_ms_p90"] = statistics.quantiles(times, n=10)[8]
        # the first step of a round pays one-time costs (first touch of
        # the Adam moments, for one); compare it with the steps after it
        first, later = {}, []
        for rnd, t in steps:
            if rnd in first:
                later.append(t)
            else:
                first[rnd] = t
        m["trainer.first_step_ms"] = statistics.median(first.values())
        if later:
            m["trainer.later_step_ms_p50"] = statistics.median(later)
    return m
