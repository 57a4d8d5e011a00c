"""The three closed-loop workloads and their output checks.

A round is one pass through a user's flow, calling microvoc's public
functions in the order ``cli.cmd_train`` or ``cli.cmd_eval`` does, then
checking the outputs. Each phase is timed from outside with
``perf_counter``; nothing inside the program is instrumented.

train: ingest -> parse + build -> train -> save_checkpoint -> history.csv,
       then (checks) load_checkpoint -> evaluate on the validation split
eval:  load_checkpoint -> load_eval_samples -> evaluate (batch 256)
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
from microvoc import archdsl, dataio, trainer
from microvoc.errors import MicrovocError

#: training seed (init, shuffle, dropout); the benchmark seed draws the data
TRAIN_SEED = 1
SIZE = 32
#: a round repeats its checkpoint write until this much time is measured
CHECKPOINT_MIN_S = 0.05
C06_ARCH = "IMG-(Conv8-ReLU-MaxPool)-(FC32-ReLU-FC2)-Softmax"


@dataclass(frozen=True)
class Workload:
    kind: str  # "train" or "eval"
    arch: str
    dtype: str
    images: int
    data: str = "voc"  # "voc" or "bars"
    iterations: int = 0
    eval_every: int = 0
    augment: bool = False
    crop: int = 28
    target: float | None = None  # val_acc the run must reach
    batch: int = 32  # training batch, or evaluate's batch for "eval"


WORKLOADS = {
    # M3 at ROADMAP's working size: wide convs, LRN, dropout and Adam over
    # 17.2M float32 params with float64 moments (a 400 MB working set)
    "train_m3": Workload("train", "M3", "float32", images=53, iterations=4, eval_every=4),
    # the c06 acceptance net on its bar task: C_in=3 first conv, maxpool,
    # per-call overhead, augmentation and frequent in-loop evaluation
    "train_c06_aug": Workload("train", C06_ARCH, "float64", images=500, data="bars",
                              iterations=60, eval_every=20, augment=True, target=0.95),
    # the read side: forward only at evaluate's default batch 256
    "eval_m4": Workload("eval", "M4", "float32", images=320, batch=256),
}

#: shrunken sizes for the self-check; the c06 target still has to be met
SMOKE = {
    "train_m3": dict(images=40, iterations=2, eval_every=2),
    "train_c06_aug": dict(images=200, iterations=40, eval_every=20),
    "eval_m4": dict(images=40),
}


def get(name: str, smoke: bool) -> Workload:
    w = WORKLOADS[name]
    return replace(w, **SMOKE[name]) if smoke else w


def samples_seen(n_train: int, batch: int, iterations: int) -> int:
    """Images the training loop consumes: each epoch walks the train
    split in batches, the last of which may be partial."""
    per_epoch = -(-n_train // batch)
    epochs, rest = divmod(iterations, per_epoch)
    return epochs * n_train + min(rest * batch, n_train)


@dataclass
class Checks:
    """Ops attempted and failed, and the first messages of failed checks."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def ops(self, n: int, failed: int = 0) -> None:
        self.attempted += n
        self.failed += failed

    def expect(self, ok: bool, what: str) -> None:
        """A failed output check fails one op."""
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(what)


def digest(net, adam_state=None) -> str:
    """SHA-256 over every parameter tensor and the Adam state."""
    h = hashlib.sha256()
    for i, node in enumerate(net.nodes):
        for name in sorted(node.params):
            h.update(f"{i}.{name}".encode())
            h.update(np.ascontiguousarray(node.params[name].data))
    if adam_state is not None:
        h.update(str(adam_state.t).encode())
        for key in sorted(adam_state.m):
            h.update(key.encode())
            h.update(adam_state.m[key].data)
            h.update(adam_state.v[key].data)
    return h.hexdigest()


class Runner:
    """Holds one workload's generated inputs and the outputs of its
    first round, which later rounds must reproduce byte for byte."""

    def __init__(self, w: Workload, seed: int, work: Path, checks: Checks):
        self.w, self.work, self.checks = w, work, checks
        self.classes = list(inputs.BAR_CLASSES if w.data == "bars" else inputs.VOC_CLASSES)
        make = inputs.bars if w.data == "bars" else inputs.voc_like
        self.manifest, self.means = make(work, w.kind, w.images, seed)
        self.ckpt = work / "model.ckpt"
        self.expected: dict = {}
        self.records_failed = 0  # over all rounds
        if w.kind == "eval":
            self._prepare_eval()

    # -- eval ---------------------------------------------------------------

    def _prepare_eval(self) -> None:
        """Untimed: build and save the checkpoint the eval path reads, and
        evaluate the in-memory net for the round-trip check."""
        spec = archdsl.parse(archdsl.resolve_arch(self.w.arch), (3, SIZE, SIZE))
        net = trainer.build(spec, seed=TRAIN_SEED, dtype=np.dtype(self.w.dtype))
        trainer.save_checkpoint(self.ckpt, net, channel_means=self.means,
                                class_names=self.classes)
        samples = dataio.load_eval_samples(self.manifest, class_names=self.classes,
                                           resize=(SIZE, SIZE), channel_means=self.means)
        self.expected = {"acc": trainer.evaluate(net, samples), "digest": digest(net)}

    def _eval_setup(self):
        ckpt = trainer.load_checkpoint(self.ckpt)
        loaded = perf_counter()
        class_names = ckpt.class_names or list(dataio.VOC_CLASSES)
        _, h, w = ckpt.net.spec.input_dims
        samples = dataio.load_eval_samples(self.manifest, class_names=class_names,
                                           resize=(h, w), channel_means=ckpt.channel_means)
        return ckpt, samples, loaded

    def _eval_round(self, verify: bool) -> dict:
        c = self.checks
        t0 = perf_counter()
        ckpt, samples, t_loaded = self._eval_setup()
        t1 = perf_counter()
        acc = trainer.evaluate(ckpt.net, samples, batch_size=self.w.batch)
        t2 = perf_counter()
        c.ops(1 + self.w.images + len(samples))  # checkpoint read, records, images
        self.records_failed += self.w.images - len(samples)
        c.expect(len(samples) == self.w.images, "eval: records failed to load")
        c.expect(acc == self.expected["acc"],
                 f"eval: accuracy {acc} after the checkpoint round trip, "
                 f"expected {self.expected['acc']}")
        if verify:
            c.expect(digest(ckpt.net) == self.expected["digest"],
                     "eval: loaded parameter bytes differ from the saved net")
        return {"setup_s": t1 - t0, "main_s": t2 - t1, "wall_s": t2 - t0,
                "images": len(samples), "checkpoint_s": [t_loaded - t0]}

    # -- train --------------------------------------------------------------

    def config(self) -> trainer.TrainConfig:
        w = self.w
        return trainer.TrainConfig(
            arch=archdsl.resolve_arch(w.arch), batch_size=w.batch,
            max_iterations=w.iterations, eval_every=w.eval_every, seed=TRAIN_SEED,
            augment=w.augment, crop=(w.crop, w.crop), dtype=w.dtype)

    def _train_setup(self, config):
        ds = dataio.ingest(self.manifest, class_names=self.classes, seed=TRAIN_SEED,
                           resize=(SIZE, SIZE), stats_path=self.work / "dataset_stats.json")
        spec = archdsl.parse(config.arch, (3, SIZE, SIZE))
        net = trainer.build(spec, seed=config.seed, init_conv=config.init_conv,
                            init_fc=config.init_fc, dropout_p=config.dropout_p,
                            dtype=np.dtype(config.dtype))
        return ds, net

    def _train_round(self, verify: bool) -> dict:
        w, c = self.w, self.checks
        config = self.config()
        self.ckpt.unlink(missing_ok=True)  # every round writes a new file
        t0 = perf_counter()
        ds, net = self._train_setup(config)
        t1 = perf_counter()
        last = {"alpha": config.adam.alpha}

        def on_eval(event):
            last.update(state=event.adam_state, sched=event.scheduler,
                        alpha=event.next_alpha)
            if (w.target is not None and "target_s" not in last
                    and event.point.val_acc >= w.target):
                last["target_s"] = perf_counter() - t1

        net, history = trainer.train(config, ds, net=net, on_eval=on_eval)
        t2 = perf_counter()
        # a small checkpoint is written several times so that its time is
        # measurable; each write replaces the last one
        saves = []
        while sum(saves) < CHECKPOINT_MIN_S:
            t = perf_counter()
            trainer.save_checkpoint(self.ckpt, net, last.get("state"),
                                    iteration=config.max_iterations, alpha=last["alpha"],
                                    scheduler=last.get("sched"),
                                    channel_means=ds.channel_means, class_names=self.classes)
            saves.append(perf_counter() - t)
        history.to_csv(self.work / "history.csv")
        t3 = perf_counter()
        n_train = len(ds.train_samples()) * (5 if w.augment else 1)
        out = {"setup_s": t1 - t0, "main_s": t2 - t1, "checkpoint_s": saves,
               "wall_s": t3 - t0, "images": samples_seen(n_train, w.batch, w.iterations)}
        if "target_s" in last:
            out["target_s"] = last["target_s"]

        # checks: finite losses, the same bytes in every round, and (when
        # verifying) an exact checkpoint round trip
        val = ds.val_samples()
        in_loop = len(history.points) * (min(n_train, config.train_eval_cap) + len(val))
        self.records_failed += w.images - len(ds.samples)
        c.ops(w.images + w.iterations + len(saves) + in_loop,
              failed=w.images - len(ds.samples))
        bad = sum(not math.isfinite(p.loss) for p in history.points)
        c.ops(0, failed=bad * w.eval_every)
        c.expect(bad == 0, "train: non-finite loss in history")
        c.expect(w.target is None or "target_s" in last,
                 f"train: val_acc never reached {w.target}")
        produced = {"history": (self.work / "history.csv").read_bytes(),
                    "digest": digest(net, last.get("state"))}
        for key, value in produced.items():
            self.expected.setdefault(key, value)
            c.expect(value == self.expected[key], f"train: {key} differs between same-seed runs")
        if verify:
            val_acc = history.points[-1].val_acc
            del net, last  # free the trained state before loading its copy
            ckpt = trainer.load_checkpoint(self.ckpt)
            c.ops(1 + len(val))
            c.expect(digest(ckpt.net, ckpt.adam_state) == produced["digest"],
                     "train: checkpoint round trip changed parameter or Adam bytes")
            c.expect(trainer.evaluate(ckpt.net, val) == val_acc,
                     "train: accuracy differs after the checkpoint round trip")
        return out

    # -- common -------------------------------------------------------------

    def setup_only(self) -> dict:
        """Time the set-up calls alone; the results are dropped."""
        t0 = perf_counter()
        if self.w.kind == "eval":
            loaded = self._eval_setup()[2]
            return {"setup_s": perf_counter() - t0, "checkpoint_s": [loaded - t0]}
        self._train_setup(self.config())
        return {"setup_s": perf_counter() - t0, "checkpoint_s": []}

    def round(self, verify: bool) -> dict | None:
        """One checked round; None when the program raised an error.
        ``verify`` adds the checkpoint round-trip check, which runs after
        the timed flow (``wall_s``) ends."""
        try:
            if self.w.kind == "eval":
                out = self._eval_round(verify)
            else:
                out = self._train_round(verify)
        except (MicrovocError, OSError, ValueError) as e:
            self.checks.ops(1, failed=1)
            self.checks.messages.append(f"{type(e).__name__}: {e}")
            return None
        return out

    def checkpoint_mb(self) -> float:
        return self.ckpt.stat().st_size / 1e6
