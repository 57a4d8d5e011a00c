"""Rebuild the four pinned training runs and check their bytes.

    python tools/pinned_hashes.py

It imports microvoc from the tree's own ``src/``, installed or not.

A change that must not alter what microvoc computes keeps the sha256 of
``history.csv`` and ``model.ckpt`` of these runs:

- c06: the c06 acceptance net, ``bar_dataset(500, 32, seed=0)``, seed 1,
  600 iterations, evaluation every 100;
- c10: the c10 acceptance net, ``bar_dataset(40, 16, seed=8)``, seed 21,
  60 iterations, evaluation every 10;
- M3: the M3 preset in float32 at 32x32, ``bar_dataset(53, 32, seed=1)``,
  seed 1, 4 iterations, evaluation every 2;
- c07aug: the regularized c07 acceptance run, the only augmented one,
  ``fourbar_dataset(100, 32, seed=2)``, seed 3, dropout p = 0.5, flips
  and 28x28 crops, 600 iterations, evaluation every 100.

Each ``model.ckpt`` holds the Adam state, the scheduler, the alpha of the
last evaluation and zero channel means. The script prints both hashes of
each run, then loads each ``model.ckpt``, saves it again and prints
``ok`` when the bytes match; it exits 1 if a hash differs from its pinned
value or a round trip changes a byte. The M3 run, float32 with Adam state
and FC tensors of many chunks, checks the checkpoint decoder's casts.

Then, for each net of ``LOGIT_NETS`` (freshly built), it checks that the
logits of ``evaluate``'s 64-image pieces are byte-identical to those of
one forward per 256-image run, on the first 53, 200, 320 and 512 samples
of a bar dataset, and prints ``ok`` per net; it exits 1 on a mismatch.

This is not a CI gate: GEMM results depend on the BLAS library and the
CPU (its kernels pick their blocking and instructions by CPU), so the
pinned values hold on the host they were measured on (x86-64, NumPy 2.4.6,
OpenBLAS 0.3.31). Compare a change with its parent on one host.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "tests")]

from synthdata import bar_dataset, fourbar_dataset  # noqa: E402

from microvoc import archdsl  # noqa: E402
from microvoc.augment import stack_batch  # noqa: E402
from microvoc.layers import Mode  # noqa: E402
from microvoc.optim import AdamState, PlateauScheduler  # noqa: E402
from microvoc.trainer import (Network, TrainConfig, build, evaluate,  # noqa: E402
                              load_checkpoint, save_checkpoint, train)

#: name -> (dataset, config, pinned history.csv sha256, pinned model.ckpt sha256)
RUNS = {
    "c06": (lambda: bar_dataset(500, 32, seed=0),
            TrainConfig(arch="IMG-(Conv8-ReLU-MaxPool)-(FC32-ReLU-FC2)-Softmax",
                        max_iterations=600, eval_every=100, seed=1),
            "0f396431032e96852abbd5b3103b2bedcdfcaafebccd367b679237e29b16a964",
            "9740abb184bb48add4396149a981defb481655216e57d6a6cee877545789557e"),
    "c10": (lambda: bar_dataset(40, 16, seed=8),
            TrainConfig(arch="IMG-(Conv4-ReLU-MaxPool)-(FC16-ReLU-FC2)-Softmax",
                        max_iterations=60, eval_every=10, seed=21),
            "163253f0b3e4e289452b1cfd65ce7bf3d4981ff9cb25218c59f9ec0201842622",
            "f016a1126c21f2ab9481f89135804fccdecaf1289ad7bd273d8b803d4b49c819"),
    "M3": (lambda: bar_dataset(53, 32, seed=1),
           TrainConfig(arch=archdsl.resolve_arch("M3"), dtype="float32",
                       max_iterations=4, eval_every=2, seed=1),
           "3cc8c374ede4938262c610eba3ec2b3f6a721fc0057c0cbf83b9fd3e404b8a67",
           "0e15b7b88f9069e77df7e6917cf5eba037e31468dc8a66cf864d84a3a603084f"),
    "c07aug": (lambda: fourbar_dataset(100, 32, seed=2),
               TrainConfig(arch="IMG-(Conv8-ReLU-MaxPool)-(FC64-ReLU-Dropout-FC4)-Softmax",
                           max_iterations=600, eval_every=100, seed=3, dropout_p=0.5,
                           augment=True, crop=(28, 28)),
               "955d0a36df99c41270afdd136f1d1f77321d96c1b07d1181c34c61531e4b30cc",
               "cdc6777a2c3d14a50f95ce040d7b85493bc8a8cf555dadffad2f1bec7eaebba3"),
}


#: (name, arch, input size, dtype) of the nets whose evaluation logits are checked
LOGIT_NETS = [(name, archdsl.resolve_arch(name), size, "float32")
              for name in ("M3", "M4") for size in (32, 64)]
LOGIT_NETS += [(name, RUNS[name][1].arch, 32, "float64") for name in ("c06", "c07aug")]
LOGIT_COUNTS = (53, 200, 320, 512)
#: evaluate's default batch, forwarded whole before it went in pieces
EVAL_RUN = 256


def piece_logits(net: Network, samples) -> bytes:
    """The logits of the forwards ``evaluate`` makes, in sample order."""
    got = []

    def recording(batch, mode):
        logits = Network.forward(net, batch, mode)
        got.append(logits.data.tobytes())
        return logits

    net.forward = recording
    try:
        evaluate(net, samples, EVAL_RUN)
    finally:
        del net.forward
    return b"".join(got)


def run_logits(net: Network, samples) -> bytes:
    """The logits of one forward per EVAL_RUN samples."""
    return b"".join(net.forward(stack_batch(samples[i:i + EVAL_RUN], net.dtype)[0],
                                Mode.TEST).data.tobytes()
                    for i in range(0, len(samples), EVAL_RUN))


def run_hashes(make_dataset, config: TrainConfig, out: Path) -> tuple[str, str]:
    """Train one run, write its history.csv and model.ckpt into ``out``
    and return their sha256."""
    state, sched, events = AdamState(), PlateauScheduler(config.scheduler), []
    net, history = train(config, make_dataset(), adam_state=state, scheduler=sched,
                         on_eval=events.append)
    history.to_csv(out / "history.csv")
    save_checkpoint(out / "model.ckpt", net, state, iteration=config.max_iterations,
                    alpha=events[-1].next_alpha, scheduler=sched, channel_means=np.zeros(3))
    return tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                 for name in ("history.csv", "model.ckpt"))


def round_trips(config: TrainConfig, path: Path) -> bool:
    """Whether loading the checkpoint at ``path`` and saving it again
    gives the same bytes."""
    ck = load_checkpoint(path)
    again = path.with_suffix(".again")
    save_checkpoint(again, ck.net, ck.adam_state, iteration=ck.iteration, alpha=ck.alpha,
                    scheduler=ck.make_scheduler(config.scheduler),
                    channel_means=ck.channel_means, class_names=ck.class_names)
    return again.read_bytes() == path.read_bytes()


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, (make_dataset, config, *pinned) in RUNS.items():
            out = Path(tmp) / name
            out.mkdir()
            for what, got, want in zip(("history.csv", "model.ckpt"),
                                       run_hashes(make_dataset, config, out), pinned):
                ok = got == want
                bad += not ok
                print(f"{name} {what} {got} {'ok' if ok else 'MISMATCH, pinned ' + want}",
                      flush=True)
            ok = round_trips(config, out / "model.ckpt")
            bad += not ok
            print(f"{name} model.ckpt load+save {'ok' if ok else 'MISMATCH'}", flush=True)
    for name, arch, size, dtype in LOGIT_NETS:
        net = build(arch, seed=1, dtype=dtype, input_dims=(3, size, size))
        samples = bar_dataset(max(LOGIT_COUNTS), size, seed=4).samples
        wrong = [n for n in LOGIT_COUNTS
                 if piece_logits(net, samples[:n]) != run_logits(net, samples[:n])]
        bad += bool(wrong)
        counts = ", ".join(map(str, LOGIT_COUNTS))
        print(f"{name} {size}x{size} {dtype} logits in pieces, {counts} samples "
              f"{'MISMATCH at ' + str(wrong) if wrong else 'ok'}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
