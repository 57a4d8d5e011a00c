"""Command-line surface.

Commands: ``train --config F``, ``eval --checkpoint C --manifest M``,
``predict --checkpoint C --image I``, ``gradcheck [--layer K]`` and
``inspect --arch S``. Exit codes: 0 success, 1 usage error, 2 data
error, 3 numeric-check failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import archdsl, dataio, gradcheck, trainer
from .augment import resize_to
from .errors import (
    ArchError,
    CheckpointError,
    ConfigError,
    IngestError,
    ManifestError,
    MicrovocError,
)
from .initializers import InitSpec
from .layers import Mode, realize
from .optim import AdamConfig, AdamState, PlateauScheduler, SchedulerConfig
from .tensor import Tensor4
from .trainer import TrainConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


@dataclass
class RunConfig:
    """Plain-text key=value configuration for the train command.

    Defaults are the field defaults below; unknown keys are rejected.
    """

    arch: str = ""
    manifest: str = ""
    data_root: str = ""              # default: the manifest's directory
    out_dir: str = "run_out"
    classes: str = ",".join(dataio.VOC_CLASSES)
    resize: int = 128
    seed: int = 1
    batch_size: int = 32
    max_iterations: int = 2000
    eval_every: int = 100
    alpha: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    l2_lambda: float = 5e-4
    l2_include_biases: bool = False
    dropout_p: float = 0.5
    augment: bool = False
    crop: int = 112
    scheduler_metric: str = "val_acc"
    patience: int = 5
    min_delta: float = 1e-3
    factor: float = 10.0
    alpha_floor: float = 1e-8
    init_conv: str = "xavier"
    init_fc: str = "xavier"
    precision: str = "float64"
    checkpoint_every: int = 0        # 0: only the final checkpoint
    resume: str = ""                 # optional checkpoint to resume from


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"key {key!r}: expected a boolean, got {raw!r}")


def parse_run_config(path) -> RunConfig:
    cfg = RunConfig()
    known = {f.name: f for f in fields(RunConfig)}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from e
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        ftype = known[key].type
        try:
            if ftype == "bool":
                value = _parse_bool(raw, key)
            elif ftype == "int":
                value = int(raw)
            elif ftype == "float":
                value = float(raw)
            else:
                value = raw
        except ValueError as e:
            raise ConfigError(f"line {lineno}: key {key!r}: {e}") from e
        setattr(cfg, key, value)
    return cfg


def _parse_init(raw: str, key: str) -> InitSpec:
    if raw == "xavier":
        return InitSpec("xavier")
    if raw == "zero":
        return InitSpec("zero")
    if raw.startswith("gaussian:"):
        try:
            return InitSpec("gaussian", float(raw.split(":", 1)[1]))
        except ValueError as e:
            raise ConfigError(f"key {key!r}: {e}") from e
    raise ConfigError(f"key {key!r}: expected xavier, zero or gaussian:<std>, got {raw!r}")


def to_train_config(cfg: RunConfig) -> TrainConfig:
    if cfg.precision not in ("float64", "float32"):
        raise ConfigError(f"precision must be float64 or float32, got {cfg.precision!r}")
    return TrainConfig(
        arch=archdsl.resolve_arch(cfg.arch),
        adam=AdamConfig(alpha=cfg.alpha, beta1=cfg.beta1, beta2=cfg.beta2,
                        epsilon=cfg.epsilon, lam=cfg.l2_lambda),
        scheduler=SchedulerConfig(metric=cfg.scheduler_metric, patience=cfg.patience,
                                  min_delta=cfg.min_delta, factor=cfg.factor,
                                  floor=cfg.alpha_floor),
        batch_size=cfg.batch_size,
        max_iterations=cfg.max_iterations,
        eval_every=cfg.eval_every,
        seed=cfg.seed,
        augment=cfg.augment,
        crop=(cfg.crop, cfg.crop),
        init_conv=_parse_init(cfg.init_conv, "init_conv"),
        init_fc=_parse_init(cfg.init_fc, "init_fc"),
        dropout_p=cfg.dropout_p,
        l2_include_biases=cfg.l2_include_biases,
        dtype=cfg.precision,
    )


def cmd_train(args) -> int:
    run_cfg = parse_run_config(args.config)
    if not run_cfg.arch:
        raise ConfigError("config must set 'arch'")
    if not run_cfg.manifest:
        raise ConfigError("config must set 'manifest'")
    config = to_train_config(run_cfg)
    class_names = [c.strip() for c in run_cfg.classes.split(",") if c.strip()]
    out_dir = Path(run_cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    dataset = dataio.ingest(
        run_cfg.manifest,
        run_cfg.data_root or None,
        class_names=class_names,
        seed=run_cfg.seed,
        resize=(run_cfg.resize, run_cfg.resize),
        stats_path=out_dir / "dataset_stats.json",
    )

    # the optimizer and scheduler state live here, not in the evaluation
    # callback, so model.ckpt carries them even when no evaluation ran
    net = None
    adam_state = AdamState()
    scheduler = PlateauScheduler(config.scheduler)
    start_iteration = 0
    alpha = config.adam.alpha
    if run_cfg.resume:
        ckpt = trainer.load_checkpoint(run_cfg.resume)
        net, start_iteration, alpha = ckpt.net, ckpt.iteration, ckpt.alpha
        if ckpt.adam_state is not None:
            adam_state = ckpt.adam_state
        scheduler = ckpt.make_scheduler(config.scheduler)

    ckpt_kwargs = dict(channel_means=dataset.channel_means, class_names=class_names)
    last = {"alpha": alpha}

    def on_eval(event):
        point = event.point
        print(f"iter={point.iteration} loss={point.loss:.6f} "
              f"train_acc={point.train_acc:.4f} val_acc={point.val_acc:.4f} "
              f"alpha={point.alpha:.3g}", flush=True)
        last["alpha"] = event.next_alpha
        if run_cfg.checkpoint_every and point.iteration % run_cfg.checkpoint_every == 0:
            trainer.save_checkpoint(
                out_dir / f"checkpoint_{point.iteration}.ckpt",
                event.net, event.adam_state,
                iteration=point.iteration, alpha=event.next_alpha,
                scheduler=event.scheduler, **ckpt_kwargs)

    net, history = trainer.train(config, dataset, net=net, adam_state=adam_state,
                                 start_iteration=start_iteration, alpha=alpha,
                                 scheduler=scheduler, on_eval=on_eval)
    trainer.save_checkpoint(out_dir / "model.ckpt", net, adam_state,
                            iteration=config.max_iterations, alpha=last["alpha"],
                            scheduler=scheduler, **ckpt_kwargs)
    history.to_csv(out_dir / "history.csv")
    return EXIT_OK


def cmd_eval(args) -> int:
    ckpt = trainer.load_checkpoint(args.checkpoint)
    class_names = ckpt.class_names or list(dataio.VOC_CLASSES)
    c, h, w = ckpt.net.spec.input_dims
    samples = dataio.load_eval_samples(
        args.manifest, args.data_root, class_names=class_names,
        resize=(h, w), channel_means=ckpt.channel_means)
    acc = trainer.evaluate(ckpt.net, samples)
    print(f"accuracy={acc:.6f}")
    return EXIT_OK


def cmd_predict(args) -> int:
    ckpt = trainer.load_checkpoint(args.checkpoint)
    class_names = ckpt.class_names or list(dataio.VOC_CLASSES)
    c, h, w = ckpt.net.spec.input_dims
    raw = dataio.read_image(args.image)
    img = Tensor4(raw[np.newaxis])
    if img.dims[2:] != (h, w):
        img = resize_to(img, (h, w))
    if ckpt.channel_means is not None:
        img = Tensor4(img.data - ckpt.channel_means.reshape(1, -1, 1, 1))
    logits = ckpt.net.forward(img, Mode.TEST).data.reshape(-1)
    z = logits - logits.max()
    probs = np.exp(z) / np.exp(z).sum()
    order = np.argsort(-probs)[:5]
    for rank, idx in enumerate(order, start=1):
        name = class_names[idx] if idx < len(class_names) else f"class{idx}"
        print(f"{rank} {name} {probs[idx]:.6f}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = gradcheck.run_checks(args.layer)
    failed = False
    for kind, err in results.items():
        status = "ok" if err < gradcheck.THRESHOLD else "FAIL"
        print(f"{kind}: max_rel_error={err:.3e} [{status}]")
        failed = failed or err >= gradcheck.THRESHOLD
    print(f"threshold={gradcheck.THRESHOLD:.0e}")
    return EXIT_NUMERIC if failed else EXIT_OK


def cmd_inspect(args) -> int:
    h = w = args.input_size
    spec = archdsl.parse(archdsl.resolve_arch(args.arch), (3, h, w))
    print(f"input: (3, {h}, {w})")
    dims = spec.input_dims
    for ls in spec.layers:
        layer = realize(ls, dims)
        dims = layer.out_dims
        print(f"{ls.token():<24} -> ({dims[0]}, {dims[1]}, {dims[2]})"
              f"{'':4}params={layer.param_count}")
    print(f"total parameters: {spec.param_count}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="microvoc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--data-root", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="classify one image with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--layer", default=None, choices=gradcheck.LAYER_KINDS)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("inspect", help="print per-layer shapes and parameter count")
    p.add_argument("--arch", required=True)
    p.add_argument("--input-size", type=int, default=128)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    except (ConfigError, ArchError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ManifestError, IngestError, CheckpointError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except MicrovocError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
