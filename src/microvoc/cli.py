"""Command-line surface.

Commands: ``train --config F``, ``eval --checkpoint C --manifest M``,
``predict --checkpoint C --image I``, ``gradcheck [--layer K]`` and
``inspect --arch S``. Exit codes: 0 success, 1 usage error, 2 data
error, 3 numeric failure (a gradient check, a non-finite training loss, or
an evaluation or prediction whose forward overflows or gives non-finite
logits).
"""

from __future__ import annotations

import argparse
import contextlib
import re
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import archdsl, dataio, gradcheck, trainer
from .errors import ArchError, CheckpointError, ConfigError, MicrovocError, NumericError
from .initializers import InitSpec
from .optim import AdamConfig, AdamState, PlateauScheduler, SchedulerConfig
from .trainer import TrainConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


@dataclass
class RunConfig:
    """Plain-text key=value configuration for the train command.

    Defaults are the field defaults below: a training key takes its
    default from the library class whose field it sets. Unknown keys are
    rejected.
    """

    arch: str = ""
    manifest: str = ""
    data_root: str = ""              # default: the manifest's directory
    out_dir: str = "run_out"
    classes: str = ",".join(dataio.VOC_CLASSES)
    resize: int = archdsl.INPUT_DIMS[1]
    seed: int = TrainConfig.seed
    batch_size: int = TrainConfig.batch_size
    max_iterations: int = TrainConfig.max_iterations
    eval_every: int = TrainConfig.eval_every
    alpha: float = AdamConfig.alpha
    beta1: float = AdamConfig.beta1
    beta2: float = AdamConfig.beta2
    epsilon: float = AdamConfig.epsilon
    l2_lambda: float = AdamConfig.lam
    l2_include_biases: bool = TrainConfig.l2_include_biases
    dropout_p: float = TrainConfig.dropout_p
    augment: bool = TrainConfig.augment
    crop: int = TrainConfig.crop[0]
    scheduler_metric: str = SchedulerConfig.metric
    patience: int = SchedulerConfig.patience
    min_delta: float = SchedulerConfig.min_delta
    factor: float = SchedulerConfig.factor
    alpha_floor: float = SchedulerConfig.floor
    init_conv: str = InitSpec.kind
    init_fc: str = InitSpec.kind
    precision: str = TrainConfig.dtype
    checkpoint_every: int = 0        # 0: only the final checkpoint
    resume: str = ""                 # optional checkpoint to resume from


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"key {key!r}: expected a boolean, got {raw!r}")


#: a '#' that starts a value or follows a blank begins a comment
_COMMENT = re.compile(r"(?<!\S)#.*")


def parse_run_config(path) -> RunConfig:
    cfg = RunConfig()
    known = {f.name: f for f in fields(RunConfig)}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"config file {path} is not UTF-8 text: {e}") from e
    seen: dict[str, int] = {}  # key -> the line that set it
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), _COMMENT.sub("", raw).strip()
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: key {key!r} is already set on line {seen[key]}")
        seen[key] = lineno
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
    if raw in ("xavier", "zero"):
        return InitSpec(raw)
    if raw.startswith("gaussian:"):
        try:
            return InitSpec("gaussian", float(raw.split(":", 1)[1]))
        except ValueError as e:
            raise ConfigError(f"key {key!r}: {e}") from e
    raise ConfigError(f"key {key!r}: expected xavier, zero or gaussian:<std>, got {raw!r}")


@contextlib.contextmanager
def _under_key(key: str):
    """Report a ValueError raised inside as a ConfigError naming ``key``."""
    try:
        yield
    except ValueError as e:
        raise ConfigError(f"key {key!r}: {e}") from e


def _checked(obj, cfg: RunConfig, **keys: str):
    """``obj`` with each named field set from the run-config key given for
    it, one field at a time, so a value the object rejects is reported
    under its key in the config file."""
    for name, key in keys.items():
        with _under_key(key):
            obj = replace(obj, **{name: getattr(cfg, key)})
    return obj


def to_train_config(cfg: RunConfig) -> TrainConfig:
    if cfg.resize < 1:
        raise ConfigError(f"resize must be >= 1, got {cfg.resize}")
    adam = _checked(AdamConfig(), cfg, alpha="alpha", beta1="beta1", beta2="beta2",
                    epsilon="epsilon", lam="l2_lambda")
    scheduler = _checked(SchedulerConfig(), cfg, metric="scheduler_metric",
                         patience="patience", min_delta="min_delta", factor="factor",
                         floor="alpha_floor")
    config = TrainConfig(
        arch=archdsl.resolve_arch(cfg.arch),
        adam=adam,
        scheduler=scheduler,
        augment=cfg.augment,
        crop=(cfg.crop, cfg.crop),
        init_conv=_parse_init(cfg.init_conv, "init_conv"),
        init_fc=_parse_init(cfg.init_fc, "init_fc"),
        l2_include_biases=cfg.l2_include_biases,
    )
    # dropout_p is checked whether or not the arch has a Dropout layer
    return _checked(config, cfg, batch_size="batch_size", max_iterations="max_iterations",
                    eval_every="eval_every", seed="seed", dtype="precision",
                    dropout_p="dropout_p")


def _check_resume(run_cfg: RunConfig, config: TrainConfig, class_names: list[str],
                  ckpt: trainer.Checkpoint) -> None:
    """A resumed run trains the checkpoint's net on its split and labels,
    from its iteration on: reject a config that describes another net
    (input size, arch, precision), split (seed), labels (classes) or end."""
    net = ckpt.net
    dims = config.arch.input_dims
    if dims != net.spec.input_dims:
        raise ConfigError(f"resize = {run_cfg.resize} gives input dims {dims}, but the "
                          f"resumed checkpoint's are {net.spec.input_dims}")
    arch, ckpt_arch = archdsl.render(config.arch), archdsl.render(net.spec)
    if arch != ckpt_arch:
        raise ConfigError(f"arch = {arch}, with dropout_p = {config.dropout_p}, but the "
                          f"resumed checkpoint's is {ckpt_arch}")
    if np.dtype(config.dtype) != net.dtype:
        raise ConfigError(f"precision = {config.dtype}, but the resumed checkpoint's is "
                          f"{net.dtype}")
    # the seed draws the train/val split, and the class list gives the labels
    if config.seed != net.seed:
        raise ConfigError(f"seed = {config.seed} draws another split than the resumed "
                          f"checkpoint's seed {net.seed}")
    if ckpt.class_names and class_names != ckpt.class_names:
        raise ConfigError(f"classes = {run_cfg.classes} labels the data otherwise than the "
                          f"resumed checkpoint's {','.join(ckpt.class_names)}")
    if ckpt.iteration > config.max_iterations:
        raise ConfigError(f"max_iterations = {config.max_iterations}, but the resumed "
                          f"checkpoint is at iteration {ckpt.iteration}")


def cmd_train(args) -> int:
    run_cfg = parse_run_config(args.config)
    if not run_cfg.arch:
        raise ConfigError("config must set 'arch'")
    if not run_cfg.manifest:
        raise ConfigError("config must set 'manifest'")
    config = to_train_config(run_cfg)
    # the net is checked before anything is read or written, and trained
    # from this one parse
    with _under_key("arch"):
        spec = archdsl.parse(config.arch, (3, run_cfg.resize, run_cfg.resize))
        if spec.num_classes is None:
            raise ValueError(f"the last output {spec.shapes[-1]} is not (C, 1, 1) class scores")
    config = replace(config, arch=archdsl.with_dropout(spec, config.dropout_p))
    class_names = [c.strip() for c in run_cfg.classes.split(",") if c.strip()]
    with _under_key("classes"):
        dataio.class_index(class_names)
    if len(class_names) > spec.num_classes:
        raise ConfigError(f"classes has {len(class_names)} names, but arch = {run_cfg.arch} "
                          f"scores only {spec.num_classes} classes")
    # checkpoints are written at evaluations, so any other period skips some
    if run_cfg.checkpoint_every < 0 or run_cfg.checkpoint_every % config.eval_every:
        raise ConfigError(f"checkpoint_every = {run_cfg.checkpoint_every} must be 0 or a "
                          f"positive multiple of eval_every = {config.eval_every}")
    # crops come from images resized to resize x resize; with augment off
    # crop is not used
    if run_cfg.augment and not 1 <= run_cfg.crop <= run_cfg.resize:
        raise ConfigError(f"crop = {run_cfg.crop} must be between 1 and "
                          f"resize = {run_cfg.resize} when augment is on")
    ckpt = trainer.load_checkpoint(run_cfg.resume) if run_cfg.resume else None
    if ckpt is not None:
        _check_resume(run_cfg, config, class_names, ckpt)
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
    if ckpt is not None:
        net = ckpt.net
        start_iteration, alpha = ckpt.iteration, ckpt.alpha
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


def _class_names(ckpt: trainer.Checkpoint) -> list[str]:
    """The checkpoint's class names, or the 20 VOC names when it stores
    none; a net without class scores, or with fewer than the names, is
    an error."""
    names = ckpt.class_names or list(dataio.VOC_CLASSES)
    ncls = ckpt.net.spec.num_classes
    if ncls is None:
        raise CheckpointError(f"the checkpoint's last output {ckpt.net.spec.shapes[-1]} is "
                              f"not (C, 1, 1) class scores")
    if len(names) > ncls:
        stored = "" if ckpt.class_names else " (the default list: the checkpoint stores none)"
        raise CheckpointError(f"{len(names)} class names{stored} for a net with "
                              f"{ncls} class scores")
    return names


def cmd_eval(args) -> int:
    ckpt = trainer.load_checkpoint(args.checkpoint)
    class_names = _class_names(ckpt)
    c, h, w = ckpt.net.spec.input_dims
    samples = dataio.load_eval_samples(
        args.manifest, args.data_root, class_names=class_names,
        resize=(h, w), channel_means=ckpt.channel_means)
    acc = trainer.evaluate(ckpt.net, samples)
    print(f"accuracy={acc:.6f}")
    return EXIT_OK


def cmd_predict(args) -> int:
    ckpt = trainer.load_checkpoint(args.checkpoint)
    class_names = _class_names(ckpt)
    c, h, w = ckpt.net.spec.input_dims
    img = dataio.load_image(args.image, (h, w), ckpt.channel_means)
    logits = trainer.checked_logits(ckpt.net, img).reshape(-1)
    # logits that span more than the float range give -inf, whose exp is 0
    with np.errstate(over="ignore"):
        exp = np.exp(logits - logits.max())
    probs = exp / exp.sum()
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
    for ls, layer in zip(spec.layers, spec.realized):
        print(f"{ls.token():<24} -> {layer.out_dims}{'':4}params={layer.param_count}")
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
    p.add_argument("--input-size", type=int, default=archdsl.INPUT_DIMS[1])
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
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (MicrovocError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
