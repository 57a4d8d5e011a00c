import os
import re
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from synthdata import write_ppm

import microvoc
from microvoc import archdsl
from microvoc.cli import RunConfig, main, parse_run_config, to_train_config
from microvoc.dataio import MANIFEST_HEADER
from microvoc.errors import ConfigError
from microvoc.trainer import TrainConfig, build, load_checkpoint, save_checkpoint

TINY_ARCH = "IMG-(Conv2-ReLU-MaxPool)-(FC8-ReLU-FC2)-Softmax"

M3_TABLE = """\
input: (3, 128, 128)
Conv64                   -> (64, 128, 128)    params=1792
ReLU                     -> (64, 128, 128)    params=0
LRN                      -> (64, 128, 128)    params=0
MaxPool                  -> (64, 64, 64)    params=0
Conv128                  -> (128, 64, 64)    params=73856
ReLU                     -> (128, 64, 64)    params=0
LRN                      -> (128, 64, 64)    params=0
Conv256                  -> (256, 64, 64)    params=295168
ReLU                     -> (256, 64, 64)    params=0
MaxPool                  -> (256, 32, 32)    params=0
Dropout                  -> (256, 32, 32)    params=0
FC1024                   -> (1024, 1, 1)    params=268436480
ReLU                     -> (1024, 1, 1)    params=0
Dropout                  -> (1024, 1, 1)    params=0
FC20                     -> (20, 1, 1)    params=20500
Softmax                  -> (20, 1, 1)    params=0
total parameters: 268827796
"""

OVERRIDE_ARCH = "IMG-Conv8[k=5,s=2,p=0]-ReLU-MaxPool[k=3,s=3]-LRN[n=3]-Dropout[p=0.3]-FC2-Softmax"
OVERRIDE_TABLE_33 = """\
input: (3, 33, 33)
Conv8[k=5,p=0,s=2]       -> (8, 15, 15)    params=608
ReLU                     -> (8, 15, 15)    params=0
MaxPool[k=3,s=3]         -> (8, 5, 5)    params=0
LRN[n=3]                 -> (8, 5, 5)    params=0
Dropout[p=0.3]           -> (8, 5, 5)    params=0
FC2                      -> (2, 1, 1)    params=402
Softmax                  -> (2, 1, 1)    params=0
total parameters: 1010
"""


def run_cli_process(*argv):
    """``microvoc.cli`` with ``argv`` in a new interpreter on this tree's
    ``src``, where NumPy's floating-point warnings reach stderr as they do
    for a user."""
    src = str(Path(microvoc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "microvoc.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture
def dataset_dir(tmp_path):
    rng = np.random.default_rng(0)
    lines = [MANIFEST_HEADER]
    for i in range(15):
        label = "dog" if i % 2 == 0 else "cat"
        img = rng.normal(128, 30, size=(3, 12, 12))
        if label == "dog":
            img[:, 4:7, :] += 80
        else:
            img[:, :, 4:7] += 80
        name = f"img{i}.ppm"
        write_ppm(tmp_path / name, np.clip(img, 0, 255))
        lines.append(f"{name}\t{label}")
    manifest = tmp_path / "tiny.manifest"
    manifest.write_text("\n".join(lines) + "\n")
    return tmp_path, manifest


def write_config(path, manifest, out_dir, **overrides):
    base = {
        "arch": TINY_ARCH,
        "manifest": str(manifest),
        "out_dir": str(out_dir),
        "classes": "cat,dog",
        "resize": 12,
        "seed": 4,
        "batch_size": 8,
        "max_iterations": 400,
        "eval_every": 200,
        "augment": "false",
    }
    base.update(overrides)
    path.write_text("# tiny training run\n" +
                    "\n".join(f"{k} = {v}" for k, v in base.items()) + "\n")
    return path


class TestRunConfig:
    def test_defaults(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("arch = M1\n")
        cfg = parse_run_config(p)
        assert cfg.arch == "M1"
        assert cfg.batch_size == 32
        assert cfg.alpha == 1e-4
        assert cfg.augment is False

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("learning_rate = 0.1\n")
        with pytest.raises(ConfigError, match="learning_rate"):
            parse_run_config(p)

    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# a comment\n\nseed = 9   # the run seed\nresume =   # none\n"
                     "classes = a#b,c\n")
        cfg = parse_run_config(p)
        assert (cfg.seed, cfg.resume, cfg.classes) == (9, "", "a#b,c")

    def test_repeated_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("alpha = 1e-3\nseed = 2\nalpha = 5\n")
        with pytest.raises(ConfigError, match="line 3: key 'alpha' is already set on line 1"):
            parse_run_config(p)

    def test_bool_values(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("augment = yes\nl2_include_biases = 0\n")
        cfg = parse_run_config(p)
        assert cfg.augment is True
        assert cfg.l2_include_biases is False

    def test_bad_value_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("batch_size = many\n")
        with pytest.raises(ConfigError):
            parse_run_config(p)

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "absent.cfg")]) == 1

    def test_non_utf8_file_is_usage_error_naming_it(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_bytes(b"arch = M1\nclasses = caf\xff\n")
        with pytest.raises(ConfigError, match=re.escape(f"config file {p} is not UTF-8")):
            parse_run_config(p)
        assert main(["train", "--config", str(p)]) == 1

    def test_defaults_are_the_librarys(self):
        assert to_train_config(RunConfig(arch="M3")) == TrainConfig(arch=archdsl.PRESETS["M3"])
        assert RunConfig().resize == archdsl.INPUT_DIMS[1]

    def test_to_train_config(self):
        cfg = RunConfig(arch="M1", alpha=0.01, scheduler_metric="train_loss",
                        init_fc="gaussian:0.005", precision="float32")
        tc = to_train_config(cfg)
        assert tc.adam.alpha == 0.01
        assert tc.scheduler.metric == "train_loss"
        assert tc.init_fc.kind == "gaussian"
        assert tc.dtype == "float32"

    def test_bad_init_spec_rejected(self):
        with pytest.raises(ConfigError):
            to_train_config(RunConfig(arch="M1", init_conv="normal"))

    def test_readme_config_block_is_the_defaults(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"## Config file.*?```ini\n(.*?)```", readme, re.S).group(1)
        keys = [line.partition("=")[0].strip() for line in block.splitlines()
                if line.strip() and not line.strip().startswith("#")]
        assert sorted(keys) == sorted(f.name for f in fields(RunConfig))
        p = tmp_path / "readme.cfg"
        p.write_text(block)
        cfg, default = parse_run_config(p), RunConfig()
        for key in keys:
            if key not in ("arch", "manifest", "classes"):  # example values
                assert getattr(cfg, key) == getattr(default, key), key


class TestInspect:
    def test_preset_table(self, capsys):
        code = main(["inspect", "--arch",
                     "IMG-(Conv64-ReLU)-(FC1024-ReLU-FC20)-Softmax"])
        out = capsys.readouterr().out
        assert code == 0
        assert "(20, 1, 1)" in out
        assert "total parameters: 1073765140" in out

    def test_preset_name_resolves(self, capsys):
        assert main(["inspect", "--arch", "M2"]) == 0
        assert "total parameters: 268827796" in capsys.readouterr().out

    def test_bad_arch_is_usage_error(self, capsys):
        assert main(["inspect", "--arch", "IMG-Conv64-Foo"]) == 1

    def test_input_size_flag(self, capsys):
        assert main(["inspect", "--arch", "IMG-Conv4-MaxPool-FC2",
                     "--input-size", "32"]) == 0
        assert "(4, 16, 16)" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, expected", [
        (["--arch", "M3"], M3_TABLE),
        (["--arch", OVERRIDE_ARCH, "--input-size", "33"], OVERRIDE_TABLE_33),
    ])
    def test_full_table(self, capsys, argv, expected):
        assert main(["inspect", *argv]) == 0
        assert capsys.readouterr().out == expected


class TestGradcheckCommand:
    def test_single_layer_ok(self, capsys):
        assert main(["gradcheck", "--layer", "relu"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"relu: max_rel_error=\S+ \[ok\]", out)

    def test_full_suite_ok(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert out.count("[ok]") == 8
        assert "[FAIL]" not in out

    def test_numeric_failure_exits_3(self, capsys, monkeypatch):
        from microvoc import gradcheck as gc
        monkeypatch.setattr(gc, "run_checks", lambda only=None, seed=0: {"conv": 1.0})
        assert main(["gradcheck"]) == 3
        assert "[FAIL]" in capsys.readouterr().out

    def test_unknown_layer_is_usage_error(self):
        assert main(["gradcheck", "--layer", "batchnorm"]) == 1


class TestTrainEvalPredict:
    def test_full_cycle(self, tmp_path, dataset_dir, capsys):
        root, manifest = dataset_dir
        out_dir = tmp_path / "run"
        cfg = write_config(tmp_path / "train.cfg", manifest, out_dir)
        assert main(["train", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("iter=")]
        assert len(lines) == 2
        assert re.match(r"iter=\d+ loss=[\d.]+ train_acc=[\d.]+ "
                        r"val_acc=[\d.]+ alpha=[\de.+-]+", lines[0])
        assert (out_dir / "model.ckpt").exists()
        assert (out_dir / "history.csv").exists()
        assert (out_dir / "dataset_stats.json").exists()
        header = (out_dir / "history.csv").read_text().splitlines()[0]
        assert header == "iteration,loss,train_acc,val_acc,alpha"

        # eval on the same manifest
        assert main(["eval", "--checkpoint", str(out_dir / "model.ckpt"),
                     "--manifest", str(manifest)]) == 0
        eval_out = capsys.readouterr().out
        m = re.search(r"accuracy=([\d.]+)", eval_out)
        assert m and 0.0 <= float(m.group(1)) <= 1.0

        # predict on a memorized training image: its label ranks first,
        # at most 5 "<rank> <class> <prob>" lines
        import json
        split = json.loads((out_dir / "dataset_stats.json").read_text())["split"]
        train_img = sorted(k for k, v in split.items() if v == "train")[0]
        true_label = "dog" if int(train_img[3:-4]) % 2 == 0 else "cat"
        assert main(["predict", "--checkpoint", str(out_dir / "model.ckpt"),
                     "--image", str(root / train_img)]) == 0
        pred_out = capsys.readouterr().out.strip().splitlines()
        assert 1 <= len(pred_out) <= 5
        assert re.match(rf"1 {true_label} [01]\.\d+", pred_out[0])

    def test_train_determinism_same_config(self, tmp_path, dataset_dir, capsys):
        _, manifest = dataset_dir
        cfg1 = write_config(tmp_path / "a.cfg", manifest, tmp_path / "runA")
        cfg2 = write_config(tmp_path / "b.cfg", manifest, tmp_path / "runB")
        assert main(["train", "--config", str(cfg1)]) == 0
        assert main(["train", "--config", str(cfg2)]) == 0
        capsys.readouterr()
        a = (tmp_path / "runA" / "history.csv").read_bytes()
        b = (tmp_path / "runB" / "history.csv").read_bytes()
        assert a == b

    def test_resume_matches_uninterrupted(self, tmp_path, dataset_dir, capsys):
        _, manifest = dataset_dir
        full_cfg = write_config(tmp_path / "full.cfg", manifest, tmp_path / "full",
                                max_iterations=20, eval_every=10)
        assert main(["train", "--config", str(full_cfg)]) == 0

        half_cfg = write_config(tmp_path / "half.cfg", manifest, tmp_path / "half",
                                max_iterations=10, eval_every=10, checkpoint_every=10)
        assert main(["train", "--config", str(half_cfg)]) == 0
        resumed_cfg = write_config(
            tmp_path / "rest.cfg", manifest, tmp_path / "rest",
            max_iterations=20, eval_every=10,
            resume=str(tmp_path / "half" / "checkpoint_10.ckpt"))
        assert main(["train", "--config", str(resumed_cfg)]) == 0
        capsys.readouterr()

        full_rows = (tmp_path / "full" / "history.csv").read_text().splitlines()
        rest_rows = (tmp_path / "rest" / "history.csv").read_text().splitlines()
        assert rest_rows[1] == full_rows[2]  # the iteration-20 row matches

    def test_resume_keeps_the_runs_dropout_p(self, tmp_path, dataset_dir, capsys):
        _, manifest = dataset_dir
        common = dict(arch="IMG-(Conv2-ReLU-MaxPool)-(FC8-ReLU-Dropout-FC2)-Softmax",
                      eval_every=10, dropout_p=0.3)
        full_cfg = write_config(tmp_path / "full.cfg", manifest, tmp_path / "full",
                                max_iterations=20, **common)
        assert main(["train", "--config", str(full_cfg)]) == 0
        half_cfg = write_config(tmp_path / "half.cfg", manifest, tmp_path / "half",
                                max_iterations=10, checkpoint_every=10, **common)
        assert main(["train", "--config", str(half_cfg)]) == 0
        resumed_cfg = write_config(
            tmp_path / "rest.cfg", manifest, tmp_path / "rest", max_iterations=20,
            resume=str(tmp_path / "half" / "checkpoint_10.ckpt"), **common)
        assert main(["train", "--config", str(resumed_cfg)]) == 0
        capsys.readouterr()

        full_rows = (tmp_path / "full" / "history.csv").read_text().splitlines()
        rest_rows = (tmp_path / "rest" / "history.csv").read_text().splitlines()
        assert rest_rows[1] == full_rows[2]

    def test_train_writes_its_dropout_p_into_the_checkpoint(self, tmp_path, dataset_dir,
                                                          capsys):
        _, manifest = dataset_dir
        cfg = write_config(tmp_path / "t.cfg", manifest, tmp_path / "run",
                           arch="IMG-(Conv2-ReLU-MaxPool)-(FC8-ReLU-Dropout-FC2)-Softmax",
                           max_iterations=2, eval_every=1, dropout_p=0.3)
        assert main(["train", "--config", str(cfg)]) == 0
        net = load_checkpoint(tmp_path / "run" / "model.ckpt").net
        assert [n.cfg.p for n in net.nodes if n.spec.kind == "dropout"] == [0.3]

    def test_resume_with_another_dropout_p_is_usage_error(self, tmp_path, dataset_dir, capsys):
        _, manifest = dataset_dir
        arch = "IMG-(Conv2-ReLU-MaxPool)-(FC8-ReLU-Dropout-FC2)-Softmax"
        half_cfg = write_config(tmp_path / "half.cfg", manifest, tmp_path / "half", arch=arch,
                                max_iterations=10, eval_every=10, checkpoint_every=10,
                                dropout_p=0.3)
        assert main(["train", "--config", str(half_cfg)]) == 0
        capsys.readouterr()
        resumed_cfg = write_config(
            tmp_path / "rest.cfg", manifest, tmp_path / "rest", arch=arch, max_iterations=20,
            eval_every=10, dropout_p=0.2, resume=str(tmp_path / "half" / "checkpoint_10.ckpt"))
        assert main(["train", "--config", str(resumed_cfg)]) == 1
        err = capsys.readouterr().err
        assert "dropout_p" in err and "Dropout[p=0.2]" in err and "Dropout[p=0.3]" in err
        assert not (tmp_path / "rest").exists()

    @pytest.mark.parametrize("overrides, named", [
        ({"arch": "IMG-(Conv16-ReLU-MaxPool)-(FC64-ReLU-FC2)-Softmax", "precision": "float32"},
         ["arch = IMG-Conv16-ReLU-MaxPool-FC64-ReLU-FC2-Softmax",
          "IMG-Conv2-ReLU-MaxPool-FC8-ReLU-FC2-Softmax"]),
        ({"precision": "float32"}, ["precision = float32", "float64"]),
        ({"resize": 8}, ["resize = 8", "(3, 8, 8)", "(3, 12, 12)"]),
        # another seed draws another train/val split
        ({"seed": 7}, ["seed = 7", "seed 4"]),
        # another class order gives the images other labels
        ({"classes": "dog,cat"}, ["classes = dog,cat", "cat,dog"]),
    ])
    def test_resume_into_another_net_is_usage_error(self, tmp_path, dataset_dir, capsys,
                                                    overrides, named):
        _, manifest = dataset_dir
        half_cfg = write_config(tmp_path / "half.cfg", manifest, tmp_path / "half",
                                max_iterations=10, eval_every=10, checkpoint_every=10)
        assert main(["train", "--config", str(half_cfg)]) == 0
        capsys.readouterr()
        resumed_cfg = write_config(
            tmp_path / "rest.cfg", manifest, tmp_path / "rest", max_iterations=20,
            eval_every=10, resume=str(tmp_path / "half" / "checkpoint_10.ckpt"), **overrides)
        assert main(["train", "--config", str(resumed_cfg)]) == 1
        err = capsys.readouterr().err
        for text in named:
            assert text in err
        assert not (tmp_path / "rest").exists()

    def test_resume_past_max_iterations_is_usage_error(self, tmp_path, dataset_dir, capsys):
        _, manifest = dataset_dir
        half_cfg = write_config(tmp_path / "half.cfg", manifest, tmp_path / "half",
                                max_iterations=10, eval_every=10, checkpoint_every=10)
        assert main(["train", "--config", str(half_cfg)]) == 0
        capsys.readouterr()
        resumed_cfg = write_config(
            tmp_path / "rest.cfg", manifest, tmp_path / "rest", max_iterations=4,
            eval_every=2, resume=str(tmp_path / "half" / "checkpoint_10.ckpt"))
        assert main(["train", "--config", str(resumed_cfg)]) == 1
        err = capsys.readouterr().err
        assert "max_iterations = 4" in err and "iteration 10" in err
        assert not (tmp_path / "rest").exists()

    @pytest.mark.parametrize("every", [15, 5, -10])
    def test_checkpoint_every_off_the_evaluations_is_usage_error(
            self, tmp_path, dataset_dir, capsys, every):
        _, manifest = dataset_dir
        cfg = write_config(tmp_path / "t.cfg", manifest, tmp_path / "run",
                           max_iterations=20, eval_every=10, checkpoint_every=every)
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "checkpoint_every" in err and "eval_every" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("crop", [13, 0])  # resize + 1, and 0
    def test_crop_outside_the_resized_image_is_usage_error(
            self, tmp_path, dataset_dir, capsys, crop):
        _, manifest = dataset_dir
        cfg = write_config(tmp_path / "t.cfg", manifest, tmp_path / "run",
                           augment="true", crop=crop)
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "crop" in err and "resize" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key, value", [
        ("batch_size", 0), ("eval_every", 0), ("max_iterations", 0), ("seed", -1),
        ("alpha", 0), ("beta1", 1.0), ("epsilon", 0), ("patience", 0), ("factor", 1),
        ("scheduler_metric", "foo"), ("l2_lambda", -1), ("dropout_p", 1.0),
        ("dropout_p", -0.5), ("resize", 0), ("resize", -3), ("precision", "float16"),
        # a floor of 0 or below lets plateau drops take alpha to 0
        ("alpha_floor", 0), ("alpha_floor", -1),
        # a repeated name gives both copies the last copy's label
        ("classes", "cat,dog,cat"),
        # more names than the arch's FC2 scores
        ("classes", "cat,dog,bird"),
        # non-finite values train to NaN losses
        ("l2_lambda", "nan"), ("l2_lambda", "inf"), ("alpha", "inf"), ("epsilon", "inf"),
        ("factor", "inf"), ("min_delta", "nan"), ("alpha_floor", "nan"),
        ("init_fc", "gaussian:inf"),
        # checkpoints store the seed as a u64
        ("seed", 2**64),
        # a negative min_delta counts a falling metric as an improvement
        ("min_delta", -1),
    ])
    def test_out_of_range_value_is_usage_error_naming_its_key(
            self, tmp_path, dataset_dir, capsys, key, value):
        _, manifest = dataset_dir
        # a Dropout layer, so that dropout_p is used
        cfg = write_config(tmp_path / "t.cfg", manifest, tmp_path / "run",
                           arch="IMG-(Conv2-ReLU-MaxPool)-(FC8-ReLU-Dropout-FC2)-Softmax",
                           **{key: value})
        assert main(["train", "--config", str(cfg)]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("arch", [
        "IMG-Conv4[k=2,s=3,p=0]-FC2-Softmax",  # the conv geometry does not divide
        "IMG-Conv4-Softmax",                    # Softmax on a (4, 12, 12) map
        "IMG-Conv4-ReLU",                       # no (C, 1, 1) class scores
    ])
    def test_bad_arch_is_usage_error_before_ingest(self, tmp_path, dataset_dir, capsys, arch):
        _, manifest = dataset_dir
        cfg = write_config(tmp_path / "t.cfg", manifest, tmp_path / "run", arch=arch)
        assert main(["train", "--config", str(cfg)]) == 1
        assert "arch" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_crop_is_ignored_without_augment(self, tmp_path, dataset_dir, capsys):
        _, manifest = dataset_dir
        cfg = write_config(tmp_path / "t.cfg", manifest, tmp_path / "run",
                           crop=13, max_iterations=2, eval_every=1)
        assert main(["train", "--config", str(cfg)]) == 0

    def test_final_checkpoint_keeps_adam_state_without_evaluation(
            self, tmp_path, dataset_dir, capsys):
        _, manifest = dataset_dir
        cfg = write_config(tmp_path / "t.cfg", manifest, tmp_path / "run",
                           max_iterations=5, eval_every=10)
        assert main(["train", "--config", str(cfg)]) == 0
        ck = load_checkpoint(tmp_path / "run" / "model.ckpt")
        assert ck.iteration == 5
        assert ck.adam_state is not None and ck.adam_state.t == 5

    def test_non_finite_loss_exits_3(self, tmp_path, dataset_dir, capsys):
        _, manifest = dataset_dir
        cfg = write_config(tmp_path / "t.cfg", manifest, tmp_path / "run",
                           init_conv="gaussian:1e200", max_iterations=5, eval_every=1)
        with np.errstate(all="ignore"):
            assert main(["train", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == "error: training loss is inf at iteration 1\n"
        assert not (tmp_path / "run" / "model.ckpt").exists()

    def test_overflowed_weights_exit_3_at_their_first_evaluation(
            self, tmp_path, dataset_dir, capsys):
        # step 1 drives the weights to about 1e300; its loss was still finite
        _, manifest = dataset_dir
        cfg = write_config(tmp_path / "t.cfg", manifest, tmp_path / "run",
                           alpha=1e300, max_iterations=5, eval_every=1)
        with np.errstate(all="ignore"):
            assert main(["train", "--config", str(cfg)]) == 3
        out, err = capsys.readouterr()
        assert err == ("error: evaluation forward: overflow encountered in matmul "
                       "at iteration 1\n")
        assert "iter=" not in out
        assert not (tmp_path / "run" / "model.ckpt").exists()

    @pytest.mark.parametrize("overrides, message", [
        (dict(init_conv="gaussian:1e200", eval_every=1), "training loss is inf at iteration 1"),
        (dict(init_conv="gaussian:1e200", eval_every=10), "training loss is inf at iteration 1"),
        (dict(alpha=1e300, eval_every=1),
         "evaluation forward: overflow encountered in matmul at iteration 1"),
        (dict(alpha=1e300, eval_every=10), "training loss is nan at iteration 2"),
    ])
    def test_diverging_run_prints_one_stderr_line(self, tmp_path, dataset_dir, overrides,
                                                  message):
        _, manifest = dataset_dir
        cfg = write_config(tmp_path / "t.cfg", manifest, tmp_path / "run", max_iterations=5,
                           **overrides)
        proc = run_cli_process("train", "--config", str(cfg))
        assert proc.returncode == 3
        assert proc.stderr == f"error: {message}\n"

    def test_predict_on_inflated_tensor_dims_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, build(archdsl.parse(TINY_ARCH, (3, 12, 12))))
        data = path.read_bytes()
        # the conv bias, the first tensor stored, is the first (1, 2, 1, 1)
        conv_bias = struct.pack("<4I", 1, 2, 1, 1)
        path.write_bytes(data.replace(conv_bias, struct.pack("<4I", 2**32 - 1, 2, 1, 1), 1))
        write_ppm(tmp_path / "x.ppm", np.full((3, 12, 12), 100.0))
        assert main(["predict", "--checkpoint", str(path),
                     "--image", str(tmp_path / "x.ppm")]) == 2
        assert "checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("poison", ["nan_fc_bias", "huge_weights"])
    def test_predict_with_non_finite_scores_exits_3(self, tmp_path, poison):
        # a NaN last FC bias gives NaN logits; 1e308 weights overflow inside
        # the forward, which would also print NumPy warnings
        net = build(archdsl.parse(TINY_ARCH, (3, 12, 12)))
        if poison == "nan_fc_bias":
            net.nodes[-2].params["b"].data[...] = np.nan
        else:
            for node in net.nodes:
                if "w" in node.params:
                    node.params["w"].data[...] = 1e308
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net, class_names=["cat", "dog"])
        write_ppm(tmp_path / "x.ppm", np.full((3, 12, 12), 100.0))
        proc = run_cli_process("predict", "--checkpoint", str(path),
                               "--image", str(tmp_path / "x.ppm"))
        assert (proc.returncode, proc.stdout) == (3, "")
        assert re.fullmatch(r"error: [^\n]+\n", proc.stderr), proc.stderr

    def test_predict_on_logits_wider_than_the_float_range_prints_no_warning(self, tmp_path):
        # finite logits 2e308 apart: their difference overflows to -inf,
        # whose probability is 0
        net = build(archdsl.parse(TINY_ARCH, (3, 12, 12)))
        net.nodes[-2].params["b"].data.flat = (1e308, -1e308)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net, class_names=["cat", "dog"])
        write_ppm(tmp_path / "x.ppm", np.full((3, 12, 12), 100.0))
        proc = run_cli_process("predict", "--checkpoint", str(path),
                               "--image", str(tmp_path / "x.ppm"))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "1 cat 1.000000\n2 dog 0.000000\n"

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("arch, names, said", [
        # saved without class names: eval and predict fall back to the 20
        # VOC names, which hold cat and dog, for a net that scores 2 classes
        (TINY_ARCH, None, ["20 class names", "2 class scores"]),
        ("IMG-Conv4-ReLU", ["cat", "dog"], ["(4, 12, 12)", "not (C, 1, 1) class scores"]),
    ])
    def test_class_names_that_do_not_fit_the_net_are_a_data_error(
            self, tmp_path, dataset_dir, capsys, command, arch, names, said):
        root, manifest = dataset_dir
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, build(archdsl.parse(arch, (3, 12, 12))), class_names=names)
        data = (["--manifest", str(manifest)] if command == "eval"
                else ["--image", str(root / "img0.ppm")])
        assert main([command, "--checkpoint", str(path), *data]) == 2
        err = capsys.readouterr().err
        assert all(text in err for text in said)

    def test_eval_names_the_record_that_failed_to_load(self, tmp_path, dataset_dir, capsys):
        root, manifest = dataset_dir
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, build(archdsl.parse(TINY_ARCH, (3, 12, 12))),
                        class_names=["cat", "dog"])
        good = (root / "img0.ppm").read_bytes()
        (root / "cut.ppm").write_bytes(good[:-10])
        held_out = tmp_path / "held_out.manifest"
        held_out.write_text(f"{MANIFEST_HEADER}\nimg0.ppm\tdog\ncut.ppm\tcat\n")
        assert main(["eval", "--checkpoint", str(path), "--manifest", str(held_out)]) == 2
        err = capsys.readouterr().err
        assert "line 3 (cut.ppm)" in err and "truncated" in err

    def test_missing_checkpoint_is_data_error(self, tmp_path):
        assert main(["eval", "--checkpoint", str(tmp_path / "no.ckpt"),
                     "--manifest", str(tmp_path / "no.manifest")]) == 2

    def test_bad_manifest_is_data_error(self, tmp_path, dataset_dir, capsys):
        _, manifest = dataset_dir
        out_dir = tmp_path / "run"
        bad = tmp_path / "bad.manifest"
        bad.write_text("no header\n")
        cfg = write_config(tmp_path / "t.cfg", bad, out_dir)
        assert main(["train", "--config", str(cfg)]) == 2


class TestOutOfMemory:
    """A MemoryError exits 2 with NumPy's message on one stderr line."""

    MESSAGE = "Unable to allocate 6.45 GiB for an array with shape (1024, 1048576)"

    def _raise(self, *args, **kwargs):
        raise MemoryError(self.MESSAGE)

    def _check(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {self.MESSAGE}\n"

    def test_train(self, tmp_path, dataset_dir, capsys, monkeypatch):
        _, manifest = dataset_dir
        monkeypatch.setattr(microvoc.dataio, "ingest", self._raise)
        cfg = write_config(tmp_path / "t.cfg", manifest, tmp_path / "run")
        self._check(["train", "--config", str(cfg)], capsys)

    def test_eval(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(microvoc.trainer, "load_checkpoint", self._raise)
        self._check(["eval", "--checkpoint", str(tmp_path / "net.ckpt"),
                     "--manifest", str(tmp_path / "x.manifest")], capsys)

    def test_predict(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(microvoc.trainer, "load_checkpoint", self._raise)
        self._check(["predict", "--checkpoint", str(tmp_path / "net.ckpt"),
                     "--image", str(tmp_path / "x.ppm")], capsys)

    def test_bare_memory_error_still_names_itself(self, capsys, monkeypatch):
        def bare(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(microvoc.trainer, "load_checkpoint", bare)
        assert main(["eval", "--checkpoint", "c", "--manifest", "m"]) == 2
        assert capsys.readouterr().err == "error: out of memory\n"


class TestUsageErrors:
    def test_no_arguments(self):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["serve"]) == 1

    def test_missing_required_flag(self):
        assert main(["train"]) == 1
