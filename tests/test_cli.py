import re

import numpy as np
import pytest

from microvoc.cli import RunConfig, main, parse_run_config, to_train_config
from microvoc.dataio import MANIFEST_HEADER, write_ppm
from microvoc.errors import ConfigError
from microvoc.trainer import load_checkpoint

TINY_ARCH = "IMG-(Conv2-ReLU-MaxPool)-(FC8-ReLU-FC2)-Softmax"


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
        p.write_text("# a comment\n\nseed = 9\n")
        assert parse_run_config(p).seed == 9

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

    def test_final_checkpoint_keeps_adam_state_without_evaluation(
            self, tmp_path, dataset_dir, capsys):
        _, manifest = dataset_dir
        cfg = write_config(tmp_path / "t.cfg", manifest, tmp_path / "run",
                           max_iterations=5, eval_every=10)
        assert main(["train", "--config", str(cfg)]) == 0
        ck = load_checkpoint(tmp_path / "run" / "model.ckpt")
        assert ck.iteration == 5
        assert ck.adam_state is not None and ck.adam_state.t == 5

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


class TestUsageErrors:
    def test_no_arguments(self):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["serve"]) == 1

    def test_missing_required_flag(self):
        assert main(["train"]) == 1
