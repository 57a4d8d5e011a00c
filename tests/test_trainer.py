import math

import numpy as np
import pytest

from synthdata import bar_dataset

from microvoc import archdsl
from microvoc.augment import Sample
from microvoc.errors import CheckpointError, StateError, VersionError
from microvoc.initializers import InitSpec
from microvoc.layers import Mode, softmax_cross_entropy
from microvoc.optim import AdamState, PlateauScheduler, SchedulerConfig
from microvoc.tensor import Tensor4
from microvoc.trainer import (
    TrainConfig,
    build,
    evaluate,
    freeze,
    load_checkpoint,
    reinitialize,
    save_checkpoint,
    train,
)

SMALL_ARCH = "IMG-(Conv4-ReLU-MaxPool)-(FC16-ReLU-FC4)-Softmax"


def small_net(seed=0, **kwargs):
    return build(archdsl.parse(SMALL_ARCH, (3, 16, 16)), seed=seed, **kwargs)


def random_batch(n=4, dims=(3, 16, 16), seed=0):
    rng = np.random.default_rng(seed)
    return Tensor4(rng.standard_normal((n, *dims)))


class TestBuild:
    def test_deterministic(self):
        a, b = small_net(seed=5), small_net(seed=5)
        for (ka, pa), (kb, pb) in zip(sorted(a.param_dict().items()),
                                      sorted(b.param_dict().items())):
            assert ka == kb
            assert np.array_equal(pa.data, pb.data)

    def test_biases_are_zero(self):
        net = small_net()
        for key, p in net.param_dict().items():
            if key.endswith(".b"):
                assert not p.data.any()

    def test_initial_loss_near_uniform(self):
        # small-magnitude init keeps logits near zero, so loss ~ ln(C)
        net = small_net(seed=1)
        logits = net.forward(random_batch(8))
        loss, _, _ = softmax_cross_entropy(logits, [0, 1, 2, 3, 0, 1, 2, 3])
        assert abs(loss - math.log(4)) < 0.5

    def test_dropout_default_override(self):
        net = build(archdsl.parse("IMG-FC4-Dropout-FC2", (3, 4, 4)), dropout_p=0.25)
        assert net.nodes[1].cfg.p == 0.25
        net = build(archdsl.parse("IMG-FC4-Dropout[p=0.7]-FC2", (3, 4, 4)), dropout_p=0.25)
        assert net.nodes[1].cfg.p == 0.7

    def test_float32_build(self):
        net = small_net(dtype=np.float32)
        assert all(p.dtype == np.float32 for p in net.param_dict().values())
        logits = net.forward(random_batch())
        assert logits.dtype == np.float32


class TestForward:
    def test_test_mode_is_deterministic(self):
        net = build(archdsl.parse("IMG-(Conv2-ReLU)-Dropout-FC3", (3, 8, 8)), seed=2)
        x = random_batch(2, (3, 8, 8))
        a = net.forward(x, Mode.TEST)
        b = net.forward(x, Mode.TEST)
        assert np.array_equal(a.data, b.data)

    def test_train_with_p0_dropout_equals_test(self):
        net = build(archdsl.parse("IMG-(Conv2-ReLU)-Dropout-FC3", (3, 8, 8)),
                    seed=2, dropout_p=0.0)
        x = random_batch(2, (3, 8, 8))
        train_out = net.forward(x, Mode.TRAIN, np.random.default_rng(0))
        test_out = net.forward(x, Mode.TEST)
        assert np.array_equal(train_out.data, test_out.data)

    def test_logits_shape_matches_head(self):
        net = small_net()
        logits = net.forward(random_batch(6))
        assert logits.dims == (6, 4, 1, 1)

    def test_wrong_input_dims_rejected(self):
        net = small_net()
        from microvoc.errors import ShapeError
        with pytest.raises(ShapeError):
            net.forward(random_batch(2, (3, 8, 8)))


class TestBackward:
    def test_zero_grad_logits_give_zero_grads(self):
        net = small_net()
        x = random_batch()
        logits = net.forward(x, Mode.TRAIN)
        grads = net.backward(Tensor4(np.zeros(logits.dims)))
        assert all(np.all(g.data == 0) for g in grads.values())

    def test_backward_without_train_forward_raises(self):
        net = small_net()
        net.forward(random_batch(), Mode.TEST)
        with pytest.raises(StateError):
            net.backward(Tensor4.new((4, 4, 1, 1), 0.0))

    def test_backward_consumes_cache(self):
        net = small_net()
        logits = net.forward(random_batch(), Mode.TRAIN)
        net.backward(Tensor4(np.zeros(logits.dims)))
        with pytest.raises(StateError):
            net.backward(Tensor4(np.zeros(logits.dims)))

    def test_freeze_all_flags_discard_everywhere(self):
        net = small_net()
        freeze(net, lambda i, ls: True)
        logits = net.forward(random_batch(), Mode.TRAIN)
        net.backward(Tensor4(np.ones(logits.dims)))
        with_params = [n for n in net.nodes if n.params]
        assert with_params
        assert all(n.frozen for n in with_params)
        assert all(n.grads for n in with_params)  # still computed


class TestFreezeAndReinit:
    def test_freeze_all_training_is_noop_on_params(self):
        ds = bar_dataset(20, 16, seed=0)
        cfg = TrainConfig(arch=SMALL_ARCH, max_iterations=30, eval_every=10, seed=3)
        net = small_net(seed=3)
        freeze(net, lambda i, ls: True)
        before = {k: p.data.copy() for k, p in net.param_dict().items()}
        net, _ = train(cfg, ds, net=net)
        for k, p in net.param_dict().items():
            assert np.array_equal(before[k], p.data)

    def test_freeze_conv_only(self):
        ds = bar_dataset(20, 16, seed=0)
        cfg = TrainConfig(arch=SMALL_ARCH, max_iterations=30, eval_every=10, seed=3)
        net = small_net(seed=3)
        freeze(net, lambda i, ls: ls.kind == "conv")
        before = {k: p.data.copy() for k, p in net.param_dict().items()}
        net, _ = train(cfg, ds, net=net)
        conv_keys = [f"{i}.{n}" for i, node in enumerate(net.nodes)
                     if node.spec.kind == "conv" for n in node.params]
        fc_w_keys = [f"{i}.w" for i, node in enumerate(net.nodes)
                     if node.spec.kind == "fc"]
        for k in conv_keys:
            assert np.array_equal(before[k], net.param_dict()[k].data)
        assert any(not np.array_equal(before[k], net.param_dict()[k].data)
                   for k in fc_w_keys)

    def test_reinitialize_fc_head(self):
        net = small_net(seed=4)
        reinitialize(net, ("fc",), InitSpec("gaussian", 0.005), seed=9)
        for node in net.nodes:
            if node.spec.kind == "fc":
                assert abs(node.params["w"].data.std() - 0.005) < 0.002
                assert np.all(node.params["b"].data == 0)


class TestTrainLoop:
    def test_end_to_end_determinism(self):
        ds = bar_dataset(30, 16, seed=1)
        cfg = TrainConfig(arch=SMALL_ARCH, max_iterations=40, eval_every=20, seed=6)
        _, h1 = train(cfg, ds)
        _, h2 = train(cfg, ds)
        assert h1.points == h2.points

    def test_loss_decreases_on_fixed_batch(self):
        # single fixed batch, no regularization: loss should be
        # non-increasing in at least 90% of the steps after the first 50
        from microvoc.optim import AdamConfig
        ds = bar_dataset(20, 16, seed=2)
        n_train = len(ds.train_samples())
        cfg = TrainConfig(arch=SMALL_ARCH, adam=AdamConfig(lam=0.0),
                          batch_size=n_train, max_iterations=200, eval_every=1,
                          seed=7, dropout_p=0.0)
        _, hist = train(cfg, ds)
        losses = [p.loss for p in hist.points]
        decreases = sum(1 for a, b in zip(losses[50:], losses[51:]) if b <= a)
        assert decreases / (len(losses) - 51) >= 0.90

    def test_memorizes_20_samples(self):
        from microvoc.optim import AdamConfig
        ds = bar_dataset(20, 16, seed=3, noise=25.0)
        cfg = TrainConfig(arch=SMALL_ARCH, adam=AdamConfig(lam=0.0),
                          max_iterations=400, eval_every=100, seed=8, dropout_p=0.0)
        _, hist = train(cfg, ds)
        assert max(p.train_acc for p in hist.points) == 1.0

    def test_reported_loss_includes_l2_penalty(self):
        from microvoc.optim import AdamConfig
        ds = bar_dataset(20, 16, seed=4)
        base = TrainConfig(arch=SMALL_ARCH, adam=AdamConfig(lam=0.0),
                           max_iterations=1, eval_every=1, seed=9, dropout_p=0.0)
        reg = TrainConfig(arch=SMALL_ARCH, adam=AdamConfig(lam=10.0),
                          max_iterations=1, eval_every=1, seed=9, dropout_p=0.0)
        _, h0 = train(base, ds)
        _, h1 = train(reg, ds)
        assert h1.points[0].loss > h0.points[0].loss + 1.0

    def test_label_out_of_range_rejected(self):
        ds = bar_dataset(20, 16, seed=5)
        for s in ds.samples:
            s.label = 7  # beyond the 4-way head
        cfg = TrainConfig(arch=SMALL_ARCH, max_iterations=5, eval_every=5, seed=1)
        with pytest.raises(StateError):
            train(cfg, ds)

    def test_input_dims_mismatch_rejected(self):
        ds = bar_dataset(20, 16, seed=5)
        net = build(archdsl.parse(SMALL_ARCH, (3, 32, 32)), seed=0)
        cfg = TrainConfig(arch=SMALL_ARCH, max_iterations=5, eval_every=5, seed=1)
        with pytest.raises(StateError):
            train(cfg, ds, net=net)


class TestEvaluate:
    def test_tie_breaks_to_first_class(self):
        net = build(archdsl.parse("IMG-FC3-Softmax", (3, 4, 4)), seed=0,
                    init_fc=InitSpec("zero"))
        samples = [Sample(Tensor4(np.random.default_rng(i).random((1, 3, 4, 4))),
                          i % 2, f"e{i}") for i in range(10)]
        # constant (all-zero) logits predict class 0 for every sample
        assert evaluate(net, samples) == 0.5
        only_zero = [Sample(s.image, 0, s.id) for s in samples]
        only_one = [Sample(s.image, 1, s.id) for s in samples]
        assert evaluate(net, only_zero) == 1.0
        assert evaluate(net, only_one) == 0.0

    def test_random_logits_near_chance(self):
        rng = np.random.default_rng(11)
        net = build(archdsl.parse("IMG-FC5-Softmax", (3, 6, 6)), seed=12)
        samples = [Sample(Tensor4(rng.standard_normal((1, 3, 6, 6))),
                          int(rng.integers(0, 5)), f"r{i}") for i in range(500)]
        acc = evaluate(net, samples)
        sigma = math.sqrt(0.2 * 0.8 / 500)
        assert abs(acc - 0.2) < 3 * sigma

    def test_empty_split_rejected(self):
        net = small_net()
        with pytest.raises(ValueError):
            evaluate(net, [])


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = small_net(seed=13)
        freeze(net, lambda i, ls: ls.kind == "conv")
        state = AdamState.for_params(net.param_dict(trainable_only=True))
        state.t = 17
        sched = PlateauScheduler(SchedulerConfig())
        sched.best = 0.75
        sched.bad_count = 2
        means = np.array([1.5, 2.5, 3.5])
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net, state, iteration=170, alpha=1e-5,
                        scheduler=sched, channel_means=means,
                        class_names=["a", "b", "c", "d"])
        ck = load_checkpoint(path)
        assert ck.iteration == 170
        assert ck.alpha == 1e-5
        assert ck.scheduler_best == 0.75
        assert ck.scheduler_bad == 2
        assert np.array_equal(ck.channel_means, means)
        assert ck.class_names == ["a", "b", "c", "d"]
        assert ck.adam_state.t == 17
        assert [n.frozen for n in ck.net.nodes] == [n.frozen for n in net.nodes]
        for k, p in net.param_dict().items():
            assert np.array_equal(ck.net.param_dict()[k].data, p.data)
        for k in state.m:
            assert np.array_equal(ck.adam_state.m[k].data, state.m[k].data)
            assert np.array_equal(ck.adam_state.v[k].data, state.v[k].data)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        net = small_net(seed=14)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, net, iteration=3, alpha=1e-4)
        ck = load_checkpoint(p1)
        save_checkpoint(p2, ck.net, iteration=ck.iteration, alpha=ck.alpha)
        assert p1.read_bytes() == p2.read_bytes()

    def test_evaluation_preserved_across_round_trip(self, tmp_path):
        net = small_net(seed=15)
        samples = [Sample(Tensor4(np.random.default_rng(i).standard_normal((1, 3, 16, 16))),
                          i % 4, f"s{i}") for i in range(20)]
        before = evaluate(net, samples)
        logits_before = net.forward(samples[0].image).data.copy()
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net)
        ck = load_checkpoint(path)
        assert evaluate(ck.net, samples) == before
        assert np.array_equal(ck.net.forward(samples[0].image).data, logits_before)

    def test_float32_round_trip(self, tmp_path):
        net = small_net(seed=16, dtype=np.float32)
        path = tmp_path / "net32.ckpt"
        save_checkpoint(path, net)
        ck = load_checkpoint(path)
        assert ck.net.dtype == np.float32
        for k, p in net.param_dict().items():
            assert np.array_equal(ck.net.param_dict()[k].data, p.data)

    def test_truncated_file_rejected(self, tmp_path):
        net = small_net(seed=17)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        net = small_net(seed=18)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net)
        data = bytearray(path.read_bytes())
        data[4] = 99  # bump the version field
        path.write_bytes(bytes(data))
        with pytest.raises(VersionError):
            load_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_trailing_bytes_rejected(self, tmp_path):
        net = small_net(seed=19)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        from microvoc import trainer
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, small_net(seed=20))
        before = path.read_bytes()
        write_tensor, written = trainer._write_tensor, []

        def fail_on_third(fh, t):
            written.append(t)
            if len(written) == 3:
                raise OSError("disk full")
            write_tensor(fh, t)

        monkeypatch.setattr(trainer, "_write_tensor", fail_on_third)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, small_net(seed=21))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["net.ckpt"]


class TestResume:
    def test_resumed_history_matches_uninterrupted(self, tmp_path):
        ds = bar_dataset(30, 16, seed=6)
        full_cfg = TrainConfig(arch=SMALL_ARCH, max_iterations=60, eval_every=10, seed=20)
        _, full_hist = train(full_cfg, ds)

        half_cfg = TrainConfig(arch=SMALL_ARCH, max_iterations=30, eval_every=10, seed=20)
        state = AdamState()
        sched = PlateauScheduler(half_cfg.scheduler)
        events = []
        net, half_hist = train(half_cfg, ds, adam_state=state, scheduler=sched,
                               on_eval=events.append)
        path = tmp_path / "resume.ckpt"
        save_checkpoint(path, net, state, iteration=30, alpha=events[-1].next_alpha,
                        scheduler=sched)

        ck = load_checkpoint(path)
        rest_cfg = TrainConfig(arch=SMALL_ARCH, max_iterations=60, eval_every=10, seed=20)
        _, rest_hist = train(rest_cfg, ds, net=ck.net, adam_state=ck.adam_state,
                             start_iteration=ck.iteration, alpha=ck.alpha,
                             scheduler=ck.make_scheduler(rest_cfg.scheduler))
        assert half_hist.points + rest_hist.points == full_hist.points
