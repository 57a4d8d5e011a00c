import math
import struct
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthdata import (bar_dataset, checkpoint_arrays_sha256, one_pass_forward,
                       whole_gradient_step)

from microvoc import archdsl, trainer
from microvoc.augment import Sample
from microvoc.errors import CheckpointError, NumericError, StateError, VersionError
from microvoc.initializers import InitSpec
from microvoc.layers import KINDS, Mode, softmax_cross_entropy
from microvoc.optim import (CHUNK, MAX_STEPS, AdamConfig, AdamState, PlateauScheduler,
                            SchedulerConfig)
from microvoc.tensor import Tensor4
from microvoc.trainer import (
    Network,
    TrainConfig,
    build,
    evaluate,
    freeze,
    load_checkpoint,
    reinitialize,
    save_checkpoint,
    train,
    train_step,
)

SMALL_ARCH = "IMG-(Conv4-ReLU-MaxPool)-(FC16-ReLU-FC4)-Softmax"
NAN_ARCH = "IMG-(Conv2-ReLU-MaxPool)-(FC4-ReLU-FC2)-Softmax"


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

    def test_only_a_train_mode_forward_leaves_caches(self):
        # the network drops every test-mode cache, whatever an adapter returns
        net = build(archdsl.parse("IMG-Conv2-ReLU-LRN[n=3]-MaxPool-Dropout-FC3-Softmax",
                                  (3, 8, 8)))
        assert {node.spec.kind for node in net.nodes} == set(KINDS)
        x = random_batch(2, (3, 8, 8))
        net.forward(x, Mode.TRAIN, np.random.default_rng(0))
        assert all(node.cache is not None for node in net.nodes)
        net.forward(x, Mode.TEST)
        assert all(node.cache is None for node in net.nodes)

    @pytest.mark.parametrize("arch", [
        "IMG-ReLU-LRN[n=3]-Dropout-FC2-Softmax",
        "IMG-LRN[n=3]-Dropout-ReLU-FC2-Softmax",
        "IMG-Dropout-ReLU-LRN[n=3]-FC2-Softmax",
    ])
    def test_test_mode_never_writes_the_callers_batch(self, arch):
        # the kinds that take the Mode, each first on the caller's batch
        net = build(archdsl.parse(arch, (3, 4, 4)), seed=3)
        x = random_batch(5, (3, 4, 4))
        before = x.data.tobytes()
        first = net.forward(x, Mode.TEST)
        assert x.data.tobytes() == before
        assert net.forward(x, Mode.TEST).data.tobytes() == first.data.tobytes()

    def test_test_mode_frees_each_layer_input_before_the_next_layer(self):
        # the conv's cache refers to its input, the first ReLU's output;
        # holding that through the second ReLU would add one activation
        net = build(archdsl.parse("IMG-ReLU-Conv8[k=1,p=0]-ReLU-FC2", (8, 32, 32)))
        x = random_batch(16, (8, 32, 32))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            net.forward(x, Mode.TEST)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 2.75 * x.data.nbytes  # 2.5 activations; 3 when held

    @pytest.mark.parametrize("arch, size, dtype", [
        (archdsl.resolve_arch("M4"), 16, np.float32),
        ("IMG-ReLU-Conv4-LRN[n=3]-ReLU-MaxPool-Dropout-FC8-ReLU-FC3-Softmax", 8, np.float64),
    ], ids=["M4", "first-layer-writes-input"])
    def test_trunk_slices_give_the_one_pass_logits(self, monkeypatch, arch, size, dtype):
        net = build(arch, seed=1, dtype=dtype, input_dims=(3, size, size))
        slices = [trainer.TRUNK_PIECE] * 6 + [5]
        x = Tensor4(random_batch(sum(slices), (3, size, size), seed=2).data.astype(dtype))
        before = x.data.tobytes()
        want = one_pass_forward(net, x).data.tobytes()
        conv_batches = []
        conv = trainer.conv2d_forward

        def spy(x, *args):
            conv_batches.append(x.dims[0])
            return conv(x, *args)

        monkeypatch.setattr(trainer, "conv2d_forward", spy)
        assert net.forward(x, Mode.TEST).data.tobytes() == want
        assert x.data.tobytes() == before
        convs = sum(node.spec.kind == "conv" for node in net.nodes)
        assert conv_batches == [k for k in slices for _ in range(convs)]


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
        grads = net.backward(Tensor4(np.ones(logits.dims)))
        with_params = [(i, n) for i, n in enumerate(net.nodes) if n.params]
        assert with_params
        assert all(n.frozen for _, n in with_params)
        # frozen layers compute no parameter gradient
        assert grads == {}

    @pytest.mark.parametrize("arch", [SMALL_ARCH, "IMG-(FC16-ReLU-FC4)-Softmax"])
    def test_input_gradient_only_on_request(self, arch):
        def run(**kwargs):
            net = build(archdsl.parse(arch, (3, 16, 16)), seed=3)
            logits = net.forward(random_batch(seed=4), Mode.TRAIN)
            g = Tensor4(np.random.default_rng(5).standard_normal(logits.dims))
            return net, net.backward(g, **kwargs)

        net_off, grads_off = run()
        net_on, grads_on = run(input_grad=True)
        assert net_off._grad_input is None
        assert net_on._grad_input.dims == (4, 3, 16, 16)
        assert grads_off.keys() == grads_on.keys()
        for key in grads_on:  # parameter gradients do not depend on the switch
            assert grads_off[key].data.tobytes() == grads_on[key].data.tobytes(), key


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


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [{"dtype": "float16"}, {"dtype": "int32"},
                                        {"dropout_p": 1.0}, {"dropout_p": -0.1},
                                        {"seed": 2**64}])
    def test_out_of_range_value_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(arch=SMALL_ARCH, **kwargs)

    def test_largest_seed_fits_a_checkpoint(self, tmp_path):
        TrainConfig(arch=SMALL_ARCH, seed=2**64 - 1)
        save_checkpoint(tmp_path / "net.ckpt", small_net(seed=2**64 - 1))
        assert load_checkpoint(tmp_path / "net.ckpt").net.seed == 2**64 - 1

    def test_build_refuses_a_seed_a_checkpoint_cannot_store(self):
        with pytest.raises(ValueError, match="seed"):
            small_net(seed=2**64)

    def test_train_eval_cap_is_not_settable(self):
        assert TrainConfig(arch=SMALL_ARCH).train_eval_cap == 512
        with pytest.raises(TypeError):
            TrainConfig(arch=SMALL_ARCH, train_eval_cap=5)


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

    # unchecked, the overflowing step trains on with losses 26.96, nan, nan,
    # ... and the overflowing init with inf from the first step on; no
    # evaluation runs before the loss check stops them
    @pytest.mark.parametrize("overrides, iteration, value", [
        (dict(adam=AdamConfig(alpha=1e300)), 2, "nan"),
        (dict(init_conv=InitSpec("gaussian", 1e200)), 1, "inf"),
    ])
    def test_non_finite_loss_stops_training(self, overrides, iteration, value):
        cfg = TrainConfig(arch=NAN_ARCH, max_iterations=10, eval_every=10, **overrides)
        state = AdamState()
        with np.errstate(all="ignore"), pytest.raises(
                NumericError, match=f"training loss is {value} at iteration {iteration}$"):
            train(cfg, bar_dataset(40, 16, seed=8), adam_state=state)
        assert state.t == iteration - 1  # the step that reached it is not applied

    def test_overflowed_weights_stop_the_evaluation_after_their_step(self):
        # the first step drives the weights to about 1e300: the evaluation
        # right after it overflows, one iteration before the loss is NaN
        cfg = TrainConfig(arch=NAN_ARCH, max_iterations=10, eval_every=1,
                          adam=AdamConfig(alpha=1e300))
        state, events = AdamState(), []
        with np.errstate(all="ignore"), pytest.raises(
                NumericError, match="evaluation forward: overflow encountered in matmul "
                                    "at iteration 1$"):
            train(cfg, bar_dataset(40, 16, seed=8), adam_state=state, on_eval=events.append)
        assert state.t == 1 and not events


#: every FC layer has fewer than 128 outputs, so each is one block: the
#: streamed step's GEMMs are the whole-gradient step's on any BLAS
STREAM_ARCH = "IMG-(Conv4-ReLU-MaxPool)-(FC16-ReLU-Dropout-FC4)-Softmax"


def state_bytes(net, state):
    arrays = [(f"param {k}", p.data) for k, p in net.param_dict().items()]
    arrays += [(f"{name} {k}", t.data) for name, moments in (("m", state.m), ("v", state.v))
               for k, t in sorted(moments.items())]
    return state.t, {name: a.tobytes() for name, a in arrays}


class TestStreamedStep:
    def run(self, step, monkeypatch, tmp_path, dtype, frozen_fc, **overrides):
        """Three iterations, a checkpoint with Adam state, then three more
        from the loaded checkpoint, each through ``step``. Returns the loss
        rows, the final bytes and the keys of the weight gradients that
        backward handed its sink."""
        monkeypatch.setattr(trainer, "train_step", step)
        streamed = set()
        backward = Network.backward

        def spy(net, grad_logits, input_grad=False, sink=None):
            def recording(key, row, g):
                streamed.add(key)
                sink(key, row, g)

            return backward(net, grad_logits, input_grad, None if sink is None else recording)

        monkeypatch.setattr(Network, "backward", spy)
        ds = bar_dataset(20, 16, seed=2)
        net = build(archdsl.parse(STREAM_ARCH, (3, 16, 16)), seed=3, dtype=dtype)
        freeze(net, lambda i, ls: frozen_fc and i == 3)
        first = TrainConfig(arch=STREAM_ARCH, max_iterations=3, eval_every=1, seed=3,
                            dtype=dtype, **overrides)
        state = AdamState()
        net, h1 = train(first, ds, net=net, adam_state=state)
        save_checkpoint(tmp_path / "s.ckpt", net, state, iteration=3)
        ck = load_checkpoint(tmp_path / "s.ckpt")
        net, h2 = train(replace(first, max_iterations=6), ds, net=ck.net,
                        adam_state=ck.adam_state, start_iteration=3)
        losses = [np.float64(p.loss).tobytes() for p in h1.points + h2.points]
        return losses, state_bytes(net, ck.adam_state), sorted(streamed)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("overrides", [
        {}, dict(adam=AdamConfig(lam=0.0)), dict(l2_include_biases=True)],
        ids=["l2", "lam0", "l2-biases"])
    @pytest.mark.parametrize("frozen_fc", [False, True], ids=["", "frozen-fc"])
    def test_same_bytes_as_the_whole_gradient(self, monkeypatch, tmp_path, dtype, overrides,
                                             frozen_fc):
        losses, final, streamed = self.run(train_step, monkeypatch, tmp_path, dtype,
                                           frozen_fc, **overrides)
        ref_losses, ref_final, ref_streamed = self.run(whole_gradient_step, monkeypatch,
                                                       tmp_path, dtype, frozen_fc, **overrides)
        assert losses == ref_losses
        assert final == ref_final
        assert final[0] == 6
        assert not ref_streamed
        assert streamed == (["6.w"] if frozen_fc else ["3.w", "6.w"])
        if frozen_fc:
            start = build(archdsl.parse(STREAM_ARCH, (3, 16, 16)), seed=3, dtype=dtype)
            for name in ("w", "b"):
                assert (final[1][f"param 3.{name}"]
                        == start.nodes[3].params[name].data.tobytes())

    @pytest.mark.parametrize("fault", ["step counter", "read-only fc weight"])
    @pytest.mark.parametrize("moments", [True, False], ids=["moments", "no-moments"])
    def test_rejected_step_changes_nothing(self, monkeypatch, fault, moments):
        net = build(archdsl.parse(STREAM_ARCH, (3, 16, 16)), seed=3)
        state = AdamState.for_params(net.param_dict()) if moments else AdamState()
        if fault == "step counter":
            state.t = MAX_STEPS
        else:
            state.t = 5
            net.nodes[3].params["w"].data.flags.writeable = False
        before = state_bytes(net, state)
        backward_calls = []
        monkeypatch.setattr(Network, "backward",
                            lambda *args, **kwargs: backward_calls.append(args))
        cfg = TrainConfig(arch=STREAM_ARCH, max_iterations=3, eval_every=1, seed=3)
        with pytest.raises(StateError):
            train(cfg, bar_dataset(20, 16, seed=2), net=net, adam_state=state)
        assert not backward_calls
        assert state_bytes(net, state) == before

    @staticmethod
    def m3_step_peak(frozen=()):
        """The tracemalloc peak of one M3 32x32 float32 training step with
        the layers at the indices ``frozen`` frozen."""
        ds = bar_dataset(53, 32, seed=1)
        net = build(archdsl.resolve_arch("M3"), seed=1, dtype=np.float32,
                    input_dims=(3, 32, 32))
        freeze(net, lambda i, ls: i in frozen)
        before = {key: p.data.tobytes() for key, p in net.param_dict().items()}
        state = AdamState.for_params(net.param_dict())
        cfg = TrainConfig(arch=archdsl.resolve_arch("M3"), dtype="float32", max_iterations=1,
                          eval_every=2, seed=1)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            train(cfg, ds, net=net, adam_state=state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.t == 1
        unchanged = {key for key, p in net.param_dict().items()
                     if p.data.tobytes() == before[key]}
        assert unchanged == {f"{i}.{name}" for i in frozen for name in ("w", "b")}
        return peak - start

    def test_fc_weight_gradient_never_exists_whole(self):
        # M3 at 32x32: FC1's weight gradient is 1024 x 16384 float32, 64 MiB
        assert self.m3_step_peak() < 100 * 2**20

    def test_frozen_fc_layer_computes_no_weight_gradient(self):
        # FC1 (layer 11) frozen: no sink takes its gradient, and none is made,
        # so the step peaks as the unfrozen one does, not 64 MiB above it
        assert archdsl.parse(archdsl.resolve_arch("M3"), (3, 32, 32)).layers[11].kind == "fc"
        assert self.m3_step_peak(frozen=(11,)) <= self.m3_step_peak() + 2 * 2**20


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

    @pytest.mark.parametrize("n, batch_size, sizes", [
        (320, 256, [64] * 5),
        (200, 256, [64, 64, 72]),
        (53, 256, [53]),
        (127, 256, [127]),
        (128, 256, [64, 64]),
        (200, 32, [32] * 6 + [8]),
    ])
    def test_runs_are_forwarded_in_pieces(self, n, batch_size, sizes, monkeypatch):
        # runs of batch_size in pieces of 64 images; the last piece takes
        # the remainder, so a run under 128 images stays whole
        net = build(archdsl.parse("IMG-FC2-Softmax", (3, 2, 2)), seed=0)
        samples = [Sample(random_batch(1, (3, 2, 2), seed=i), i % 2, f"s{i}")
                   for i in range(n)]
        seen, forward = [], Network.forward

        def recording(self, batch, *args):
            seen.append(batch.dims[0])
            return forward(self, batch, *args)

        monkeypatch.setattr(Network, "forward", recording)
        evaluate(net, samples, batch_size=batch_size)
        assert seen == sizes

    @pytest.mark.parametrize("param, value, message", [
        ("b", np.nan, "evaluation logits are not finite"),
        ("w", 1e308, "evaluation forward: overflow encountered in matmul"),
    ], ids=["nan_bias", "overflowing_weights"])
    def test_non_finite_values_raise(self, param, value, message):
        net = build(archdsl.parse("IMG-FC2-Softmax", (3, 2, 2)), seed=0)
        net.nodes[0].params[param].data[...] = value
        samples = [Sample(Tensor4.new((1, 3, 2, 2), 1.0), 0, f"s{i}") for i in range(3)]
        with np.errstate(all="ignore"), pytest.raises(NumericError, match=f"{message}$"):
            evaluate(net, samples)

    def test_checked_logits_are_the_test_mode_logits(self):
        # the guard evaluate and predict share changes no finite logit
        net = small_net(seed=3)
        x = random_batch(5, seed=2)
        expected = net.forward(x, Mode.TEST).data.reshape(5, 4)
        assert np.array_equal(trainer.checked_logits(net, x), expected)

    @pytest.mark.parametrize("batch_size", [0, -1, -256])
    def test_batch_size_below_one_rejected(self, batch_size):
        net = small_net()
        samples = [Sample(random_batch(n=1, seed=i), 0, f"s{i}") for i in range(3)]
        with pytest.raises(ValueError, match=f"batch_size must be >= 1, got {batch_size}"):
            evaluate(net, samples, batch_size=batch_size)


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

    @pytest.mark.parametrize("dropout_p", [0.2, 0.5])
    def test_dropout_p_survives_save_and_load(self, tmp_path, dropout_p):
        arch = "IMG-FC8-Dropout-FC6-Dropout[p=0.7]-Dropout-FC3"
        net = build(archdsl.parse(arch, (3, 4, 4)), seed=16, dropout_p=dropout_p)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net)
        ck = load_checkpoint(path)
        assert [n.cfg.p for n in ck.net.nodes if n.spec.kind == "dropout"] == \
            [dropout_p, 0.7, dropout_p]
        x = random_batch(3, (3, 4, 4))
        assert net.forward(x).data.tobytes() == ck.net.forward(x).data.tobytes()
        if dropout_p == 0.5:
            # the default p is not written out: the stored arch string is
            # the canonical one, and so are the checkpoint's bytes
            data = path.read_bytes()
            (n,) = struct.unpack_from("<I", data, 12)
            assert data[16:16 + n].decode() == archdsl.render(archdsl.parse(arch, (3, 4, 4)))
            save_checkpoint(tmp_path / "plain.ckpt", build(archdsl.parse(arch, (3, 4, 4)),
                                                           seed=16))
            assert (tmp_path / "plain.ckpt").read_bytes() == data

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
        # a float32 net's file is version 2 and 4 bytes a parameter shorter
        # than the float64 file (version 1) of the same net
        net, net64 = small_net(seed=16, dtype=np.float32), small_net(seed=16)
        path, path64 = tmp_path / "net32.ckpt", tmp_path / "net64.ckpt"
        save_checkpoint(path, net)
        save_checkpoint(path64, net64)
        data, data64 = path.read_bytes(), path64.read_bytes()
        assert struct.unpack_from("<II", data, 4) == (2, 1)
        assert struct.unpack_from("<II", data64, 4) == (1, 0)
        assert len(data64) - len(data) == 4 * net.spec.param_count
        # the guard that the arch's parameters fit in the file reads the
        # stored item size: at 8 bytes a parameter it would refuse this file
        assert 8 * net.spec.param_count > len(data)
        ck = load_checkpoint(path)
        assert ck.net.dtype == np.float32
        for k, p in net.param_dict().items():
            assert np.array_equal(ck.net.param_dict()[k].data, p.data)
        path.write_bytes(data[:-1])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

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

        def fail_on_third(fh, t, stored):
            written.append(t)
            if len(written) == 3:
                raise OSError("disk full")
            write_tensor(fh, t, stored)

        monkeypatch.setattr(trainer, "_write_tensor", fail_on_third)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, small_net(seed=21))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["net.ckpt"]

    def test_adam_key_naming_no_parameter_rejected(self, tmp_path):
        net = small_net(seed=22)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net, AdamState.for_params(net.param_dict()))
        data = path.read_bytes()
        assert data.count(b"3.w") == 1  # the stored key; the arch string has no "3.w"
        path.write_bytes(data.replace(b"3.w", b"3.x"))
        with pytest.raises(CheckpointError, match="'3.x'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("moment", ["m", "v"])
    def test_adam_moments_with_other_dims_rejected(self, tmp_path, moment):
        net = small_net(seed=23)
        state = AdamState.for_params(net.param_dict())
        dims = state.m["0.w"].dims
        getattr(state, moment)["0.w"] = Tensor4(np.zeros((dims[1], dims[0], *dims[2:])))
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net, state)
        with pytest.raises(CheckpointError, match="'0.w'"):
            load_checkpoint(path)

    def test_adam_state_of_frozen_layers_loads(self, tmp_path):
        net = small_net(seed=24)
        state = AdamState.for_params(net.param_dict())
        freeze(net, lambda i, ls: ls.kind == "conv")
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net, state)
        ck = load_checkpoint(path)
        assert ck.net.nodes[0].frozen
        assert sorted(ck.adam_state.m) == sorted(ck.adam_state.v) == sorted(net.param_dict())


class TestVersion1Checkpoint:
    """``data/v1_float32_adam.ckpt`` is a float32 net with Adam state in
    format version 1, which stores every tensor as f8. It was written at
    commit 3c646ae, the last version-1 writer, from the repository root by

        PYTHONPATH=src python -c "
        import numpy as np
        from microvoc.optim import AdamState
        from microvoc.trainer import build, save_checkpoint
        net = build('IMG-(Conv2-ReLU-MaxPool)-(FC8-ReLU-FC2)-Softmax', seed=4,
                    dtype=np.float32, input_dims=(3, 8, 8))
        state = AdamState.for_params(net.param_dict())
        rng = np.random.default_rng(5)
        for t in [*state.m.values(), *state.v.values()]: t.data[...] = rng.random(t.dims)
        state.t = 9
        save_checkpoint('tests/data/v1_float32_adam.ckpt', net, state, iteration=9,
                        alpha=1e-4, class_names=['cat', 'dog'])
        "
    """
    PATH = Path(__file__).parent / "data" / "v1_float32_adam.ckpt"
    #: ``checkpoint_arrays_sha256`` of the file as loaded at commit 3c646ae
    ARRAYS = "bca0bef88fb4084258c31ecc4b01b3de87fce218e2a8cddbfa0bb539e11b079e"

    def test_loads_and_saves_again_as_version_2(self, tmp_path):
        data = self.PATH.read_bytes()
        assert struct.unpack_from("<II", data, 4) == (1, 3)  # float32, Adam state
        ck = load_checkpoint(self.PATH)
        assert ck.net.dtype == np.float32
        assert checkpoint_arrays_sha256(ck) == self.ARRAYS
        path = tmp_path / "v2.ckpt"
        save_checkpoint(path, ck.net, ck.adam_state, iteration=ck.iteration, alpha=ck.alpha,
                        class_names=ck.class_names)
        assert struct.unpack_from("<II", path.read_bytes(), 4) == (2, 3)
        assert len(data) - path.stat().st_size == 4 * ck.net.spec.param_count
        again = load_checkpoint(path)
        assert (again.iteration, again.alpha, again.class_names) == (9, 1e-4, ["cat", "dog"])
        assert again.adam_state.t == ck.adam_state.t == 9
        for key, p in ck.net.param_dict().items():
            assert np.array_equal(again.net.param_dict()[key].data, p.data)
            assert np.array_equal(again.adam_state.m[key].data, ck.adam_state.m[key].data)
            assert np.array_equal(again.adam_state.v[key].data, ck.adam_state.v[key].data)
        assert checkpoint_arrays_sha256(again) == self.ARRAYS


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """The bytes of a 2 KB checkpoint with frozen layers, Adam and scheduler
    state, channel means and class names."""
    net = build(archdsl.parse("IMG-(Conv2-ReLU-MaxPool)-(FC4-ReLU-FC2)-Softmax", (3, 4, 4)),
                seed=1)
    freeze(net, lambda i, ls: ls.kind == "conv")
    state = AdamState.for_params(net.param_dict(trainable_only=True))
    state.t = 5
    path = tmp_path_factory.mktemp("ckpt") / "small.ckpt"
    save_checkpoint(path, net, state, iteration=7, alpha=1e-4,
                    scheduler=PlateauScheduler(SchedulerConfig()),
                    channel_means=np.array([1.0, 2.0, 3.0]), class_names=["cat", "dog"])
    return path.read_bytes()


class TestCorruptCheckpoint:
    @settings(max_examples=300, deadline=None)
    @given(edits=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)),
                          min_size=1, max_size=3),
           cut=st.one_of(st.none(), st.integers(0, 2**16)))
    def test_loads_or_raises_checkpoint_error(self, small_checkpoint, tmp_path_factory,
                                              edits, cut):
        data = bytearray(small_checkpoint)
        for pos, value in edits:
            data[pos % len(data)] = value
        if cut is not None:
            data = data[:cut % len(data)]
        path = tmp_path_factory.getbasetemp() / "corrupt.ckpt"
        path.write_bytes(bytes(data))
        try:
            load_checkpoint(path)
        except CheckpointError:  # VersionError is one
            pass


@pytest.fixture(scope="module")
def big_checkpoint(tmp_path_factory):
    """A float32 net with Adam state whose FC128 weights, 128 x 4096, span
    16 chunks, and the bytes of its checkpoint."""
    net = build(archdsl.parse("IMG-(Conv16-ReLU-MaxPool)-(FC128-ReLU-FC2)-Softmax",
                              (3, 32, 32)), seed=2, dtype=np.float32)
    assert net.param_dict()["3.w"].dims == (128, 4096, 1, 1)
    state = AdamState.for_params(net.param_dict())
    rng = np.random.default_rng(3)
    for moments in (state.m, state.v):
        for t in moments.values():
            t.data[...] = rng.random(t.dims)
    state.t = 9
    path = tmp_path_factory.mktemp("big") / "big.ckpt"
    save_checkpoint(path, net, state)
    return net, state, path.read_bytes()


class TestMultiChunkCheckpoint:
    FC_DIMS = struct.pack("<4I", 128, 4096, 1, 1)  # stored for the weights and both moments
    #: bytes a stored value takes: the float32 weights', then their float64 moments'
    ITEMSIZE = (4, 8, 8)

    def test_save_and_load_need_only_a_few_chunks(self, big_checkpoint, tmp_path):
        net, state, _ = big_checkpoint
        path = tmp_path / "big.ckpt"
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            save_checkpoint(path, net, state)
            save_extra = tracemalloc.get_traced_memory()[1] - start
            tracemalloc.reset_peak()
            ck = load_checkpoint(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a float64 copy of the FC weights alone is 16 chunk buffers
        assert save_extra <= 3 * 8 * CHUNK
        assert peak - kept <= 3 * 8 * CHUNK
        for key, p in net.param_dict().items():
            assert np.array_equal(ck.net.param_dict()[key].data, p.data)
            assert np.array_equal(ck.adam_state.m[key].data, state.m[key].data)
            assert np.array_equal(ck.adam_state.v[key].data, state.v[key].data)

    def dims_at(self, data: bytes, which: int) -> int:
        """Offset of the stored FC128 dims: 0 the weights', 1 and 2 their moments'."""
        assert data.count(self.FC_DIMS) == 3
        at = -1
        for _ in range(which + 1):
            at = data.index(self.FC_DIMS, at + 1)
        return at

    # a cut in a parameter tensor leaves fewer bytes than the arch's
    # parameters need, which the loader checks before building the net
    @pytest.mark.parametrize("which, error", [(0, "more parameters than the file holds"),
                                              (1, "truncated"), (2, "truncated")])
    @pytest.mark.parametrize("chunks", [0, 7, 15])
    def test_cut_inside_the_tensor_rejected(self, big_checkpoint, tmp_path, which, error,
                                            chunks):
        data = big_checkpoint[2]
        start = self.dims_at(data, which) + len(self.FC_DIMS)
        path = tmp_path / "cut.ckpt"
        path.write_bytes(data[:start + self.ITEMSIZE[which] * chunks * CHUNK + 100])
        with pytest.raises(CheckpointError, match=error):
            load_checkpoint(path)

    @pytest.mark.parametrize("which, what", [(0, "3.w"), (1, "m of '3.w'"), (2, "v of '3.w'")])
    def test_other_dims_of_the_same_size_rejected(self, big_checkpoint, tmp_path, which, what):
        data = big_checkpoint[2]
        at = self.dims_at(data, which)
        swapped = struct.pack("<4I", 4096, 128, 1, 1)
        path = tmp_path / "swapped.ckpt"
        path.write_bytes(data[:at] + swapped + data[at + len(swapped):])
        with pytest.raises(CheckpointError, match=f"{what}.*dims"):
            load_checkpoint(path)


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
