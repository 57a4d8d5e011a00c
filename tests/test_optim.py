import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microvoc.errors import ShapeError, StateError
from microvoc.optim import (
    CHUNK,
    MAX_STEPS,
    AdamConfig,
    AdamState,
    PlateauScheduler,
    SchedulerConfig,
    adam_step,
    apply_l2,
    chunks,
)
from microvoc.tensor import Tensor4


def scalar(v):
    return Tensor4(np.array([[[[float(v)]]]]))


def reference_adam(w, grads, cfg):
    """Independent scalar walk of the update equations."""
    m = v = 0.0
    t = 0
    for g in grads:
        t += 1
        m = cfg.beta1 * m + (1 - cfg.beta1) * g
        v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
        alpha_t = cfg.alpha * math.sqrt(1 - cfg.beta2 ** t) / (1 - cfg.beta1 ** t)
        w = w - alpha_t * m / (math.sqrt(v) + cfg.epsilon)
    return w, m, v


class TestAdamStep:
    def test_first_step_hand_values(self):
        cfg = AdamConfig()
        params = {"w": scalar(1.0)}
        state = AdamState.for_params(params)
        adam_step(params, {"w": scalar(1.0)}, state, cfg)
        assert state.t == 1
        assert abs(state.m["w"].data.reshape(()) - 0.1) < 1e-15
        assert abs(state.v["w"].data.reshape(()) - 0.001) < 1e-15
        update = 1.0 - params["w"].data.reshape(())
        # first-step magnitude is alpha up to the epsilon perturbation
        assert abs(update - cfg.alpha) < 1e-6
        assert abs(params["w"].data.reshape(()) - 0.9999) < 1e-6

    def test_two_steps_match_reference(self):
        cfg = AdamConfig()
        params = {"w": scalar(1.0)}
        state = AdamState.for_params(params)
        adam_step(params, {"w": scalar(1.0)}, state, cfg)
        adam_step(params, {"w": scalar(1.0)}, state, cfg)
        expected, m, v = reference_adam(1.0, [1.0, 1.0], cfg)
        assert abs(params["w"].data.reshape(()) - expected) < 1e-10
        assert abs(state.m["w"].data.reshape(()) - m) < 1e-10
        assert abs(state.v["w"].data.reshape(()) - v) < 1e-10

    def test_zero_gradient_fresh_state(self):
        params = {"w": scalar(3.0)}
        state = AdamState.for_params(params)
        adam_step(params, {"w": scalar(0.0)}, state, AdamConfig())
        assert params["w"].data.reshape(()) == 3.0
        assert np.all(state.m["w"].data == 0)
        assert np.all(state.v["w"].data == 0)

    def test_joint_step_equals_independent(self):
        cfg = AdamConfig()
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((1, 2, 1, 3)), rng.standard_normal((2, 1, 2, 2))
        ga, gb = rng.standard_normal(a.shape), rng.standard_normal(b.shape)

        joint = {"a": Tensor4(a.copy()), "b": Tensor4(b.copy())}
        js = AdamState.for_params(joint)
        adam_step(joint, {"a": Tensor4(ga), "b": Tensor4(gb)}, js, cfg)

        solo_a = {"a": Tensor4(a.copy())}
        sa = AdamState.for_params(solo_a)
        adam_step(solo_a, {"a": Tensor4(ga)}, sa, cfg)
        solo_b = {"b": Tensor4(b.copy())}
        sb = AdamState.for_params(solo_b)
        adam_step(solo_b, {"b": Tensor4(gb)}, sb, cfg)

        assert np.array_equal(joint["a"].data, solo_a["a"].data)
        assert np.array_equal(joint["b"].data, solo_b["b"].data)

    def test_gradient_scale_invariance_at_t1(self):
        # with epsilon -> 0, m/sqrt(v) is scale-free for constant gradients
        base = None
        for c in (0.1, 1.0, 10.0):
            cfg = AdamConfig(epsilon=1e-300)
            params = {"w": scalar(1.0)}
            state = AdamState.for_params(params)
            adam_step(params, {"w": scalar(c)}, state, cfg)
            step = 1.0 - params["w"].data.reshape(())
            if base is None:
                base = step
            assert abs(step - base) / abs(base) < 1e-6

    def test_step_magnitude_bounded_for_constant_gradient(self):
        cfg = AdamConfig()
        params = {"w": scalar(0.0)}
        state = AdamState.for_params(params)
        prev = 0.0
        for t in range(1, 1001):
            adam_step(params, {"w": scalar(2.5)}, state, cfg)
            cur = params["w"].data.reshape(())
            assert abs(cur - prev) <= 2 * cfg.alpha
            prev = cur

    def test_bit_identical_determinism(self):
        cfg = AdamConfig()
        rng = np.random.default_rng(1)
        w0 = rng.standard_normal((2, 3, 2, 2))
        g = rng.standard_normal(w0.shape)
        results = []
        for _ in range(2):
            params = {"w": Tensor4(w0.copy())}
            state = AdamState.for_params(params)
            for _ in range(10):
                adam_step(params, {"w": Tensor4(g.copy())}, state, cfg)
            results.append(params["w"].data.copy())
        assert np.array_equal(results[0], results[1])

    def test_shape_mismatch_rejected(self):
        params = {"w": scalar(1.0)}
        state = AdamState.for_params(params)
        with pytest.raises(ShapeError):
            adam_step(params, {"w": Tensor4.new((1, 1, 1, 2), 0.0)}, state, AdamConfig())

    def test_missing_grad_rejected(self):
        params = {"w": scalar(1.0)}
        with pytest.raises(ShapeError):
            adam_step(params, {}, AdamState.for_params(params), AdamConfig())

    def test_step_counter_exhaustion(self):
        params = {"w": scalar(1.0)}
        state = AdamState.for_params(params)
        state.t = MAX_STEPS
        with pytest.raises(StateError):
            adam_step(params, {"w": scalar(1.0)}, state, AdamConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdamConfig(beta1=1.0)
        with pytest.raises(ValueError):
            AdamConfig(alpha=0.0)
        with pytest.raises(ValueError):
            AdamConfig(lam=-1.0)


def snapshot(params, state):
    arrays = {f"param {k}": p.data for k, p in params.items()}
    arrays.update({f"m {k}": m.data for k, m in state.m.items()})
    arrays.update({f"v {k}": v.data for k, v in state.v.items()})
    return state.t, {name: a.tobytes() for name, a in arrays.items()}


def test_rejected_step_changes_nothing():
    # every case passes each check on tensor "a" and fails one on "b"
    rng = np.random.default_rng(4)
    params = {"a": Tensor4(rng.standard_normal((2, 3, 1, 1))),
              "b": Tensor4(rng.standard_normal((1, 1, 2, 2)).astype(np.float32))}
    grads = {k: Tensor4(rng.standard_normal(p.dims)) for k, p in params.items()}
    bad_grads = dict(grads, b=Tensor4(np.ones((1, 1, 1, 3))))
    stale = AdamState.for_params(params)
    stale.v["b"] = Tensor4(np.zeros((1, 1, 1, 4)))
    frozen = dict(params, b=params["b"].copy())
    frozen["b"].data.flags.writeable = False
    cases = {
        "grad dims": (params, bad_grads, AdamState.for_params(params), ShapeError),
        "grad dims, no moments yet": (params, bad_grads, AdamState(), ShapeError),
        "second-moment dims": (params, grads, stale, ShapeError),
        "read-only param": (frozen, grads, AdamState.for_params(params), StateError),
    }
    for name, (ps, gs, state, error) in cases.items():
        state.t = 5
        before = snapshot(ps, state)
        with pytest.raises(error):
            adam_step(ps, gs, state, AdamConfig())
        assert snapshot(ps, state) == before, name


def whole_array_l2(params, grads, lam):
    """The whole-array apply_l2 the chunked one must reproduce bit for bit."""
    penalty = 0.0
    for key, p in params.items():
        if key.endswith(".b"):
            continue
        w = p.data
        penalty += lam * float(np.dot(w.ravel(), w.ravel()))
        grads[key].data += (2.0 * lam * w).astype(grads[key].data.dtype, copy=False)
    return penalty


def whole_array_adam(params, grads, moments, t, cfg):
    """The whole-array adam_step the chunked one must reproduce bit for bit."""
    alpha_t = cfg.alpha * math.sqrt(1.0 - cfg.beta2**t) / (1.0 - cfg.beta1**t)
    for key, p in params.items():
        m, v = moments[key]
        gd = grads[key].data.astype(np.float64, copy=False)
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * gd
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * (gd * gd)
        update = alpha_t * m / (np.sqrt(v) + cfg.epsilon)
        p.data -= update.astype(p.data.dtype, copy=False)


CHUNK_EDGE_SIZES = (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7)


@settings(max_examples=30, deadline=None)
@given(sizes=st.lists(st.sampled_from(CHUNK_EDGE_SIZES), min_size=1, max_size=3),
       dtype=st.sampled_from([np.float32, np.float64]),
       lazy_state=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_chunked_updates_match_whole_array(sizes, dtype, lazy_state, seed):
    rng = np.random.default_rng(seed)
    cfg, lam = AdamConfig(), 5e-4
    shapes = [(size, 1, 1, 1) if i % 2 else (1, 1, 1, size) for i, size in enumerate(sizes)]
    names = [f"{i}.{'b' if i == 2 else 'w'}" for i in range(len(shapes))]
    start = {k: rng.standard_normal(s).astype(dtype) for k, s in zip(names, shapes)}
    params = {k: Tensor4(w.copy()) for k, w in start.items()}
    ref_params = {k: Tensor4(w.copy()) for k, w in start.items()}
    state = AdamState() if lazy_state else AdamState.for_params(params)
    ref_moments = {k: (np.zeros(w.shape), np.zeros(w.shape)) for k, w in start.items()}
    for t in range(1, 4):
        grads = {}
        for k, w in start.items():
            g = rng.standard_normal(w.shape) * 10.0 ** rng.integers(-6, 3)
            flat = g.reshape(-1)
            flat[rng.random(flat.size) < 0.1] = 0.0
            flat[rng.random(flat.size) < 0.1] = -0.0
            grads[k] = g.astype(dtype)
        chunked = {k: Tensor4(g.copy()) for k, g in grads.items()}
        whole = {k: Tensor4(g.copy()) for k, g in grads.items()}
        penalty = apply_l2(params, chunked, lam)
        assert penalty == whole_array_l2(ref_params, whole, lam)
        adam_step(params, chunked, state, cfg)
        whole_array_adam(ref_params, whole, ref_moments, t, cfg)
        assert state.t == t
        for k in start:
            assert chunked[k].data.tobytes() == whole[k].data.tobytes()
            assert params[k].data.tobytes() == ref_params[k].data.tobytes()
            assert state.m[k].data.tobytes() == ref_moments[k][0].tobytes()
            assert state.v[k].data.tobytes() == ref_moments[k][1].tobytes()


@pytest.mark.parametrize("size", CHUNK_EDGE_SIZES)
@pytest.mark.parametrize("src", [np.float32, np.float64])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_chunks_tile_the_flat_view(size, src, dtype):
    arr = np.arange(size, dtype=src).reshape(1, 1, 1, size)
    walked = list(chunks(arr, dtype))
    assert [lo for lo, _, _ in walked] == list(range(0, size, CHUNK))
    assert np.array_equal(np.concatenate([piece for _, piece, _ in walked]), arr.ravel())
    for lo, piece, buf in walked:
        assert np.shares_memory(piece, arr) and piece[0] == lo
        assert buf.dtype == dtype and buf.size == piece.size
        if src == dtype:
            assert buf is piece
        else:
            assert buf.base is walked[0][2].base and buf.base.size <= CHUNK


def test_l2_and_adam_need_only_a_few_chunks():
    """No full-size temporaries: on float32 params spanning 16 chunks the
    scratch buffers, not the tensors, set the peak."""
    rng = np.random.default_rng(5)
    params = {"0.w": Tensor4(rng.standard_normal((16 * CHUNK, 1, 1, 1)).astype(np.float32)),
              "0.b": Tensor4(rng.standard_normal((1, 40, 1, 1)).astype(np.float32))}
    grads = {k: Tensor4(rng.standard_normal(p.dims).astype(np.float32))
             for k, p in params.items()}
    state = AdamState.for_params(params)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        apply_l2(params, grads, 5e-4)
        adam_step(params, grads, state, AdamConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a float64 copy of the weights or their gradient alone is 16 chunk buffers
    assert peak - start <= 5 * 8 * CHUNK


class TestApplyL2:
    def test_lambda_zero_noop(self):
        params = {"w": scalar(3.0)}
        grads = {"w": scalar(1.0)}
        assert apply_l2(params, grads, 0.0) == 0.0
        assert grads["w"].data.reshape(()) == 1.0

    def test_single_weight_by_hand(self):
        # d/dW of lam*W^2 is 2*lam*W = 3; penalty 0.5 * 9 = 4.5
        params = {"w": scalar(3.0)}
        grads = {"w": scalar(1.0)}
        penalty = apply_l2(params, grads, 0.5)
        assert penalty == 4.5
        assert grads["w"].data.reshape(()) == 4.0

    def test_biases_untouched(self):
        params = {"0.w": scalar(3.0), "0.b": scalar(5.0)}
        grads = {"0.w": scalar(0.0), "0.b": scalar(0.0)}
        penalty = apply_l2(params, grads, 1.0)
        assert penalty == 9.0
        assert grads["0.b"].data.reshape(()) == 0.0
        assert grads["0.w"].data.reshape(()) == 6.0

    def test_include_biases_flag(self):
        params = {"0.w": scalar(3.0), "0.b": scalar(5.0)}
        grads = {"0.w": scalar(0.0), "0.b": scalar(0.0)}
        penalty = apply_l2(params, grads, 1.0, include_biases=True)
        assert penalty == 34.0
        assert grads["0.b"].data.reshape(()) == 10.0

    def test_penalty_matches_finite_difference(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((2, 2, 3, 3))
        lam, eps = 0.37, 1e-6

        def penalty_at(arr):
            return apply_l2({"w": Tensor4(arr)}, {}, lam)

        grad_fd = np.zeros_like(w)
        flat = w.reshape(-1)
        gflat = grad_fd.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = penalty_at(w)
            flat[i] = orig - eps
            lo = penalty_at(w)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * eps)
        analytic = 2 * lam * w
        rel = np.abs(analytic - grad_fd) / np.maximum(1e-8, np.abs(analytic) + np.abs(grad_fd))
        assert rel.max() < 1e-6


class TestPlateauScheduler:
    def test_improving_sequence_keeps_alpha(self):
        sched = PlateauScheduler(SchedulerConfig(patience=2))
        alpha = 1e-4
        for acc in (0.50, 0.60, 0.70):
            alpha = sched.observe(acc, alpha)
        assert alpha == 1e-4

    def test_stalled_sequence_drops_after_patience(self):
        sched = PlateauScheduler(SchedulerConfig(patience=2, min_delta=0.001))
        alpha = 1e-4
        alphas = []
        for acc in (0.70, 0.70, 0.70):
            alpha = sched.observe(acc, alpha)
            alphas.append(alpha)
        assert alphas == [1e-4, 1e-4, 1e-5]

    def test_exactly_one_drop_per_patience_window(self):
        sched = PlateauScheduler(SchedulerConfig(patience=2, min_delta=0.001))
        a0 = 1e-4
        a1, a2, a3 = a0 / 10, a0 / 10 / 10, a0 / 10 / 10 / 10
        alpha = a0
        alphas = []
        for _ in range(7):
            alpha = sched.observe(0.70, alpha)
            alphas.append(alpha)
        assert alphas == [a0, a0, a1, a1, a2, a2, a3]

    def test_floor_clamp(self):
        sched = PlateauScheduler(SchedulerConfig(patience=1, floor=1e-6))
        alpha = 1e-5
        for _ in range(10):
            alpha = sched.observe(0.5, alpha)
        assert alpha == 1e-6

    def test_never_increases(self):
        rng = np.random.default_rng(3)
        sched = PlateauScheduler(SchedulerConfig(patience=2))
        alpha = 1e-4
        for _ in range(50):
            new = sched.observe(float(rng.random()), alpha)
            assert new <= alpha
            alpha = new

    def test_training_loss_metric_direction(self):
        sched = PlateauScheduler(SchedulerConfig(metric="train_loss", patience=1,
                                                 min_delta=0.01))
        alpha = 1e-4
        alpha = sched.observe(1.0, alpha)   # baseline
        alpha = sched.observe(0.5, alpha)   # improved (lower)
        assert alpha == 1e-4
        alpha = sched.observe(0.5, alpha)   # stalled
        assert alpha == 1e-5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SchedulerConfig(metric="loss")
        with pytest.raises(ValueError):
            SchedulerConfig(patience=0)
        with pytest.raises(ValueError):
            SchedulerConfig(factor=1.0)
        with pytest.raises(ValueError):
            SchedulerConfig(floor=0.0)
        with pytest.raises(ValueError):
            SchedulerConfig(min_delta=-1e-3)
