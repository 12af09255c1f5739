"""Adam and gradient-clipping contracts."""

import numpy as np
import pytest

from pilot.autodiff import Tensor
from pilot.nets import ClassifierSpec, build_classifier
from pilot.optim import Adam, clip_gradients, global_norm


def _adam_recurrence(p0, grad_fn, steps, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Independent scalar Adam recurrence, run directly in numpy."""
    p = np.array(p0, dtype=float)
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    trajectory = [p.copy()]
    for t in range(1, steps + 1):
        g = grad_fn(p)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p = p - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        trajectory.append(p.copy())
    return trajectory


class TestAdam:
    def test_first_step_is_signed_lr(self):
        p = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        opt = Adam([p], lr=0.1)
        opt.step([np.array([0.5, -0.25, 4.0])])
        np.testing.assert_allclose(p.data, [1.0 - 0.1, -2.0 + 0.1, 3.0 - 0.1], atol=1e-7)

    def test_zero_gradient_leaves_params_unchanged(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        opt = Adam([p], lr=0.1)
        opt.step([np.zeros(2)])
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_none_gradient_treated_as_zero(self):
        p = Tensor([1.0], requires_grad=True)
        Adam([p], lr=0.1).step([None])
        np.testing.assert_array_equal(p.data, [1.0])

    def test_quadratic_200_steps_matches_recurrence(self):
        # Independent oracle: the scalar recurrence run directly.
        oracle = _adam_recurrence([3.0, -4.0], lambda p: p, steps=200, lr=0.05)
        p = Tensor([3.0, -4.0], requires_grad=True)
        opt = Adam([p], lr=0.05)
        trajectory = [p.data.copy()]
        for _ in range(200):
            opt.step([p.data.copy()])   # gradient of 0.5*||p||^2 is p
            trajectory.append(p.data.copy())
        for ours, ref in zip(trajectory, oracle):
            np.testing.assert_allclose(ours, ref, atol=1e-12)
        norms = np.array([np.linalg.norm(q) for q in trajectory])
        assert np.all(np.diff(norms[10:]) <= 1e-12), "norm must decrease after warmup"
        assert norms[-1] < 0.05 * norms[0]

    def test_invalid_lr(self):
        with pytest.raises(ValueError, match="learning rate"):
            Adam([Tensor([1.0], requires_grad=True)], lr=0.0)
        with pytest.raises(ValueError, match="learning rate"):
            Adam([Tensor([1.0], requires_grad=True)], lr=-1e-3)

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(42)
            p = Tensor(rng.standard_normal(16), requires_grad=True)
            opt = Adam([p], lr=1e-2)
            for _ in range(50):
                opt.step([rng.standard_normal(16)])
            return p.data.tobytes()

        assert run() == run()


class TestClipGradients:
    def test_norm_above_cap_scales(self):
        grads = [np.array([6.0, 8.0])]           # norm 10
        clipped = clip_gradients(grads, 5.0)
        np.testing.assert_allclose(clipped[0], [3.0, 4.0])
        np.testing.assert_allclose(global_norm(clipped), 5.0)

    def test_norm_below_cap_unchanged(self):
        grads = [np.array([1.8, 2.4])]           # norm 3
        clipped = clip_gradients(grads, 5.0)
        np.testing.assert_array_equal(clipped[0], grads[0])

    def test_three_four_five(self):
        clipped = clip_gradients([np.array([3.0, 4.0])], 1.0)
        np.testing.assert_allclose(clipped[0], [0.6, 0.8])

    def test_direction_preserved_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            grads = [rng.standard_normal(7), rng.standard_normal(3)]
            cap = float(rng.uniform(0.1, 2.0))
            clipped = clip_gradients(grads, cap)
            assert global_norm(clipped) <= cap + 1e-12
            flat_a = np.concatenate(grads)
            flat_b = np.concatenate(clipped)
            cos = flat_a @ flat_b / (np.linalg.norm(flat_a) * np.linalg.norm(flat_b))
            assert cos > 1.0 - 1e-12

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError, match="max_norm"):
            clip_gradients([np.ones(3)], 0.0)

    def test_none_entries_pass_through(self):
        clipped = clip_gradients([np.array([30.0, 40.0]), None], 5.0)
        assert clipped[1] is None
        np.testing.assert_allclose(clipped[0], [3.0, 4.0])


class TestGlobalNorm:
    def test_matches_sum_of_squares(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((40, 30))
        grads = [
            None,
            np.array(-2.5),                         # 0-d
            base.T,                                 # transposed view
            base[::2, 1:],                          # strided view
            1e3 * rng.standard_normal(7),
            np.zeros((3, 0)),                       # empty
            np.asfortranarray(rng.standard_normal((5, 6))),
        ]
        assert not grads[2].flags.c_contiguous and not grads[3].flags.c_contiguous
        expected = np.sqrt(sum(np.sum(g ** 2) for g in grads if g is not None))
        assert abs(global_norm(grads) - expected) <= 1e-13 * expected

    def test_row_counts_weigh_a_table_as_the_weight_it_stands_for(self):
        rng = np.random.default_rng(4)
        table, sizes = rng.standard_normal((4, 6)), np.array([3.0, 1.0, 0.0, 7.0])
        other = rng.standard_normal(5)
        dense = np.repeat(table, sizes.astype(int), axis=0)
        expected = global_norm([other, dense, None])
        assert abs(global_norm([other, table, None], [None, sizes, sizes]) - expected) <= 1e-13 * expected
        assert global_norm([other, table], [None, None]) == global_norm([other, table])

    def test_adam_needs_a_row_count_per_parameter(self):
        with pytest.raises(ValueError, match="row counts"):
            Adam([Tensor([1.0], requires_grad=True)], lr=0.1, rows=[None, None])

    def test_no_gradients_is_zero(self):
        assert global_norm([None, None]) == 0.0
        assert global_norm([]) == 0.0


def _reference_step(state, params, grads, max_norm, lr, b1=0.9, b2=0.999, eps=1e-8):
    """clip_gradients followed by the textbook out-of-place Adam update."""
    clipped = clip_gradients(grads, max_norm)
    state["t"] += 1
    bc1 = 1.0 - b1 ** state["t"]
    bc2 = 1.0 - b2 ** state["t"]
    for i, g in enumerate(clipped):
        if g is None:
            g = np.zeros_like(params[i])
        state["m"][i] = b1 * state["m"][i] + (1.0 - b1) * g
        state["v"][i] = b2 * state["v"][i] + (1.0 - b2) * (g * g)
        m_hat = state["m"][i] / bc1
        v_hat = state["v"][i] / bc2
        params[i] = params[i] - lr * m_hat / (np.sqrt(v_hat) + eps)


# Adam.step's folded form agrees with clip-then-update up to reassociation: each
# array within this share of its largest magnitude (max-norm relative error).
FOLD_RTOL = 1e-12


def assert_folded_close(actual, expected, what=""):
    scale = np.max(np.abs(expected), initial=0.0)
    err = np.max(np.abs(np.asarray(actual) - expected), initial=0.0)
    assert err <= FOLD_RTOL * scale, f"{what}: max error {err:.3g} against scale {scale:.3g}"


class TestFusedStep:
    """``Adam.step(grads, max_norm)`` against clip-then-update, within
    ``FOLD_RTOL``. Adam copies its parameters into its own C-order buffer, so
    the group's layouts matter only for the gradients it reads."""

    def _group(self, rng):
        chunk = Adam.chunk
        datas = [
            rng.standard_normal(()),                          # 0-d
            rng.standard_normal(5),                           # below the chunk size
            rng.standard_normal(chunk),                       # exactly one chunk
            rng.standard_normal((3, chunk // 2 + 7)),         # spills into a second chunk
            rng.standard_normal((chunk // 4 + 1, 9)).T,       # transposed view, > chunk
            np.asfortranarray(rng.standard_normal((chunk // 100, 120))),  # Fortran order
            rng.standard_normal((6, 4)),                      # gradient is p.data itself
            rng.standard_normal(11),                          # gradient sometimes None
        ]
        return [Tensor(d, requires_grad=True) for d in datas]

    def test_50_steps_match_clip_then_update(self):
        rng = np.random.default_rng(0)
        params = self._group(rng)
        assert not params[4].data.flags.c_contiguous and params[5].data.flags.f_contiguous
        ref_params = [p.data.copy() for p in params]
        state = {"t": 0, "m": [np.zeros_like(r) for r in ref_params],
                 "v": [np.zeros_like(r) for r in ref_params]}
        opt = Adam(params, lr=1e-2)
        max_norm = 5.0
        clipped_steps = 0
        for step in range(50):
            # alternate small and large gradients so some steps clip and some do not
            size = 1e-3 if step % 3 == 0 else 1.0
            grads = [size * rng.standard_normal(p.shape) for p in params]
            grads[4] = np.asfortranarray(grads[4])           # layout unlike its parameter
            grads[7] = None if step % 4 == 1 else grads[7]
            ref_grads = list(grads)
            grads[6] = params[6].data                        # the live parameter array
            ref_grads[6] = ref_params[6].copy()
            own_norm = global_norm(grads)
            expected_norm = global_norm(ref_grads)
            clipped_steps += expected_norm > max_norm

            norm = opt.step(grads, max_norm=max_norm)
            _reference_step(state, ref_params, ref_grads, max_norm, lr=1e-2)

            assert norm == own_norm
            assert abs(norm - expected_norm) <= FOLD_RTOL * expected_norm
            for i, p in enumerate(params):
                assert_folded_close(p.data, ref_params[i], f"p[{i}]")
                assert_folded_close(opt.m[i], state["m"][i], f"m[{i}]")
                assert_folded_close(opt.v[i], state["v"][i], f"v[{i}]")
        assert 0 < clipped_steps < 50

    def test_without_max_norm_matches_plain_update(self):
        rng = np.random.default_rng(1)
        params = self._group(rng)
        ref_params = [p.data.copy() for p in params]
        state = {"t": 0, "m": [np.zeros_like(r) for r in ref_params],
                 "v": [np.zeros_like(r) for r in ref_params]}
        opt = Adam(params, lr=1e-3)
        for _ in range(5):
            grads = [100.0 * rng.standard_normal(p.shape) for p in params]
            assert opt.step(grads) is None
            _reference_step(state, ref_params, grads, np.inf, lr=1e-3)
            for i, (p, r) in enumerate(zip(params, ref_params)):
                assert_folded_close(p.data, r, f"p[{i}]")

    def test_one_global_norm_call_returns_pre_clip_norm(self, monkeypatch):
        import pilot.optim as optim

        calls = []
        real = optim.global_norm
        monkeypatch.setattr(optim, "global_norm", lambda *args: calls.append(1) or real(*args))
        p = Tensor(np.zeros(2), requires_grad=True)
        opt = Adam([p], lr=0.1)
        assert opt.step([np.array([30.0, 40.0])], max_norm=5.0) == 50.0
        assert len(calls) == 1
        assert opt.step([np.array([0.3, 0.4])], max_norm=5.0) == 0.5
        assert len(calls) == 2
        opt.step([np.array([0.3, 0.4])])
        assert len(calls) == 2

    def test_in_place_contract(self):
        rng = np.random.default_rng(2)
        p = Tensor(rng.standard_normal((4, Adam.chunk // 3)), requires_grad=True)
        opt = Adam([p], lr=0.1)
        data, m, v = p.data, opt.m[0], opt.v[0]
        g = 10.0 * rng.standard_normal(p.shape)
        g_before = g.copy()
        opt.step([g], max_norm=1.0)
        assert p.data is data and opt.m[0] is m and opt.v[0] is v
        assert opt.state_arrays()["adam.m.0"] is m
        np.testing.assert_array_equal(g, g_before)         # gradients are only read

    def test_invalid_max_norm(self):
        opt = Adam([Tensor([1.0], requires_grad=True)], lr=0.1)
        with pytest.raises(ValueError, match="max_norm"):
            opt.step([np.ones(1)], max_norm=0.0)
        assert opt.t == 0


class TestFlatLayout:
    """Adam keeps its group's parameters and moments in flat C-order buffers,
    one view per parameter in registration order."""

    def test_parameters_are_views_of_one_buffer_in_order(self):
        rng = np.random.default_rng(5)
        datas = [rng.standard_normal((3, 4)), rng.standard_normal(()),
                 np.asfortranarray(rng.standard_normal((5, 2))), rng.standard_normal(7)]
        params = [Tensor(d, requires_grad=True) for d in datas]
        opt = Adam(params, lr=0.1)
        for arrays in ([p.data for p in params], opt.m, opt.v):
            assert len({id(a.base) for a in arrays}) == 1
            base = arrays[0].base
            assert base.ndim == 1 and base.size == sum(d.size for d in datas)
            offset = 0
            for a, d in zip(arrays, datas):
                assert a.shape == d.shape and a.flags.c_contiguous
                assert np.shares_memory(a, base[offset : offset + d.size])
                offset += d.size
        for p, d in zip(params, datas):
            np.testing.assert_array_equal(p.data, d)

    def test_spanning_chunks_0d_and_none_match_textbook(self, monkeypatch):
        monkeypatch.setattr(Adam, "chunk", 8)      # every chunk spans tensors
        rng = np.random.default_rng(6)
        shapes = [(), (3,), (2, 5), (1,), (4, 4), (2,)]
        params = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
        ref_params = [p.data.copy() for p in params]
        state = {"t": 0, "m": [np.zeros_like(r) for r in ref_params],
                 "v": [np.zeros_like(r) for r in ref_params]}
        opt = Adam(params, lr=1e-2)
        assert any(len(pieces) > 1 for _, _, pieces in opt._plan)
        for step in range(30):
            grads = [rng.standard_normal(s) for s in shapes]
            grads[2 + step % 3] = None
            grads[0] = None if step % 2 else grads[0]
            opt.step(grads, max_norm=2.0)
            _reference_step(state, ref_params, grads, 2.0, lr=1e-2)
            for i, p in enumerate(params):
                assert_folded_close(p.data, ref_params[i], f"p[{i}]")
                assert_folded_close(opt.m[i], state["m"][i], f"m[{i}]")
                assert_folded_close(opt.v[i], state["v"][i], f"v[{i}]")

    def test_mixed_dtypes_refused(self):
        a, b = Tensor(np.ones(3), requires_grad=True), Tensor(np.ones(2), requires_grad=True)
        b.data = b.data.astype(np.float32)
        with pytest.raises(ValueError, match="mixes dtypes float32, float64"):
            Adam([a, b], lr=0.1)

    def test_float32_group_keeps_its_dtype(self):
        p = Tensor(np.ones(3), requires_grad=True)
        p.data = p.data.astype(np.float32)
        opt = Adam([p], lr=0.1)
        opt.step([np.ones(3, np.float32)])
        assert p.data.dtype == opt.m[0].dtype == opt.v[0].dtype == np.float32
        np.testing.assert_allclose(p.data, 0.9, rtol=1e-6)

    def test_rebound_parameter_refused(self):
        p = Tensor(np.ones(3), requires_grad=True)
        opt = Adam([p], lr=0.1)
        p.data = np.zeros(3)
        with pytest.raises(ValueError, match="parameter 0's data was rebound"):
            opt.step([np.ones(3)])

    def test_gradient_size_checked(self):
        opt = Adam([Tensor(np.ones(3), requires_grad=True)], lr=0.1)
        with pytest.raises(ValueError, match="gradient 0 has 2 values"):
            opt.step([np.ones(2)])

    def test_loaded_state_stays_in_the_buffer(self):
        spec = ClassifierSpec(kind="mlp", input_shape=(4,), num_classes=3, hidden=(5,))
        clf = build_classifier(spec, np.random.default_rng(0))
        opt = Adam(clf.parameters(), lr=0.1)
        views = [p.data for p in clf.parameters()]
        state = build_classifier(spec, np.random.default_rng(1)).state_arrays()
        clf.load_state(state)
        for p, view, name in zip(clf.parameters(), views, state):
            assert p.data is view
            np.testing.assert_array_equal(p.data, state[name])
        opt.step([np.ones(p.shape) for p in clf.parameters()])
        for p, name in zip(clf.parameters(), state):
            np.testing.assert_allclose(p.data, state[name] - 0.1, atol=1e-7)   # the loaded values move
