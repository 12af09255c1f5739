"""Adam and gradient-clipping contracts."""

import numpy as np
import pytest

from pilot.autodiff import Tensor
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


class TestFusedStep:
    """``Adam.step(grads, max_norm)`` against clip-then-update, bit for bit."""

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
            rng.standard_normal((chunk // 100, 120)),         # re-bound to Fortran order below
        ]
        return [Tensor(d, requires_grad=True) for d in datas]

    def test_50_steps_bit_identical_to_clip_then_update(self):
        rng = np.random.default_rng(0)
        params = self._group(rng)
        assert not params[4].data.flags.c_contiguous and params[5].data.flags.f_contiguous
        ref_params = [p.data.copy() for p in params]
        state = {"t": 0, "m": [np.zeros_like(r) for r in ref_params],
                 "v": [np.zeros_like(r) for r in ref_params]}
        opt = Adam(params, lr=1e-2)
        # moments keep the C order they were made in, unlike the new p.data
        params[8].data = np.asfortranarray(params[8].data)
        max_norm = 5.0
        clipped_steps = 0
        for step in range(50):
            # alternate small and large gradients so some steps clip and some do not
            size = 1e-3 if step % 3 == 0 else 1.0
            grads = [size * rng.standard_normal(p.shape) for p in params]
            grads[5] = np.ascontiguousarray(grads[5])        # layout unlike its parameter
            grads[7] = None if step % 4 == 1 else grads[7]
            ref_grads = list(grads)
            grads[6] = params[6].data                        # the live parameter array
            ref_grads[6] = ref_params[6].copy()
            expected_norm = global_norm(ref_grads)
            clipped_steps += expected_norm > max_norm

            norm = opt.step(grads, max_norm=max_norm)
            _reference_step(state, ref_params, ref_grads, max_norm, lr=1e-2)

            assert norm == expected_norm
            for i, p in enumerate(params):
                assert p.data.tobytes() == ref_params[i].tobytes(), i
                assert opt.m[i].tobytes() == state["m"][i].tobytes()
                assert opt.v[i].tobytes() == state["v"][i].tobytes()
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
            for p, r in zip(params, ref_params):
                assert np.array_equal(p.data, r)

    def test_one_global_norm_call_returns_pre_clip_norm(self, monkeypatch):
        import pilot.optim as optim

        calls = []
        real = optim.global_norm
        monkeypatch.setattr(optim, "global_norm", lambda grads: calls.append(1) or real(grads))
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
