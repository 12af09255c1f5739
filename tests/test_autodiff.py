"""Gradient and contract checks for the autodiff primitives."""

import numpy as np
import pytest

from pilot import autodiff as ad
from pilot.autodiff import PRIMITIVES, NumericsError, ShapeError, Tensor

from helpers import check_gradients

REQUIRED_OPS = {
    "add", "sub", "mul", "div", "matmul", "conv2d", "relu", "exp", "log",
    "sum", "mean", "square", "sqrt", "softmax", "concat", "narrow", "reshape",
    "where", "stop_gradient",
}


def test_primitive_registry_covers_required_set():
    assert REQUIRED_OPS <= set(PRIMITIVES)


def _param(rng, *shape, positive=False):
    data = rng.standard_normal(shape)
    if positive:
        data = np.abs(data) + 0.5
    return Tensor(data, requires_grad=True)


class TestPrimitiveGradients:
    """Every primitive against central finite differences, 20 random draws."""

    N_INSTANCES = 20

    def _run(self, make_case, positive=False, tol=1e-4):
        rng = np.random.default_rng(1234)
        for _ in range(self.N_INSTANCES):
            params, build = make_case(rng)
            check_gradients(build, params, tol=tol)

    def test_add_broadcast(self):
        def case(rng):
            a = _param(rng, 3, 4)
            b = _param(rng, 4)
            return [a, b], lambda: ad.add(a, b).sum()
        self._run(case)

    def test_sub(self):
        def case(rng):
            a, b = _param(rng, 2, 5), _param(rng, 2, 5)
            return [a, b], lambda: ad.sub(a, b).mean()
        self._run(case)

    def test_mul(self):
        def case(rng):
            a, b = _param(rng, 4, 3), _param(rng, 4, 3)
            return [a, b], lambda: ad.mul(a, b).sum()
        self._run(case)

    def test_div(self):
        def case(rng):
            a = _param(rng, 3, 3)
            b = _param(rng, 3, 3, positive=True)
            return [a, b], lambda: ad.div(a, b).sum()
        self._run(case)

    def test_matmul(self):
        def case(rng):
            a, b = _param(rng, 3, 4), _param(rng, 4, 2)
            return [a, b], lambda: ad.matmul(a, b).sum()
        self._run(case)

    def test_conv2d(self):
        def case(rng):
            x = _param(rng, 2, 2, 5, 5)
            w = _param(rng, 3, 2, 3, 3)
            return [x, w], lambda: ad.conv2d(x, w).sum()
        self._run(case)

    def test_conv2d_padded(self):
        def case(rng):
            x = _param(rng, 1, 2, 4, 4)
            w = _param(rng, 2, 2, 3, 3)
            return [x, w], lambda: ad.square(ad.conv2d(x, w, padding=1)).mean()
        self._run(case)

    def test_max_pool2d(self):
        def case(rng):
            x = _param(rng, 2, 3, 4, 4)
            return [x], lambda: ad.square(ad.max_pool2d(x, 2)).sum()
        self._run(case)

    def test_relu(self):
        def case(rng):
            x = _param(rng, 4, 4)
            return [x], lambda: ad.relu(x).sum()
        self._run(case)

    def test_exp(self):
        def case(rng):
            x = _param(rng, 3, 3)
            return [x], lambda: ad.exp(x).sum()
        self._run(case)

    def test_log(self):
        def case(rng):
            x = _param(rng, 3, 3, positive=True)
            return [x], lambda: ad.log(x).sum()
        self._run(case)

    def test_square(self):
        def case(rng):
            x = _param(rng, 5)
            return [x], lambda: ad.square(x).sum()
        self._run(case)

    def test_sqrt(self):
        def case(rng):
            x = _param(rng, 5, positive=True)
            return [x], lambda: ad.sqrt(x).sum()
        self._run(case)

    def test_sum_axis(self):
        def case(rng):
            x = _param(rng, 3, 4)
            return [x], lambda: ad.square(x.sum(axis=1)).sum()
        self._run(case)

    def test_mean_axes(self):
        def case(rng):
            x = _param(rng, 2, 3, 4)
            return [x], lambda: ad.square(x.mean(axis=(0, 2))).sum()
        self._run(case)

    def test_softmax(self):
        def case(rng):
            x = _param(rng, 3, 5)
            w = Tensor(rng.standard_normal((3, 5)))
            return [x], lambda: (ad.softmax(x, axis=1) * w).sum()
        self._run(case)

    def test_concat(self):
        def case(rng):
            a, b = _param(rng, 2, 3), _param(rng, 2, 2)
            return [a, b], lambda: ad.square(ad.concat([a, b], axis=1)).sum()
        self._run(case)

    def test_narrow(self):
        def case(rng):
            x = _param(rng, 3, 6)
            return [x], lambda: ad.square(ad.narrow(x, 1, 2, 3)).sum()
        self._run(case)

    def test_reshape(self):
        def case(rng):
            x = _param(rng, 2, 6)
            return [x], lambda: ad.square(ad.reshape(x, (3, 4))).sum()
        self._run(case)

    def test_where(self):
        def case(rng):
            a, b = _param(rng, 4, 4), _param(rng, 4, 4)
            m = (rng.random((4, 4)) < 0.5).astype(float)
            return [a, b], lambda: ad.where(m, a, b).sum()
        self._run(case)

    def test_stop_gradient_blocks(self):
        rng = np.random.default_rng(5)
        x = _param(rng, 4)
        w = _param(rng, 4)
        loss = (ad.stop_gradient(x) * w).sum()
        loss.backward()
        assert x.grad is None
        np.testing.assert_array_equal(w.grad, x.data)


class TestTrivialExamples:
    def test_matmul_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(a, Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, [[1, 2], [3, 4]])

    def test_relu_definition(self):
        out = ad.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_grad_sum_square(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        ad.square(x).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_loss_at_minimum_has_zero_gradient(self):
        x = Tensor([1.0, -2.0, 0.5], requires_grad=True)
        y = Tensor([1.0, -2.0, 0.5])
        ad.square(x - y).mean().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 0.0])

    def test_fanout_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        (x + x).sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_softmax_values(self):
        out = ad.softmax(Tensor([[np.log(1.0), np.log(3.0)]]), axis=1)
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)


class TestMLPGradient:
    def test_random_three_layer_mlp_matches_fd(self):
        rng = np.random.default_rng(77)
        params = []
        dims = [8, 6, 5, 3]
        for i in range(3):
            params.append(Tensor(rng.standard_normal((dims[i], dims[i + 1])) * 0.7, requires_grad=True))
            params.append(Tensor(rng.standard_normal(dims[i + 1]) * 0.1, requires_grad=True))
        x = rng.standard_normal((4, 8))

        def build():
            h = Tensor(x)
            for i in range(3):
                h = ad.matmul(h, params[2 * i]) + params[2 * i + 1]
                if i < 2:
                    h = ad.relu(h)
            return ad.square(h).mean()

        err = check_gradients(build, params, tol=1e-4)
        assert err < 1e-4


class TestErrorsAndGuards:
    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (x * 2.0).backward()

    def test_shape_error_names_op_and_shapes(self):
        with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        with pytest.raises(ShapeError, match="add"):
            ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))

    def test_nan_guard_reports_op(self):
        ad.set_nan_guard(True)
        try:
            with np.errstate(divide="ignore"):
                x = Tensor([0.0], requires_grad=True)
                loss = ad.log(x).sum()  # -inf forward is legal; gradient 1/0 trips the guard
                with pytest.raises(NumericsError, match="log"):
                    loss.backward()
        finally:
            ad.set_nan_guard(False)

    def test_no_grad_skips_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with ad.no_grad():
            y = ad.square(x)
        assert y._parents == ()


class TestDtypeOption:
    def test_float32_build_option(self):
        ad.set_default_dtype(np.float32)
        try:
            x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
            assert x.data.dtype == np.float32
            loss = ad.square(x).sum()
            loss.backward()
            assert loss.data.dtype == np.float32
            np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0], rtol=1e-6)
        finally:
            ad.set_default_dtype(np.float64)

    def test_rejects_other_dtypes(self):
        with pytest.raises(ValueError, match="dtype"):
            ad.set_default_dtype(np.int32)


class TestStopGradientContract:
    def test_forward_bit_identical(self):
        x = Tensor(np.random.default_rng(3).standard_normal((5, 5)))
        y = ad.stop_gradient(x)
        assert y.data is x.data or np.array_equal(y.data, x.data)

    def test_barrier_inside_larger_graph(self):
        x = Tensor([2.0, -1.0], requires_grad=True)
        w = Tensor([0.5, 0.5], requires_grad=True)
        loss = (x * w + ad.stop_gradient(x) * 3.0).sum()
        loss.backward()
        np.testing.assert_array_equal(x.grad, w.data)  # only the unbarriered path


BINARY_OPS = {
    "add": lambda a, b: ad.add(a, b),
    "sub": lambda a, b: ad.sub(a, b),
    "mul": lambda a, b: ad.mul(a, b),
    "div": lambda a, b: ad.div(a, b),
    "matmul": lambda a, b: ad.matmul(a, b),
    "where": lambda a, b: ad.where(np.array([[1.0, 0.0, 1.0]]), a, b),
    "conv2d": lambda a, b: ad.conv2d(a, b, padding=1),
}


def _operands(op, rng):
    if op == "matmul":
        return rng.standard_normal((4, 3)), rng.standard_normal((3, 5))
    if op == "conv2d":
        return rng.standard_normal((2, 3, 5, 5)), rng.standard_normal((4, 3, 3, 3))
    if op == "div":
        return rng.standard_normal((4, 3)), rng.uniform(1.0, 2.0, (1, 3))
    return rng.standard_normal((4, 3)), rng.standard_normal((1, 3))


class TestGradientBookkeeping:
    @pytest.mark.parametrize("op", sorted(BINARY_OPS))
    @pytest.mark.parametrize("const", [0, 1])
    def test_constant_operand_gets_no_grad_and_other_is_unchanged(self, op, const):
        a0, b0 = _operands(op, np.random.default_rng(7))

        def grads(requires):
            a, b = (Tensor(v, requires_grad=r) for v, r in zip((a0, b0), requires))
            ad.square(BINARY_OPS[op](a, b)).sum().backward()
            return a.grad, b.grad

        both = grads((True, True))
        requires = [True, True]
        requires[const] = False
        one = grads(requires)
        assert one[const] is None
        assert one[1 - const].tobytes() == both[1 - const].tobytes()

    def test_passed_through_gradients_are_not_shared(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad is not b.grad and not np.shares_memory(a.grad, b.grad)
        assert a.grad.flags.writeable and b.grad.flags.writeable

    def test_view_gradients_are_owned_and_writeable(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        y = Tensor(np.ones((2, 2)), requires_grad=True)
        parts = ad.concat([x.reshape(3, 2), y], axis=0)      # concat pieces, reshape view
        loss = ad.tsum(parts, axis=1).sum()                  # broadcast view per row
        loss.backward()
        for t in (x, y):
            assert t.grad.flags.writeable and t.grad.flags.owndata
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


# -- blocked kernels against the per-tap code they replaced -----------------------------


def _conv2d_oracle(x, w, padding, g):
    """Per-tap einsum convolution: output, dx and dw for upstream ``g``."""
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh, ow = xp.shape[2] - kh + 1, xp.shape[3] - kw + 1
    out = np.zeros((x.shape[0], o, oh, ow))
    dw = np.zeros_like(w)
    dxp = np.zeros_like(xp)
    for dy in range(kh):
        for dx in range(kw):
            patch = xp[:, :, dy : dy + oh, dx : dx + ow]
            out += np.einsum("ncyx,oc->noyx", patch, w[:, :, dy, dx])
            dw[:, :, dy, dx] = np.einsum("noyx,ncyx->oc", g, patch)
            dxp[:, :, dy : dy + oh, dx : dx + ow] += np.einsum("noyx,oc->ncyx", g, w[:, :, dy, dx])
    return out, dxp[:, :, padding : padding + x.shape[2], padding : padding + x.shape[3]], dw


def _max_pool2d_oracle(x, k, g):
    """Reshape-max pooling: output and dx for upstream ``g``."""
    n, c, h, w = x.shape
    windows = x.reshape(n, c, h // k, k, w // k, k)
    out = windows.max(axis=(3, 5))
    mask = windows == out[:, :, :, None, :, None]
    return out, (mask * g[:, :, :, None, :, None]).reshape(n, c, h, w)


def _close(a, b, rel=1e-12):
    return np.abs(a - b).max() <= rel * np.abs(b).max()


class TestBlockedKernels:
    ROWS = ad.CONV_BLOCK_ROWS

    @pytest.mark.parametrize("n", [1, ROWS - 1, ROWS + 1])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("fill", ["random", "const_x", "const_w"])
    def test_conv2d_matches_per_tap_oracle(self, n, padding, fill):
        rng = np.random.default_rng(n * 10 + padding)
        x0 = rng.standard_normal((n, 3, 7, 5))          # rectangular input
        w0 = rng.standard_normal((4, 3, 3, 2))          # and kernel
        if fill == "const_x":
            x0 = np.full_like(x0, 1.5)
        elif fill == "const_w":
            w0 = np.full_like(w0, -0.25)
        x, w = Tensor(x0, requires_grad=True), Tensor(w0, requires_grad=True)
        y = ad.conv2d(x, w, padding=padding)
        g = rng.standard_normal(y.shape)
        (y * Tensor(g)).sum().backward()
        out, dx, dw = _conv2d_oracle(x0, w0, padding, g)
        assert y.data.shape == out.shape and y.data.flags.c_contiguous
        assert _close(y.data, out) and _close(x.grad, dx) and _close(w.grad, dw)

    def test_conv2d_blocks_bound_the_patch_matrices(self, monkeypatch):
        widths = []
        real = ad._patches

        def spy(xp, kh, kw):
            widths.append(xp.shape[0])
            return real(xp, kh, kw)

        monkeypatch.setattr(ad, "_patches", spy)
        x = Tensor(np.ones((3 * self.ROWS + 2, 2, 5, 5)), requires_grad=True)
        w = Tensor(np.ones((2, 2, 3, 3)), requires_grad=True)
        ad.conv2d(x, w).sum().backward()
        assert max(widths) == self.ROWS and sum(widths) == 2 * x.shape[0]   # forward, dw

    @pytest.mark.parametrize("k", [2, 3])
    def test_max_pool2d_bit_identical_with_ties(self, k):
        rng = np.random.default_rng(k)
        # relu of a coarse grid: most entries are exact zeros, the rest tie often
        raw = np.round(rng.standard_normal((2, 3, 6, 12)) * 2.0) / 2.0 - 0.5
        x = Tensor(ad.relu(Tensor(raw)).data, requires_grad=True)
        y = ad.max_pool2d(x, k)
        g = rng.standard_normal(y.shape)
        (y * Tensor(g)).sum().backward()
        out, dx = _max_pool2d_oracle(x.data, k, g)
        assert (x.data == 0).mean() > 0.5 and (y.data == 0).any()
        assert y.data.tobytes() == out.tobytes()
        assert x.grad.tobytes() == dx.tobytes()
