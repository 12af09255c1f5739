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

    def test_grouped_linear(self):
        groups = [(np.array([0, 3]), slice(0, 2)), (np.array([4, 1, 5]), slice(2, 6))]
        def case(rng):
            h, w, b = _param(rng, 6, 4), _param(rng, 4, 7), _param(rng, 7)
            return [h, w, b], lambda: ad.square(ad.grouped_linear(h, w, b, groups)).sum()
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


class TestBlockOps:
    """The block-mask primitives against the dense products they stand for."""

    def test_block_table_is_the_row_sums_of_the_moved_weight(self):
        # a weight whose block rows all moved by d has row sums s + n d, and
        # d's gradient is the one every row of its block gets in that weight:
        # under sum(row_sums(w) * g), each row of block l gets g[l]
        rng = np.random.default_rng(14)
        bounds, sizes = (0, 4, 5, 8), np.array([4, 1, 3])
        w0, d = rng.standard_normal((8, 5)), rng.standard_normal((3, 5))

        def row_sums(w):
            return np.array([w[start:stop].sum(axis=0) for start, stop in zip(bounds, bounds[1:])])

        dt = Tensor(d, requires_grad=True)
        table = ad.block_table(row_sums(w0), dt, sizes)
        np.testing.assert_allclose(table.data, row_sums(w0 + np.repeat(d, sizes, axis=0)),
                                   rtol=1e-12, atol=1e-12)
        g = rng.standard_normal((3, 5))
        (table * Tensor(g)).sum().backward()
        np.testing.assert_array_equal(dt.grad, g)

    def test_grouped_linear_is_the_dense_product_at_the_groups(self):
        rng = np.random.default_rng(13)
        h, w, b = rng.standard_normal((5, 3)), rng.standard_normal((3, 6)), rng.standard_normal(6)
        groups = [(np.array([3, 0]), slice(0, 4)), (np.array([2]), slice(4, 6))]
        dense = h @ w + b
        expected = np.concatenate([dense[[3, 0], :4].ravel(), dense[[2], 4:].ravel()])
        np.testing.assert_allclose(ad.grouped_linear(h, w, b, groups).data, expected, rtol=1e-12)
        assert ad.grouped_linear(h, w, b, []).shape == (0,)

    def test_shape_errors_name_the_op(self):
        for s, d, sizes in ((np.ones((2, 4)), np.ones((2, 3)), (1, 1)),
                            (np.ones((2, 4)), np.ones((2, 4)), (1, 1, 1)), (np.ones(2), np.ones(2), (1, 1))):
            with pytest.raises(ShapeError, match="block_table"):
                ad.block_table(s, d, sizes)
        with pytest.raises(ShapeError, match="grouped_linear"):
            ad.grouped_linear(np.ones((2, 4)), np.ones((3, 5)), np.ones(5), [])


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


# Per primitive: the shapes of its float32 leaves, and the primitive on them.
FLOAT32_CASES = {
    "add": ([(3, 4), (4,)], ad.add),
    "sub": ([(3, 4), (3, 4)], ad.sub),
    "mul": ([(3, 4), (1, 4)], ad.mul),
    "div": ([(3, 4), (4,)], lambda a, b: ad.div(a, ad.exp(b))),
    "matmul": ([(3, 4), (4, 2)], ad.matmul),
    "block_table": ([(3, 4)], lambda d: ad.block_table(np.ones((3, 4), np.float32), d, np.array([2, 1, 5]))),
    "grouped_linear": ([(5, 3), (3, 6), (6,)], lambda h, w, b: ad.grouped_linear(
        h, w, b, [(np.array([4, 0]), slice(0, 4)), (np.array([2]), slice(4, 6))])),
    "conv2d": ([(2, 2, 5, 5), (3, 2, 3, 3)], lambda x, w: ad.conv2d(x, w, padding=1)),
    "max_pool2d": ([(2, 2, 4, 4)], lambda x: ad.max_pool2d(x, 2)),
    "relu": ([(3, 4)], ad.relu),
    "exp": ([(3, 4)], ad.exp),
    "log": ([(3, 4)], lambda x: ad.log(ad.square(x) + 1.0)),
    "sum": ([(3, 4)], lambda x: ad.tsum(x, axis=1)),
    "mean": ([(3, 4)], lambda x: ad.tmean(x, axis=0) + ad.tmean(x)),
    "square": ([(3, 4)], ad.square),
    "sqrt": ([(3, 4)], lambda x: ad.sqrt(ad.square(x) + 1.0)),
    "softmax": ([(3, 4)], lambda x: ad.softmax(x, axis=1)),
    "concat": ([(3, 4), (3, 2)], lambda a, b: ad.concat([a, b], axis=1)),
    "narrow": ([(3, 6)], lambda x: ad.narrow(x, 1, 2, 3)),
    "reshape": ([(3, 4)], lambda x: ad.reshape(x, (2, 6))),
    "where": ([(3, 4), (3, 4)], lambda a, b: ad.where(np.arange(12).reshape(3, 4) % 2, a, b)),
    "stop_gradient": ([(3, 4)], lambda x: ad.stop_gradient(x) * x),
}


class TestDtype:
    @pytest.mark.parametrize("name", sorted(PRIMITIVES))
    def test_float32_graph_stays_float32(self, name, monkeypatch):
        # every gradient a backward rule hands on is float32 too, before
        # _accumulate casts it to its tensor's dtype
        handed = []
        accumulate = ad._accumulate

        def spy(tensor, grad, fresh=False):
            handed.append(np.asarray(grad).dtype)
            accumulate(tensor, grad, fresh)

        monkeypatch.setattr(ad, "_accumulate", spy)
        shapes, op = FLOAT32_CASES[name]
        rng = np.random.default_rng(15)
        leaves = [Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
                  for shape in shapes]
        out = op(*leaves)
        assert out.data.dtype == np.float32
        loss = ad.square(out * 0.5 - 1.0).sum() / 2.0 + 1.0     # Python scalar operands
        assert loss.data.dtype == np.float32
        loss.backward()
        assert handed and set(handed) == {np.dtype(np.float32)}
        for leaf in leaves:
            assert leaf.grad is not None and leaf.grad.dtype == np.float32

    def test_tensor_keeps_float_data_and_casts_the_rest(self):
        for data in (np.ones(3, np.float32), np.ones(3)):
            assert Tensor(data).data is data
        for data in (np.ones(3, np.int64), np.ones(3, bool), np.ones(3, np.float16), [1, 2], 2.5):
            assert Tensor(data).data.dtype == np.float64
        # a non-Tensor operand takes the other operand's dtype
        x = Tensor(np.ones(3, np.float32))
        assert (x * np.ones(3)).data.dtype == np.float32
        assert ad.sub(np.ones(3), x).data.dtype == np.float32
        assert ad.matmul(np.ones((2, 3), bool), Tensor(np.ones((3, 1), np.float32))).data.dtype == np.float32
        # two non-Tensor operands convert on their own, and numpy promotes
        for a, b in ((np.ones(3), np.ones(3, np.float32)), (np.ones(3, np.float32), np.ones(3))):
            assert ad.add(a, b).data.dtype == np.float64

    def test_accumulated_gradient_takes_the_leaf_dtype(self):
        # a float32 leaf feeding a float32 and a float64 op, in either order
        for first in (0, 1):
            x = Tensor(np.ones(3, np.float32), requires_grad=True)
            terms = [(x * 2.0).sum(), (x * Tensor(np.ones(3))).sum()]
            (terms[first] + terms[1 - first]).backward()
            assert x.grad.dtype == np.float32
            np.testing.assert_array_equal(x.grad, [3.0, 3.0, 3.0])


LEFT_NDARRAY_CASES = {
    # op, right operand's shape, d sum(op(a, y)) / dy
    "+": (lambda a, y: a + y, (2, 3), lambda a, y: np.ones_like(y)),
    "-": (lambda a, y: a - y, (2, 3), lambda a, y: -np.ones_like(y)),
    "*": (lambda a, y: a * y, (2, 3), lambda a, y: a),
    "/": (lambda a, y: a / y, (2, 3), lambda a, y: -a / y ** 2),
    "@": (lambda a, y: a @ y, (3, 4), lambda a, y: a.T @ np.ones((2, 4))),
}


@pytest.mark.parametrize("op", sorted(LEFT_NDARRAY_CASES))
def test_ndarray_left_operand_gives_a_graph_node(op):
    fn, shape, grad = LEFT_NDARRAY_CASES[op]
    rng = np.random.default_rng(21)
    a = rng.standard_normal((2, 3))
    y = _param(rng, *shape, positive=True)
    out = fn(a, y)
    assert isinstance(out, Tensor)
    np.testing.assert_array_equal(out.data, fn(a, y.data))
    out.sum().backward()
    np.testing.assert_allclose(y.grad, grad(a, y.data), rtol=1e-12)


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

    def test_pass_through_is_copied_into_leaves_only(self):
        # u = a + b passes y's gradient on to u uncopied; a and b, the two
        # leaves that one add feeds, still get arrays of their own.
        a, b, c = (Tensor(np.full(3, v), requires_grad=True) for v in (1.0, 2.0, 3.0))
        u = a + b
        y = u + c
        seen = {}
        for name, node in (("y", y), ("u", u)):
            rule = node._backward_fn
            node._backward_fn = lambda g, rule=rule, name=name: (seen.setdefault(name, g), rule(g))
        ad.square(y).sum().backward()
        assert seen["u"] is seen["y"]
        grads = (a.grad, b.grad, c.grad)
        for i, g in enumerate(grads):
            assert g.flags.writeable and g.flags.owndata
            assert not np.shares_memory(g, seen["y"])
            assert all(not np.shares_memory(g, other) for other in grads[i + 1:])
            np.testing.assert_array_equal(g, np.full(3, 12.0))

    def test_view_gradients_are_owned_and_writeable(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        y = Tensor(np.ones((2, 2)), requires_grad=True)
        parts = ad.concat([x.reshape(3, 2), y], axis=0)      # concat pieces, reshape view
        loss = ad.tsum(parts, axis=1).sum()                  # broadcast view per row
        loss.backward()
        for t in (x, y):
            assert t.grad.flags.writeable and t.grad.flags.owndata
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_backward_releases_intermediate_gradients(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        w = Tensor(np.full(4, 2.0), requires_grad=True)
        h = ad.relu(x * w)
        y = h + h                                            # fan-out into h
        loss = ad.square(y).sum()
        loss.backward()
        assert h.grad is None and y.grad is None and loss.grad is None
        np.testing.assert_array_equal(x.grad, 8.0 * x.data * w.data * w.data)
        np.testing.assert_array_equal(w.grad, 8.0 * x.data * x.data * w.data)

    def test_walk_follows_creation_order(self):
        # b is made before a but used after it: creation order, not the order
        # parents are listed in, decides which rule runs first
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = ad.exp(x)
        a = ad.square(x)
        c = a * b
        loss = (c + b).sum()
        assert [n._op for n in ad._topo_order(loss)] == ["sum", "add", "mul", "square", "exp"]
        loss.backward()
        np.testing.assert_allclose(x.grad, (2 * x.data + x.data ** 2 + 1.0) * np.exp(x.data),
                                   rtol=1e-15)
        with ad.no_grad():
            assert not hasattr(ad.exp(x), "_seq")            # unrecorded nodes get no number


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


def _max_pool2d_taps(x, k, g):
    """The k*k-tap kernel: the strided slices ``x[:, :, i::k, j::k]`` folded
    by ``np.maximum`` in row-major order; dx routes ``g`` to every tap that
    equals the output."""
    taps = [(slice(None), slice(None), slice(i, None, k), slice(j, None, k))
            for i in range(k) for j in range(k)]
    out = x[taps[0]].copy()
    for tap in taps[1:]:
        np.maximum(out, x[tap], out=out)
    dx = np.empty_like(x)
    for tap in taps:
        dx[tap] = (x[tap] == out) * g
    return out, dx


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

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_max_pool2d_matches_the_tap_fold(self, k, n):
        # Columns first, then rows, must pick the element the row-major fold
        # of the k*k taps picks: the same bytes under ties, signed zeros and
        # NaNs of either sign, forward and backward.
        rng = np.random.default_rng(10 * k + n)
        raw = np.round(rng.standard_normal((n, 3, 4 * k, 4 * k)) * 2.0) / 2.0 - 1.0
        for value, share in ((0.0, 0.15), (-0.0, 0.15), (np.nan, 0.01), (-np.nan, 0.01)):
            raw[rng.random(raw.shape) < share] = value
        x = Tensor(raw, requires_grad=True)
        y = ad.max_pool2d(x, k)
        g = rng.standard_normal(y.shape)
        (y * Tensor(g)).sum().backward()
        out, dx = _max_pool2d_taps(raw, k, g)
        zeros = out[out == 0]
        assert np.isnan(out).any() and np.signbit(zeros).any() and not np.signbit(zeros).all()
        assert y.data.tobytes() == out.tobytes()
        assert x.grad.tobytes() == dx.tobytes()

    @pytest.mark.parametrize("k", [2, 3])
    def test_relu_after_pooling_matches_relu_before_it(self, k):
        # The CNN pools before its ReLU; both orders give the same bytes,
        # forward and backward.
        rng = np.random.default_rng(20 + k)
        raw = np.round(rng.standard_normal((2, 3, 6, 12)) * 2.0) / 2.0    # ties, exact zeros
        raw[0, 0] = -np.abs(raw[0, 0]) - 0.5                              # all-negative windows
        raw[1, 1, :, : 2 * k] = 0.0                                        # all-zero windows
        raw[1, 1, ::2, 2 * k :: 2] = -0.0                                  # signed zeros
        g = rng.standard_normal((2, 3, 6 // k, 12 // k))
        results = []
        for order in (lambda x: ad.max_pool2d(ad.relu(x), k),
                      lambda x: ad.relu(ad.max_pool2d(x, k))):
            x = Tensor(raw, requires_grad=True)
            y = order(x)
            (y * Tensor(g)).sum().backward()
            results.append((y.data.tobytes(), x.grad.tobytes()))
        pooled = ad.max_pool2d(Tensor(raw), k).data
        assert (pooled < 0).any() and (pooled == 0).any() and (pooled > 0).any()
        assert results[0] == results[1]
