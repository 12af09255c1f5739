"""Reverse-mode automatic differentiation over dense numpy arrays.

A ``Tensor`` wraps an ndarray and, when gradients are enabled, remembers the
op and parents that produced it. ``Tensor.backward()`` walks the recorded
graph once, newest node first (creation order is topological), accumulating
gradients additively across fan-out. Only the primitives in
:data:`PRIMITIVES` carry backward rules; every loss in the package is
composed from them.

A ``Tensor`` keeps float32 or float64 data as given and turns any other
input into float64. A primitive works in its operands' dtype; a non-``Tensor``
operand of a binary one (a Python scalar, say) takes the other's dtype.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from operator import attrgetter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_FLOATS = (np.dtype(np.float64), np.dtype(np.float32))      # kept as given


class ShapeError(ValueError):
    """Operand shapes incompatible for an op; names the op and the shapes."""

    def __init__(self, op: str, *shapes):
        self.op = op
        self.shapes = shapes
        pretty = " and ".join(str(tuple(s)) for s in shapes)
        super().__init__(f"{op}: incompatible shapes {pretty}")


class NumericsError(ArithmeticError):
    """A non-finite value appeared; carries the op it appeared in."""

    def __init__(self, op: str, detail: str = ""):
        self.op = op
        msg = f"non-finite value in '{op}'"
        super().__init__(msg + (f" ({detail})" if detail else ""))


_grad_enabled = True
_nan_guard = False


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation paths)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    """Whether operations record a graph: False inside :func:`no_grad`."""
    return _grad_enabled


def set_nan_guard(enabled: bool) -> None:
    """Toggle per-op finiteness checks during backward (debug aid)."""
    global _nan_guard
    _nan_guard = bool(enabled)


class Tensor:
    # _seq, the creation number, is set on recorded nodes only (_make)
    __slots__ = ("data", "grad", "requires_grad", "_op", "_parents", "_backward_fn", "_seq")
    # An ndarray on the left of an operator defers to the reflected method,
    # so the result is a graph node, not an object array of 0-d Tensors.
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False, _op: str = "leaf", _parents=()):
        data = np.asarray(data)
        self.data = data if data.dtype in _FLOATS else data.astype(np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._op = _op
        self._parents = _parents
        self._backward_fn = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op!r}, requires_grad={self.requires_grad})"

    # -- graph traversal ---------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from a scalar loss, accumulating leaf gradients.

        A recorded node's own ``.grad`` is released (set to ``None``) once its
        rule has passed it on; leaves keep theirs."""
        if self.data.size != 1:
            raise ValueError(f"backward: loss must be scalar, got shape {self.shape}")
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in order:
            if node.grad is None:
                continue
            node._backward_fn(node.grad)
            node.grad = None
            if _nan_guard:
                for parent in node._parents:
                    if parent.grad is not None and not np.all(np.isfinite(parent.grad)):
                        raise NumericsError(node._op, "gradient")

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _pair(a, b):
    """Both operands as tensors. When just one is a ``Tensor``, the other
    takes its dtype; two non-``Tensor`` operands convert on their own."""
    if isinstance(a, Tensor):
        return (a, b) if isinstance(b, Tensor) else (a, Tensor(np.asarray(b, dtype=a.data.dtype)))
    if isinstance(b, Tensor):
        return Tensor(np.asarray(a, dtype=b.data.dtype)), b
    return Tensor(a), Tensor(b)


_counter = itertools.count()        # creation numbers of recorded nodes (_make)
_creation = attrgetter("_seq")


def _topo_order(root: Tensor) -> list:
    """The recorded nodes reachable from ``root``, newest first. A node is
    made after its parents, so this is a reverse topological order."""
    seen = {root}
    stack = [root]
    nodes = []
    while stack:
        node = stack.pop()
        if node._backward_fn is None:
            continue
        nodes.append(node)
        for parent in node._parents:
            if parent not in seen:
                seen.add(parent)
                stack.append(parent)
    nodes.sort(key=_creation, reverse=True)
    return nodes


def _accumulate(tensor: Tensor, grad: np.ndarray, fresh: bool = False) -> None:
    """Add ``grad``, cast to ``tensor``'s dtype, into ``tensor.grad``.

    ``fresh`` says the backward rule allocated ``grad`` for this call alone,
    so it may become ``tensor.grad`` as it is. Any other array (a pass-through
    of the upstream gradient, or a view of it) is copied into a leaf, so that
    no leaf shares its ``.grad`` array. A recorded node may share it: no rule
    writes into a gradient, accumulation makes a new array, and the node's
    ``.grad`` is released once its rule has run.
    """
    if not tensor.requires_grad:
        return
    if tensor.grad is None:
        if fresh or tensor._backward_fn is not None:
            tensor.grad = np.asarray(grad, dtype=tensor.data.dtype)
        else:
            tensor.grad = np.array(grad, dtype=tensor.data.dtype, copy=True)
    else:
        tensor.grad = np.add(tensor.grad, grad, dtype=tensor.data.dtype)


def _make(data: np.ndarray, op: str, parents, backward_fn) -> Tensor:
    """The op's output; recorded (numbered, with its parents and rule) when
    gradients are on and some parent requires one. Runs once per op, so it
    avoids a generator and keyword arguments."""
    if _nan_guard and np.any(np.isnan(data)):
        raise NumericsError(op, "forward")
    if _grad_enabled:
        for p in parents:
            if p.requires_grad:
                out = Tensor(data, True, op, tuple(parents))
                out._backward_fn = backward_fn
                out._seq = next(_counter)
                return out
    return Tensor(data, False, op)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- elementwise arithmetic ----------------------------------------------


def _operands(op: str, forward, a, b):
    """Both operands as tensors, and ``forward`` (a numpy ufunc) of their
    data; operands that do not broadcast raise a :class:`ShapeError` naming
    ``op``."""
    a, b = _pair(a, b)
    try:
        return a, b, forward(a.data, b.data)
    except ValueError:
        raise ShapeError(op, a.shape, b.shape) from None


def add(a, b) -> Tensor:
    a, b, data = _operands("add", np.add, a, b)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _make(data, "add", (a, b), backward)


def sub(a, b) -> Tensor:
    a, b, data = _operands("sub", np.subtract, a, b)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.shape), fresh=True)

    return _make(data, "sub", (a, b), backward)


def mul(a, b) -> Tensor:
    a, b, data = _operands("mul", np.multiply, a, b)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape), fresh=True)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape), fresh=True)

    return _make(data, "mul", (a, b), backward)


def div(a, b) -> Tensor:
    a, b, data = _operands("div", np.divide, a, b)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.shape), fresh=True)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape), fresh=True)

    return _make(data, "div", (a, b), backward)


# -- linear algebra --------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = _pair(a, b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError("matmul", a.shape, b.shape)
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T, fresh=True)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g, fresh=True)

    return _make(data, "matmul", (a, b), backward)


def block_table(s, d, sizes) -> Tensor:
    """``s + sizes[:, None] * d``: the block row sums of a weight whose block l
    holds ``sizes[l]`` rows that move together, ``s`` their sums at the start
    and ``d`` the amount each of them has moved since.

    Under a block mask ``b``, ``b @ w`` is ``member @ table``, with
    ``member`` the (rows, blocks) 0/1 matrix of the block each row of ``b``
    masks. Backward hands ``d`` the table's gradient unscaled, which is the
    gradient each of block l's rows gets in that weight. So an elementwise
    optimiser moves a row of ``d`` exactly as it would move each row of the
    block. It is not ``d``'s own gradient, which is ``sizes[:, None]`` times
    larger. ``s`` gets no gradient.
    """
    s, d = _pair(s, d)
    n = np.asarray(sizes, dtype=np.result_type(s.data, d.data))
    if s.ndim != 2 or s.shape != d.shape or n.shape != s.shape[:1]:
        raise ShapeError("block_table", s.shape, d.shape, n.shape)
    data = s.data + n[:, None] * d.data

    def backward(g):
        _accumulate(d, g)

    return _make(data, "block_table", (d,), backward)


def grouped_linear(h, w, b, groups) -> Tensor:
    """``h @ w + b`` at the positions ``groups`` name, and nowhere else.

    Each group is a pair ``(rows, cols)``: row indices into ``h`` and a
    slice of output columns; no two groups share a row or a column. Its
    values are ``h[rows] @ w[:, cols] + b[cols]``, raveled; the output is
    every group's values, concatenated in order into one 1-D tensor. Since
    the groups are disjoint, backward writes each group's part of every
    gradient in place.
    """
    h, w, b = as_tensor(h), as_tensor(w), as_tensor(b)
    if h.ndim != 2 or w.ndim != 2 or w.shape[0] != h.shape[1] or b.shape != w.shape[1:]:
        raise ShapeError("grouped_linear", h.shape, w.shape, b.shape)
    sizes = [len(rows) * len(range(w.shape[1])[cols]) for rows, cols in groups]
    bounds = np.cumsum([0, *sizes])
    data = np.empty(bounds[-1], dtype=np.result_type(h.data, w.data, b.data))
    for (rows, cols), start, stop in zip(groups, bounds, bounds[1:]):
        out = data[start:stop].reshape(len(rows), -1)
        np.matmul(h.data[rows], w.data[:, cols], out=out)
        out += b.data[cols]

    def backward(g):
        dh = np.zeros_like(h.data) if h.requires_grad else None
        dw = np.zeros_like(w.data) if w.requires_grad else None
        db = np.zeros_like(b.data) if b.requires_grad else None
        for (rows, cols), start, stop in zip(groups, bounds, bounds[1:]):
            gr = g[start:stop].reshape(len(rows), -1)
            if db is not None:
                np.sum(gr, axis=0, out=db[cols])
            if dw is not None:
                np.matmul(h.data[rows].T, gr, out=dw[:, cols])
            if dh is not None:
                dh[rows] = gr @ w.data[:, cols].T
        for t, d in ((h, dh), (w, dw), (b, db)):
            if d is not None:
                _accumulate(t, d, fresh=True)

    return _make(data, "grouped_linear", (h, w, b), backward)


# Rows of a batch per im2col block: the patch matrices of one block are all a
# convolution holds at a time, whatever the batch size.
CONV_BLOCK_ROWS = 4


def _patches(xp: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """im2col: (rows, C*kh*kw, OH*OW) patch matrices of a padded block."""
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))   # (B, C, OH, OW, kh, kw)
    b, c, oh, ow = windows.shape[:4]
    return windows.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * kh * kw, oh * ow)


def conv2d(x, w, padding: int = 0) -> Tensor:
    """2-D convolution, stride 1, ``padding`` zero-pad pixels each side.

    ``x`` is (N, C, H, W), ``w`` is (O, C, kh, kw); the output is a
    contiguous (N, O, OH, OW). Bias is not fused; add a broadcast tensor
    afterwards.

    Each pass walks the batch in blocks of :data:`CONV_BLOCK_ROWS` rows. A
    block's input becomes (rows, C*kh*kw, OH*OW) patch matrices (im2col), and
    the forward output is one matmul of the (O, C*kh*kw) weight matrix with
    them. Backward rebuilds the patches from the padded input instead of
    keeping them in the graph: dW is a GEMM of the gradient with the patches,
    and dx is W^T @ g followed by col2im, kh*kw strided adds. A block's
    temporaries (patches, and W^T @ g) hold ``CONV_BLOCK_ROWS * C*kh*kw *
    OH*OW`` values each: apart from x, the output and the gradients, memory
    does not grow with the batch.
    """
    x, w = _pair(x, w)
    if x.ndim != 4 or w.ndim != 4 or x.shape[1] != w.shape[1]:
        raise ShapeError("conv2d", x.shape, w.shape)
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    oh = h + 2 * padding - kh + 1
    ow = wd + 2 * padding - kw + 1
    if oh <= 0 or ow <= 0:
        raise ShapeError("conv2d", x.shape, w.shape)
    if padding:
        xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        xp = x.data
    w2 = w.data.reshape(o, c * kh * kw)
    blocks = [slice(s, min(n, s + CONV_BLOCK_ROWS)) for s in range(0, n, CONV_BLOCK_ROWS)]
    out = np.empty((n, o, oh, ow), dtype=np.result_type(x.data, w.data))
    out_rows = out.reshape(n, o, oh * ow)
    for rows in blocks:
        np.matmul(w2, _patches(xp[rows], kh, kw), out=out_rows[rows])

    def backward(g):
        g_rows = g.reshape(n, o, oh * ow)
        dw = np.zeros_like(w2) if w.requires_grad else None
        dxp = np.zeros_like(xp) if x.requires_grad else None
        for rows in blocks:
            if dw is not None:
                cols = _patches(xp[rows], kh, kw)
                dw += np.matmul(g_rows[rows], cols.transpose(0, 2, 1)).sum(axis=0)
            if dxp is not None:
                dcols = np.matmul(w2.T, g_rows[rows]).reshape(-1, c, kh, kw, oh, ow)
                block = dxp[rows]
                for dy in range(kh):
                    for dx in range(kw):
                        block[:, :, dy : dy + oh, dx : dx + ow] += dcols[:, :, dy, dx]
        if dw is not None:
            _accumulate(w, dw.reshape(w.shape), fresh=True)
        if dxp is not None:
            if padding:   # a strided view into the padded array: copied
                _accumulate(x, dxp[:, :, padding:-padding, padding:-padding])
            else:
                _accumulate(x, dxp, fresh=True)

    return _make(out, "conv2d", (x, w), backward)


def _max_of_slices(a: np.ndarray, axis: int, k: int) -> np.ndarray:
    """Elementwise maximum of the k strided slices ``i::k`` of ``a`` along
    ``axis``, folded in order."""
    parts = [a[(slice(None),) * axis + (slice(i, None, k),)] for i in range(k)]
    out = np.maximum(parts[0], parts[1]) if k > 1 else parts[0].copy()
    for part in parts[2:]:
        np.maximum(out, part, out=out)
    return out


def max_pool2d(x, k: int) -> Tensor:
    """Non-overlapping k*k max pooling; H and W must divide by k.

    The output is the elementwise maximum of the k*k strided slices
    ``x[:, :, i::k, j::k]``: the maximum over each window's k columns first,
    then over its k rows, which picks the same element of the window as
    folding the slices in row-major order, ties, signed zeros and NaNs
    included. Ties route gradient to every maximal position in the window.
    """
    x = as_tensor(x)
    if x.ndim != 4 or x.shape[2] % k or x.shape[3] % k:
        raise ShapeError("max_pool2d", x.shape, (k, k))
    out = _max_of_slices(_max_of_slices(x.data, 3, k), 2, k)
    taps = [(slice(None), slice(None), slice(i, None, k), slice(j, None, k))
            for i in range(k) for j in range(k)]

    def backward(g):
        dx = np.empty_like(x.data)
        for tap in taps:
            dx[tap] = (x.data[tap] == out) * g
        _accumulate(x, dx, fresh=True)

    return _make(out, "max_pool2d", (x,), backward)


# -- elementwise nonlinearities --------------------------------------------


def relu(x) -> Tensor:
    x = as_tensor(x)
    data = np.maximum(x.data, 0.0)

    def backward(g):
        _accumulate(x, g * (x.data > 0), fresh=True)

    return _make(data, "relu", (x,), backward)


def exp(x) -> Tensor:
    x = as_tensor(x)
    data = np.exp(x.data)

    def backward(g):
        _accumulate(x, g * data, fresh=True)

    return _make(data, "exp", (x,), backward)


def log(x) -> Tensor:
    x = as_tensor(x)
    data = np.log(x.data)

    def backward(g):
        _accumulate(x, g / x.data, fresh=True)

    return _make(data, "log", (x,), backward)


def square(x) -> Tensor:
    x = as_tensor(x)

    def backward(g):
        _accumulate(x, g * 2.0 * x.data, fresh=True)

    return _make(x.data * x.data, "square", (x,), backward)


def sqrt(x) -> Tensor:
    x = as_tensor(x)
    data = np.sqrt(x.data)

    def backward(g):
        _accumulate(x, g * 0.5 / data, fresh=True)

    return _make(data, "sqrt", (x,), backward)


# -- reductions -------------------------------------------------------------


def _accumulate_reduced(x: Tensor, g, axis, keepdims) -> None:
    """Accumulate into ``x`` the gradient ``g`` of a reduction of ``x`` over
    ``axis``, broadcast back over the reduced axes: a fresh array when every
    axis was reduced, a copied view otherwise."""
    if axis is None:
        _accumulate(x, np.broadcast_to(g, x.shape).copy() if np.ndim(g) else np.full(x.shape, g),
                    fresh=True)
    else:
        _accumulate(x, np.broadcast_to(g if keepdims else np.expand_dims(g, axis), x.shape))


def tsum(x, axis=None, keepdims=False) -> Tensor:
    x = as_tensor(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        _accumulate_reduced(x, g, axis, keepdims)

    return _make(data, "sum", (x,), backward)


def tmean(x, axis=None, keepdims=False) -> Tensor:
    x = as_tensor(x)
    data = x.data.mean(axis=axis, keepdims=keepdims)
    count = x.data.size if axis is None else math.prod(x.shape[a] for a in np.atleast_1d(axis))

    def backward(g):
        _accumulate_reduced(x, g / count, axis, keepdims)

    return _make(data, "mean", (x,), backward)


# -- structure --------------------------------------------------------------


def softmax(x, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accumulate(x, y * (g - dot), fresh=True)

    return _make(y, "softmax", (x,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeError("concat", *[t.shape for t in tensors]) from None
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accumulate(t, piece)

    return _make(data, "concat", tuple(tensors), backward)


def narrow(x, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` entries from ``start`` along ``axis``."""
    x = as_tensor(x)
    if start < 0 or start + length > x.shape[axis]:
        raise ShapeError("narrow", x.shape, (axis, start, length))
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    data = x.data[index]

    def backward(g):
        full = np.zeros(x.shape, dtype=x.data.dtype)
        full[index] = g
        _accumulate(x, full, fresh=True)

    return _make(data, "narrow", (x,), backward)


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    try:
        data = x.data.reshape(shape)
    except ValueError:
        raise ShapeError("reshape", x.shape, shape) from None

    def backward(g):
        _accumulate(x, g.reshape(x.shape))

    return _make(data, "reshape", (x,), backward)


def where(cond, a, b) -> Tensor:
    """Elementwise select by a constant 0/1 mask: cond*a + (1-cond)*b."""
    a, b = _pair(a, b)
    c = np.asarray(cond, dtype=np.result_type(a.data, b.data))
    try:
        data = c * a.data + (1.0 - c) * b.data
    except ValueError:
        raise ShapeError("where", c.shape, a.shape, b.shape) from None

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * c, a.shape), fresh=True)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * (1.0 - c), b.shape), fresh=True)

    return _make(data, "where", (a, b), backward)


def stop_gradient(x) -> Tensor:
    """Barrier: forward value bit-identical, backward contribution zero."""
    x = as_tensor(x)
    return Tensor(x.data, _op="stop_gradient")


# Registered primitive set; composite losses are built only from these.
PRIMITIVES = {
    "add": add,
    "sub": sub,
    "mul": mul,
    "div": div,
    "matmul": matmul,
    "block_table": block_table,
    "grouped_linear": grouped_linear,
    "conv2d": conv2d,
    "max_pool2d": max_pool2d,
    "relu": relu,
    "exp": exp,
    "log": log,
    "sum": tsum,
    "mean": tmean,
    "square": square,
    "sqrt": sqrt,
    "softmax": softmax,
    "concat": concat,
    "narrow": narrow,
    "reshape": reshape,
    "where": where,
    "stop_gradient": stop_gradient,
}
