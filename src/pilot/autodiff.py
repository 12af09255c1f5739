"""Reverse-mode automatic differentiation over dense numpy arrays.

A ``Tensor`` wraps an ndarray and, when gradients are enabled, remembers the
op and parents that produced it. ``Tensor.backward()`` walks the recorded
graph once in reverse topological order, accumulating gradients additively
across fan-out. Only the primitives in :data:`PRIMITIVES` carry backward
rules; every loss in the package is composed from them.
"""

from __future__ import annotations

import contextlib

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DEFAULT_DTYPE = np.float64


def set_default_dtype(dtype) -> None:
    """Switch tensor precision (float64 default; float32 build option).

    The 32-bit option needs test tolerances widened by about 100x; all
    stated acceptance tolerances assume 64-bit.
    """
    global DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.float32, np.float64):
        raise ValueError(f"unsupported default dtype {dtype}")
    DEFAULT_DTYPE = dtype.type


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
    __slots__ = ("data", "grad", "requires_grad", "_op", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, _op: str = "leaf", _parents=()):
        self.data = np.asarray(data, dtype=DEFAULT_DTYPE)
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
        """Backpropagate from a scalar loss, accumulating leaf gradients."""
        if self.data.size != 1:
            raise ValueError(f"backward: loss must be scalar, got shape {self.shape}")
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward_fn is None or node.grad is None:
                continue
            node._backward_fn(node.grad)
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


def _topo_order(root: Tensor) -> list:
    visited = set()
    order = []
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _accumulate(tensor: Tensor, grad: np.ndarray, fresh: bool = False) -> None:
    """Add ``grad`` into ``tensor.grad``.

    ``fresh`` says the backward rule allocated ``grad`` for this call alone,
    so it may become ``tensor.grad`` as it is. Any other array (a pass-through
    of the upstream gradient, or a view of it) is copied, so that no two
    tensors ever share a ``.grad`` array.
    """
    if not tensor.requires_grad:
        return
    if tensor.grad is None:
        if fresh:
            tensor.grad = np.asarray(grad, dtype=DEFAULT_DTYPE)
        else:
            tensor.grad = np.array(grad, dtype=DEFAULT_DTYPE, copy=True)
    else:
        tensor.grad = tensor.grad + grad


def _make(data: np.ndarray, op: str, parents, backward_fn) -> Tensor:
    if _nan_guard and np.any(np.isnan(data)):
        raise NumericsError(op, "forward")
    if not _grad_enabled or not any(p.requires_grad for p in parents):
        return Tensor(data, _op=op)
    out = Tensor(data, requires_grad=True, _op=op, _parents=tuple(parents))
    out._backward_fn = backward_fn
    return out


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
    a, b = as_tensor(a), as_tensor(b)
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
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError("matmul", a.shape, b.shape)
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T, fresh=True)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g, fresh=True)

    return _make(data, "matmul", (a, b), backward)


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
    x, w = as_tensor(x), as_tensor(w)
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
    out = np.empty((n, o, oh, ow), dtype=DEFAULT_DTYPE)
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


def max_pool2d(x, k: int) -> Tensor:
    """Non-overlapping k*k max pooling; H and W must divide by k.

    The output is the elementwise maximum of the k*k strided slices
    ``x[:, :, i::k, j::k]``. Ties route gradient to every maximal position in
    the window.
    """
    x = as_tensor(x)
    if x.ndim != 4 or x.shape[2] % k or x.shape[3] % k:
        raise ShapeError("max_pool2d", x.shape, (k, k))
    taps = [(slice(None), slice(None), slice(i, None, k), slice(j, None, k))
            for i in range(k) for j in range(k)]
    out = x.data[taps[0]].copy()
    for tap in taps[1:]:
        np.maximum(out, x.data[tap], out=out)

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
    count = x.data.size if axis is None else np.prod([x.shape[a] for a in np.atleast_1d(axis)])

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
        full = np.zeros(x.shape, dtype=DEFAULT_DTYPE)
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
    c = np.asarray(cond, dtype=DEFAULT_DTYPE)
    a, b = as_tensor(a), as_tensor(b)
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
