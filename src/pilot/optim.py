"""Adam optimiser and global-norm gradient clipping."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor


def global_norm(grads) -> float:
    """L2 norm of the concatenation of all gradient arrays."""
    total = 0.0
    for g in grads:
        if g is not None:
            total += float(np.sum(np.asarray(g) ** 2))
    return float(np.sqrt(total))


def clip_gradients(grads, max_norm: float):
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Direction is preserved; gradients already inside the ball pass through
    untouched.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    norm = global_norm(grads)
    if norm <= max_norm:
        return list(grads)
    scale = max_norm / norm
    return [None if g is None else g * scale for g in grads]


class Adam:
    """Adam with bias correction over a fixed parameter group.

    Holds first/second moment accumulators and a step counter per parameter;
    ``step`` consumes either explicit gradients or the parameters' ``.grad``,
    optionally clipped to a global norm first.

    Updates are in place: every step overwrites each ``p.data`` array and
    the moment arrays ``m[i]`` and ``v[i]`` rather than replacing them, so
    parameter arrays must be writeable and not shared with anything that
    should keep the old values (``state_arrays`` returns these same arrays).
    Gradient arrays are only read, never written.
    """

    # Elements updated per pass over a large parameter: each pass runs the
    # whole update on one chunk while it sits in cache, with two chunks of
    # scratch per dtype. Smaller parameters take one pass.
    chunk = 1 << 14

    def __init__(self, params, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params: list[Tensor] = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self._scratch = {}

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self, grads=None, max_norm: float | None = None) -> float | None:
        """One update; a ``None`` gradient counts as zero.

        With ``max_norm``, the gradients are first scaled exactly as
        ``clip_gradients(grads, max_norm)`` would scale them, and the
        pre-clip global norm is returned; without it, nothing is clipped and
        the result is ``None``. Either way the arithmetic is that of
        ``clip_gradients`` followed by the textbook update, operation for
        operation, so results are bit-identical to it.
        """
        if grads is None:
            grads = [p.grad for p in self.params]
        if len(grads) != len(self.params):
            raise ValueError("gradient list does not match parameter group")
        norm = scale = None
        if max_norm is not None:
            if max_norm <= 0:
                raise ValueError(f"max_norm must be positive, got {max_norm}")
            norm = global_norm(grads)
            if not norm <= max_norm:        # a NaN norm scales too, as in clip_gradients
                scale = max_norm / norm
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        chunk = self.chunk
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            data = p.data
            g_scale = scale
            if g is None:
                g, g_scale = np.zeros_like(data), None
            n = data.size
            if n <= chunk or not (data.flags.c_contiguous and g.flags.c_contiguous
                                  and m.flags.c_contiguous and v.flags.c_contiguous):
                # one whole-array pass: small, or flat views would not line up
                self._update(data, g, m, v, g_scale, bc1, bc2,
                             np.empty_like(data), np.empty_like(data))
                continue
            scratch = self._scratch.get(data.dtype)
            if scratch is None:
                scratch = self._scratch[data.dtype] = np.empty((2, chunk), data.dtype)
            pf, gf, mf, vf = data.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1)
            for lo in range(0, n, chunk):
                hi = min(lo + chunk, n)
                self._update(pf[lo:hi], gf[lo:hi], mf[lo:hi], vf[lo:hi], g_scale, bc1, bc2,
                             scratch[0, : hi - lo], scratch[1, : hi - lo])
        return norm

    def _update(self, p, g, m, v, scale, bc1, bc2, a, b) -> None:
        """Adam on one block of matching shape, in place; ``a`` and ``b`` are
        scratch. ``g`` is read before ``p`` is written, so it may be ``p``."""
        if scale is not None:
            g = np.multiply(g, scale, out=a)
        np.multiply(m, self.beta1, out=m)
        np.multiply(g, 1.0 - self.beta1, out=b)
        np.add(m, b, out=m)
        np.multiply(g, g, out=b)
        np.multiply(b, 1.0 - self.beta2, out=b)
        np.multiply(v, self.beta2, out=v)
        np.add(v, b, out=v)
        np.divide(v, bc2, out=b)            # v_hat
        np.sqrt(b, out=b)
        np.add(b, self.eps, out=b)
        np.divide(m, bc1, out=a)            # m_hat
        np.multiply(a, self.lr, out=a)
        np.divide(a, b, out=a)
        np.subtract(p, a, out=p)

    def state_arrays(self) -> dict:
        """Moment/step state as named arrays (for checkpointing)."""
        out = {"adam.t": np.array([self.t], dtype=np.float64)}
        for i in range(len(self.params)):
            out[f"adam.m.{i}"] = self.m[i]
            out[f"adam.v.{i}"] = self.v[i]
        return out
