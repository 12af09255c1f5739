"""Adam over one flat buffer per parameter group, and global-norm gradient clipping."""

from __future__ import annotations

import itertools
import math

import numpy as np

from .autodiff import Tensor


def global_norm(grads, rows=None) -> float:
    """L2 norm of the concatenation of all gradient arrays.

    Each array's squares are summed by one dot product of its flat view
    with itself, so no squared copy is allocated (a non-contiguous array is
    flattened into one copy first).

    ``rows``, if given, holds one entry per gradient: ``None``, or for a
    table's gradient (:func:`autodiff.block_table`) the number of rows each
    of its rows stands for. Row l then counts ``rows[l]`` times, as it would
    in the weight the table stands for.
    """
    total = 0.0
    for g, n in zip(grads, [None] * len(grads) if rows is None else rows):
        if g is None:
            continue
        if n is None:
            flat = np.ravel(g)
            total += float(np.vdot(flat, flat))
        else:
            total += float(np.vdot(n, np.einsum("ij,ij->i", g, g)))
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

    The optimiser owns its group's storage: at construction it copies the
    parameters, in order, into one C-order buffer of the group's dtype (a
    group that mixes dtypes is refused) and rebinds each ``p.data`` to its
    view of it; the moments ``m[i]`` and ``v[i]`` are views of two more
    buffers of that layout, and ``state_arrays`` returns these same arrays.
    Steps update them in place, so new values go in with ``np.copyto``; a
    rebound ``p.data`` is refused. Gradients are only read.

    ``step`` sweeps the group in chunks of ``chunk`` values, 12 elementwise
    passes per chunk, in the efficient form of Kingma and Ba (section 2):
    the bias corrections fold into the step size and eps, and the clip scale
    into the moment coefficients. That is clipping followed by the textbook
    update up to reassociation; the tests hold the two within 1e-12 of each
    array's largest value.

    ``rows`` gives the clip norm's row counts, one entry per parameter
    (:func:`global_norm`); ``None`` counts every parameter's rows once.
    """

    # Values updated per pass: each pass runs the whole update on one chunk
    # while it sits in cache, with three chunks of scratch.
    chunk = 1 << 14
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params, lr: float, rows=None):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params: list[Tensor] = list(params)
        if rows is not None and len(rows) != len(self.params):
            raise ValueError(f"{len(rows)} row counts for {len(self.params)} parameters")
        self.rows = rows
        self.lr = float(lr)
        self.t = 0
        dtypes = sorted({p.data.dtype.name for p in self.params})
        if len(dtypes) > 1:
            raise ValueError(f"parameter group mixes dtypes {', '.join(dtypes)}")
        dtype = dtypes[0] if dtypes else np.float64
        self._offsets = list(itertools.accumulate((p.data.size for p in self.params), initial=0))
        self._flat, self._m, self._v = (np.zeros(self._offsets[-1], dtype) for _ in range(3))

        def views(buf):
            return [buf[lo:hi].reshape(p.shape)
                    for p, lo, hi in zip(self.params, self._offsets, self._offsets[1:])]

        self._data = views(self._flat)
        for p, view in zip(self.params, self._data):
            view[...] = p.data
            p.data = view
        self.m, self.v = views(self._m), views(self._v)
        self._scratch = np.empty((3, min(self.chunk, self._offsets[-1])), dtype)
        self._plan = self._chunk_plan()

    def _chunk_plan(self) -> list:
        """Per chunk ``[lo, hi)`` of the flat buffer, its pieces: one
        ``(i, src, dst, n)`` per parameter i it overlaps, taking n values
        from offset ``src`` of that parameter to offset ``dst`` of the
        chunk."""
        bounds = list(zip(self._offsets, self._offsets[1:]))
        total = self._offsets[-1]
        plan = []
        for lo in range(0, total, self.chunk):
            hi = min(lo + self.chunk, total)
            pieces = [(i, max(a, lo) - a, max(a, lo) - lo, min(b, hi) - max(a, lo))
                      for i, (a, b) in enumerate(bounds) if max(a, lo) < min(b, hi)]
            plan.append((lo, hi, pieces))
        return plan

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self, grads=None, max_norm: float | None = None) -> float | None:
        """One update; a ``None`` gradient counts as zero.

        With ``max_norm``, the gradients are first scaled as
        ``clip_gradients(grads, max_norm)`` would scale them, and the
        pre-clip global norm is returned; without it, nothing is clipped and
        the result is ``None``.
        """
        if grads is None:
            grads = [p.grad for p in self.params]
        if len(grads) != len(self.params):
            raise ValueError("gradient list does not match parameter group")
        for i, (p, view) in enumerate(zip(self.params, self._data)):
            if p.data is not view:
                raise ValueError(f"parameter {i}'s data was rebound after the optimiser took "
                                 "its storage; copy new values into p.data instead")
        scale = 1.0
        norm = None
        if max_norm is not None:
            if max_norm <= 0:
                raise ValueError(f"max_norm must be positive, got {max_norm}")
            norm = global_norm(grads, self.rows)
            if not norm <= max_norm:        # a NaN norm scales too, as in clip_gradients
                scale = max_norm / norm
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        root_bc2 = math.sqrt(1.0 - b2 ** self.t)
        c1, c2 = (1.0 - b1) * scale, (1.0 - b2) * scale * scale
        eps = self.eps * root_bc2
        lr = self.lr * root_bc2 / (1.0 - b1 ** self.t)
        flats = []
        for i, (g, lo, hi) in enumerate(zip(grads, self._offsets, self._offsets[1:])):
            if g is not None:
                g = g.reshape(-1)           # a view unless g is not C-contiguous
                if g.size != hi - lo:
                    raise ValueError(f"gradient {i} has {g.size} values, its parameter {hi - lo}")
            flats.append(g)
        p, m, v = self._flat, self._m, self._v
        for lo, hi, pieces in self._plan:
            n = hi - lo
            g, a, b = self._scratch[:, :n]
            i, src, _, _ = pieces[0]
            if len(pieces) == 1 and flats[i] is not None:
                g = flats[i][src : src + n]
            else:
                for i, src, dst, k in pieces:
                    if flats[i] is None:
                        g[dst : dst + k] = 0.0
                    else:
                        g[dst : dst + k] = flats[i][src : src + k]
            pc, mc, vc = p[lo:hi], m[lo:hi], v[lo:hi]
            np.multiply(g, c1, out=b)
            np.multiply(mc, b1, out=mc)
            np.add(mc, b, out=mc)                   # m = b1 m + (1 - b1) s g
            np.multiply(g, g, out=a)
            np.multiply(a, c2, out=a)
            np.multiply(vc, b2, out=vc)
            np.add(vc, a, out=vc)                   # v = b2 v + (1 - b2) s^2 g^2
            np.sqrt(vc, out=a)
            np.add(a, eps, out=a)
            np.divide(mc, a, out=b)
            np.multiply(b, lr, out=b)
            np.subtract(pc, b, out=pc)              # p -= lr' m / (sqrt(v) + eps')
        return norm

    def state_arrays(self) -> dict:
        """Moment/step state as named arrays (for checkpointing)."""
        out = {"adam.t": np.array([self.t], dtype=np.float64)}
        for i in range(len(self.params)):
            out[f"adam.m.{i}"] = self.m[i]
            out[f"adam.v.{i}"] = self.v[i]
        return out
