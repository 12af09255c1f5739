"""Mask priors over activation positions and the splice utility.

Four modes, all excluding the logits layer:

* ``x_drop``  - iid Bernoulli(r) over layer-0 positions only.
* ``x_aug``   - with probability r per example, all of layer 0 is masked.
* ``a_drop``  - iid Bernoulli(r) over every non-logit position.
* ``a_aug``   - with probability r per example, one layer chosen uniformly
  from 0..L-1 is fully masked.
"""

from __future__ import annotations

import numpy as np

from .nets import RecordLayout

MASK_MODES = ("x_drop", "x_aug", "a_drop", "a_aug")


BLOCK_MODES = ("x_aug", "a_aug")   # each row masks nothing or one whole layer


class Mask:
    """Binary indicator over flattened record positions, plus provenance.

    ``block`` is set for block masks (``x_aug``, ``a_aug`` and
    :func:`empty_mask`): per row, the one layer masked whole, or -1 for a
    row with nothing masked. Splicing uses it to compute only where the
    mask is, and so does imputation with a DGM built with the record layout
    (the table DGM). A mask without it takes the dense paths, and so does
    imputation with a DGM built without the layout.

    ``values`` is the (batch, total) 0/1 float array. A block mask may be
    made with ``values=None``: the array is then built from ``block`` on its
    first read and kept, so a caller that reads only ``block`` never forms
    it.
    """

    def __init__(self, values: np.ndarray | None, mode: str, rate: float, layout: RecordLayout,
                 block: np.ndarray | None = None):
        if values is None and block is None:
            raise ValueError("a mask needs its values or a block index")
        self._values = values
        self.mode = mode
        self.rate = rate
        self.layout = layout
        self.block = block      # (batch,) int layer index or -1

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            values = np.zeros((len(self.block), self.layout.total))
            for rows, cols in block_groups(self):
                values[rows, cols] = 1.0
            self._values = values
        return self._values

    def layer(self, index: int) -> np.ndarray:
        return self.values[:, self.layout.layer_slice(index)]

    def masked_rows(self, index: int) -> np.ndarray:
        """Per row, whether any position of layer ``index`` is masked."""
        if self.block is not None:
            return self.block == index
        return self.layer(index).any(axis=1)


def block_groups(mask: Mask) -> list:
    """The positions a block mask covers, as :func:`autodiff.grouped_linear`
    takes them: a ``(rows, cols)`` pair per layer that some row masks."""
    layout = mask.layout
    return [(rows, layout.layer_slice(layer)) for layer in range(layout.n_layers)
            if len(rows := np.flatnonzero(mask.block == layer))]


def _check_mode(mode: str, rate: float) -> None:
    if mode not in MASK_MODES:
        raise ValueError(f"unknown mask mode {mode!r} (expected one of {MASK_MODES})")
    if not 0.0 < rate < 1.0:
        raise ValueError(f"mask rate must lie in (0, 1), got {rate}")


def sample_mask(mode: str, rate: float, layout: RecordLayout, batch: int, rng) -> Mask:
    """Draw one mask per example; logits-layer positions are never masked."""
    _check_mode(mode, rate)
    last = layout.n_layers - 1
    if mode in BLOCK_MODES:     # the values are built on first read
        gate = rng.random(batch) < rate
        chosen = rng.integers(0, last, size=batch) if mode == "a_aug" else 0
        return Mask(None, mode, rate, layout, block=np.where(gate, chosen, -1))
    values = np.zeros((batch, layout.total))
    if mode == "x_drop":
        values[:, layout.layer_slice(0)] = rng.random((batch, layout.sizes[0])) < rate
    else:  # a_drop
        maskable = layout.total - layout.sizes[last]
        values[:, :maskable] = rng.random((batch, maskable)) < rate
    return Mask(values, mode, rate, layout)


def empty_mask(layout: RecordLayout, batch: int, mode: str = "a_aug", rate: float = 0.5) -> Mask:
    return Mask(None, mode, rate, layout, block=np.full(batch, -1))


def splice(a: np.ndarray, imputed: np.ndarray, mask: Mask) -> np.ndarray:
    """Masked elementwise combination: imputed where mask=1, recorded elsewhere."""
    b = mask.values
    if a.shape != b.shape or imputed.shape != b.shape:
        raise ValueError(f"splice: shapes {a.shape}, {imputed.shape} do not match mask {b.shape}")
    return np.where(b > 0, imputed, a)
