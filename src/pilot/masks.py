"""Mask priors over activation positions and the splice utility.

Four modes, all excluding the logits layer:

* ``x_drop``  - iid Bernoulli(r) over layer-0 positions only.
* ``x_aug``   - with probability r per example, all of layer 0 is masked.
* ``a_drop``  - iid Bernoulli(r) over every non-logit position.
* ``a_aug``   - with probability r per example, one layer chosen uniformly
  from 0..L-1 is fully masked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nets import RecordLayout

MASK_MODES = ("x_drop", "x_aug", "a_drop", "a_aug")


BLOCK_MODES = ("x_aug", "a_aug")   # each row masks nothing or one whole layer


@dataclass
class Mask:
    """Binary indicator over flattened record positions, plus provenance.

    ``block`` is set for block masks (``x_aug``, ``a_aug`` and
    :func:`empty_mask`): per row, the one layer masked whole, or -1 for a
    row with nothing masked. Imputation and splicing use it to compute only
    where the mask is; a mask without it takes the dense paths.
    """

    values: np.ndarray          # (batch, total) 0/1 float
    mode: str
    rate: float
    layout: RecordLayout
    block: np.ndarray | None = None     # (batch,) int layer index or -1

    def layer(self, index: int) -> np.ndarray:
        return self.values[:, self.layout.layer_slice(index)]

    def masked_rows(self, index: int) -> np.ndarray:
        """Per row, whether any position of layer ``index`` is masked."""
        if self.block is not None:
            return self.block == index
        return self.layer(index).any(axis=1)


def _check_mode(mode: str, rate: float) -> None:
    if mode not in MASK_MODES:
        raise ValueError(f"unknown mask mode {mode!r} (expected one of {MASK_MODES})")
    if not 0.0 < rate < 1.0:
        raise ValueError(f"mask rate must lie in (0, 1), got {rate}")


def sample_mask(mode: str, rate: float, layout: RecordLayout, batch: int, rng) -> Mask:
    """Draw one mask per example; logits-layer positions are never masked."""
    _check_mode(mode, rate)
    values = np.zeros((batch, layout.total))
    block = None
    last = layout.n_layers - 1
    if mode == "x_drop":
        sl = layout.layer_slice(0)
        values[:, sl] = rng.random((batch, layout.sizes[0])) < rate
    elif mode == "x_aug":
        gate = rng.random(batch) < rate
        values[gate, layout.layer_slice(0)] = 1.0
        block = np.where(gate, 0, -1)
    elif mode == "a_drop":
        maskable = layout.total - layout.sizes[last]
        values[:, :maskable] = rng.random((batch, maskable)) < rate
    else:  # a_aug
        gate = rng.random(batch) < rate
        chosen = rng.integers(0, last, size=batch)
        block = np.where(gate, chosen, -1)
        for layer in range(last):
            values[block == layer, layout.layer_slice(layer)] = 1.0
    return Mask(values=values, mode=mode, rate=rate, layout=layout, block=block)


def empty_mask(layout: RecordLayout, batch: int, mode: str = "a_aug", rate: float = 0.5) -> Mask:
    return Mask(values=np.zeros((batch, layout.total)), mode=mode, rate=rate, layout=layout,
                block=np.full(batch, -1))


def splice(a: np.ndarray, imputed: np.ndarray, mask: Mask) -> np.ndarray:
    """Masked elementwise combination: imputed where mask=1, recorded elsewhere."""
    b = mask.values
    if a.shape != b.shape or imputed.shape != b.shape:
        raise ValueError(f"splice: shapes {a.shape}, {imputed.shape} do not match mask {b.shape}")
    return np.where(b > 0, imputed, a)
