"""Mask prior statistics and the splice utility."""

import numpy as np
import pytest

from pilot.masks import Mask, empty_mask, sample_mask, splice
from pilot.nets import RecordLayout

LAYOUT = RecordLayout((10, 6, 6, 4))     # layer 3 is logits


def three_sigma_binomial(p, n):
    return 3.0 * np.sqrt(p * (1 - p) / n)


class TestSampleMaskStatistics:
    def test_a_drop_rate_matches_binomial_ci(self):
        rng = np.random.default_rng(0)
        layout = RecordLayout((60_000, 40_000, 10))
        mask = sample_mask("a_drop", 0.3, layout, 1, rng)
        maskable = layout.total - 10
        rate = mask.values[:, :maskable].mean()
        assert abs(rate - 0.3) < three_sigma_binomial(0.3, maskable)

    def test_a_aug_layer_selection_uniform(self):
        rng = np.random.default_rng(1)
        layout = RecordLayout((4, 4, 4, 2))      # 3 maskable layers
        counts = np.zeros(3)
        nonempty = 0
        draws = 60_000
        mask = sample_mask("a_aug", 0.5, layout, draws, rng)
        for i in range(draws):
            row = mask.values[i]
            if row.any():
                nonempty += 1
                for l in range(3):
                    if row[layout.layer_slice(l)].all():
                        counts[l] += 1
        assert nonempty > 25_000
        freq = counts / nonempty
        for f in freq:
            assert abs(f - 1 / 3) < three_sigma_binomial(1 / 3, nonempty)

    def test_x_drop_confined_to_layer_zero(self):
        rng = np.random.default_rng(2)
        mask = sample_mask("x_drop", 0.4, LAYOUT, 64, rng)
        beyond = mask.values[:, LAYOUT.sizes[0]:]
        assert not beyond.any()
        assert mask.values[:, :LAYOUT.sizes[0]].any()

    def test_x_aug_all_or_nothing_per_example(self):
        rng = np.random.default_rng(3)
        mask = sample_mask("x_aug", 0.5, LAYOUT, 500, rng)
        layer0 = mask.values[:, LAYOUT.layer_slice(0)]
        per_row = layer0.sum(axis=1)
        assert set(np.unique(per_row)) <= {0.0, float(LAYOUT.sizes[0])}
        assert not mask.values[:, LAYOUT.sizes[0]:].any()

    def test_aug_gate_probability(self):
        rng = np.random.default_rng(4)
        n = 100_000
        mask = sample_mask("x_aug", 0.3, LAYOUT, n, rng)
        nonempty = (mask.values.sum(axis=1) > 0).mean()
        assert abs(nonempty - 0.3) < three_sigma_binomial(0.3, n)

    def test_a_aug_masks_exactly_one_full_layer(self):
        rng = np.random.default_rng(5)
        mask = sample_mask("a_aug", 0.9, LAYOUT, 200, rng)
        for row in mask.values:
            if not row.any():
                continue
            covered = [l for l in range(LAYOUT.n_layers)
                       if row[LAYOUT.layer_slice(l)].any()]
            assert len(covered) == 1
            l = covered[0]
            assert row[LAYOUT.layer_slice(l)].all()
            assert l < LAYOUT.n_layers - 1

    def test_logits_layer_never_masked(self):
        for mode in ("x_drop", "x_aug", "a_drop", "a_aug"):
            rng = np.random.default_rng(6)
            mask = sample_mask(mode, 0.7, LAYOUT, 128, rng)
            logits = mask.values[:, LAYOUT.layer_slice(LAYOUT.n_layers - 1)]
            assert not logits.any()

    def test_reproducible_under_seed(self):
        a = sample_mask("a_drop", 0.5, LAYOUT, 32, np.random.default_rng(99))
        b = sample_mask("a_drop", 0.5, LAYOUT, 32, np.random.default_rng(99))
        np.testing.assert_array_equal(a.values, b.values)

    def test_invalid_inputs(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="mask rate"):
            sample_mask("a_drop", 0.0, LAYOUT, 4, rng)
        with pytest.raises(ValueError, match="mask rate"):
            sample_mask("a_drop", 1.0, LAYOUT, 4, rng)
        with pytest.raises(ValueError, match="unknown mask mode"):
            sample_mask("b_drop", 0.5, LAYOUT, 4, rng)


class TestSplice:
    def test_empty_mask_returns_original(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, LAYOUT.total))
        imputed = rng.standard_normal((3, LAYOUT.total))
        out = splice(a, imputed, empty_mask(LAYOUT, 3))
        np.testing.assert_array_equal(out, a)

    def test_full_nonlogit_mask_takes_imputed(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((2, LAYOUT.total))
        imputed = rng.standard_normal((2, LAYOUT.total))
        values = np.zeros((2, LAYOUT.total))
        maskable = LAYOUT.total - LAYOUT.sizes[-1]
        values[:, :maskable] = 1.0
        mask = Mask(values, "a_drop", 0.5, LAYOUT)
        out = splice(a, imputed, mask)
        np.testing.assert_array_equal(out[:, :maskable], imputed[:, :maskable])
        np.testing.assert_array_equal(out[:, maskable:], a[:, maskable:])

    def test_three_element_example(self):
        layout = RecordLayout((2, 1))
        a = np.array([[1.0, 2.0, 3.0]])
        imputed = np.array([[9.0, 0.0, 8.0]])
        mask = Mask(np.array([[1.0, 0.0, 1.0]]), "a_drop", 0.5, layout)
        out = splice(a, imputed, mask)
        np.testing.assert_array_equal(out, [[9.0, 2.0, 8.0]])

    def test_self_splice_idempotent_any_mask(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, LAYOUT.total))
        for mode in ("x_drop", "x_aug", "a_drop", "a_aug"):
            mask = sample_mask(mode, 0.6, LAYOUT, 6, rng)
            np.testing.assert_array_equal(splice(a, a, mask), a)

    def test_shape_mismatch(self):
        mask = empty_mask(LAYOUT, 2)
        with pytest.raises(ValueError, match="splice"):
            splice(np.zeros((2, 5)), np.zeros((2, 5)), mask)


def _block_by_rows(mode, rate, layout, batch, rng):
    """Reference: the eager per-row loop ``sample_mask`` used before it
    assigned one block of rows per layer, and before block masks built
    their values on first read."""
    values = np.zeros((batch, layout.total))
    gate = rng.random(batch) < rate
    chosen = (rng.integers(0, layout.n_layers - 1, size=batch) if mode == "a_aug"
              else np.zeros(batch, dtype=int))
    for i in np.nonzero(gate)[0]:
        values[i, layout.layer_slice(int(chosen[i]))] = 1.0
    return values


class TestBlockIndex:
    @pytest.mark.parametrize("mode", ["x_aug", "a_aug"])
    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_lazy_values_match_eager_per_row_loop(self, mode, seed):
        for rate in (0.2, 0.5, 0.9):
            rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
            mask = sample_mask(mode, rate, LAYOUT, 257, rng_new)
            reference = _block_by_rows(mode, rate, LAYOUT, 257, rng_old)
            # the draw is complete before the values are first read
            assert rng_new.bit_generator.state == rng_old.bit_generator.state
            assert mask.values.tobytes() == reference.tobytes()
            assert mask.values is mask.values
            assert rng_new.bit_generator.state == rng_old.bit_generator.state

    def test_a_mask_needs_values_or_a_block_index(self):
        with pytest.raises(ValueError, match="block index"):
            Mask(None, "a_aug", 0.5, LAYOUT)
        lazy = Mask(values=None, mode="x_aug", rate=0.5, layout=LAYOUT, block=np.array([0, -1]))
        expected = np.zeros((2, LAYOUT.total))
        expected[0, LAYOUT.layer_slice(0)] = 1.0
        assert lazy.values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("mode", ["x_aug", "a_aug"])
    def test_block_index_agrees_with_values(self, mode):
        mask = sample_mask(mode, 0.6, LAYOUT, 300, np.random.default_rng(8))
        assert mask.block.shape == (300,)
        assert set(np.unique(mask.block)) <= set(range(-1, LAYOUT.n_layers - 1))
        rebuilt = np.zeros_like(mask.values)
        for i, layer in enumerate(mask.block):
            if layer >= 0:
                rebuilt[i, LAYOUT.layer_slice(layer)] = 1.0
        assert rebuilt.tobytes() == mask.values.tobytes()
        for layer in range(LAYOUT.n_layers):
            np.testing.assert_array_equal(mask.masked_rows(layer),
                                          mask.layer(layer).any(axis=1))

    def test_empty_mask_has_empty_block_index(self):
        mask = empty_mask(LAYOUT, 5)
        np.testing.assert_array_equal(mask.block, np.full(5, -1))

    def test_drop_modes_and_hand_built_masks_carry_none(self):
        for mode in ("x_drop", "a_drop"):
            assert sample_mask(mode, 0.5, LAYOUT, 4, np.random.default_rng(0)).block is None
        mask = Mask(np.ones((2, LAYOUT.total)), "a_drop", 0.5, LAYOUT)
        assert mask.block is None
        assert mask.masked_rows(3).all()
