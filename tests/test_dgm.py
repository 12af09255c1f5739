"""Activation DGM: distribution heads, ELBO terms, hyperprior, imputation."""

import dataclasses

import numpy as np
import pytest

from pilot import autodiff as ad
from pilot.autodiff import NumericsError, Tensor
from pilot.dgm import (
    ActivationDGM,
    DGMConfig,
    DiagonalGaussian,
    HyperpriorConfig,
    PreparedBatch,
    RunningStandardizer,
    gaussian_loglik_masked,
    hyperprior_penalty,
    kl_diag,
    reparam_sample,
)
from pilot.masks import Mask, empty_mask, sample_mask
from pilot.nets import RecordLayout
from pilot.optim import Adam, clip_gradients, global_norm

from helpers import check_gradients

LAYOUT = RecordLayout((3, 2, 1))        # 6 positions, last is "logits"
TINY = DGMConfig(latent_dim=2, hidden=(8,), standardize=False)


def tiny_dgm(seed=0, config=TINY):
    return ActivationDGM(LAYOUT.total, config, np.random.default_rng(seed))


def sampling(model, sample):
    """``model`` with its ``config.impute_sample`` set to ``sample``."""
    model.config = dataclasses.replace(model.config, impute_sample=sample)
    return model


def fixed_mask(batch, columns):
    values = np.zeros((batch, LAYOUT.total))
    values[:, columns] = 1.0
    return Mask(values, "a_drop", 0.5, LAYOUT)


def gauss(mean, logvar):
    return DiagonalGaussian(Tensor(np.atleast_2d(mean)), Tensor(np.atleast_2d(logvar)))


class TestEncoderPrior:
    def test_zero_init_gives_standard_normal(self):
        model = tiny_dgm()
        for net in (model.encoder, model.prior_net):
            for w in net.weights:
                w.data = np.zeros_like(w.data)
            for b in net.biases:
                b.data = np.zeros_like(b.data)
        a = np.random.default_rng(1).standard_normal((4, LAYOUT.total))
        mask = fixed_mask(4, [0, 1])
        for head in (model.encode(a, mask), model.prior(a, mask)):
            np.testing.assert_array_equal(head.mean.data, 0.0)
            np.testing.assert_array_equal(head.logvar.data, 0.0)   # variance 1

    def test_encoder_deterministic(self):
        model = tiny_dgm()
        a = np.random.default_rng(2).standard_normal((3, LAYOUT.total))
        mask = fixed_mask(3, [2])
        g1 = model.encode(a, mask)
        g2 = model.encode(a, mask)
        np.testing.assert_array_equal(g1.mean.data, g2.mean.data)
        np.testing.assert_array_equal(g1.logvar.data, g2.logvar.data)

    def test_encoder_sees_masked_positions(self):
        model = tiny_dgm()
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, LAYOUT.total))
        mask = fixed_mask(2, [0, 4])
        base = model.encode(a, mask).mean.data
        perturbed = a.copy()
        perturbed[:, [0, 4]] += 1.0
        assert not np.allclose(model.encode(perturbed, mask).mean.data, base)

    def test_prior_blind_to_masked_positions(self):
        model = tiny_dgm()
        rng = np.random.default_rng(4)
        a = rng.standard_normal((2, LAYOUT.total))
        mask = fixed_mask(2, [1, 3])
        base = model.prior(a, mask)
        perturbed = a.copy()
        perturbed[:, [1, 3]] = rng.standard_normal((2, 2)) * 10
        after = model.prior(perturbed, mask)
        np.testing.assert_array_equal(base.mean.data, after.mean.data)
        np.testing.assert_array_equal(base.logvar.data, after.logvar.data)

    def test_prior_with_empty_mask_sees_everything(self):
        model = tiny_dgm()
        rng = np.random.default_rng(5)
        a = rng.standard_normal((2, LAYOUT.total))
        mask = empty_mask(LAYOUT, 2)
        base = model.prior(a, mask).mean.data
        perturbed = a.copy()
        perturbed[:, 0] += 1.0
        assert not np.allclose(model.prior(perturbed, mask).mean.data, base)


class TestReparam:
    def test_zero_eps_returns_mean(self):
        g = gauss([1.0, -2.0], [0.3, -0.1])
        z = reparam_sample(g, np.zeros((1, 2)))
        np.testing.assert_array_equal(z.data, [[1.0, -2.0]])

    def test_moments_monte_carlo(self):
        rng = np.random.default_rng(6)
        n = 100_000
        g = DiagonalGaussian(Tensor(np.full((n, 1), 1.0)), Tensor(np.full((n, 1), np.log(4.0))))
        z = reparam_sample(g, rng.standard_normal((n, 1))).data
        assert abs(z.mean() - 1.0) < 0.02
        assert abs(z.var() - 4.0) < 0.1

    def test_gradient_flows_to_mean_and_sigma(self):
        mean = Tensor(np.zeros((1, 2)), requires_grad=True)
        logvar = Tensor(np.zeros((1, 2)), requires_grad=True)
        eps = np.array([[0.5, -1.5]])
        z = reparam_sample(DiagonalGaussian(mean, logvar), eps)
        z.sum().backward()
        np.testing.assert_allclose(mean.grad, [[1.0, 1.0]])
        np.testing.assert_allclose(logvar.grad, 0.5 * eps)   # d(sigma*eps)/dlogvar at logvar=0


class TestKL:
    def test_identical_distributions_zero(self):
        q = gauss([0.3, -1.0], [0.2, 0.4])
        p = gauss([0.3, -1.0], [0.2, 0.4])
        assert abs(kl_diag(q, p).data[0]) < 1e-12

    def test_unit_shift_half(self):
        q = gauss([0.0], [0.0])
        p = gauss([1.0], [0.0])
        np.testing.assert_allclose(kl_diag(q, p).data, [0.5], atol=1e-12)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            q = gauss(rng.uniform(-2, 2, 4), rng.uniform(-1, 1, 4))
            p = gauss(rng.uniform(-2, 2, 4), rng.uniform(-1, 1, 4))
            assert kl_diag(q, p).data[0] >= 0.0

    def test_matches_monte_carlo_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            mu_q, lv_q = rng.uniform(-2, 2, 3), rng.uniform(-1, 1, 3)
            mu_p, lv_p = rng.uniform(-2, 2, 3), rng.uniform(-1, 1, 3)
            analytic = float(kl_diag(gauss(mu_q, lv_q), gauss(mu_p, lv_p)).data[0])
            # MC oracle: E_q[log q - log p]
            z = mu_q + np.exp(0.5 * lv_q) * rng.standard_normal((1_000_000, 3))
            log_q = -0.5 * (((z - mu_q) ** 2) / np.exp(lv_q) + lv_q + np.log(2 * np.pi)).sum(axis=1)
            log_p = -0.5 * (((z - mu_p) ** 2) / np.exp(lv_p) + lv_p + np.log(2 * np.pi)).sum(axis=1)
            mc = float((log_q - log_p).mean())
            assert abs(analytic - mc) / max(analytic, 1e-3) < 0.01


class TestDecoderLoglik:
    def test_perfect_mean(self):
        k, var = 4, 0.1
        target = np.random.default_rng(9).standard_normal((1, 6))
        mask = np.zeros((1, 6))
        mask[0, :k] = 1.0
        ll = gaussian_loglik_masked(target, Tensor(target), mask, var)
        np.testing.assert_allclose(ll.data, [k * (-0.5 * np.log(2 * np.pi * var))], atol=1e-12)

    def test_empty_mask_zero(self):
        target = np.ones((2, 6))
        ll = gaussian_loglik_masked(target, Tensor(target + 3.0), np.zeros((2, 6)), 0.1)
        np.testing.assert_array_equal(ll.data, [0.0, 0.0])

    def test_single_dim_offset(self):
        target = np.zeros((1, 6))
        mean = np.zeros((1, 6))
        mean[0, 2] = 0.1
        mask = np.zeros((1, 6))
        mask[0, 2] = 1.0
        ll = gaussian_loglik_masked(target, Tensor(mean), mask, 0.1)
        np.testing.assert_allclose(ll.data, [-0.5 * np.log(2 * np.pi * 0.1) - 0.05], atol=1e-12)


class TestHyperprior:
    def test_standard_output_penalty(self):
        p = gauss([0.0, 0.0], [0.0, 0.0])      # mu=0, sigma=1
        cfg = HyperpriorConfig(sigma_mu=10.0, sigma_sigma=1.0)
        np.testing.assert_allclose(hyperprior_penalty(p, cfg).data, [2.0], atol=1e-12)  # 1 per dim

    def test_squared_mean_value(self):
        p = gauss([10.0], [0.0])
        cfg = HyperpriorConfig(sigma_mu=10.0, sigma_sigma=1.0)
        # mean term 0.5 plus gamma term 1.0 at sigma=1
        np.testing.assert_allclose(hyperprior_penalty(p, cfg).data, [1.5], atol=1e-12)

    def test_literal_linear_form(self):
        p = gauss([10.0], [0.0])
        cfg = HyperpriorConfig(sigma_mu=10.0, sigma_sigma=1.0, form="literal_linear")
        np.testing.assert_allclose(hyperprior_penalty(p, cfg).data, [10.0 / 200.0 + 1.0], atol=1e-12)

    def test_gradient_stationary_at_zero_mean(self):
        mean = Tensor(np.zeros((1, 3)), requires_grad=True)
        logvar = Tensor(np.zeros((1, 3)))
        pen = hyperprior_penalty(DiagonalGaussian(mean, logvar), HyperpriorConfig())
        pen.sum().backward()
        np.testing.assert_array_equal(mean.grad, 0.0)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(10)
        cfg = HyperpriorConfig()
        for _ in range(50):
            p = gauss(rng.uniform(-3, 3, 4), rng.uniform(-2, 2, 4))
            assert hyperprior_penalty(p, cfg).data[0] > 0.0


class TestLambdaElbo:
    def test_empty_mask_reduces_to_kl_and_penalty(self):
        model = tiny_dgm(seed=11)
        a = np.random.default_rng(12).standard_normal((4, LAYOUT.total))
        mask = empty_mask(LAYOUT, 4)
        lam, diag = model.lambda_elbo(a, mask, rng=np.random.default_rng(0))
        assert diag["recon"] == 0.0
        np.testing.assert_allclose(float(lam.data), -(diag["kl"] + diag["penalty"]), atol=1e-10)

    def test_lambda_bounded_by_reconstruction(self):
        model = tiny_dgm(seed=13)
        a = np.random.default_rng(14).standard_normal((4, LAYOUT.total))
        mask = fixed_mask(4, [0, 3])
        _, diag = model.lambda_elbo(a, mask, rng=np.random.default_rng(1))
        assert diag["lambda"] <= diag["recon"]

    def test_non_finite_term_is_named(self):
        model = tiny_dgm(seed=15)
        a = np.full((2, LAYOUT.total), np.nan)
        mask = fixed_mask(2, [0])
        with pytest.raises(NumericsError, match="recon|kl|penalty"):
            model.lambda_elbo(a, mask, rng=np.random.default_rng(2))

    def test_gradients_match_finite_differences(self):
        model = tiny_dgm(seed=16)
        a = np.random.default_rng(17).standard_normal((3, LAYOUT.total))
        mask = fixed_mask(3, [1, 4])
        eps = np.random.default_rng(18).standard_normal((3, TINY.latent_dim))
        params = model.parameters()
        check_gradients(lambda: model.lambda_elbo(a, mask, eps=eps)[0], params, tol=1e-3)

    def test_requires_rng_or_eps(self):
        model = tiny_dgm()
        with pytest.raises(ValueError, match="rng"):
            model.lambda_elbo(np.zeros((1, LAYOUT.total)), fixed_mask(1, [0]))


def train_toy_dgm(model, records, mask_rng_seed=20, steps=500, lr=3e-3):
    opt = Adam(model.parameters(), lr=lr)
    rng = np.random.default_rng(mask_rng_seed)
    lambdas = []
    for _ in range(steps):
        mask = sample_mask("a_drop", 0.5, LAYOUT, len(records), rng)
        lam, diag = model.lambda_elbo(records, mask, rng=rng)
        loss = -lam
        opt.zero_grad()
        loss.backward()
        opt.step(clip_gradients([p.grad for p in opt.params], 5.0))
        lambdas.append(diag["lambda"])
    return lambdas


def toy_records(n=64, seed=21):
    # each record is a deterministic linear image of one scalar: imputable
    rng = np.random.default_rng(seed)
    t = rng.uniform(-2, 2, size=(n, 1))
    basis = np.array([[1.0, 1.0, -1.0, 2.0, 0.5, -0.5]])
    return t @ basis + 0.01 * rng.standard_normal((n, LAYOUT.total))


class TestImpute:
    def test_empty_mask_no_effect_positions(self):
        model = tiny_dgm(seed=22)
        a = np.random.default_rng(23).standard_normal((3, LAYOUT.total))
        mask = empty_mask(LAYOUT, 3)
        out = model.impute(a, mask, np.random.default_rng(0))
        assert out.shape == a.shape          # values only meaningful under the mask

    def test_impute_blind_to_masked_positions(self):
        model = tiny_dgm(seed=24)
        rng = np.random.default_rng(25)
        a = rng.standard_normal((2, LAYOUT.total))
        mask = fixed_mask(2, [0, 2])
        base = model.impute(a, mask, np.random.default_rng(7))
        perturbed = a.copy()
        perturbed[:, [0, 2]] = 99.0
        again = model.impute(perturbed, mask, np.random.default_rng(7))
        np.testing.assert_array_equal(base, again)

    def test_training_improves_imputation(self):
        records = toy_records()
        mask = fixed_mask(len(records), [0, 3])
        probe_rng = lambda: np.random.default_rng(99)

        untrained = tiny_dgm(seed=26)
        before = np.abs(untrained.impute(records, mask, probe_rng()) - records)[:, [0, 3]].mean()
        trained = tiny_dgm(seed=26)
        train_toy_dgm(trained, records)
        after = np.abs(trained.impute(records, mask, probe_rng()) - records)[:, [0, 3]].mean()
        assert after < before

    def test_lambda_increases_over_training(self):
        records = toy_records(seed=27)
        model = tiny_dgm(seed=28)
        lambdas = train_toy_dgm(model, records)
        assert lambdas[-1] > lambdas[0]

    def test_sampling_flag_adds_decoder_noise(self):
        model = tiny_dgm(seed=29)
        a = np.random.default_rng(30).standard_normal((2, LAYOUT.total))
        mask = fixed_mask(2, [1])
        mean_imp = model.impute(a, mask, np.random.default_rng(3))
        samp_imp = sampling(model, True).impute(a, mask, np.random.default_rng(3))
        assert not np.allclose(mean_imp, samp_imp)


class TestElboAgainstImportanceSampling:
    def test_trained_lambda_below_is_estimate(self):
        records = toy_records(n=32, seed=31)[:8]
        model = tiny_dgm(seed=32)
        train_toy_dgm(model, records, steps=400)
        mask = fixed_mask(len(records), [0, 3])
        var = model.config.decoder_variance

        # tight Lambda: analytic KL/penalty, 1000-sample reconstruction average
        rng = np.random.default_rng(33)
        q = model.encode(records, mask)
        p = model.prior(records, mask)
        mu_q, lv_q = q.mean.data, q.logvar.data
        mu_p, lv_p = p.mean.data, p.logvar.data
        kl = float(kl_diag(q, p).data.mean())
        pen = float(hyperprior_penalty(p, model.config.hyperprior).data.mean())

        observed = records * (1.0 - mask.values)     # what the decoder sees

        def decoder_ll(z_batch):
            mean = model.decoder(observed, mask, Tensor(z_batch)).data
            resid = ((records - mean) ** 2) / var + np.log(2 * np.pi * var)
            return -0.5 * (mask.values * resid).sum(axis=1)

        recon = np.zeros(len(records))
        for _ in range(1000):
            z = mu_q + np.exp(0.5 * lv_q) * rng.standard_normal(mu_q.shape)
            recon += decoder_ll(z)
        lam = float(recon.mean() / 1000) - kl - pen

        # importance-sampling oracle with 1e4 samples per example
        n_is = 10_000
        is_estimates = []
        for i in range(len(records)):
            rep = np.repeat(records[i : i + 1], n_is, axis=0)
            mask_rep = Mask(np.repeat(mask.values[i : i + 1], n_is, axis=0), "a_drop", 0.5, LAYOUT)
            z = mu_q[i] + np.exp(0.5 * lv_q[i]) * rng.standard_normal((n_is, mu_q.shape[1]))
            mean = model.decoder(rep * (1.0 - mask_rep.values), mask_rep, Tensor(z)).data
            resid = ((rep - mean) ** 2) / var + np.log(2 * np.pi * var)
            ll = -0.5 * (mask_rep.values * resid).sum(axis=1)
            log_q = -0.5 * (((z - mu_q[i]) ** 2) / np.exp(lv_q[i]) + lv_q[i] + np.log(2 * np.pi)).sum(axis=1)
            log_p = -0.5 * (((z - mu_p[i]) ** 2) / np.exp(lv_p[i]) + lv_p[i] + np.log(2 * np.pi)).sum(axis=1)
            w = ll + log_p - log_q
            m = w.max()
            is_estimates.append(m + np.log(np.exp(w - m).mean()))
        is_mean = float(np.mean(is_estimates))
        assert lam <= is_mean + 0.05


class TestStandardizer:
    def test_moments_match_batches(self):
        rng = np.random.default_rng(34)
        std = RunningStandardizer(4)
        batches = [rng.standard_normal((32, 4)) * 2.0 + 5.0 for _ in range(10)]
        for b in batches:
            std.update(b)
        stacked = np.concatenate(batches)
        np.testing.assert_allclose(std.mean, stacked.mean(axis=0), atol=1e-10)
        np.testing.assert_allclose(std._std(), np.sqrt(stacked.var(axis=0) + 1e-8), atol=1e-10)

    def test_transform_round_trip(self):
        rng = np.random.default_rng(35)
        std = RunningStandardizer(3)
        std.update(rng.standard_normal((100, 3)) * 4.0 - 1.0)
        a = rng.standard_normal((7, 3))
        np.testing.assert_allclose(std.untransform(std.transform(a)), a, atol=1e-10)

    def test_freeze_stops_updates(self):
        rng = np.random.default_rng(36)
        std = RunningStandardizer(2)
        std.update(rng.standard_normal((50, 2)))
        frozen_mean = std.mean.copy()
        std.freeze()
        std.update(rng.standard_normal((50, 2)) + 100.0)
        np.testing.assert_array_equal(std.mean, frozen_mean)

    def test_frozen_std_is_cached_and_byte_identical(self):
        rng = np.random.default_rng(38)
        std = RunningStandardizer(5)
        std.update(rng.standard_normal((40, 5)) * 3.0 + 2.0)
        a = rng.standard_normal((6, 5))
        cols = slice(1, 4)
        live = std.transform(a).tobytes(), std.untransform(a[:, cols], cols).tobytes()
        std.freeze()
        assert std._std() is std._std()                    # computed once, at freeze
        loaded = RunningStandardizer(5)
        loaded.load_state(std.state_arrays())
        assert loaded.frozen and loaded._std() is loaded._std()
        for s in (std, loaded):
            assert s.transform(a).tobytes() == live[0]
            assert s.untransform(a[:, cols], cols).tobytes() == live[1]

    def test_disabled_is_identity(self):
        std = RunningStandardizer(3, enabled=False)
        std.update(np.ones((10, 3)) * 7.0)
        a = np.random.default_rng(37).standard_normal((4, 3))
        np.testing.assert_array_equal(std.transform(a), a)
        np.testing.assert_array_equal(std.untransform(a), a)


# Record layouts of a small MLP (6-10-10-3) and a small CNN (2x8x8 input,
# conv 3 and 4 channels, dense 10, 3 classes).
BLOCK_LAYOUTS = {"mlp": RecordLayout((6, 10, 10, 3)),
                 "cnn": RecordLayout((128, 108, 64, 10, 3))}


def block_world(kind, hidden=(16, 12), seed=40, n_z=1):
    """A DGM with a live standardiser and a batch of records for ``kind``."""
    layout = BLOCK_LAYOUTS[kind]
    rng = np.random.default_rng(seed)
    model = ActivationDGM(layout.total, DGMConfig(latent_dim=3, hidden=hidden, n_z=n_z), rng)
    scale = rng.uniform(0.5, 3.0, size=layout.total)
    model.standardizer.update(rng.standard_normal((64, layout.total)) * scale + 1.0)
    records = rng.standard_normal((24, layout.total)) * scale + 1.0
    return layout, model, records


def dense_copy(mask):
    """The same mask without its block index: the ELBO and imputation
    take their dense paths."""
    return Mask(mask.values, mask.mode, mask.rate, mask.layout)


def assert_impute_matches_dense(layout, model, twin, records, mode, sample, prepared):
    """``model``'s imputations under block masks of ``mode`` against its
    dense ``twin``'s on the same masks without their block index."""
    model, twin = sampling(model, sample), sampling(twin, sample)
    for seed in range(3):
        mask = sample_mask(mode, 0.6, layout, len(records), np.random.default_rng(seed))
        assert mask.block is not None and (mask.block >= 0).any()
        rng_block, rng_dense = np.random.default_rng(50 + seed), np.random.default_rng(50 + seed)
        extra = {"prepared": PreparedBatch(model, records)} if prepared else {}
        block = model.impute(records, mask, rng_block, **extra)
        dense = twin.impute(records, dense_copy(mask), rng_dense)
        on = mask.values > 0
        scale = np.abs(dense[on]).max()
        np.testing.assert_allclose(block[on], dense[on], rtol=1e-12, atol=1e-12 * scale)
        assert not block[~on].any() and not dense[~on].any()
        assert rng_block.bit_generator.state == rng_dense.bit_generator.state


class TestBlockImpute:
    """The block route of a table DGM at its initial draw, as ``train()``
    builds it, against its dense twin (:func:`table_pair`) on the same mask
    without its block index."""

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    @pytest.mark.parametrize("mode", ["a_aug", "x_aug"])
    @pytest.mark.parametrize("sample", [False, True])
    @pytest.mark.parametrize("prepared", [False, True])
    def test_matches_dense_path(self, kind, mode, sample, prepared):
        layout, dense, table, records = table_pair(kind)
        assert_impute_matches_dense(layout, table, dense, records, mode, sample, prepared)

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    @pytest.mark.parametrize("sample", [False, True])
    def test_reused_prepared_batch_matches_a_fresh_one(self, kind, sample):
        # Each imputation rewrites the prepared batch's one array: zero off
        # its own mask, whatever the last imputation wrote there.
        layout, _, model, records = table_pair(kind)
        model = sampling(model, sample)
        prepared = PreparedBatch(model, records)
        for seed in range(4):
            mode = ("a_aug", "x_aug")[seed % 2]
            mask = sample_mask(mode, 0.6, layout, len(records), np.random.default_rng(seed))
            out = model.impute(records, mask, np.random.default_rng(70 + seed), prepared=prepared)
            fresh = model.impute(records, mask, np.random.default_rng(70 + seed),
                                 prepared=PreparedBatch(model, records))
            assert out is prepared.imputed
            assert out.tobytes() == fresh.tobytes()

    def test_one_layer_stacks_match_dense_path(self):
        # hidden=(5,), the shallowest stack: the output layer follows the first
        layout, dense, model, records = table_pair("cnn", hidden=(5,))
        mask = sample_mask("a_aug", 0.7, layout, len(records), np.random.default_rng(4))
        expected = dense.impute(records, dense_copy(mask), np.random.default_rng(5))
        for extra in ({}, {"prepared": PreparedBatch(model, records)}):
            block = model.impute(records, mask, np.random.default_rng(5), **extra)
            np.testing.assert_allclose(block, expected, rtol=1e-12,
                                       atol=1e-12 * np.abs(expected).max())

    def test_training_prior_pair_gives_same_bits_as_condition(self):
        layout, _, model, records = table_pair("mlp")
        mask = sample_mask("a_aug", 0.5, layout, len(records), np.random.default_rng(6))
        shared = model.condition(records, mask)
        a = model.impute(records, mask, np.random.default_rng(7), prior=shared)
        b = model.impute(records, mask, np.random.default_rng(7))
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("route", ["dense", "prior", "prepared"])
    def test_imputation_records_no_graph(self, route):
        # With gradients on, as in a training step: imputation walks the
        # stacks' own graph ops, but records no node, leaves every gradient
        # as it was and does not extend the shared prior's graph.
        layout, dense, model, records = table_pair("mlp")
        mask = sample_mask("a_aug", 0.6, layout, len(records), np.random.default_rng(11))
        if route == "dense":
            model, mask = dense, dense_copy(mask)
        model.lambda_elbo(records, mask, np.random.default_rng(12))[0].backward()
        grads = [p.grad.copy() for p in model.parameters()]
        shared = model.condition(records, mask)
        nodes = ad._topo_order(shared[2].mean) + ad._topo_order(shared[2].logvar)
        graph = [(node, node._parents, node.grad) for node in nodes]
        extra = ({"prepared": PreparedBatch(model, records)} if route == "prepared"
                 else {"prior": shared})
        seq = next(ad._counter)
        model.impute(records, mask, np.random.default_rng(13), **extra)
        assert next(ad._counter) == seq + 1
        for p, g in zip(model.parameters(), grads):
            assert p.grad.tobytes() == g.tobytes()
        assert nodes and all(node._parents is parents and node.grad is grad
                             for node, parents, grad in graph)

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    @pytest.mark.parametrize("mode", ["a_aug", "x_aug"])
    def test_blind_to_masked_block(self, kind, mode):
        # criterion 4's barrier on the block paths: the masked block scaled
        # 25x leaves every output byte unchanged
        layout, dense, model, records = table_pair(kind)
        mask = sample_mask(mode, 0.6, layout, len(records), np.random.default_rng(8))
        scaled = np.where(mask.values > 0, records * 25.0, records)
        for dgm, m in ((model, mask), (dense, dense_copy(mask))):
            base = dgm.impute(records, m, np.random.default_rng(9))
            again = dgm.impute(scaled, m, np.random.default_rng(9))
            assert base.tobytes() == again.tobytes()
        base = model.impute(records, mask, np.random.default_rng(9),
                            prepared=PreparedBatch(model, records))
        again = model.impute(scaled, mask, np.random.default_rng(9),
                             prepared=PreparedBatch(model, scaled))
        assert base.tobytes() == again.tobytes()

    def test_empty_block_mask_imputes_zeros_and_draws_latent_noise(self):
        layout, _, model, records = table_pair("mlp")
        rng = np.random.default_rng(10)
        out = model.impute(records, empty_mask(layout, len(records)), rng)
        assert out.shape == records.shape and not out.any()
        reference = np.random.default_rng(10)
        reference.standard_normal((len(records), model.config.latent_dim))
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_prepared_batch_must_match_the_mask(self):
        layout, _, model, records = table_pair("mlp")
        mask = sample_mask("a_aug", 0.5, layout, 4, np.random.default_rng(0))
        with pytest.raises(ValueError, match="prepared batch"):
            model.impute(records[:4], mask, np.random.default_rng(0),
                         prepared=PreparedBatch(model, records))

    @pytest.mark.parametrize("sample", [False, True])
    def test_dgm_without_the_layout_imputes_densely(self, sample):
        # The build, not the mask, picks the route: a dense-Wb DGM under a
        # block mask imputes on the dense path, and prepares no batch.
        layout, dense, _, records = table_pair("cnn")
        dense = sampling(dense, sample)
        mask = sample_mask("a_aug", 0.6, layout, len(records), np.random.default_rng(14))
        assert (mask.block >= 0).any()
        got = dense.impute(records, mask, np.random.default_rng(15))
        expected = dense.impute(records, dense_copy(mask), np.random.default_rng(15))
        assert got.tobytes() == expected.tobytes()
        with pytest.raises(ValueError, match="layout"):
            PreparedBatch(dense, records)


def elbo_and_gradients(model, records, mask, eps):
    for p in model.parameters():
        p.grad = None
    lam, diag = model.lambda_elbo(records, mask, eps=eps)
    lam.backward()
    return float(lam.data), diag, [p.grad for p in model.parameters()]


def assert_elbo_matches_dense(model, records, mask, twin=None):
    """``model``'s ELBO and gradients under ``mask`` against ``twin``'s
    (default: ``model``'s) on the same mask without its block index. A
    table's gradient is each row of its layer's block's in the twin's
    ``Wb``."""
    twin = model if twin is None else twin
    eps = [np.random.default_rng(60 + i).standard_normal((len(records), model.config.latent_dim))
           for i in range(model.config.n_z)]
    lam, diag, grads = elbo_and_gradients(model, records, mask, eps)
    lam_d, diag_d, grads_d = elbo_and_gradients(twin, records, dense_copy(mask), eps)
    np.testing.assert_allclose(lam, lam_d, rtol=1e-12)
    assert diag.keys() == diag_d.keys()
    for name in diag:
        np.testing.assert_allclose(diag[name], diag_d[name], rtol=1e-12, atol=1e-300)
    for p, g, g_d in zip(model.parameters(), grads, grads_d):
        assert g is not None and g.shape == p.shape
        if g.shape != g_d.shape:
            g = np.repeat(g, mask.layout.sizes, axis=0)
        np.testing.assert_allclose(g, g_d, rtol=1e-12, atol=1e-12 * np.abs(g_d).max())


class TestBlockElbo:
    """The ELBO under a block mask (the decoder head and likelihood on the
    masked block alone) against the dense path on the same mask."""

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    @pytest.mark.parametrize("mode", ["a_aug", "x_aug"])
    @pytest.mark.parametrize("n_z", [1, 2])
    def test_matches_dense_path(self, kind, mode, n_z):
        layout, model, records = block_world(kind, n_z=n_z)
        for seed in range(2):
            mask = sample_mask(mode, 0.6, layout, len(records), np.random.default_rng(seed))
            assert (mask.block >= 0).any() and (mask.block < 0).any()
            assert_elbo_matches_dense(model, records, mask)

    def test_batch_with_no_masked_row(self):
        layout, model, records = block_world("cnn")
        mask = empty_mask(layout, len(records))
        assert_elbo_matches_dense(model, records, mask)
        _, diag = model.lambda_elbo(records, mask, rng=np.random.default_rng(0))
        assert diag["recon"] == 0.0

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    def test_one_layer_stacks_match_dense_path(self, kind):
        # hidden=(5,), the shallowest stack: the output layer follows the first
        layout, model, records = block_world(kind, hidden=(5,))
        mask = sample_mask("a_aug", 0.7, layout, len(records), np.random.default_rng(3))
        assert_elbo_matches_dense(model, records, mask)

    def test_gradients_match_finite_differences(self):
        model = tiny_dgm(seed=41)
        a = np.random.default_rng(42).standard_normal((5, LAYOUT.total))
        mask = Mask(np.zeros((5, LAYOUT.total)), "a_aug", 0.5, LAYOUT, block=np.array([0, -1, 1, 0, 1]))
        for row, layer in enumerate(mask.block):
            if layer >= 0:
                mask.values[row, LAYOUT.layer_slice(layer)] = 1.0
        eps = np.random.default_rng(43).standard_normal((5, TINY.latent_dim))
        check_gradients(lambda: model.lambda_elbo(a, mask, eps=eps)[0], model.parameters(), tol=1e-3)

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    @pytest.mark.parametrize("mode", ["a_aug", "x_aug"])
    def test_prior_blind_to_masked_block(self, kind, mode):
        layout, model, records = block_world(kind)
        mask = sample_mask(mode, 0.6, layout, len(records), np.random.default_rng(8))
        a_std = model.standardizer.transform(records)
        scaled = np.where(mask.values > 0, a_std * 25.0 - 3.0, a_std)
        base, again = model.prior(a_std, mask), model.prior(scaled, mask)
        assert base.mean.data.tobytes() == again.mean.data.tobytes()
        assert base.logvar.data.tobytes() == again.logvar.data.tobytes()
        assert not np.array_equal(model.encode(a_std, mask).mean.data,
                                  model.encode(scaled, mask).mean.data)


class TestFirstLayer:
    """Each stack's first layer, registered as the row blocks Wa, Wb (and Wz
    for the decoder), against the product of the concatenated input with the
    stacked weight it stands for."""

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    @pytest.mark.parametrize("mode", ["x_drop", "x_aug", "a_drop", "a_aug"])
    def test_is_the_concatenated_product(self, kind, mode):
        layout, model, records = block_world(kind)
        mask = sample_mask(mode, 0.6, layout, len(records), np.random.default_rng(70))
        a_std = model.standardizer.transform(records)
        z = np.random.default_rng(71).standard_normal((len(records), model.config.latent_dim))
        for stack, latent in ((model.encoder, None), (model.prior_net, None), (model.decoder, z)):
            parts = [stack.wa, stack.wb] + ([] if latent is None else [stack.wz])
            inputs = [a_std, mask.values] + ([] if latent is None else [latent])
            expected = np.concatenate(inputs, axis=1) @ np.vstack([w.data for w in parts])
            got = stack.first(a_std, mask, None if latent is None else Tensor(latent)).data
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())

    def test_initial_blocks_are_the_rows_of_one_draw(self):
        record_dim, cfg = 7, DGMConfig(latent_dim=2, hidden=(5, 4))
        model = ActivationDGM(record_dim, cfg, np.random.default_rng(72))
        rng = np.random.default_rng(72)     # the same stream, drawn layer by layer
        for stack, dims in ((model.encoder, [14, 5, 4, 4]), (model.prior_net, [14, 5, 4, 4]),
                            (model.decoder, [16, 5, 4, 7])):
            draws = [rng.normal(0.0, np.sqrt(2.0 / n) if i < 2 else 0.1 * np.sqrt(1.0 / n), (n, m))
                     for i, (n, m) in enumerate(zip(dims, dims[1:]))]
            parts = [stack.wa, stack.wb] + ([stack.wz] if stack.wz is not None else [])
            assert np.vstack([w.data for w in parts]).tobytes() == draws[0].tobytes()
            assert all(w.data.base is None for w in parts)     # no view keeps the whole draw alive
            for w, draw in zip(stack.weights, draws[1:]):
                assert w.data.tobytes() == draw.tobytes()
        assert (model.encoder.wz, model.prior_net.wz) == (None, None)


def table_pair(kind, seed=80, hidden=(16, 12)):
    """A dense DGM and a table DGM (built with the layout) from one seed,
    with one standardiser state, plus a batch of records."""
    layout = BLOCK_LAYOUTS[kind]
    cfg = DGMConfig(latent_dim=3, hidden=hidden)
    dense = ActivationDGM(layout.total, cfg, np.random.default_rng(seed))
    table = ActivationDGM(layout.total, cfg, np.random.default_rng(seed), layout)
    rng = np.random.default_rng(seed + 1)
    scale = rng.uniform(0.5, 3.0, size=layout.total)
    for model in (dense, table):
        model.standardizer.update(np.random.default_rng(seed + 2).standard_normal((64, layout.total))
                                  * scale + 1.0)
    return layout, dense, table, rng.standard_normal((24, layout.total)) * scale + 1.0


def layer_sums(w, layout):
    """``w``'s rows summed over each layer of ``layout``, in numpy."""
    return np.array([w[layout.layer_slice(k)].sum(axis=0) for k in range(layout.n_layers)])


def relative_error(got, expected):
    return np.abs(got - expected).max() / max(np.abs(expected).max(), 1e-300)


STACKS = ("encoder", "prior_net", "decoder")


class TestMaskTable:
    """A DGM built with the record layout keeps each stack's Wb as the table
    T = S + n D; it must follow the dense DGM's trajectory under block masks."""

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    @pytest.mark.parametrize("mode", ["a_aug", "x_aug"])
    def test_20_clipped_adam_steps_follow_the_dense_weight(self, kind, mode):
        layout, dense, table, records = table_pair(kind)
        opt_dense = Adam(dense.parameters(), lr=1e-3)
        opt_table = Adam(table.parameters(), lr=1e-3, rows=table.registry.row_counts())
        max_norm = 0.5
        rng = np.random.default_rng(81)
        for step in range(20):
            mask = sample_mask(mode, 0.6, layout, len(records), rng)
            eps = rng.standard_normal((len(records), dense.config.latent_dim))
            norms = []
            for model, opt in ((dense, opt_dense), (table, opt_table)):
                opt.zero_grad()
                model.lambda_elbo(records, mask, eps=eps)[0].backward()
                norms.append(opt.step(max_norm=max_norm))
            assert norms[0] > max_norm                      # the clip binds
            assert abs(norms[1] - norms[0]) <= 1e-12 * norms[0], step
            for name in STACKS:
                d_stack, t_stack = getattr(dense, name), getattr(table, name)
                t = ad.block_table(t_stack.s, t_stack.d, t_stack.sizes).data
                assert relative_error(t, layer_sums(d_stack.wb.data, layout)) <= 1e-12
            t_state, d_state = table.registry.state_arrays(), dense.registry.state_arrays()
            others = [k for k in d_state if not k.endswith(".0.Wb")]
            assert others == [k for k in t_state if not k.endswith((".0.S", ".0.D"))]
            for k in others:
                assert relative_error(t_state[k], d_state[k]) <= 1e-12, (step, k)
        assert np.abs(table.decoder.d.data).max() > 0      # the table moved

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    def test_weighted_global_norm_is_the_dense_norm(self, kind):
        layout, dense, table, records = table_pair(kind)
        mask = sample_mask("a_aug", 0.7, layout, len(records), np.random.default_rng(82))
        eps = np.random.default_rng(83).standard_normal((len(records), 3))
        norms = []
        for model in (dense, table):
            model.lambda_elbo(records, mask, eps=eps)[0].backward()
            rows = model.registry.row_counts()
            norms.append(global_norm([p.grad for p in model.parameters()], rows))
        assert abs(norms[1] - norms[0]) <= 1e-13 * norms[0]

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    def test_initial_tensors_are_the_dense_draws(self, kind):
        layout, dense, table, _ = table_pair(kind, hidden=(5, 4))
        for name in STACKS:
            d_stack, t_stack = getattr(dense, name), getattr(table, name)
            pairs = [(t_stack.wa, d_stack.wa), *zip(t_stack.weights, d_stack.weights),
                     *zip(t_stack.biases, d_stack.biases)]
            if name == "decoder":
                pairs.append((t_stack.wz, d_stack.wz))
            for t, d in pairs:
                assert t.data.tobytes() == d.data.tobytes()
            assert t_stack.s.data.tobytes() == layer_sums(d_stack.wb.data, layout).tobytes()
            assert not t_stack.d.data.any() and t_stack.wb is None
        # each stack's (record, width) Wb became a (layers, width) D
        saved = sum((layout.total - layout.n_layers) * getattr(dense, n).wa.shape[1] for n in STACKS)
        assert sum(p.size for p in dense.parameters()) - sum(p.size for p in table.parameters()) == saved

    def test_upgrade_sums_a_dense_mask_weight(self):
        # an older container's dense Wb becomes S = its row sums per layer, D = 0
        layout, dense, table, records = table_pair("cnn")
        rng = np.random.default_rng(85)
        for name in STACKS:
            getattr(dense, name).wb.data += rng.standard_normal(getattr(dense, name).wb.shape)
        table.load_state(table.upgrade(dense.state_arrays()))
        for name in STACKS:
            d_stack, t_stack = getattr(dense, name), getattr(table, name)
            assert t_stack.s.data.tobytes() == layer_sums(d_stack.wb.data, layout).tobytes()
            assert not t_stack.d.data.any()
        mask = sample_mask("a_aug", 0.6, layout, len(records), np.random.default_rng(86))
        eps = np.random.default_rng(87).standard_normal((len(records), 3))
        np.testing.assert_allclose(table.lambda_elbo(records, mask, eps=eps)[0].data,
                                   dense.lambda_elbo(records, mask, eps=eps)[0].data, rtol=1e-12)
        got, expected = (m.impute(records, mask, np.random.default_rng(88)) for m in (table, dense))
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("mode", ["a_drop", "x_drop"])
    def test_refuses_a_mask_without_blocks(self, mode):
        layout, _, table, records = table_pair("mlp")
        mask = sample_mask(mode, 0.5, layout, len(records), np.random.default_rng(84))
        with pytest.raises(ValueError, match=repr(mode)):
            table.lambda_elbo(records, mask, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match=repr(mode)):
            table.impute(records, mask, np.random.default_rng(0))

    def test_layout_must_match_the_record(self):
        with pytest.raises(ValueError, match="layout"):
            ActivationDGM(5, TINY, np.random.default_rng(0), LAYOUT)


def moved_pair(kind):
    """:func:`table_pair` with each table moved off its initial sums by a
    random ``D``, and the dense twin's ``Wb`` moved to match: every row of
    layer l's block by ``D[l]``."""
    layout, dense, table, records = table_pair(kind)
    rng = np.random.default_rng(89)
    for name in STACKS:
        d = 0.1 * rng.standard_normal(getattr(table, name).d.shape)
        getattr(table, name).d.data[...] = d
        getattr(dense, name).wb.data += np.repeat(d, layout.sizes, axis=0)
    return layout, dense, table, records


class TestTableBlockPaths:
    """The table DGM, as ``train()`` and ``TrainedBundle.load`` build it,
    under a block mask against its dense twin on the same mask without its
    block index: the dense formulation."""

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    @pytest.mark.parametrize("mode", ["a_aug", "x_aug"])
    @pytest.mark.parametrize("sample", [False, True])
    @pytest.mark.parametrize("prepared", [False, True])
    def test_impute_matches_the_dense_twin(self, kind, mode, sample, prepared):
        layout, dense, table, records = moved_pair(kind)
        assert_impute_matches_dense(layout, table, dense, records, mode, sample, prepared)

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    @pytest.mark.parametrize("mode", ["a_aug", "x_aug"])
    def test_elbo_matches_the_dense_twin(self, kind, mode):
        layout, dense, table, records = moved_pair(kind)
        for seed in range(2):
            mask = sample_mask(mode, 0.6, layout, len(records), np.random.default_rng(seed))
            assert (mask.block >= 0).any() and (mask.block < 0).any()
            assert_elbo_matches_dense(table, records, mask, twin=dense)
