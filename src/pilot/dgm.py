"""Generative model over classifier activations with arbitrary conditioning.

An encoder q(z | a, b) sees the full record; a conditional prior
p(z | a_(1-b), b) sees only unmasked values (masked positions zero-filled,
the mask concatenated as extra input features); a Gaussian decoder with
fixed variance scores the masked positions. The per-example evidence lower
bound combines masked reconstruction, the analytic KL between encoder and
prior, and a Normal-Gamma hyperprior penalty on the prior's outputs.

Activations are standardised per position (running moments, frozen after a
warmup fraction of training) before entering the model and de-standardised
on imputation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NumericsError, Tensor
from .masks import Mask
from .nets import Registry, normal_init


@dataclass(frozen=True)
class HyperpriorConfig:
    sigma_mu: float = 10.0
    sigma_sigma: float = 1.0
    form: str = "squared_mean"      # or "literal_linear"

    def __post_init__(self):
        if self.sigma_mu <= 0 or self.sigma_sigma <= 0:
            raise ValueError("hyperprior scales must be positive")
        if self.form not in ("squared_mean", "literal_linear"):
            raise ValueError(f"unknown hyperprior form {self.form!r}")


@dataclass(frozen=True)
class DGMConfig:
    latent_dim: int = 64
    hidden: tuple = (256, 256)
    decoder_variance: float = 0.1
    hyperprior: HyperpriorConfig = HyperpriorConfig()
    n_z: int = 1
    standardize: bool = True
    standardize_warmup: float = 0.25    # fraction of training steps
    impute_sample: bool = False         # sample the likelihood instead of its mean

    def __post_init__(self):
        if self.decoder_variance <= 0:
            raise ValueError("decoder variance must be positive")
        if self.n_z < 1:
            raise ValueError("n_z must be at least 1")


class DiagonalGaussian:
    """Mean / log-variance pair; variance strictly positive by construction."""

    def __init__(self, mean: Tensor, logvar: Tensor):
        self.mean = mean
        self.logvar = logvar

    def sigma(self) -> Tensor:
        return ad.exp(self.logvar * 0.5)

    def variance(self) -> Tensor:
        return ad.exp(self.logvar)


def reparam_sample(g: DiagonalGaussian, eps: np.ndarray) -> Tensor:
    """Differentiable sample z = mean + sigma * eps."""
    eps = np.asarray(eps)
    if eps.shape != tuple(g.mean.shape):
        raise ValueError(f"eps shape {eps.shape} does not match {tuple(g.mean.shape)}")
    return g.mean + g.sigma() * Tensor(eps)


def kl_diag(q: DiagonalGaussian, p: DiagonalGaussian) -> Tensor:
    """Analytic KL(q || p) between diagonal Gaussians, summed per example."""
    if tuple(q.mean.shape) != tuple(p.mean.shape):
        raise ValueError("kl_diag: dimension mismatch")
    term = p.logvar - q.logvar + (q.variance() + ad.square(q.mean - p.mean)) / p.variance() - 1.0
    return term.sum(axis=1) * 0.5


def gaussian_loglik_masked(target: np.ndarray, mean: Tensor, mask_values: np.ndarray,
                           variance: float) -> Tensor:
    """Sum of log N(target | mean, variance) over masked positions, per example."""
    t = Tensor(np.asarray(target))
    resid = ad.square(t - mean) / variance + float(np.log(2.0 * np.pi * variance))
    return (Tensor(mask_values) * resid).sum(axis=1) * (-0.5)


def hyperprior_penalty(prior: DiagonalGaussian, cfg: HyperpriorConfig) -> Tensor:
    """Non-negative penalty subtracted from the ELBO, per example.

    Default form follows the stated Normal-Gamma densities
    (sum mu^2/(2 sigma_mu^2) - sigma_sigma * sum(log sigma - sigma));
    ``literal_linear`` uses the mean term linear in mu instead.
    """
    log_sigma = prior.logvar * 0.5
    sigma = ad.exp(log_sigma)
    if cfg.form == "squared_mean":
        mean_term = ad.square(prior.mean).sum(axis=1) / (2.0 * cfg.sigma_mu ** 2)
    else:
        mean_term = prior.mean.sum(axis=1) / (2.0 * cfg.sigma_mu ** 2)
    gamma_term = (sigma - log_sigma).sum(axis=1) * cfg.sigma_sigma
    return mean_term + gamma_term


class RunningStandardizer:
    """Per-position running mean/variance, frozen after a warmup period."""

    eps = 1e-8

    def __init__(self, dim: int, enabled: bool = True):
        self.dim = dim
        self.enabled = enabled
        self.count = 0.0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros(dim)
        self.frozen = False

    def update(self, batch: np.ndarray) -> None:
        if not self.enabled or self.frozen:
            return
        batch = np.asarray(batch)
        n = batch.shape[0]
        b_mean = batch.mean(axis=0)
        b_m2 = ((batch - b_mean) ** 2).sum(axis=0)
        delta = b_mean - self.mean
        total = self.count + n
        self.mean = self.mean + delta * (n / total)
        self.m2 = self.m2 + b_m2 + delta ** 2 * (self.count * n / total)
        self.count = total

    def freeze(self) -> None:
        self.frozen = True

    def _std(self) -> np.ndarray:
        if self.count < 2:
            return np.ones(self.dim)
        return np.sqrt(self.m2 / self.count + self.eps)

    def transform(self, a: np.ndarray) -> np.ndarray:
        if not self.enabled or self.count < 2:
            return np.asarray(a, dtype=np.float64)
        return (a - self.mean) / self._std()

    def untransform(self, values: np.ndarray, cols=slice(None)) -> np.ndarray:
        """Back to activation units; ``values`` holds the positions ``cols``."""
        if not self.enabled or self.count < 2:
            return values
        return values * self._std()[cols] + self.mean[cols]

    def state_arrays(self) -> dict:
        return {
            "std.mean": self.mean,
            "std.m2": self.m2,
            "std.state": np.array([self.count, float(self.frozen), float(self.enabled)]),
        }

    def load_state(self, arrays: dict) -> None:
        # Copied, not adopted: a loaded array may be a view that keeps a
        # whole checkpoint's buffer alive.
        self.mean = np.array(arrays["std.mean"])
        self.m2 = np.array(arrays["std.m2"])
        self.count, frozen, enabled = arrays["std.state"]
        self.frozen = bool(frozen)
        self.enabled = bool(enabled)


class _DenseStack:
    """Plain relu MLP; final layer linear with damped init for stable heads.
    Its tensors go into ``registry`` as ``<prefix>.<i>.W`` / ``.b``."""

    def __init__(self, dims, rng, prefix: str, registry: Registry):
        self.weights = []
        self.biases = []
        for i in range(len(dims) - 1):
            fan_in = dims[i]
            scale = np.sqrt(2.0 / fan_in) if i < len(dims) - 2 else 0.1 * np.sqrt(1.0 / fan_in)
            w = normal_init(rng, scale, (dims[i], dims[i + 1]))
            self.weights.append(registry.param(f"{prefix}.{i}.W", w))
            self.biases.append(registry.param(f"{prefix}.{i}.b", np.zeros(dims[i + 1])))

    def __call__(self, h: Tensor) -> Tensor:
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = ad.matmul(h, w) + b
            if i < len(self.weights) - 1:
                h = ad.relu(h)
        return h

    def parameters(self):
        out = []
        for w, b in zip(self.weights, self.biases):
            out += [w, b]
        return out

    # Without a graph, from the first layer's pre-activation on: the rows
    # under a block mask (see ``_BlockInput``).

    def hidden_from_first(self, h: np.ndarray) -> np.ndarray:
        """The pre-activation the output layer takes, from the first layer's."""
        for w, b in zip(self.weights[1:-1], self.biases[1:-1]):
            h = np.maximum(h, 0.0) @ w.data + b.data
        return h

    def output_cols(self, h: np.ndarray, cols=slice(None)) -> np.ndarray:
        """The output columns ``cols`` from :meth:`hidden_from_first`'s ``h``."""
        if len(self.weights) == 1:      # h is the output layer's own
            return h[:, cols]
        return np.maximum(h, 0.0) @ self.weights[-1].data[:, cols] + self.biases[-1].data[cols]


class _BlockInput:
    """A stack's first layer, by record block, for rows that each mask one
    whole layer.

    The stack's input is ``[a_std * (1 - b), b, extra]``. For a row that
    masks layer l, the first layer is the sum over every other layer k of
    ``a_std[:, k] @ W_a[k]``, plus the rows of ``W_b`` summed over layer l,
    plus ``extra @ W_extra`` and the bias. The products are computed once
    for ``a_std``'s rows. The masked layer's own product is left out of the
    sum, not subtracted from a total, so no masked value reaches the result,
    not even at roundoff.
    """

    def __init__(self, stack: _DenseStack, a_std: np.ndarray, layout):
        w = stack.weights[0].data
        total = layout.total
        layers = [layout.layer_slice(k) for k in range(layout.n_layers)]
        self.products = [a_std[:, sl] @ w[sl] for sl in layers]
        self.mask_sums = [w[total + sl.start : total + sl.stop].sum(axis=0) for sl in layers]
        self.w_extra = w[2 * total :]
        self.bias = stack.biases[0].data

    def __call__(self, rows: np.ndarray, groups, extra: np.ndarray | None = None) -> np.ndarray:
        """First-layer pre-activation of ``rows`` (indices into ``a_std``).
        ``groups`` holds a ``(layer, g)`` pair per masked layer: ``rows[g]``
        are the rows that mask it."""
        h = np.empty((len(rows), len(self.bias)))
        for layer, g in groups:
            others = [p[rows[g]] for k, p in enumerate(self.products) if k != layer]
            h[g] = sum(others[1:], others[0]) + self.mask_sums[layer]
        if extra is not None:
            h += extra @ self.w_extra
        return h + self.bias


class PreparedBatch:
    """What every imputation of one batch of records shares under block
    masks: the standardised record, and the block products of the prior's
    and the decoder's first layers. No mask goes into it, so it is built
    once per batch and passed to every draw's :meth:`ActivationDGM.impute`
    as ``prepared=``."""

    def __init__(self, dgm: "ActivationDGM", a_flat: np.ndarray, layout):
        self.a_std = dgm.standardizer.transform(np.asarray(a_flat))
        self.prior = _BlockInput(dgm.prior_net, self.a_std, layout)
        self.decoder = _BlockInput(dgm.decoder, self.a_std, layout)


class ActivationDGM:
    """Encoder / conditional prior / fixed-variance Gaussian decoder."""

    def __init__(self, record_dim: int, config: DGMConfig, rng):
        self.record_dim = record_dim
        self.config = config
        dz = config.latent_dim
        hidden = list(config.hidden)
        self.registry = Registry()
        self.encoder = _DenseStack([2 * record_dim, *hidden, 2 * dz], rng, "enc", self.registry)
        self.prior_net = _DenseStack([2 * record_dim, *hidden, 2 * dz], rng, "pri", self.registry)
        self.decoder = _DenseStack([2 * record_dim + dz, *hidden, record_dim], rng, "dec", self.registry)
        self.standardizer = RunningStandardizer(record_dim, enabled=config.standardize)

    def parameters(self):
        return self.registry.parameters()

    # -- distribution heads ----------------------------------------------------

    def _split(self, out: Tensor) -> DiagonalGaussian:
        dz = self.config.latent_dim
        return DiagonalGaussian(ad.narrow(out, 1, 0, dz), ad.narrow(out, 1, dz, dz))

    def encode(self, a_std: np.ndarray, mask: Mask) -> DiagonalGaussian:
        """q(z | a, b): conditioned on the full record."""
        x = np.concatenate([np.asarray(a_std), mask.values], axis=1)
        return self._split(self.encoder(Tensor(x)))

    def prior(self, a_std: np.ndarray, mask: Mask) -> DiagonalGaussian:
        """p(z | a_(1-b), b): masked positions zero-filled before input."""
        observed = np.asarray(a_std) * (1.0 - mask.values)
        x = np.concatenate([observed, mask.values], axis=1)
        return self._split(self.prior_net(Tensor(x)))

    def condition(self, a_flat: np.ndarray, mask: Mask):
        """The standardised record and its prior p(z | a_(1-b), b), as the
        ``(a_std, prior)`` pair that :meth:`impute` and :meth:`lambda_elbo`
        take as ``prior=``, so that both share one prior pass."""
        a_std = self.standardizer.transform(np.asarray(a_flat))
        return a_std, self.prior(a_std, mask)

    def decode_mean(self, a_std: np.ndarray, mask: Mask, z: Tensor) -> Tensor:
        observed = Tensor(np.asarray(a_std) * (1.0 - mask.values))
        x = ad.concat([observed, Tensor(mask.values), z], axis=1)
        return self.decoder(x)

    # -- objectives --------------------------------------------------------------

    def lambda_elbo(self, a_flat: np.ndarray, mask: Mask, rng=None, eps=None, *, prior=None):
        """Per-example ELBO for the masked record, averaged over the batch.

        Returns ``(scalar Tensor, diagnostics)`` where diagnostics expose the
        reconstruction, KL, and penalty terms as floats. ``eps`` pins the
        reparameterisation noise (one (batch, dz) array per z sample) for
        deterministic gradient checks. ``prior`` is :meth:`condition`'s pair
        for this record and mask, built with gradients enabled.
        """
        a_std, p = self.condition(a_flat, mask) if prior is None else prior
        q = self.encode(a_std, mask)
        n, dz = a_std.shape[0], self.config.latent_dim
        n_z = self.config.n_z
        if eps is None:
            if rng is None:
                raise ValueError("lambda_elbo needs an rng or pinned eps")
            eps = [rng.standard_normal((n, dz)) for _ in range(n_z)]
        elif isinstance(eps, np.ndarray):
            eps = [eps]
        recon = None
        for e in eps:
            z = reparam_sample(q, e)
            mean = self.decode_mean(a_std, mask, z)
            ll = gaussian_loglik_masked(a_std, mean, mask.values, self.config.decoder_variance)
            recon = ll if recon is None else recon + ll
        recon = recon * (1.0 / len(eps))
        kl = kl_diag(q, p)
        penalty = hyperprior_penalty(p, self.config.hyperprior)
        lam = (recon - kl - penalty).mean()
        diag = {
            "recon": float(recon.data.mean()),
            "kl": float(kl.data.mean()),
            "penalty": float(penalty.data.mean()),
            "lambda": float(lam.data),
        }
        for name in ("recon", "kl", "penalty"):
            if not np.isfinite(diag[name]):
                raise NumericsError(name, "elbo term")
        return lam, diag

    def impute(self, a_flat: np.ndarray, mask: Mask, rng, sample: bool | None = None,
               *, prior=None, prepared: PreparedBatch | None = None) -> np.ndarray:
        """Generate values for the masked positions via the conditional prior.

        Never consults the encoder. Returns a (batch, total) array that holds
        the imputation at the positions where the mask is 1 and zero
        elsewhere: the decoder mean by default; ``sample=True`` adds
        decoder-variance noise; ``None`` follows ``config.impute_sample``.

        A block mask (one that carries ``mask.block``) runs the decoder only
        on rows that mask a layer, builds each row's first layer from the
        unmasked layers' block products (:class:`_BlockInput`), and computes
        only the masked layer's columns. ``prepared`` is the
        :class:`PreparedBatch` of this batch of records: with it the prior
        also runs on the masked rows alone, from the prepared products.
        Without it the prior is ``prior``, :meth:`condition`'s pair for this
        record and mask (none of its graph is extended here), or a fresh
        :meth:`condition`. A mask without a block index takes the dense path
        over every row and column. Both paths draw the same noise from
        ``rng``: a (batch, latent) draw, then a (batch, total) one when
        sampling.
        """
        if sample is None:
            sample = self.config.impute_sample
        if mask.block is None:
            return self._impute_dense(a_flat, mask, rng, sample, prior)
        n, dz, total = len(mask.block), self.config.latent_dim, self.record_dim
        covered = np.flatnonzero(mask.block >= 0)
        block = mask.block[covered]
        groups = [(layer, g) for layer in range(mask.layout.n_layers)
                  if len(g := np.flatnonzero(block == layer))]
        with ad.no_grad():
            if prepared is None:
                a_std, p = self.condition(a_flat, mask) if prior is None else prior
                e = rng.standard_normal(p.mean.shape)
                z = reparam_sample(p, e).data[covered]
                decoder = _BlockInput(self.decoder, a_std[covered], mask.layout)
                rows = np.arange(len(covered))      # into the decoder's rows
            else:
                if len(prepared.a_std) != n:
                    raise ValueError(f"prepared batch has {len(prepared.a_std)} rows, mask has {n}")
                e = rng.standard_normal((n, dz))
                decoder, rows = prepared.decoder, covered
                h = self.prior_net.hidden_from_first(prepared.prior(rows, groups))
                p = self._split(Tensor(self.prior_net.output_cols(h)))
                z = reparam_sample(p, e[covered]).data
        noise = rng.standard_normal((n, total)) if sample else None
        h = self.decoder.hidden_from_first(decoder(rows, groups, z))
        out = np.zeros((n, total))
        for layer, g in groups:
            cols = mask.layout.layer_slice(layer)
            mean = self.decoder.output_cols(h[g], cols)
            if sample:
                mean = mean + noise[covered[g], cols] * np.sqrt(self.config.decoder_variance)
            out[covered[g], cols] = self.standardizer.untransform(mean, cols)
        return out

    def _impute_dense(self, a_flat, mask: Mask, rng, sample: bool, prior) -> np.ndarray:
        with ad.no_grad():
            a_std, p = self.condition(a_flat, mask) if prior is None else prior
            e = rng.standard_normal(p.mean.shape)
            z = reparam_sample(p, e)
            mean = self.decode_mean(a_std, mask, z).data
        if sample:
            mean = mean + rng.standard_normal(mean.shape) * np.sqrt(self.config.decoder_variance)
        return np.where(mask.values > 0, self.standardizer.untransform(mean), 0.0)

    # -- persistence -----------------------------------------------------------------

    def state_arrays(self) -> dict:
        return {**self.registry.state_arrays(), **self.standardizer.state_arrays()}

    def load_state(self, arrays: dict) -> None:
        self.registry.load_state(arrays)
        self.standardizer.load_state(arrays)
