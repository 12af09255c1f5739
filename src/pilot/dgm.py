"""Generative model over classifier activations with arbitrary conditioning.

An encoder q(z | a, b) sees the full record; a conditional prior
p(z | a_(1-b), b) sees only unmasked values (masked positions zero-filled,
the mask as extra input features); a Gaussian decoder with
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
from .masks import BLOCK_MODES, Mask, block_groups
from .nets import Registry, normal_init, require_positive


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
        if not self.hidden:
            raise ValueError(f"hidden must name at least one width, got {self.hidden}")
        require_positive(self, "latent_dim", "hidden", "decoder_variance", "n_z")
        if not 0.0 <= self.standardize_warmup <= 1.0:
            raise ValueError(f"standardize_warmup must lie in [0, 1], got {self.standardize_warmup}")


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


def gaussian_loglik_masked(target: np.ndarray, mean: Tensor, mask_values: np.ndarray | None,
                           variance: float) -> Tensor:
    """Sum of log N(target | mean, variance) over masked positions, per example
    (over the last axis). ``mask_values=None`` counts every position: the
    values given are the masked ones alone."""
    t = Tensor(np.asarray(target))
    resid = ad.square(t - mean) / variance + float(np.log(2.0 * np.pi * variance))
    if mask_values is not None:
        resid = Tensor(mask_values) * resid
    return resid.sum(axis=-1) * (-0.5)


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
    """Per-position running mean/variance, frozen after a warmup period; the
    frozen std is computed once, at :meth:`freeze`."""

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
        if not self.frozen:
            self._frozen_std = self._std()
            self.frozen = True

    def _std(self) -> np.ndarray:
        if self.frozen:
            return self._frozen_std
        if self.count < 2:
            return np.ones(self.dim)
        return np.sqrt(self.m2 / self.count + self.eps)

    def transform(self, a: np.ndarray) -> np.ndarray:
        if not self.enabled or self.count < 2:
            return np.asarray(a, dtype=np.float64)
        out = np.subtract(a, self.mean)
        out /= self._std()
        return out

    def untransform(self, values: np.ndarray, cols=slice(None)) -> np.ndarray:
        """Back to activation units; ``values`` holds the positions ``cols``."""
        if not self.enabled or self.count < 2:
            return values
        out = np.multiply(values, self._std()[cols])
        out += self.mean[cols]
        return out

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
        self.enabled = bool(enabled)
        self.frozen = False
        if frozen:
            self.freeze()


class _DenseStack:
    """Plain relu MLP on ``[x, b]`` (``[x, b, z]`` with a latent input), with
    at least one hidden layer; final layer linear with damped init for stable
    heads. It has one walk, :meth:`first` then :meth:`from_first`, with a
    graph or under ``no_grad``; a table stack's imputation builds the
    first's output by record block instead (:class:`_BlockInput`). The first
    layer's weight is drawn as one stream, row block by row block, and
    registered by block: ``<prefix>.0.Wa`` for ``x``, ``.0.Wb`` for ``b``,
    ``.0.Wz`` for ``z``. Later ones are ``weights``, ``<prefix>.<i>.W``;
    each layer's bias is ``<prefix>.<i>.b``.

    Given the record ``layout``, the stack takes block masks alone and keeps
    ``Wb`` as a table, one row per layer (:func:`autodiff.block_table`): the
    buffer ``.0.S`` holds the sums of the initial ``Wb``'s rows over each
    layer, and the parameter ``.0.D`` the amount each of those rows has moved
    since. Under a block mask every row of a layer's block gets the same
    gradient, so Adam moves them all alike and the table follows the dense
    weight's trajectory exactly, up to reassociation."""

    def __init__(self, record_dim: int, latent_in: int, widths, rng, prefix: str, registry: Registry,
                 layout=None):
        dims = [2 * record_dim + latent_in, *widths]
        self.weights = []
        self.biases = []
        self.wb = self.d = None
        for i in range(len(dims) - 1):
            fan_in, width = dims[i], dims[i + 1]
            scale = np.sqrt(2.0 / fan_in) if i < len(dims) - 2 else 0.1 * np.sqrt(1.0 / fan_in)
            if i == 0:
                self.wa = registry.param(f"{prefix}.0.Wa", normal_init(rng, scale, (record_dim, width)))
                if layout is None:
                    self.wb = registry.param(f"{prefix}.0.Wb", normal_init(rng, scale, (record_dim, width)))
                else:
                    sums = np.empty((layout.n_layers, width))
                    if rng is not None:
                        for out, n in zip(sums, layout.sizes):
                            normal_init(rng, scale, (n, width)).sum(axis=0, out=out)
                    self.sizes = np.array(layout.sizes, dtype=float)
                    self.s = registry.add(f"{prefix}.0.S", Tensor(sums))
                    self.d = registry.param(f"{prefix}.0.D", np.zeros_like(sums), rows=self.sizes)
                self.wz = (registry.param(f"{prefix}.0.Wz", normal_init(rng, scale, (latent_in, width)))
                           if latent_in else None)
            else:
                self.weights.append(registry.param(f"{prefix}.{i}.W", normal_init(rng, scale, (fan_in, width))))
            self.biases.append(registry.param(f"{prefix}.{i}.b", np.zeros(width)))

    def first(self, x: np.ndarray, mask: Mask, z: Tensor | None = None) -> Tensor:
        """The first layer's product with ``[x, mask.values, z]``, bias not yet
        added. A dense ``Wb`` is multiplied by ``mask.values`` under every
        mask; a table by the (rows, layers) 0/1 layer membership, so a table
        stack refuses a mask without a block index."""
        if self.d is None:
            b_wb = ad.matmul(mask.values, self.wb)
        elif mask.block is None:
            raise ValueError(f"this DGM keeps its mask weights as one row per layer, for the block "
                             f"mask modes {BLOCK_MODES} alone; a mask of mode {mask.mode!r} has no "
                             f"block index")
        else:
            member = mask.block[:, None] == np.arange(mask.layout.n_layers)
            b_wb = ad.matmul(member, ad.block_table(self.s, self.d, self.sizes))
        h = ad.matmul(x, self.wa) + b_wb
        return h if z is None else h + ad.matmul(z, self.wz)

    def from_first(self, h, groups=None) -> Tensor:
        """The stack from :meth:`first`'s pre-activation ``h`` on: the first
        layer's bias and relu, each later hidden layer as the relu of one
        :func:`autodiff.linear`, then the output layer. With ``groups``,
        ``(rows, cols)`` pairs such as :func:`block_groups` gives, only the
        output positions they name, as :func:`autodiff.grouped_linear`'s 1-D
        tensor."""
        *hidden, out = self.weights
        h = ad.relu(h + self.biases[0])
        for w, b in zip(hidden, self.biases[1:]):
            h = ad.relu(ad.linear(h, w, b))
        if groups is not None:
            return ad.grouped_linear(h, out, self.biases[-1], groups)
        return ad.linear(h, out, self.biases[-1])

    def __call__(self, x: np.ndarray, mask: Mask, z: Tensor | None = None, groups=None) -> Tensor:
        """The stack on the input ``[x, mask.values, z]`` (no ``z``:
        ``[x, mask.values]``); ``groups`` as in :meth:`from_first`."""
        return self.from_first(self.first(x, mask, z), groups)

    def parameters(self):
        return [t for t in (self.wa, self.wb, self.wz, *self.weights, *self.biases) if t is not None]


def _observed(a_std: np.ndarray, mask: Mask) -> np.ndarray:
    """The record the prior and the decoder see: masked positions zero-filled."""
    return np.asarray(a_std) * (1.0 - mask.values)


class _BlockInput:
    """A table stack's first layer, by record block, for rows that each mask
    one whole layer.

    The stack's input is ``[a_std * (1 - b), b, extra]``. For a row that
    masks layer l, the first layer is the sum over every other layer k of
    ``a_std[:, k] @ Wa[k]``, plus layer l's row of the stack's mask weight
    table, plus ``extra @ Wz``: :meth:`_DenseStack.first`'s pre-activation,
    to which :meth:`_DenseStack.from_first` adds the bias. The products are
    computed once for ``a_std``'s rows. The masked layer's own product is
    left out of the sum, not subtracted from a total, so no masked value
    reaches the result, not even at roundoff.
    """

    def __init__(self, stack: _DenseStack, a_std: np.ndarray, layout):
        layers = [layout.layer_slice(k) for k in range(layout.n_layers)]
        self.products = [a_std[:, sl] @ stack.wa.data[sl] for sl in layers]
        with ad.no_grad():
            self.mask_sums = ad.block_table(stack.s, stack.d, stack.sizes).data
        self.wz = None if stack.wz is None else stack.wz.data

    def __call__(self, rows: np.ndarray, groups, extra: np.ndarray | None = None) -> np.ndarray:
        """First-layer pre-activation of ``rows`` (indices into ``a_std``),
        bias not yet added. ``groups`` holds a ``(layer, g)`` pair per masked
        layer: ``rows[g]`` are the rows that mask it."""
        h = np.empty((len(rows), self.mask_sums.shape[1]))
        for layer, g in groups:
            others = [p[rows[g]] for k, p in enumerate(self.products) if k != layer]
            h[g] = sum(others[1:], others[0]) + self.mask_sums[layer]
        if extra is not None:
            h += extra @ self.wz
        return h


class PreparedBatch:
    """What every imputation of one batch of records shares under block
    masks: the block products of the prior's and the decoder's first
    layers, from the standardised record, which it does not keep. No mask
    goes into it, so it is built once per batch and passed to every draw's
    :meth:`ActivationDGM.impute` as ``prepared=``. Only a DGM built with the
    record layout imputes by block; one without it raises ``ValueError``.

    It also owns the (batch, total) array those imputations return. Each
    one zeroes the blocks the one before wrote and writes its own, so the
    array is zero off the current mask; it is valid until the next
    ``impute`` with this batch.
    """

    def __init__(self, dgm: "ActivationDGM", a_flat: np.ndarray):
        if dgm.layout is None:
            raise ValueError("a prepared batch needs a DGM built with the record layout")
        a_std = dgm.standardizer.transform(np.asarray(a_flat))
        self.prior = _BlockInput(dgm.prior_net, a_std, dgm.layout)
        self.decoder = _BlockInput(dgm.decoder, a_std, dgm.layout)
        self.imputed = np.zeros(a_std.shape)
        self._written = []      # the blocks of the last imputation's mask

    def imputation(self, blocks: list) -> np.ndarray:
        """The imputation array, zeroed where the last imputation wrote; the
        next call zeroes ``blocks``, the ``(rows, cols)`` pairs this one
        writes."""
        for rows, cols in self._written:
            self.imputed[rows, cols] = 0.0
        self._written = blocks
        return self.imputed


class ActivationDGM:
    """Encoder / conditional prior / fixed-variance Gaussian decoder.

    Given the record ``layout``, the DGM is built for block masks
    (:data:`masks.BLOCK_MODES`) alone: each stack keeps its mask weights as
    a per-layer table (:class:`_DenseStack`), the DGM imputes by block, and
    a mask without a block index raises ``ValueError``. Its optimiser takes
    ``registry.row_counts()`` as ``Adam``'s ``rows``, so that the clip norm
    is the dense weight's. Without the layout, it imputes densely under any
    mask.
    """

    def __init__(self, record_dim: int, config: DGMConfig, rng, layout=None):
        if layout is not None and layout.total != record_dim:
            raise ValueError(f"layout has {layout.total} positions, the record {record_dim}")
        self.record_dim = record_dim
        self.config = config
        self.layout = layout
        dz, hidden = config.latent_dim, config.hidden
        self.registry = Registry()
        reg = self.registry
        self.encoder = _DenseStack(record_dim, 0, [*hidden, 2 * dz], rng, "enc", reg, layout)
        self.prior_net = _DenseStack(record_dim, 0, [*hidden, 2 * dz], rng, "pri", reg, layout)
        self.decoder = _DenseStack(record_dim, dz, [*hidden, record_dim], rng, "dec", reg, layout)
        self.standardizer = RunningStandardizer(record_dim, enabled=config.standardize)

    def parameters(self):
        return self.registry.parameters()

    # -- distribution heads ----------------------------------------------------

    def _split(self, out: Tensor) -> DiagonalGaussian:
        dz = self.config.latent_dim
        return DiagonalGaussian(ad.narrow(out, 1, 0, dz), ad.narrow(out, 1, dz, dz))

    def encode(self, a_std: np.ndarray, mask: Mask) -> DiagonalGaussian:
        """q(z | a, b): conditioned on the full record."""
        return self._split(self.encoder(np.asarray(a_std), mask))

    def prior(self, a_std: np.ndarray, mask: Mask, observed=None) -> DiagonalGaussian:
        """p(z | a_(1-b), b): masked positions zero-filled before input
        (``observed``, when the caller has formed it: :func:`_observed`)."""
        if observed is None:
            observed = _observed(a_std, mask)
        return self._split(self.prior_net(observed, mask))

    def condition(self, a_flat: np.ndarray, mask: Mask):
        """The standardised record, its observed part and its prior, as the
        ``(a_std, observed, prior)`` triple that :meth:`impute` and
        :meth:`lambda_elbo` take as ``prior=``: both share one of each."""
        a_std = self.standardizer.transform(np.asarray(a_flat))
        observed = _observed(a_std, mask)
        return a_std, observed, self.prior(a_std, mask, observed)

    # -- objectives --------------------------------------------------------------

    def lambda_elbo(self, a_flat: np.ndarray, mask: Mask, rng=None, eps=None, *, prior=None):
        """Per-example ELBO for the masked record, averaged over the batch.

        Returns ``(scalar Tensor, diagnostics)`` where diagnostics expose the
        reconstruction, KL, and penalty terms as floats. ``eps`` pins the
        reparameterisation noise (one (batch, dz) array per z sample) for
        deterministic gradient checks. ``prior`` is :meth:`condition`'s
        triple for this record and mask, built with gradients enabled.

        A block mask (one that carries ``mask.block``) takes the block path:
        the decoder's output layer and the likelihood run on the masked
        blocks alone. It equals the dense path up to reassociation.
        """
        a_std, observed, p = self.condition(a_flat, mask) if prior is None else prior
        q = self.encode(a_std, mask)
        n, dz = a_std.shape[0], self.config.latent_dim
        n_z = self.config.n_z
        if eps is None:
            if rng is None:
                raise ValueError("lambda_elbo needs an rng or pinned eps")
            eps = [rng.standard_normal((n, dz)) for _ in range(n_z)]
        elif isinstance(eps, np.ndarray):
            eps = [eps]
        groups = None if mask.block is None else block_groups(mask)
        if groups is None:
            target, seen, scale = a_std, mask.values, 1.0 / len(eps)
        else:
            # The decoder's mean covers the masked values alone, so each
            # draw's log-likelihood is the batch's sum: the row mean is taken
            # here, and broadcasts against the per-row KL and penalty.
            target = np.concatenate([a_std[rows, cols].ravel() for rows, cols in groups]
                                    or [np.zeros(0)])
            seen, scale = None, 1.0 / (len(eps) * n)
        recon = None
        for e in eps:
            z = reparam_sample(q, e)
            mean = self.decoder(observed, mask, z, groups)
            ll = gaussian_loglik_masked(target, mean, seen, self.config.decoder_variance)
            recon = ll if recon is None else recon + ll
        recon = recon * scale
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

    def impute(self, a_flat: np.ndarray | None, mask: Mask, rng, *, prior=None,
               prepared: PreparedBatch | None = None) -> np.ndarray:
        """Generate values for the masked positions via the conditional prior.

        Never consults the encoder. Returns a (batch, total) array that holds
        the imputation at the positions where the mask is 1 and zero
        elsewhere: the decoder mean, plus decoder-variance noise when
        ``config.impute_sample`` is set.

        A DGM built with the record layout takes the block route, under the
        block masks it alone accepts: it runs the decoder only on rows that
        mask a layer, builds each row's first layer from the unmasked layers'
        block products (:class:`_BlockInput`), and walks the rest of the
        stack with :meth:`_DenseStack.from_first` under ``no_grad``,
        computing only the masked layer's columns (one
        :func:`autodiff.grouped_linear` vector, cut per block before
        de-standardising). A DGM built without it takes the dense path over
        every row and column, under every mask. Neither path records a
        graph. ``prepared`` is the :class:`PreparedBatch` of this batch of
        records: with it the prior also runs on the masked rows alone, from
        the prepared products, and the result is ``prepared``'s own array,
        rewritten only on the blocks this mask and the last one cover: it is
        valid until the next ``impute`` with ``prepared``. ``a_flat`` is then
        not read, and may be ``None``. Without it the prior is ``prior``,
        :meth:`condition`'s triple for this record and mask (none of its
        graph is extended here), or a fresh :meth:`condition`. Both paths
        draw the same noise from ``rng``: a (batch, latent) draw, then a
        (batch, total) one when sampling.
        """
        if self.layout is None or mask.block is None:
            return self._impute_dense(a_flat, mask, rng, prior)
        n, dz, total = len(mask.block), self.config.latent_dim, self.record_dim
        covered = np.flatnonzero(mask.block >= 0)
        block = mask.block[covered]
        groups = [(layer, g) for layer in range(mask.layout.n_layers)
                  if len(g := np.flatnonzero(block == layer))]
        cuts = [(g, mask.layout.layer_slice(layer)) for layer, g in groups]
        with ad.no_grad():
            if prepared is None:
                a_std, _, p = self.condition(a_flat, mask) if prior is None else prior
                e = rng.standard_normal(p.mean.shape)
                z = reparam_sample(p, e).data[covered]
                decoder = _BlockInput(self.decoder, a_std[covered], mask.layout)
                rows = np.arange(len(covered))      # into the decoder's rows
            else:
                if len(prepared.imputed) != n:
                    raise ValueError(f"prepared batch has {len(prepared.imputed)} rows, mask has {n}")
                e = rng.standard_normal((n, dz))
                decoder, rows = prepared.decoder, covered
                p = self._split(self.prior_net.from_first(prepared.prior(rows, groups)))
                z = reparam_sample(p, e[covered]).data
            mean = self.decoder.from_first(decoder(rows, groups, z), cuts).data
        noise = rng.standard_normal((n, total)) if self.config.impute_sample else None
        blocks = [(covered[g], c) for g, c in cuts]
        out = np.zeros((n, total)) if prepared is None else prepared.imputation(blocks)
        ends = np.cumsum([len(g) * mask.layout.sizes[layer] for layer, g in groups])
        for (rows_out, c), values in zip(blocks, np.split(mean, ends[:-1])):
            values = values.reshape(len(rows_out), -1)
            if noise is not None:
                values = values + noise[rows_out, c] * np.sqrt(self.config.decoder_variance)
            out[rows_out, c] = self.standardizer.untransform(values, c)
        return out

    def _impute_dense(self, a_flat, mask: Mask, rng, prior) -> np.ndarray:
        with ad.no_grad():
            _, observed, p = self.condition(a_flat, mask) if prior is None else prior
            e = rng.standard_normal(p.mean.shape)
            z = reparam_sample(p, e)
            mean = self.decoder(observed, mask, z).data
        if self.config.impute_sample:
            mean = mean + rng.standard_normal(mean.shape) * np.sqrt(self.config.decoder_variance)
        return np.where(mask.values > 0, self.standardizer.untransform(mean), 0.0)

    # -- persistence -----------------------------------------------------------------

    def state_arrays(self) -> dict:
        return {**self.registry.state_arrays(), **self.standardizer.state_arrays()}

    def load_state(self, arrays: dict) -> None:
        self.registry.load_state(arrays)
        self.standardizer.load_state(arrays)

    def upgrade(self, arrays: dict) -> dict:
        """``arrays`` from an older container, with the first layers this DGM
        registers. A version-1 ``<stack>.0.W`` is split, exactly, into its row
        blocks ``.0.Wa``, ``.0.Wb`` and ``.0.Wz``; a wrong height leaves the
        last block the wrong shape. A table DGM then takes a dense ``.0.Wb`` of
        the record's height
        as ``.0.S``, its row sums per layer, with ``.0.D`` zero: exact for a
        DGM trained on block masks, whose first layer reads only those sums."""
        arrays = dict(arrays)
        r = self.record_dim
        for stack, cuts in (("enc", [r]), ("pri", [r]), ("dec", [r, 2 * r])):
            if (w := arrays.pop(f"{stack}.0.W", None)) is not None:
                names = (f"{stack}.0.{part}" for part in ("Wa", "Wb", "Wz"))
                arrays.update(zip(names, np.split(w, cuts)))
            if self.layout is not None and np.shape(arrays.get(f"{stack}.0.Wb"))[:1] == (r,):
                wb = arrays.pop(f"{stack}.0.Wb")
                arrays[f"{stack}.0.S"] = np.array([wb[self.layout.layer_slice(k)].sum(axis=0)
                                                   for k in range(self.layout.n_layers)])
                arrays[f"{stack}.0.D"] = np.zeros_like(arrays[f"{stack}.0.S"])
        return arrays
