"""Training loop: joint classifier/DGM optimisation and baseline regularisers.

The joint method keeps two strictly separated objectives: the classifier's
cross-entropy on spliced activations updates only the classifier parameters,
and the DGM's evidence lower bound updates only the encoder/prior/decoder.
Each group has its own Adam state and its own gradient clipping.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import NumericsError, Tensor
from .checkpoint import ContainerError, load_tensors, save_tensors
from .dgm import ActivationDGM, DGMConfig, HyperpriorConfig
from .masks import BLOCK_MODES, _check_mode, sample_mask
from .nets import ClassifierSpec, build_classifier, require_positive
# global_norm and clip_gradients are not called here any more (Adam.step
# clips), but stay importable from this module: perfbench's tracer wraps them
# here.
from .optim import Adam, clip_gradients, global_norm  # noqa: F401

METHODS = ("vanilla", "pilot", "add_noise", "sub_noise", "dropout", "l2", "batch_norm", "data_aug")
MASKED_METHODS = ("pilot", "add_noise", "sub_noise")     # the methods that sample a mask


@dataclass(frozen=True)
class TrainConfig:
    method: str = "vanilla"
    mask_mode: str | None = None
    mask_rate: float = 0.5
    mask_seed: int | None = None    # None: derive the mask stream from seed
    epochs: int = 50
    batch_size: int = 128
    lr_classifier: float = 1e-3
    lr_dgm: float = 1e-4
    l2_lambda: float = 0.1
    dropout_rate: float = 0.5
    data_aug_prob: float = 0.1
    noise_variance: float = 0.1
    propagate_noise_gradients: bool = True
    clip_norm: float = 5.0
    n_impute: int = 1
    seed: int = 0
    checkpoint_every: int = 0       # 0 = final epoch only
    validate_separation: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r} (expected one of {METHODS})")
        if self.method in MASKED_METHODS:
            if self.mask_mode is None:
                raise ValueError(f"method {self.method!r} requires a mask mode")
            _check_mode(self.mask_mode, self.mask_rate)
        require_positive(self, "epochs", "batch_size", "n_impute", "lr_classifier", "lr_dgm",
                         "clip_norm")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        if not self.noise_variance >= 0.0:
            raise ValueError(f"noise_variance must not be negative, got {self.noise_variance}")
        if not 0.0 <= self.data_aug_prob <= 1.0:
            raise ValueError(f"data_aug_prob must lie in [0, 1], got {self.data_aug_prob}")
        if not self.l2_lambda >= 0.0:
            raise ValueError(f"l2_lambda must not be negative, got {self.l2_lambda}")


# -- losses -------------------------------------------------------------------


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of the true labels, stable log-sum-exp."""
    labels = np.asarray(labels)
    n, c = logits.shape
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"label out of range [0, {c})")
    shifted = logits - Tensor(logits.data.max(axis=1, keepdims=True))
    lse = ad.log(ad.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    return -(Tensor(onehot) * logp).sum(axis=1).mean()


def l2_penalty(classifier, lam: float) -> Tensor:
    """lam * sum of squared weight entries (biases and BN affines excluded)."""
    total = None
    for w in classifier.weight_tensors():
        term = ad.square(w).sum()
        total = term if total is None else total + term
    return total * lam


# -- data augmentation ----------------------------------------------------------


def hflip(img: np.ndarray) -> np.ndarray:
    return img[..., ::-1].copy()


def rotate_nn(img: np.ndarray, degrees: float) -> np.ndarray:
    """Nearest-neighbour rotation about the image centre, zero fill outside."""
    c, h, w = img.shape
    theta = math.radians(degrees)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ys, xs = np.mgrid[0:h, 0:w]
    # inverse map: output pixel pulled from rotated source location
    src_y = math.cos(theta) * (ys - cy) + math.sin(theta) * (xs - cx) + cy
    src_x = -math.sin(theta) * (ys - cy) + math.cos(theta) * (xs - cx) + cx
    sy = np.rint(src_y).astype(int)
    sx = np.rint(src_x).astype(int)
    valid = (sy >= 0) & (sy < h) & (sx >= 0) & (sx < w)
    out = np.zeros_like(img)
    out[:, valid] = img[:, sy[valid], sx[valid]]
    return out


def channel_shift(img: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    return np.clip(img + offsets[:, None, None], 0.0, 1.0)


def augment_data(x: np.ndarray, p: float, rng) -> np.ndarray:
    """With probability ``p`` per datapoint, apply one uniformly chosen
    transform: channel shift (within 10% of the [0,1] range), rotation up to
    15 degrees, or horizontal flip."""
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValueError("data augmentation requires image-shaped input (N, C, H, W)")
    out = x.copy()
    gate = rng.random(len(x)) < p
    for i in np.nonzero(gate)[0]:
        kind = int(rng.integers(0, 3))
        if kind == 0:
            out[i] = channel_shift(x[i], rng.uniform(-0.1, 0.1, size=x.shape[1]))
        elif kind == 1:
            out[i] = rotate_nn(x[i], float(rng.uniform(-15.0, 15.0)))
        else:
            out[i] = hflip(x[i])
    return out


# -- single steps ------------------------------------------------------------------


def _finite_or_raise(value: float, label: str, context: dict):
    if not np.isfinite(value):
        raise NumericsError(label, f"step diagnostics: {context}")


def _descend(loss: Tensor, opt: Adam, cfg: TrainConfig, other: Adam | None = None,
             leak: str = "") -> float:
    """Backpropagate ``loss`` and take one clipped Adam step on ``opt``'s
    group; returns the pre-clip gradient norm. ``other``'s gradients are
    cleared first too, so under ``validate_separation`` any gradient the loss
    leaks into that group raises ``AssertionError(leak)`` before the step."""
    opt.zero_grad()
    if other is not None:
        other.zero_grad()
    loss.backward()
    if other is not None and cfg.validate_separation:
        if any(p.grad is not None for p in other.params):
            raise AssertionError(leak)
    return opt.step(max_norm=cfg.clip_norm)


def _classifier_update(opt: Adam, logits: Tensor, loss: Tensor, y, cfg: TrainConfig) -> dict:
    """The shared tail of the classifier-only steps."""
    _finite_or_raise(float(loss.data), "classifier loss", {"method": cfg.method})
    norm = _descend(loss, opt, cfg)
    acc = float((logits.data.argmax(axis=1) == y).mean())
    return {"loss_act": float(loss.data), "grad_norm_psi": norm, "train_acc": acc}


def baseline_step(classifier, opt, x, y, cfg: TrainConfig, rng) -> dict:
    """One step of vanilla / l2 / dropout / batch_norm / data_aug training."""
    if cfg.method == "data_aug":
        x = augment_data(x, cfg.data_aug_prob, rng)
    dropout = cfg.dropout_rate if cfg.method == "dropout" else 0.0
    logits = classifier.forward(x, train=True, dropout_rate=dropout, rng=rng)
    loss = cross_entropy(logits, y)
    if cfg.method == "l2":
        loss = loss + l2_penalty(classifier, cfg.l2_lambda)
    return _classifier_update(opt, logits, loss, y, cfg)


def noise_step(classifier, opt, x, y, cfg: TrainConfig, rng_mask, rng_noise) -> dict:
    """Masked Gaussian noise: substitute ("sub") or add ("add") at masked
    positions, optionally behind the stop-gradient barrier."""
    mode = "add" if cfg.method == "add_noise" else "sub"
    mask = sample_mask(cfg.mask_mode, cfg.mask_rate, classifier.layout, len(x), rng_mask)
    noise = rng_noise.normal(0.0, math.sqrt(cfg.noise_variance), size=(len(x), classifier.layout.total))
    logits = classifier.forward_noised(x, mask, noise, mode, cfg.propagate_noise_gradients)
    loss = cross_entropy(logits, y)
    return _classifier_update(opt, logits, loss, y, cfg)


def _spliced_loss(classifier, dgm: ActivationDGM, record, a_flat, mask, shared, y,
                  cfg: TrainConfig, rng_mask, rng_z) -> Tensor:
    """The classifier's loss on ``cfg.n_impute`` spliced passes, the first
    under ``mask`` with the prior ``shared``, each later one under a fresh
    mask."""
    loss_act = None
    for k in range(cfg.n_impute):
        mk = mask if k == 0 else sample_mask(cfg.mask_mode, cfg.mask_rate, classifier.layout, len(y), rng_mask)
        imputed = dgm.impute(a_flat, mk, rng_z, prior=shared if k == 0 else None)
        spliced_logits, _ = classifier.forward_spliced(record, mk, imputed)
        term = cross_entropy(spliced_logits, y)
        loss_act = term if loss_act is None else loss_act + term
    if cfg.n_impute > 1:
        loss_act = loss_act * (1.0 / cfg.n_impute)
    return loss_act


def pilot_step(classifier, dgm: ActivationDGM, opt_psi: Adam, opt_dgm: Adam,
               x, y, cfg: TrainConfig, rng_mask, rng_z) -> dict:
    """One joint step: splice-and-classify for the classifier, ELBO for the DGM.

    The recorded activations enter the DGM as constants and the imputations
    enter the classifier behind the stop-gradient barrier, so each backward
    pass touches exactly one parameter group. The last step's DGM
    gradients are let go before the record pass, and the classifier's graph,
    and the gradients its backward leaves on it, before the DGM's forward
    pass: only the record's values and the prior reach the ELBO.
    """
    opt_dgm.zero_grad()
    logits, record = classifier.forward_record(x)
    acc = float((logits.data.argmax(axis=1) == y).mean())
    a_flat = record.flatten()
    dgm.standardizer.update(a_flat)

    mask = sample_mask(cfg.mask_mode, cfg.mask_rate, classifier.layout, len(x), rng_mask)
    # One prior pass for the step's mask feeds both its imputation and the ELBO.
    shared = dgm.condition(a_flat, mask)
    loss_act = _spliced_loss(classifier, dgm, record, a_flat, mask, shared, y, cfg, rng_mask, rng_z)
    del logits, record
    _finite_or_raise(float(loss_act.data), "classifier loss", {"method": "pilot"})

    norm_psi = _descend(loss_act, opt_psi, cfg, opt_dgm,
                        "classifier loss leaked gradient into DGM parameters")
    loss_act = float(loss_act.data)

    lam, diag = dgm.lambda_elbo(a_flat, mask, rng=rng_z, prior=shared)
    loss_dgm = -lam
    norm_dgm = _descend(loss_dgm, opt_dgm, cfg, opt_psi,
                        "DGM loss leaked gradient into classifier parameters")

    return {
        "loss_act": loss_act,
        "loss_dgm": float(loss_dgm.data),
        "kl": diag["kl"],
        "recon": diag["recon"],
        "penalty": diag["penalty"],
        "grad_norm_psi": norm_psi,
        "grad_norm_dgm": norm_dgm,
        "train_acc": acc,
    }


# -- logs and bundles --------------------------------------------------------------


@dataclass
class EpochStats:
    epoch: int
    loss_act: float = float("nan")
    loss_dgm: float = float("nan")
    kl: float = float("nan")
    recon: float = float("nan")
    penalty: float = float("nan")
    grad_norm_psi: float = float("nan")
    grad_norm_dgm: float = float("nan")
    train_acc: float = float("nan")
    test_acc: float = float("nan")


LOG_COLUMNS = tuple(f.name for f in dataclasses.fields(EpochStats))


@dataclass
class TrainLog:
    rows: list = field(default_factory=list)

    def append(self, stats: EpochStats) -> None:
        self.rows.append(stats)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(LOG_COLUMNS) + "\n")
            for r in self.rows:
                fh.write(",".join(repr(getattr(r, c)) if c != "epoch" else str(r.epoch)
                                  for c in LOG_COLUMNS) + "\n")


def config_from_meta(kind, values: dict):
    """Rebuild the config dataclass ``kind`` from its ``dataclasses.asdict``
    JSON: lists become tuples again, a nested hyperprior a HyperpriorConfig."""
    kw = {k: tuple(v) if isinstance(v, list) else v for k, v in values.items()}
    if "hyperprior" in kw:
        kw["hyperprior"] = HyperpriorConfig(**kw["hyperprior"])
    return kind(**kw)


class TrainedBundle:
    """A trained classifier plus (for the joint method) its activation DGM."""

    def __init__(self, classifier, spec: ClassifierSpec, train_config: TrainConfig,
                 dgm: ActivationDGM | None = None, dgm_config: DGMConfig | None = None):
        self.classifier = classifier
        self.spec = spec
        self.train_config = train_config
        self.dgm = dgm
        self.dgm_config = dgm_config

    @property
    def label(self) -> str:
        cfg = self.train_config
        if cfg.method == "pilot":
            return f"pilot_{cfg.mask_mode}"
        if cfg.method in ("add_noise", "sub_noise"):
            return f"{cfg.method.split('_')[0]}_{cfg.mask_mode}"
        return cfg.method

    def predict(self, x) -> np.ndarray:
        return self.classifier.predict(x)

    def save(self, path) -> None:
        tensors = dict(self.classifier.state_arrays())
        meta = {
            "kind": "pilot-bundle",
            "spec": dataclasses.asdict(self.spec),
            "train_config": dataclasses.asdict(self.train_config),
            "model_label": self.label,
        }
        if self.dgm is not None:
            tensors.update(self.dgm.state_arrays())
            meta["dgm_config"] = dataclasses.asdict(self.dgm_config)
        save_tensors(path, tensors, meta)

    @classmethod
    def load(cls, path) -> "TrainedBundle":
        """Read a bundle ``save`` wrote. The models are built without an
        initialisation (no random draw) and every tensor is then loaded; an
        older bundle's DGM first layers are converted first
        (:meth:`ActivationDGM.upgrade`). ``ContainerError`` names a missing
        meta entry or tensor."""
        tensors, meta = load_tensors(path)

        def part(key, kind):
            if key not in meta:
                raise ContainerError(f"{path}: not a model bundle: its meta has no {key!r}")
            try:
                return config_from_meta(kind, meta[key])
            except (TypeError, ValueError, AttributeError) as err:
                raise ContainerError(f"{path}: bundle meta {key!r}: {err}") from None

        spec = part("spec", ClassifierSpec)
        train_config = part("train_config", TrainConfig)
        dgm_config = part("dgm_config", DGMConfig) if "dgm_config" in meta else None
        classifier = build_classifier(spec, None)
        dgm = None
        if dgm_config is not None:
            dgm = ActivationDGM(classifier.layout.total, dgm_config, None,
                                _dgm_layout(classifier, train_config))
            tensors = dgm.upgrade(tensors)
        for model in (m for m in (classifier, dgm) if m is not None):
            for name, arr in model.state_arrays().items():
                if name not in tensors:
                    raise ContainerError(f"{path}: bundle has no tensor {name!r}")
                if tensors[name].shape != arr.shape:
                    raise ContainerError(f"{path}: tensor {name!r} has shape {tensors[name].shape}, "
                                         f"the model needs {arr.shape}")
            model.load_state(tensors)
        return cls(classifier, spec, train_config, dgm, dgm_config)


# -- training loop ----------------------------------------------------------------------


def _dgm_layout(classifier, cfg: TrainConfig):
    """The record layout a DGM keeps its mask weights by: the classifier's
    under a block mask mode, else ``None`` (a dense mask weight)."""
    return classifier.layout if cfg.mask_mode in BLOCK_MODES else None



def train(spec: ClassifierSpec, cfg: TrainConfig, dataset,
          dgm_config: DGMConfig | None = None, checkpoint_dir=None,
          epoch_callback=None):
    """Train per ``cfg.method`` over shuffled minibatches; deterministic under
    seed. Returns ``(TrainedBundle, TrainLog)``. ``epoch_callback(epoch,
    bundle, stats)``, if given, runs after each epoch's log row is appended.
    The ``batch_norm`` method switches ``spec.batch_norm`` on."""
    if len(dataset.x_train) == 0:
        raise ValueError("dataset is empty")
    if cfg.method == "batch_norm" and not spec.batch_norm:
        spec = dataclasses.replace(spec, batch_norm=True)

    seeds = np.random.SeedSequence(cfg.seed).spawn(6)
    rng_init, rng_dgm_init, rng_shuffle, rng_mask, rng_z, rng_aux = \
        (np.random.default_rng(s) for s in seeds)
    if cfg.mask_seed is not None:
        rng_mask = np.random.default_rng(cfg.mask_seed)

    classifier = build_classifier(spec, rng_init)
    opt_psi = Adam(classifier.parameters(), cfg.lr_classifier)
    dgm = opt_dgm = None
    if cfg.method == "pilot":
        dgm_config = dgm_config or DGMConfig()
        dgm = ActivationDGM(classifier.layout.total, dgm_config, rng_dgm_init,
                            _dgm_layout(classifier, cfg))
        opt_dgm = Adam(dgm.parameters(), cfg.lr_dgm, dgm.registry.row_counts())

    n = len(dataset.x_train)
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    freeze_after = max(1, int(dgm_config.standardize_warmup * cfg.epochs * steps_per_epoch)) if dgm else 0

    bundle = TrainedBundle(classifier, spec, cfg, dgm, dgm_config if dgm else None)
    log = TrainLog()
    step_count = 0
    for epoch in range(1, cfg.epochs + 1):
        perm = rng_shuffle.permutation(n)
        sums: dict = {}
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            x, y = dataset.x_train[idx], dataset.y_train[idx]
            if cfg.method == "pilot":
                stats = pilot_step(classifier, dgm, opt_psi, opt_dgm, x, y, cfg, rng_mask, rng_z)
            elif cfg.method in ("add_noise", "sub_noise"):
                stats = noise_step(classifier, opt_psi, x, y, cfg, rng_mask, rng_z)
            else:
                stats = baseline_step(classifier, opt_psi, x, y, cfg, rng_aux)
            step_count += 1
            if dgm is not None and step_count >= freeze_after:
                dgm.standardizer.freeze()
            for k, v in stats.items():
                sums[k] = sums.get(k, 0.0) + v
        means = {k: v / steps_per_epoch for k, v in sums.items()}
        test_preds = classifier.predict(dataset.x_test)
        test_acc = float((test_preds.argmax(axis=1) == dataset.y_test).mean())
        log.append(EpochStats(epoch=epoch, test_acc=test_acc, **means))
        if epoch_callback is not None:
            epoch_callback(epoch, bundle, log.rows[-1])
        if checkpoint_dir is not None:
            due = cfg.checkpoint_every and epoch % cfg.checkpoint_every == 0
            if due or epoch == cfg.epochs:
                bundle.save(checkpoint_dir / f"epoch_{epoch:04d}.ckpt")
    return bundle, log
