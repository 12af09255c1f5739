"""Flat key=value experiment configuration with dotted namespaces.

Every key has a typed schema entry with a default; unknown keys are
rejected by name. A resolved snapshot (sorted key=value lines) written next
to a run's artifacts reproduces that run exactly. A schema entry also names
the dataclass field (or ``synth_blobs`` argument) its key fills; the builders
below read that column and write out only the few rules it cannot express.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dgm import DGMConfig, HyperpriorConfig
from .nets import ClassifierSpec
from .train import MASKED_METHODS, TrainConfig
from .calibrate import EvalConfig


class ConfigError(ValueError):
    """Bad configuration input; message names the offending key."""


@dataclass(frozen=True)
class Option:
    kind: str          # int | float | bool | str | ints
    default: object
    help: str
    fills: str = ""    # "Owner.field" the value fills; "" for keys read by name


SCHEMA = {
    "seed": Option("int", 0, "master RNG seed for the whole experiment", "TrainConfig.seed"),
    "out.dir": Option("str", "runs/out", "output directory for artifacts"),
    # dataset
    "dataset.kind": Option("str", "synthetic_blobs", "cifar10_binary | raw_tensor | synthetic_blobs"),
    "dataset.name": Option("str", "", "dataset display name for reference lookup (defaults to kind)"),
    "dataset.path": Option("str", "", "directory with CIFAR-10 binary batches"),
    "dataset.train_path": Option("str", "", "raw_tensor train split container"),
    "dataset.test_path": Option("str", "", "raw_tensor test split container"),
    "dataset.classes": Option("int", 3, "synthetic_blobs: number of classes",
                              "synth_blobs.n_classes"),
    "dataset.per_class": Option("int", 200, "synthetic_blobs: train points per class",
                                "synth_blobs.n_per_class"),
    "dataset.test_per_class": Option("int", 200, "synthetic_blobs: test points per class",
                                     "synth_blobs.n_test_per_class"),
    "dataset.dim": Option("int", 8, "synthetic_blobs: input dimension", "synth_blobs.dim"),
    "dataset.separation": Option("float", 3.0, "synthetic_blobs: cluster separation",
                                 "synth_blobs.separation"),
    "dataset.label_noise": Option("float", 0.0, "synthetic_blobs: train label flip probability",
                                  "synth_blobs.label_noise"),
    # model
    "model.kind": Option("str", "mlp", "mlp | cnn", "ClassifierSpec.kind"),
    "model.hidden": Option("ints", (64, 64), "mlp hidden layer widths", "ClassifierSpec.hidden"),
    "model.conv_channels": Option("ints", (32, 64), "cnn conv channels",
                                  "ClassifierSpec.conv_channels"),
    "model.kernel": Option("int", 3, "cnn kernel size", "ClassifierSpec.kernel_size"),
    "model.pool": Option("int", 2, "cnn max-pool window", "ClassifierSpec.pool"),
    "model.dense": Option("int", 1024, "cnn dense width", "ClassifierSpec.dense_width"),
    # training
    "train.method": Option("str", "vanilla", "vanilla | pilot | add_noise | sub_noise | dropout | l2 | batch_norm | data_aug",
                           "TrainConfig.method"),
    "train.epochs": Option("int", 50, "training epochs", "TrainConfig.epochs"),
    "train.batch_size": Option("int", 128, "minibatch size", "TrainConfig.batch_size"),
    "train.lr": Option("float", 1e-3, "classifier Adam learning rate", "TrainConfig.lr_classifier"),
    "train.dgm_lr": Option("float", 1e-4, "DGM Adam learning rate", "TrainConfig.lr_dgm"),
    "train.l2_lambda": Option("float", 0.1, "l2 method: penalty weight", "TrainConfig.l2_lambda"),
    "train.dropout_rate": Option("float", 0.5, "dropout method: drop probability",
                                 "TrainConfig.dropout_rate"),
    "train.aug_prob": Option("float", 0.1, "data_aug method: per-datapoint transform probability",
                             "TrainConfig.data_aug_prob"),
    "train.noise_variance": Option("float", 0.1, "add/sub noise variance (decoder variance by default)",
                                   "TrainConfig.noise_variance"),
    "train.propagate_noise_gradients": Option("bool", True, "propagate gradients through inserted noise values",
                                              "TrainConfig.propagate_noise_gradients"),
    "train.clip_norm": Option("float", 5.0, "per-group gradient clipping max norm",
                              "TrainConfig.clip_norm"),
    "train.n_impute": Option("int", 1, "imputation draws per example per step",
                             "TrainConfig.n_impute"),
    "train.checkpoint_every": Option("int", 0, "checkpoint cadence in epochs (0 = final only)",
                                     "TrainConfig.checkpoint_every"),
    # masking
    "mask.mode": Option("str", "a_aug", "x_drop | x_aug | a_drop | a_aug", "TrainConfig.mask_mode"),
    "mask.rate": Option("float", 0.5, "mask prior rate r", "TrainConfig.mask_rate"),
    "mask.seed": Option("int", -1, "separate mask stream seed (-1 = derive from seed)",
                        "TrainConfig.mask_seed"),
    # DGM
    "dgm.latent_dim": Option("int", 64, "latent dimension", "DGMConfig.latent_dim"),
    "dgm.hidden": Option("ints", (256, 256), "DGM MLP hidden widths, at least one", "DGMConfig.hidden"),
    "dgm.decoder_variance": Option("float", 0.1, "fixed decoder output variance",
                                   "DGMConfig.decoder_variance"),
    "dgm.hyperprior.sigma_mu": Option("float", 10.0, "hyperprior mean scale",
                                      "HyperpriorConfig.sigma_mu"),
    "dgm.hyperprior.sigma_sigma": Option("float", 1.0, "hyperprior sigma scale",
                                         "HyperpriorConfig.sigma_sigma"),
    "dgm.hyperprior.form": Option("str", "squared_mean", "squared_mean | literal_linear",
                                  "HyperpriorConfig.form"),
    "dgm.n_z": Option("int", 1, "latent samples per ELBO evaluation", "DGMConfig.n_z"),
    "dgm.standardize": Option("bool", True, "standardise activations before the DGM",
                              "DGMConfig.standardize"),
    "dgm.standardize_warmup": Option("float", 0.25, "fraction of steps before freezing the standardiser",
                                     "DGMConfig.standardize_warmup"),
    "dgm.impute_sample": Option("bool", False, "sample the decoder likelihood instead of taking its mean",
                                "DGMConfig.impute_sample"),
    # evaluation
    "eval.bins": Option("int", 10, "confidence bins for reliability/ECE", "EvalConfig.n_bins"),
    "eval.entropy_bins": Option("int", 20, "entropy histogram bins", "EvalConfig.entropy_bins"),
    "eval.mode": Option("str", "plain", "plain | pilot_mc | mc_dropout", "EvalConfig.mode"),
    "eval.mc_samples": Option("int", 10, "samples for MC prediction modes",
                              "EvalConfig.mc_samples"),
}


def _parse_value(key: str, raw: str):
    opt = SCHEMA[key]
    raw = raw.strip()
    try:
        if opt.kind == "int":
            return int(raw)
        if opt.kind == "float":
            return float(raw)
        if opt.kind == "bool":
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if opt.kind == "ints":
            return tuple(int(part) for part in raw.split(",") if part.strip())
        return raw
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {opt.kind}") from None


def parse_config(text: str) -> dict:
    """Parse key=value lines into a fully resolved config dict."""
    values = default_config()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = line.split("=", 1)
        set_key(values, key.strip(), raw)
    return values


def load_config(path) -> dict:
    with open(path) as fh:
        return parse_config(fh.read())


def default_config() -> dict:
    return {key: opt.default for key, opt in SCHEMA.items()}


def set_key(cfg: dict, key: str, raw: str) -> None:
    if key not in SCHEMA:
        raise ConfigError(f"unknown config key {key!r}")
    cfg[key] = _parse_value(key, raw)


def _format_value(value) -> str:
    """A config value as a config file writes it: ``true``/``false``, and a
    tuple's items joined by commas."""
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def snapshot(cfg: dict) -> str:
    """Serialise a resolved config as sorted key=value lines."""
    return "".join(f"{key}={_format_value(cfg[key])}\n" for key in sorted(cfg))


def config_help() -> str:
    lines = ["configuration keys (key=value lines, # comments allowed):"]
    for key in sorted(SCHEMA):
        opt = SCHEMA[key]
        lines.append(f"  {key:<36} {opt.kind:<6} default={_format_value(opt.default):<12} {opt.help}")
    return "\n".join(lines)


# -- dataclass builders -------------------------------------------------------


def fields(cfg: dict, owner: str) -> dict:
    """Field name -> value for every key whose ``Option`` fills ``owner``."""
    prefix = owner + "."
    return {opt.fills[len(prefix):]: cfg[key] for key, opt in SCHEMA.items()
            if opt.fills.startswith(prefix)}


def classifier_spec(cfg: dict, input_shape: tuple, num_classes: int) -> ClassifierSpec:
    """The classifier's spec, without batch norm: ``train()`` adds it for ``batch_norm``."""
    return ClassifierSpec(input_shape=tuple(input_shape), num_classes=num_classes,
                          **fields(cfg, "ClassifierSpec"))


def train_config(cfg: dict) -> TrainConfig:
    kw = fields(cfg, "TrainConfig")
    if kw["method"] not in MASKED_METHODS:
        kw["mask_mode"] = None
    if kw["mask_seed"] < 0:
        kw["mask_seed"] = None
    return TrainConfig(**kw)


def dgm_config(cfg: dict) -> DGMConfig:
    hyperprior = HyperpriorConfig(**fields(cfg, "HyperpriorConfig"))
    return DGMConfig(hyperprior=hyperprior, **fields(cfg, "DGMConfig"))


def eval_config(cfg: dict, model_id: str = "") -> EvalConfig:
    return EvalConfig(seed=cfg["seed"], model_id=model_id, **fields(cfg, "EvalConfig"))
