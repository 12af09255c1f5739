"""Flat key=value config parsing and dataclass builders."""

import dataclasses
import inspect
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pilot import cli
from pilot.calibrate import EvalConfig
from pilot.config import (
    SCHEMA,
    ConfigError,
    classifier_spec,
    config_help,
    default_config,
    dgm_config,
    eval_config,
    load_config,
    parse_config,
    snapshot,
    train_config,
)
from pilot.data import synth_blobs
from pilot.dgm import DGMConfig, HyperpriorConfig
from pilot.nets import ClassifierSpec
from pilot.train import TrainConfig, train


class TestParse:
    def test_defaults_resolved(self):
        cfg = parse_config("")
        assert cfg["train.method"] == "vanilla"
        assert cfg["mask.rate"] == 0.5
        assert cfg["dgm.hidden"] == (256, 256)

    def test_overrides_and_comments(self):
        text = """
        # experiment
        train.method = pilot     # joint method
        mask.mode=a_aug
        model.hidden = 64, 64
        dgm.standardize = false
        seed = 7
        """
        cfg = parse_config(text)
        assert cfg["train.method"] == "pilot"
        assert cfg["model.hidden"] == (64, 64)
        assert cfg["dgm.standardize"] is False
        assert cfg["seed"] == 7

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="unknown config key 'train.methods'"):
            parse_config("train.methods=pilot")

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="'train.epochs'"):
            parse_config("train.epochs=three")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config("just a line")

    def test_snapshot_round_trips(self):
        cfg = parse_config("train.method=pilot\nmask.mode=a_drop\nmodel.hidden=32,16\n")
        again = parse_config(snapshot(cfg))
        assert again == cfg

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed=3\ntrain.epochs=2\n")
        cfg = load_config(path)
        assert cfg["seed"] == 3 and cfg["train.epochs"] == 2

    def test_help_lists_every_key_with_default(self):
        text = config_help()
        for key in default_config():
            assert key in text
        assert "default=0.5" in text

    def test_help_writes_defaults_as_a_config_file_does(self):
        lines = {line.split()[0]: line for line in config_help().splitlines()[1:]}
        for entry in snapshot(default_config()).splitlines():
            key, value = entry.split("=", 1)
            assert f" default={value}" in lines[key]
        assert "default=true" in lines["dgm.standardize"]


class TestBuilders:
    def test_classifier_spec_from_config(self):
        cfg = parse_config("model.kind=mlp\nmodel.hidden=32,32\n")
        spec = classifier_spec(cfg, (8,), 3)
        assert spec.hidden == (32, 32) and spec.num_classes == 3
        assert not spec.batch_norm

    def test_batch_norm_method_sets_spec_flag(self):
        # The builder leaves batch norm off; train() switches it on for the
        # batch_norm method, and the bundle it returns carries the flag.
        cfg = parse_config("train.method=batch_norm\ntrain.epochs=1\ntrain.batch_size=32\n")
        spec = classifier_spec(cfg, (8,), 3)
        bundle, _ = train(spec, train_config(cfg), synth_blobs(3, 20, 8, 3.0, seed=0))
        assert bundle.classifier.spec.batch_norm and bundle.classifier.bn is not None

    def test_train_config_mask_only_when_needed(self):
        cfg = parse_config("train.method=vanilla\n")
        assert train_config(cfg).mask_mode is None
        cfg = parse_config("train.method=pilot\nmask.mode=x_drop\n")
        assert train_config(cfg).mask_mode == "x_drop"

    def test_dgm_config(self):
        cfg = parse_config("dgm.latent_dim=8\ndgm.hyperprior.form=literal_linear\n")
        dc = dgm_config(cfg)
        assert dc.latent_dim == 8
        assert dc.hyperprior.form == "literal_linear"

    def test_eval_config(self):
        cfg = parse_config("eval.bins=15\neval.mode=pilot_mc\n")
        ec = eval_config(cfg, model_id="m")
        assert ec.n_bins == 15 and ec.mode == "pilot_mc" and ec.model_id == "m"


# A non-default value for every key whose Option names the field it fills.
NON_DEFAULT = {
    "seed": "7",
    "dataset.classes": "4",
    "dataset.per_class": "11",
    "dataset.test_per_class": "13",
    "dataset.dim": "5",
    "dataset.separation": "1.5",
    "dataset.label_noise": "0.2",
    "model.kind": "cnn",
    "model.hidden": "7,5",
    "model.conv_channels": "4,6",
    "model.kernel": "5",
    "model.pool": "3",
    "model.dense": "33",
    "train.method": "pilot",
    "train.epochs": "9",
    "train.batch_size": "17",
    "train.lr": "0.02",
    "train.dgm_lr": "0.03",
    "train.l2_lambda": "0.4",
    "train.dropout_rate": "0.25",
    "train.aug_prob": "0.35",
    "train.noise_variance": "0.45",
    "train.propagate_noise_gradients": "false",
    "train.clip_norm": "2.5",
    "train.n_impute": "3",
    "train.checkpoint_every": "2",
    "mask.mode": "x_drop",
    "mask.rate": "0.3",
    "mask.seed": "4",
    "dgm.latent_dim": "6",
    "dgm.hidden": "9",
    "dgm.decoder_variance": "0.6",
    "dgm.hyperprior.sigma_mu": "3.5",
    "dgm.hyperprior.sigma_sigma": "0.7",
    "dgm.hyperprior.form": "literal_linear",
    "dgm.n_z": "2",
    "dgm.standardize": "false",
    "dgm.standardize_warmup": "0.5",
    "dgm.impute_sample": "true",
    "eval.bins": "15",
    "eval.entropy_bins": "12",
    "eval.mode": "pilot_mc",
    "eval.mc_samples": "4",
}

# Fields the builders fill by a written-out rule rather than from one key;
# ClassifierSpec.batch_norm is left at its default, for train() to set.
BY_RULE = {
    "ClassifierSpec": {"input_shape", "num_classes", "batch_norm"},
    "TrainConfig": {"validate_separation"},
    "DGMConfig": {"hyperprior"},
    "HyperpriorConfig": set(),
    "EvalConfig": {"seed", "model_id"},
    "synth_blobs": {"seed"},
}


def _owner_fields(owner):
    if owner == "synth_blobs":
        return set(inspect.signature(synth_blobs).parameters)
    kinds = {"ClassifierSpec": ClassifierSpec, "TrainConfig": TrainConfig, "DGMConfig": DGMConfig,
             "HyperpriorConfig": HyperpriorConfig, "EvalConfig": EvalConfig}
    return {f.name for f in dataclasses.fields(kinds[owner])}


def _built(owner, cfg, monkeypatch):
    """The object (or keyword arguments) the config builds for ``owner``."""
    if owner == "synth_blobs":
        captured = {}
        monkeypatch.setattr(cli, "synth_blobs", lambda **kw: captured.update(kw))
        cli.make_dataset(cfg)
        return SimpleNamespace(**captured)
    return {
        "ClassifierSpec": lambda: classifier_spec(cfg, (3, 12, 12), 3),
        "TrainConfig": lambda: train_config(cfg),
        "DGMConfig": lambda: dgm_config(cfg),
        "HyperpriorConfig": lambda: dgm_config(cfg).hyperprior,
        "EvalConfig": lambda: eval_config(cfg),
    }[owner]()


class TestFieldColumn:
    def test_table_covers_every_filling_key(self):
        assert set(NON_DEFAULT) == {key for key, opt in SCHEMA.items() if opt.fills}

    @pytest.mark.parametrize("owner", sorted(BY_RULE))
    def test_every_field_is_filled_by_one_key_or_a_rule(self, owner):
        named = [opt.fills.split(".", 1)[1] for opt in SCHEMA.values()
                 if opt.fills.split(".", 1)[0] == owner]
        assert len(named) == len(set(named))
        assert not set(named) & BY_RULE[owner]
        assert set(named) | BY_RULE[owner] == _owner_fields(owner)

    @pytest.mark.parametrize("key", sorted(NON_DEFAULT))
    def test_value_reaches_its_field(self, key, monkeypatch):
        text = f"{key}={NON_DEFAULT[key]}\n"
        if key.startswith("mask."):
            text += "train.method=pilot\n"      # only masking methods keep a mask mode
        cfg = parse_config(text)
        assert cfg[key] != SCHEMA[key].default
        owner, name = SCHEMA[key].fills.split(".", 1)
        assert getattr(_built(owner, cfg, monkeypatch), name) == cfg[key]

    def test_seed_also_feeds_eval_and_data(self, monkeypatch):
        cfg = parse_config("seed=7\n")
        assert eval_config(cfg).seed == 7
        assert _built("synth_blobs", cfg, monkeypatch).seed == 7


class TestShippedConfigs:
    CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))

    def test_there_are_configs(self):
        assert len(self.CONFIGS) == 4

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_parses_and_builds(self, path):
        cfg = load_config(path)
        if cfg["dataset.kind"] == "cifar10_binary":
            shape, classes = (3, 32, 32), 10
        else:
            shape, classes = (cfg["dataset.dim"],), cfg["dataset.classes"]
        spec = classifier_spec(cfg, shape, classes)
        tcfg = train_config(cfg)
        assert (spec.input_shape, spec.num_classes, tcfg.method) == (shape, classes, cfg["train.method"])
        assert dgm_config(cfg).latent_dim == cfg["dgm.latent_dim"]
        assert eval_config(cfg).mode == cfg["eval.mode"]
