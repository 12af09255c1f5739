"""End-to-end CLI: train/eval/compare commands, artifacts, exit codes."""

import json

import numpy as np
import pytest

from pilot.calibrate import CalibrationReport
from pilot.cli import COMPARE_COLUMNS, compare_rows, main

BLOB_CONFIG = """
dataset.kind=synthetic_blobs
dataset.classes=3
dataset.per_class=60
dataset.test_per_class=60
dataset.dim=6
dataset.separation=3.0
model.kind=mlp
model.hidden=12,12
train.method={method}
mask.mode=a_aug
train.epochs={epochs}
train.batch_size=32
dgm.latent_dim=4
dgm.hidden=16
seed=5
"""


def write_config(tmp_path, method="vanilla", epochs=3, extra=""):
    path = tmp_path / f"{method}.cfg"
    path.write_text(BLOB_CONFIG.format(method=method, epochs=epochs) + extra)
    return path


class TestTrainCommand:
    def test_writes_three_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        code = main(["train", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "config.snapshot").exists()
        assert (out / "train_log.csv").exists()
        assert (out / "checkpoints" / "epoch_0003.ckpt").exists()

    def test_snapshot_reproduces_run(self, tmp_path):
        cfg = write_config(tmp_path, method="pilot", epochs=2)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["train", "--config", str(cfg), "--out", str(out1)]) == 0
        snap = out1 / "config.snapshot"
        assert main(["train", "--config", str(snap), "--out", str(out2)]) == 0
        ck1 = (out1 / "checkpoints" / "epoch_0002.ckpt").read_bytes()
        ck2 = (out2 / "checkpoints" / "epoch_0002.ckpt").read_bytes()
        assert ck1 == ck2

    def test_method_and_seed_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        code = main(["train", "--config", str(cfg), "--out", str(out),
                     "--method", "l2", "--seed", "9"])
        assert code == 0
        snap = (out / "config.snapshot").read_text()
        assert "train.method=l2" in snap
        assert "seed=9" in snap

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("nosuch.key=1\n")
        assert main(["train", "--config", str(path)]) == 1

    def test_missing_config_file_is_data_error(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "absent.cfg")]) == 2

    def test_usage_error_without_subcommand(self):
        assert main([]) == 1


class TestEvalCommand:
    def test_writes_report_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, method="pilot", epochs=2)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        ckpt = out / "checkpoints" / "epoch_0002.ckpt"
        eval_out = tmp_path / "eval"
        code = main(["eval", "--checkpoint", str(ckpt), "--config", str(cfg),
                     "--out", str(eval_out)])
        assert code == 0
        report = CalibrationReport.from_json(eval_out / "report.json")
        assert report.model == "pilot_a_aug"
        assert report.n == 180
        assert (eval_out / "bins.csv").exists()
        assert (eval_out / "entropy.csv").exists()

    def test_untrained_model_near_chance(self, tmp_path):
        # 1-epoch model on 10 balanced classes stays near 0.1 accuracy
        cfg_text = BLOB_CONFIG.format(method="vanilla", epochs=1).replace(
            "dataset.classes=3", "dataset.classes=10").replace(
            "dataset.dim=6", "dataset.dim=10").replace(
            "dataset.separation=3.0", "dataset.separation=0.0").replace(
            "train.epochs=1", "train.epochs=1")
        cfg = tmp_path / "chance.cfg"
        cfg.write_text(cfg_text)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        ckpt = out / "checkpoints" / "epoch_0001.ckpt"
        eval_out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(ckpt), "--config", str(cfg),
                     "--out", str(eval_out)]) == 0
        report = CalibrationReport.from_json(eval_out / "report.json")
        assert abs(report.accuracy - 0.1) < 0.1

    def test_mc_mode_flag(self, tmp_path):
        cfg = write_config(tmp_path, method="pilot", epochs=2)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        ckpt = out / "checkpoints" / "epoch_0002.ckpt"
        eval_out = tmp_path / "evalmc"
        code = main(["eval", "--checkpoint", str(ckpt), "--config", str(cfg),
                     "--out", str(eval_out), "--mode", "pilot_mc", "--mc-samples", "3"])
        assert code == 0
        report = CalibrationReport.from_json(eval_out / "report.json")
        assert report.model == "pilot_mc_a_aug"       # the key references.py uses

    def test_missing_checkpoint_is_data_error(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"),
                     "--config", str(cfg)]) == 2


class TestCompareCommand:
    def _reports(self, tmp_path):
        rng = np.random.default_rng(0)
        paths = []
        for name, (arch, dataset) in (("vanilla", ("cnn", "cifar10")),
                                      ("pilot_a_aug", ("cnn", "cifar10"))):
            preds = rng.dirichlet(np.ones(3), size=60)
            labels = rng.integers(0, 3, 60)
            from pilot.calibrate import EvalConfig, report_from_predictions
            report = report_from_predictions(preds, labels, EvalConfig(), model=name,
                                             meta={"arch": arch, "dataset": dataset})
            p = tmp_path / f"{name}.json"
            report.to_json(p)
            paths.append(p)
        return paths

    def test_csv_schema_and_reference_columns(self, tmp_path):
        paths = self._reports(tmp_path)
        out = tmp_path / "compare.csv"
        code = main(["compare", *[str(p) for p in paths], "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",".join(COMPARE_COLUMNS)
        assert len(lines) == 3
        pilot_row = lines[2].split(",")
        assert pilot_row[0] == "pilot_a_aug"
        # reference columns carry the published full-scale numbers
        assert pilot_row[4] == "0.701"
        assert pilot_row[5] == "0.87"
        assert pilot_row[6] == "0.012"

    @pytest.mark.parametrize("method,mode,label,ref", [
        ("pilot", "pilot_mc", "pilot_mc_a_aug", (0.598, 1.24, 0.036)),
        ("dropout", "mc_dropout", "mc_dropout", (0.509, 2.19, 0.085)),
    ])
    def test_mc_report_gets_its_reference_row(self, tmp_path, method, mode, label, ref):
        cfg = write_config(tmp_path, method=method, epochs=1)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        eval_out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(out / "checkpoints" / "epoch_0001.ckpt"),
                     "--config", str(cfg), "--out", str(eval_out), "--mode", mode,
                     "--mc-samples", "2"]) == 0
        report = CalibrationReport.from_json(eval_out / "report.json")
        assert report.model == label
        # the reference tables cover CIFAR-10 and SVHN only, not these blobs
        report.meta.update(arch="mlp", dataset="cifar10")
        row = compare_rows([report])[0]
        assert (row["ref_accuracy"], row["ref_nll"], row["ref_ece"]) == ref

    def test_unknown_model_leaves_reference_blank(self, tmp_path):
        from pilot.calibrate import EvalConfig, report_from_predictions
        rng = np.random.default_rng(1)
        preds = rng.dirichlet(np.ones(3), size=30)
        report = report_from_predictions(preds, rng.integers(0, 3, 30), EvalConfig(),
                                         model="mystery", meta={"arch": "mlp", "dataset": "blobs"})
        p = tmp_path / "m.json"
        report.to_json(p)
        out = tmp_path / "cmp.csv"
        assert main(["compare", str(p), "--out", str(out)]) == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        assert row[4] == "" and row[5] == "" and row[6] == ""

    def test_missing_report_is_data_error(self, tmp_path):
        assert main(["compare", str(tmp_path / "nope.json")]) == 2
