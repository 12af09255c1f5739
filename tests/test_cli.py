"""End-to-end CLI: train/eval/compare commands, artifacts, exit codes."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pilot import THREAD_ENV_VARS, cli
from pilot.calibrate import CalibrationReport, EvalConfig, evaluate
from pilot.checkpoint import MAGIC, load_tensors, save_tensors
from pilot.cli import COMPARE_COLUMNS, compare_rows, main
from pilot.config import load_config
from pilot.data import save_raw_tensor
from pilot.train import TrainedBundle

SRC = str(Path(__file__).resolve().parents[1] / "src")

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

    @pytest.mark.parametrize("setting,bad", [
        ("mask.mode=bogus", "'bogus'"),
        ("mask.mode=a_aug\nmask.rate=1.5", "1.5"),
        ("model.hidden=0", "hidden must be positive"),
        ("dgm.hidden=0", "hidden must be positive"),
        ("dgm.hidden=", "hidden"),
        ("dgm.latent_dim=0", "latent_dim must be positive"),
        ("train.lr=0", "lr_classifier must be positive"),
        ("train.dgm_lr=-1", "lr_dgm must be positive"),
        ("train.clip_norm=0", "clip_norm must be positive"),
        ("train.dropout_rate=1.0", "dropout_rate must lie in [0, 1)"),
        ("train.noise_variance=-0.1", "noise_variance must not be negative"),
        ("dgm.standardize_warmup=-1", "standardize_warmup must lie in [0, 1]"),
        ("train.aug_prob=2", "data_aug_prob must lie in [0, 1]"),
        ("train.l2_lambda=-5", "l2_lambda must not be negative"),
    ])
    def test_bad_mask_setting_fails_before_writing(self, tmp_path, capsys, setting, bad):
        # a later line overrides an earlier one: each setting replaces the config's own
        cfg = tmp_path / "bad_mask.cfg"
        cfg.write_text(BLOB_CONFIG.format(method="pilot", epochs=1) + setting + "\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert bad in capsys.readouterr().err
        assert not out.exists()

    def test_bad_eval_setting_fails_before_training(self, tmp_path, capsys):
        # the eval settings are checked when the run's config is, not first by `pilot eval`
        cfg = write_config(tmp_path, epochs=1, extra="eval.mc_samples=0\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert "mc_samples must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=1, extra="train.lr=1e200\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 3
        assert capsys.readouterr().err.startswith("numerical failure:")

    def test_numerical_failure_is_the_first_stderr_line(self, tmp_path):
        # in a child process, where numpy's RuntimeWarnings reach stderr itself
        cfg = write_config(tmp_path, epochs=1, extra="train.lr=1e200\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-m", "pilot", "train", "--config", str(cfg),
                              "--out", str(tmp_path / "run")],
                             env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 3, run.stderr
        assert run.stderr.splitlines()[0].startswith("numerical failure:")
        assert "RuntimeWarning" not in run.stderr

    @pytest.mark.parametrize("empty", ["train", "test"])
    def test_empty_raw_tensor_split_is_data_error(self, tmp_path, capsys, empty):
        rng = np.random.default_rng(0)
        for split in ("train", "test"):
            n = 0 if split == empty else 8
            save_raw_tensor(tmp_path / f"{split}.ptc", rng.random((n, 1, 8, 8)), np.arange(n) % 2)
        cfg = tmp_path / "raw.cfg"
        cfg.write_text(f"dataset.kind=raw_tensor\ndataset.train_path={tmp_path / 'train.ptc'}\n"
                       f"dataset.test_path={tmp_path / 'test.ptc'}\ntrain.epochs=1\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"{empty}.ptc" in err

    def test_empty_cifar_batch_is_data_error(self, tmp_path, capsys):
        record = bytes([1]) + bytes(3 * 32 * 32)
        for i in range(1, 6):
            (tmp_path / f"data_batch_{i}.bin").write_bytes(record * 2)
        (tmp_path / "test_batch.bin").write_bytes(b"")
        cfg = tmp_path / "cifar.cfg"
        cfg.write_text(f"dataset.kind=cifar10_binary\ndataset.path={tmp_path}\ntrain.epochs=1\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "test_batch.bin" in err


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

    def test_without_out_prints_to_stdout(self, tmp_path, capsys):
        paths = self._reports(tmp_path)
        assert main(["compare", *[str(p) for p in paths]]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ",".join(COMPARE_COLUMNS)
        assert len(lines) == 3


# Loaded at interpreter start: after the command has run, count the threads of
# the process that ran it (the one left after any re-exec).
THREAD_COUNT_HOOK = """
import atexit, os


def _report():
    import numpy as np
    a = np.ones((400, 400))
    a @ a
    print("threads", len(os.listdir("/proc/self/task")))


atexit.register(_report)
"""

CONSOLE_SCRIPT = """
import sys
from pilot.__main__ import main
sys.exit(main())
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
class TestDeterministicThreads:
    def _threads(self, tmp_path, entry, *flags):
        (tmp_path / "sitecustomize.py").write_text(THREAD_COUNT_HOOK)
        (tmp_path / "pilot").write_text(CONSOLE_SCRIPT)
        entry = ["-m", "pilot"] if entry == "module" else [str(tmp_path / "pilot")]
        env = {k: v for k, v in os.environ.items() if k not in THREAD_ENV_VARS}
        env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), SRC])
        cfg = write_config(tmp_path, epochs=1)
        run = subprocess.run([sys.executable, *entry, "train", "--config", str(cfg),
                              "--out", str(tmp_path / "run"), *flags],
                             env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        return int(run.stdout.rsplit("threads", 1)[1])

    @pytest.mark.parametrize("entry", ["module", "console_script"])
    def test_command_caps_blas_threads(self, tmp_path, entry):
        assert self._threads(tmp_path, entry, "--deterministic") == 1
        if (os.cpu_count() or 1) > 1:       # the same run without the flag is threaded
            assert self._threads(tmp_path, entry) > 1

    def test_in_process_call_capped_for_the_command_only(self, tmp_path, monkeypatch):
        blas = cli._loaded_openblas()
        if blas is None:
            pytest.skip("numpy is not linked against OpenBLAS")
        get, _ = blas
        before = get()
        seen = []
        real = cli.cmd_train
        monkeypatch.setattr(cli, "BLAS_CAPPED_AT_LOAD", False)
        monkeypatch.setattr(cli, "cmd_train", lambda args: seen.append(get()) or real(args))
        cfg = write_config(tmp_path, epochs=1)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r"), "--deterministic"]) == 0
        assert seen == [1] and get() == before

    def test_uncappable_blas_exits_1_naming_the_cause(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "BLAS_CAPPED_AT_LOAD", False)
        monkeypatch.setattr(cli, "_loaded_openblas", lambda: None)
        cfg = write_config(tmp_path, epochs=1)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r"), "--deterministic"]) == 1
        assert "--deterministic" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()


class TestReportLabels:
    def test_evaluate_labels_reports_as_pilot_eval_does(self, tmp_path, capsys):
        cfg = write_config(tmp_path, method="pilot", epochs=1)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        ckpt = out / "checkpoints" / "epoch_0001.ckpt"
        bundle = TrainedBundle.load(ckpt)
        ds = cli.make_dataset(load_config(cfg))
        labels = []
        for mode in ("plain", "pilot_mc"):
            eval_out = tmp_path / mode
            assert main(["eval", "--checkpoint", str(ckpt), "--config", str(cfg),
                         "--out", str(eval_out), "--mode", mode, "--mc-samples", "2"]) == 0
            label = CalibrationReport.from_json(eval_out / "report.json").model
            report = evaluate(bundle, ds.x_test[:20], ds.y_test[:20],
                              EvalConfig(mode=mode, mc_samples=1))
            assert report.model == label
            labels.append(label)
        assert labels == ["pilot_a_aug", "pilot_mc_a_aug"]
        # a pilot run never used dropout: no report under the mc_dropout label
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--config", str(cfg),
                     "--out", str(tmp_path / "mc_dropout"), "--mode", "mc_dropout"]) == 1
        assert "trained with 'pilot'" in capsys.readouterr().err
        assert not (tmp_path / "mc_dropout").exists()


def _write_container(path, header, payload=b"\0" * 8):
    blob = json.dumps(header).encode()
    path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + payload)


_ENTRY = {"name": "x", "dtype": "<f8", "shape": [1], "offset": 0, "nbytes": 8}


class TestMalformedCheckpoint:
    """Each malformed checkpoint is a data error (exit 2) that names its cause."""

    @pytest.fixture(scope="class")
    def bundle_tensors(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("bundle")
        out = tmp / "run"
        assert main(["train", "--config", str(write_config(tmp, epochs=1)), "--out", str(out)]) == 0
        return load_tensors(out / "checkpoints" / "epoch_0001.ckpt")

    def _eval_error(self, tmp_path, capsys, path):
        code = main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "eval")])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("header,cause", [
        ({"version": 1, "meta": {}, "tensors": [dict(_ENTRY, dtype="<zz")]}, "'<zz'"),
        ({"version": 1, "meta": {}, "tensors": [dict(_ENTRY, dtype="|O")]}, "dtype |O"),
        ({"version": 1, "meta": {}, "tensors": [dict(_ENTRY, shape=[3])]}, "needs 24 bytes"),
        ({"version": 1, "meta": {}, "tensors": [dict(_ENTRY, offset=-8)]}, "negative offset"),
        ({"version": 1, "meta": {}}, "'tensors'"),
        ([1, 2], "JSON list"),
    ], ids=["dtype", "object-dtype", "shape", "offset", "no-tensors", "list-header"])
    def test_malformed_header(self, tmp_path, capsys, header, cause):
        path = tmp_path / "bad.ckpt"
        _write_container(path, header)
        code, err = self._eval_error(tmp_path, capsys, path)
        assert code == 2
        assert err.startswith("data error:") and cause in err

    def test_raw_tensor_container_is_not_a_bundle(self, tmp_path, capsys):
        path = tmp_path / "raw.ptc"
        save_raw_tensor(path, np.zeros((2, 1, 2, 2)), np.zeros(2))
        code, err = self._eval_error(tmp_path, capsys, path)
        assert code == 2 and "not a model bundle" in err and "'spec'" in err

    @pytest.mark.parametrize("change,cause", [
        (lambda t, m: t.pop("clf.0.b"), "no tensor 'clf.0.b'"),
        (lambda t, m: t.update({"clf.0.b": np.zeros(2)}), "'clf.0.b' has shape (2,)"),
        (lambda t, m: m["spec"].pop("kind"), "bundle meta 'spec'"),
    ], ids=["missing-tensor", "tensor-shape", "spec-field"])
    def test_bad_bundle(self, tmp_path, capsys, bundle_tensors, change, cause):
        tensors, meta = dict(bundle_tensors[0]), json.loads(json.dumps(bundle_tensors[1]))
        change(tensors, meta)
        path = tmp_path / "bad.ckpt"
        save_tensors(path, tensors, meta)
        code, err = self._eval_error(tmp_path, capsys, path)
        assert code == 2 and cause in err
