"""Experiment orchestration commands: train, eval, compare.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
failure. The PILOT_NUM_THREADS environment variable caps kernel
parallelism; the package applies it on import, before numpy loads.
--deterministic asks for one thread.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import THREAD_ENV_VARS, config as cfgmod
from .autodiff import NumericsError
from .calibrate import CalibrationReport, evaluate
from .checkpoint import ContainerError
from .config import ConfigError
from .data import DataError, Dataset, load_cifar10, raw_tensor_dataset, synth_blobs
from .references import reference_for
from .train import TrainedBundle, train


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _limit_threads(n: int) -> None:
    value = str(max(1, n))
    for var in THREAD_ENV_VARS:
        os.environ.setdefault(var, value)
    try:
        import threadpoolctl

        threadpoolctl.threadpool_limits(limits=max(1, n))
    except ImportError:
        pass


def build_parser() -> _Parser:
    parser = _Parser(
        prog="pilot",
        description="Train and evaluate classifiers regularised by a generative model over their activations.",
        epilog=cfgmod.config_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write run artifacts")
    p_train.add_argument("--config", help="config file (key=value lines); defaults otherwise")
    p_train.add_argument("--seed", type=int, help="override config seed")
    p_train.add_argument("--out", help="override output directory")
    p_train.add_argument("--method", help="override train.method")
    p_train.add_argument("--mc-samples", type=int, help="override eval.mc_samples")
    p_train.add_argument("--deterministic", action="store_true", help="single-threaded kernels")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--config", help="config file describing the dataset and eval options")
    p_eval.add_argument("--out", help="output directory (default: checkpoint directory)")
    p_eval.add_argument("--seed", type=int, help="override config seed")
    p_eval.add_argument("--mc-samples", type=int, help="override eval.mc_samples")
    p_eval.add_argument("--mode", help="override eval.mode (plain | pilot_mc | mc_dropout)")
    p_eval.add_argument("--deterministic", action="store_true")

    p_cmp = sub.add_parser("compare", help="tabulate calibration reports side by side")
    p_cmp.add_argument("reports", nargs="+", help="report.json files")
    p_cmp.add_argument("--out", help="output CSV path (default: stdout)")
    return parser


def make_dataset(cfg: dict) -> Dataset:
    kind = cfg["dataset.kind"]
    if kind == "cifar10_binary":
        if not cfg["dataset.path"]:
            raise ConfigError("config key 'dataset.path': required for cifar10_binary")
        return load_cifar10(cfg["dataset.path"])
    if kind == "raw_tensor":
        if not cfg["dataset.train_path"] or not cfg["dataset.test_path"]:
            raise ConfigError("config keys 'dataset.train_path'/'dataset.test_path': required for raw_tensor")
        return raw_tensor_dataset(cfg["dataset.train_path"], cfg["dataset.test_path"])
    if kind == "synthetic_blobs":
        return synth_blobs(
            n_classes=cfg["dataset.classes"],
            n_per_class=cfg["dataset.per_class"],
            dim=cfg["dataset.dim"],
            separation=cfg["dataset.separation"],
            seed=cfg["seed"],
            label_noise=cfg["dataset.label_noise"],
            n_test_per_class=cfg["dataset.test_per_class"],
        )
    raise ConfigError(f"config key 'dataset.kind': unknown kind {kind!r}")


def _resolve_config(args) -> dict:
    cfg = cfgmod.load_config(args.config) if getattr(args, "config", None) else cfgmod.default_config()
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "out", None):
        cfg["out.dir"] = args.out
    if getattr(args, "method", None):
        cfgmod.set_key(cfg, "train.method", args.method)
    if getattr(args, "mc_samples", None) is not None:
        cfg["eval.mc_samples"] = args.mc_samples
    if getattr(args, "mode", None):
        cfgmod.set_key(cfg, "eval.mode", args.mode)
    if getattr(args, "deterministic", False):
        _limit_threads(1)
    return cfg


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    dataset = make_dataset(cfg)
    spec = cfgmod.classifier_spec(cfg, dataset.input_shape, dataset.num_classes)
    tcfg = cfgmod.train_config(cfg)
    dcfg = cfgmod.dgm_config(cfg) if tcfg.method == "pilot" else None

    out = Path(cfg["out.dir"])
    ckpt_dir = out / "checkpoints"
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    (out / "config.snapshot").write_text(cfgmod.snapshot(cfg))

    bundle, log = train(spec, tcfg, dataset, dcfg, checkpoint_dir=ckpt_dir)
    log.to_csv(out / "train_log.csv")
    last = log.rows[-1]
    print(f"{bundle.label}: {tcfg.epochs} epochs, final val_acc={last.val_acc:.4f}")
    print(f"artifacts in {out}")
    return 0


def _report_label(bundle, mode: str) -> str:
    """The model label of a report, as ``references.py`` keys its rows."""
    if mode == "pilot_mc":
        return f"pilot_mc_{bundle.train_config.mask_mode}"
    if mode == "mc_dropout":
        return "mc_dropout"
    return bundle.label


def cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    bundle = TrainedBundle.load(args.checkpoint)
    dataset = make_dataset(cfg)
    model_id = _report_label(bundle, cfg["eval.mode"])
    ecfg = cfgmod.eval_config(cfg, model_id=model_id)
    report = evaluate(bundle, dataset.x_test, dataset.y_test, ecfg)
    report.meta = {
        "arch": bundle.spec.kind,
        "dataset": cfg["dataset.name"] or cfg["dataset.kind"],
        "eval_mode": ecfg.mode,
    }
    out = Path(args.out) if args.out else Path(args.checkpoint).parent
    out.mkdir(parents=True, exist_ok=True)
    report.to_json(out / "report.json")
    report.bins_to_csv(out / "bins.csv")
    report.entropy_to_csv(out / "entropy.csv")
    print(f"{report.model}: acc={report.accuracy:.4f} nll={report.nll:.4f} ece={report.ece:.4f}")
    print(f"report in {out}")
    return 0


COMPARE_COLUMNS = ("model", "accuracy", "nll", "ece", "ref_accuracy", "ref_nll", "ref_ece")


def compare_rows(reports) -> list:
    rows = []
    for report in reports:
        ref = reference_for(report.meta.get("arch", ""), report.meta.get("dataset", ""),
                            report.model) or {}
        rows.append({
            "model": report.model,
            "accuracy": report.accuracy,
            "nll": report.nll,
            "ece": report.ece,
            "ref_accuracy": ref.get("accuracy", ""),
            "ref_nll": ref.get("nll", ""),
            "ref_ece": ref.get("ece", ""),
        })
    return rows


def cmd_compare(args) -> int:
    reports = [CalibrationReport.from_json(p) for p in args.reports]
    rows = compare_rows(reports)
    lines = [",".join(COMPARE_COLUMNS)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in COMPARE_COLUMNS))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"comparison written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "train":
            return cmd_train(args)
        if args.command == "eval":
            return cmd_eval(args)
        return cmd_compare(args)
    except (UsageError, ConfigError, ValueError) as err:
        if isinstance(err, (DataError, ContainerError)):
            print(f"data error: {err}", file=sys.stderr)
            return 2
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (FileNotFoundError, OSError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except (NumericsError, FloatingPointError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
