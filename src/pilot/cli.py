"""Experiment orchestration commands: train, eval, compare.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
failure. --deterministic asks for one BLAS thread. The `pilot` command
restarts itself under that cap when numpy loaded without it
(``pilot.__main__``); a caller of :func:`main` gets it through OpenBLAS's
own setter for the length of the command, or exit 1 where there is none.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import sys
from pathlib import Path

import numpy as np

from . import BLAS_CAPPED_AT_LOAD, config as cfgmod
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


# (getter, setter) pairs: plain OpenBLAS, and the symbol-prefixed build
# that numpy's wheels bundle.
_OPENBLAS_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


def _loaded_openblas():
    """(get, set) thread-count functions of the OpenBLAS this process has
    loaded, found through /proc/self/maps; None when there is none."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get, put in _OPENBLAS_SYMBOLS:
            if hasattr(lib, get) and hasattr(lib, put):
                return getattr(lib, get), getattr(lib, put)
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with one BLAS thread (--deterministic)."""
    if BLAS_CAPPED_AT_LOAD:
        yield
        return
    blas = _loaded_openblas()
    if blas is None:
        raise UsageError("--deterministic: numpy's BLAS was loaded before the one-thread cap "
                         "and cannot be capped now; set OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 "
                         "MKL_NUM_THREADS=1 before starting, or run the pilot command")
    get, put = blas
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


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
        return synth_blobs(seed=cfg["seed"], **cfgmod.fields(cfg, "synth_blobs"))
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
    return cfg


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    dataset = make_dataset(cfg)
    spec = cfgmod.classifier_spec(cfg, dataset.input_shape, dataset.num_classes)
    tcfg = cfgmod.train_config(cfg)
    dcfg = cfgmod.dgm_config(cfg) if tcfg.method == "pilot" else None
    cfgmod.eval_config(cfg)     # an eval setting it rejects fails here, not after training

    out = Path(cfg["out.dir"])
    ckpt_dir = out / "checkpoints"
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    (out / "config.snapshot").write_text(cfgmod.snapshot(cfg))

    bundle, log = train(spec, tcfg, dataset, dcfg, checkpoint_dir=ckpt_dir)
    log.to_csv(out / "train_log.csv")
    last = log.rows[-1]
    print(f"{bundle.label}: {tcfg.epochs} epochs, final test_acc={last.test_acc:.4f}")
    print(f"artifacts in {out}")
    return 0


def cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    bundle = TrainedBundle.load(args.checkpoint)
    dataset = make_dataset(cfg)
    ecfg = cfgmod.eval_config(cfg)
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
        if args.command == "compare":
            return cmd_compare(args)
        # numpy's overflow and invalid-value warnings would precede the
        # message: the NumericsError checks name the failing value instead.
        with (_one_blas_thread() if args.deterministic else contextlib.nullcontext(),
              np.errstate(over="ignore", invalid="ignore", divide="ignore")):
            return cmd_train(args) if args.command == "train" else cmd_eval(args)
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
