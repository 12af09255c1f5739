"""Test-time evaluation: accuracy, NLL, ECE, reliability bins, entropy
histograms, Monte Carlo prediction, and uniform-weight ensembling.

Confidence is the max probability of a prediction row. Reliability bins are
M equal-width right-closed intervals over [0, 1]; empty bins carry count 0
and drop out of the expected calibration error through the count weight.
Natural logarithm throughout.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .dgm import PreparedBatch
from .masks import sample_mask
from .nets import READ_BATCH, require_positive
from . import autodiff as ad

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class EvalConfig:
    n_bins: int = 10
    entropy_bins: int = 20
    mode: str = "plain"         # "plain" | "pilot_mc" | "mc_dropout"
    mc_samples: int = 10
    seed: int = 0
    model_id: str = ""

    def __post_init__(self):
        require_positive(self, "n_bins", "entropy_bins", "mc_samples")
        if self.mode not in ("plain", "pilot_mc", "mc_dropout"):
            raise ValueError(f"unknown eval mode {self.mode!r}")


@dataclass
class BinStats:
    lo: float
    hi: float
    count: int
    acc: float
    conf: float


@dataclass
class CalibrationReport:
    model: str
    n: int
    num_classes: int
    accuracy: float
    nll: float
    ece: float
    bins: list = field(default_factory=list)
    entropy_edges: list = field(default_factory=list)
    entropy_counts: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def to_json(self, path) -> None:
        payload = dataclasses.asdict(self)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, path) -> "CalibrationReport":
        with open(path) as fh:
            payload = json.load(fh)
        payload["bins"] = [BinStats(**b) for b in payload["bins"]]
        return cls(**payload)

    def bins_to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("bin_lo,bin_hi,count,acc,conf\n")
            for b in self.bins:
                fh.write(f"{b.lo},{b.hi},{b.count},{b.acc},{b.conf}\n")

    def entropy_to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("edge_lo,edge_hi,count\n")
            for lo, hi, c in zip(self.entropy_edges[:-1], self.entropy_edges[1:], self.entropy_counts):
                fh.write(f"{lo},{hi},{c}\n")


def _check_preds(preds: np.ndarray, labels: np.ndarray | None = None):
    preds = np.asarray(preds, dtype=np.float64)
    if preds.ndim != 2:
        raise ValueError("prediction matrix must be (N, C)")
    if labels is not None:
        labels = np.asarray(labels)
        if len(labels) != len(preds):
            raise ValueError("labels do not match prediction rows")
        if labels.min() < 0 or labels.max() >= preds.shape[1]:
            raise ValueError("label out of range")
    return preds, labels


def confidence(preds: np.ndarray):
    """(confidence, predicted class) per row."""
    preds, _ = _check_preds(preds)
    return preds.max(axis=1), preds.argmax(axis=1)


def accuracy(preds: np.ndarray, labels) -> float:
    preds, labels = _check_preds(preds, labels)
    return float((preds.argmax(axis=1) == labels).mean())


def _bin_index(conf: np.ndarray, n_bins: int) -> np.ndarray:
    # right-closed intervals ((m/M, (m+1)/M]); confidence 0 lands in bin 0
    return np.clip(np.ceil(conf * n_bins).astype(int) - 1, 0, n_bins - 1)


def bin_reliability(preds: np.ndarray, labels, n_bins: int = 10) -> list:
    """Per-bin count, accuracy and mean confidence over M equal-width bins."""
    preds, labels = _check_preds(preds, labels)
    conf, pred = confidence(preds)
    correct = (pred == labels).astype(np.float64)
    idx = _bin_index(conf, n_bins)
    bins = []
    for m in range(n_bins):
        members = idx == m
        count = int(members.sum())
        bins.append(BinStats(
            lo=m / n_bins,
            hi=(m + 1) / n_bins,
            count=count,
            acc=float(correct[members].mean()) if count else 0.0,
            conf=float(conf[members].mean()) if count else 0.0,
        ))
    return bins


def _ece_of_bins(bins, n: int) -> float:
    total = 0.0
    for b in bins:
        if b.count:
            total += (b.count / n) * abs(b.acc - b.conf)
    return float(total)


def ece(preds: np.ndarray, labels, n_bins: int = 10) -> float:
    """Count-weighted mean absolute gap between per-bin accuracy and confidence."""
    preds, labels = _check_preds(preds, labels)
    return _ece_of_bins(bin_reliability(preds, labels, n_bins), len(preds))


def nll(preds: np.ndarray, labels) -> float:
    """Mean per-datapoint negative log-likelihood, probabilities floored."""
    preds, labels = _check_preds(preds, labels)
    picked = np.clip(preds[np.arange(len(preds)), labels], PROB_FLOOR, None)
    return float(-np.log(picked).mean())


def entropy(preds: np.ndarray) -> np.ndarray:
    """Per-row Shannon entropy in nats; 0 log 0 taken as 0."""
    preds, _ = _check_preds(preds)
    p = np.clip(preds, PROB_FLOOR, None)
    return -(preds * np.log(p)).sum(axis=1)


def entropy_histogram(preds: np.ndarray, n_bins: int = 20):
    """Histogram of prediction entropies over [0, ln C]. Entropies are
    clipped into that range first: a uniform row's can round above ln C."""
    preds, _ = _check_preds(preds)
    hi = np.log(preds.shape[1])
    h = np.clip(entropy(preds), 0.0, hi)
    counts, edges = np.histogram(h, bins=n_bins, range=(0.0, hi))
    return edges, counts


def ensemble_predict(members) -> np.ndarray:
    """Uniform-weight elementwise mean of member prediction matrices."""
    members = [np.asarray(m, dtype=np.float64) for m in members]
    if not members:
        raise ValueError("ensemble needs at least one member")
    shape = members[0].shape
    for m in members:
        if m.shape != shape:
            raise ValueError("ensemble members disagree on shape")
    mean = np.mean(members, axis=0)
    return mean / mean.sum(axis=1, keepdims=True)


def mc_predict(bundle, x, n_samples: int, mode: str, rng) -> np.ndarray:
    """Average class probabilities over stochastic forward passes.

    ``pilot_mc`` draws a fresh mask and imputation per sample and runs the
    spliced pass; ``mc_dropout`` drops units at the bundle's dropout rate,
    with batch norm on its running statistics. Neither changes the bundle,
    and each refuses a bundle not trained with its method (``pilot``,
    ``dropout``).

    The input is walked in batches of ``nets.READ_BATCH`` rows, so memory is
    bounded by the batch, not by ``len(x)``. RNG order: batches are the outer
    loop and draws the inner one; a ``pilot_mc`` draw takes its mask and then
    its imputation from ``rng``, a ``mc_dropout`` draw its dropout masks, each
    for the rows of the current batch only. An input of at most
    ``READ_BATCH`` rows is one batch.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    method = {"pilot_mc": "pilot", "mc_dropout": "dropout"}.get(mode)
    if method is None:
        raise ValueError(f"unknown mc mode {mode!r}")
    if bundle.train_config.method != method:
        raise ValueError(f"{mode} needs a bundle trained with method {method!r}; "
                         f"this one was trained with {bundle.train_config.method!r}")
    if mode == "pilot_mc" and bundle.dgm is None:
        raise ValueError("pilot_mc needs a trained DGM in the bundle")
    out = np.empty((len(x), bundle.classifier.spec.num_classes))
    with ad.no_grad():
        for start in range(0, len(x), READ_BATCH):
            xb = x[start : start + READ_BATCH]
            out[start : start + len(xb)] = _mc_batch(bundle, xb, n_samples, mode, rng)
    return out


def _mc_batch(bundle, xb, n_samples: int, mode: str, rng) -> np.ndarray:
    """``mc_predict`` on one batch. A ``pilot_mc`` batch records its pass
    once and, with a DGM built with the record layout, prepares its
    imputations once (:class:`dgm.PreparedBatch`). Every draw reuses both
    and the arrays they own, so no draw after the first allocates an array
    of the batch's record size. All of it is freed before the next batch is
    recorded."""
    cfg, clf = bundle.train_config, bundle.classifier
    if mode == "pilot_mc":
        _, record = clf.forward_record(xb)
        if bundle.dgm.layout is not None:   # the draws read the prepared batch alone
            a_flat, prepared = None, PreparedBatch(bundle.dgm, record.flatten())
        else:
            a_flat, prepared = record.flatten(), None
    acc = np.zeros((len(xb), clf.spec.num_classes))
    for _ in range(n_samples):
        if mode == "pilot_mc":
            mask = sample_mask(cfg.mask_mode, cfg.mask_rate, clf.layout, len(xb), rng)
            imputed = bundle.dgm.impute(a_flat, mask, rng, prepared=prepared)
            logits, _ = clf.forward_spliced(record, mask, imputed)
        else:
            logits = clf.forward(xb, dropout_rate=cfg.dropout_rate, rng=rng)
        acc += ad.softmax(logits, axis=1).data
    return acc / n_samples


def predictions_for(bundle, x, cfg: EvalConfig) -> np.ndarray:
    if cfg.mode == "plain":
        return bundle.predict(x)
    rng = np.random.default_rng(cfg.seed)
    return mc_predict(bundle, x, cfg.mc_samples, cfg.mode, rng)


def evaluate(bundle, x, labels, cfg: EvalConfig = EvalConfig()) -> CalibrationReport:
    """Full calibration report for one model on one test set, labelled
    ``cfg.model_id`` or else by mode, as ``references.py`` keys its rows."""
    if len(x) == 0:
        raise ValueError("empty test set")
    preds = predictions_for(bundle, x, cfg)
    mc_labels = {"pilot_mc": f"pilot_mc_{bundle.train_config.mask_mode}",
                 "mc_dropout": "mc_dropout"}
    model = cfg.model_id or mc_labels.get(cfg.mode, bundle.label)
    return report_from_predictions(preds, labels, cfg, model=model)


def report_from_predictions(preds, labels, cfg: EvalConfig = EvalConfig(),
                            model: str = "", meta: dict | None = None) -> CalibrationReport:
    preds, labels = _check_preds(preds, np.asarray(labels))
    edges, counts = entropy_histogram(preds, cfg.entropy_bins)
    bins = bin_reliability(preds, labels, cfg.n_bins)
    return CalibrationReport(
        model=model or cfg.model_id,
        n=len(preds),
        num_classes=preds.shape[1],
        accuracy=accuracy(preds, labels),
        nll=nll(preds, labels),
        ece=_ece_of_bins(bins, len(preds)),
        bins=bins,
        entropy_edges=[float(e) for e in edges],
        entropy_counts=[int(c) for c in counts],
        meta=meta or {},
    )
