"""Measure the program from outside: wrap its public callables where their
callers look them up, and restore every wrapper afterwards.

``StepClock`` is all an untraced run installs: it times the workload's
repeated unit (a training step, or one Monte Carlo draw inside
``evaluate``) and checks that every prediction matrix has rows summing to 1.
``Tracer`` is installed only in the traced run. It records one span per call
at each layer boundary (name, start, end, parent span, step id) in memory,
counts primitive calls, and derives the per-layer metrics from self time.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

now = time.perf_counter


def module(name: str):
    # ``import pilot.train`` binds the re-exported ``train`` function, not the
    # submodule, so resolve submodules through the import system.
    return importlib.import_module(f"pilot.{name}")


class Patcher:
    """Replaces attributes and puts the originals back in reverse order."""

    def __init__(self):
        self._undo = []

    def wrap(self, owner, name: str, make) -> None:
        own = name in vars(owner)
        original = vars(owner)[name] if own else None
        setattr(owner, name, make(getattr(owner, name)))
        self._undo.append((owner, name, own, original))

    def restore(self) -> None:
        while self._undo:
            owner, name, own, original = self._undo.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)


class StepClock:
    """Durations of training steps and of Monte Carlo draws, in seconds."""

    def __init__(self):
        self.steps = []
        self.draws = []
        self.worst_row_error = 0.0
        self._draw_start = None

    def install(self, patcher: Patcher) -> None:
        train, calibrate = module("train"), module("calibrate")
        for name in ("pilot_step", "baseline_step"):
            patcher.wrap(train, name, self._timed)
        # calibrate.sample_mask opens each draw of mc_predict; the return of
        # predictions_for closes the last one.
        patcher.wrap(calibrate, "sample_mask", self._draw_boundary)
        patcher.wrap(calibrate, "predictions_for", self._draw_end)

    def _timed(self, fn):
        def step(*args, **kwargs):
            start = now()
            out = fn(*args, **kwargs)
            self.steps.append(now() - start)
            return out
        return step

    def _draw_boundary(self, fn):
        def sample_mask(*args, **kwargs):
            t = now()
            if self._draw_start is not None:
                self.draws.append(t - self._draw_start)
            self._draw_start = t
            return fn(*args, **kwargs)
        return sample_mask

    def _draw_end(self, fn):
        def predictions_for(*args, **kwargs):
            preds = fn(*args, **kwargs)
            if self._draw_start is not None:
                self.draws.append(now() - self._draw_start)
                self._draw_start = None
            err = float(np.max(np.abs(preds.sum(axis=1) - 1.0)))
            self.worst_row_error = max(self.worst_row_error, err)
            return preds
        return predictions_for


# Primitives that also get a timed span; the rest are only counted.
TIMED_PRIMITIVES = ("conv2d", "max_pool2d", "matmul")


class Tracer:
    """Spans and counters at every layer boundary of the program."""

    def __init__(self):
        # span: [name, start, end, parent index, step id, child seconds]
        self.spans = []
        self._open = []
        self.step = 0                   # id of the running step, 0 outside steps
        self.step_counts = []           # per step: (primitive calls, global_norm calls, prior calls)
        self._in_step = Counter()
        self._roles = {}                # id(Adam) -> "clf" | "dgm"
        self._backwards = 0
        self.adam_bytes = 0
        self.dgm_params = 0
        self.masked = defaultdict(lambda: [0.0, 0])   # layer -> [sum of fractions, masks]
        self.splice_rows = [0, 0]       # [useful, resumed]
        self.mc_resident_bytes = 0
        self.checkpoint_bytes = 0

    # -- spans -----------------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._open[-1] if self._open else -1
        rec = [name, 0.0, 0.0, parent, self.step, 0.0]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = now()
        return rec

    def _exit(self, rec: list) -> None:
        rec[2] = now()
        self._open.pop()
        if rec[3] >= 0:
            self.spans[rec[3]][5] += rec[2] - rec[1]

    def _span(self, name: str, fn, before=None, after=None):
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            rec = self._enter(name if isinstance(name, str) else name(*args))
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(rec)
            if after is not None:
                after(out, *args, **kwargs)
            return out
        return traced

    def _current(self) -> str | None:
        return self.spans[self._open[-1]][0] if self._open else None

    # -- installation ----------------------------------------------------------

    def install(self, patcher: Patcher) -> None:
        ad, optim, nets, dgm = module("autodiff"), module("optim"), module("nets"), module("dgm")
        train, calibrate, data = module("train"), module("calibrate"), module("data")

        # Every registered primitive, found in the module by identity ("sum" is tsum).
        by_identity = {id(fn): key for key, fn in ad.PRIMITIVES.items()}
        for attr, value in list(vars(ad).items()):
            key = by_identity.get(id(value))
            if key is not None:
                patcher.wrap(ad, attr, lambda fn, key=key: self._primitive(key, fn))
        patcher.wrap(ad.Tensor, "backward", lambda fn: self._span(self._backward_name, fn))

        patcher.wrap(train, "pilot_step", lambda fn: self._step(fn, clf=2, dgm=3))
        patcher.wrap(train, "baseline_step", lambda fn: self._step(fn, clf=1))
        for owner in (train, calibrate):
            patcher.wrap(owner, "sample_mask",
                         lambda fn: self._span("masks.sample_mask", fn, after=self._mask_sampled))
        for owner in (train, optim):
            patcher.wrap(owner, "global_norm", lambda fn: self._span("optim.global_norm", fn, self._norm_call))
        patcher.wrap(train, "clip_gradients", lambda fn: self._span("optim.clip", fn))
        patcher.wrap(optim.Adam, "step", lambda fn: self._span(self._adam_name, fn, self._adam_call))

        for cls in (nets.MLPClassifier, nets.CNNClassifier):
            patcher.wrap(cls, "forward_record", lambda fn: self._span("nets.forward_record", fn))
            patcher.wrap(cls, "forward_spliced",
                         lambda fn: self._span("nets.forward_spliced", fn, self._splice_rows))
            patcher.wrap(cls, "forward", self._forward)
            patcher.wrap(cls, "predict", lambda fn: self._span("nets.predict", fn))

        patcher.wrap(dgm.ActivationDGM, "impute", lambda fn: self._span("dgm.impute", fn))
        patcher.wrap(dgm.ActivationDGM, "lambda_elbo", lambda fn: self._span("dgm.lambda_elbo", fn))
        patcher.wrap(dgm.ActivationDGM, "prior", self._prior)
        for name in ("update", "transform", "untransform"):
            patcher.wrap(dgm.RunningStandardizer, name, lambda fn: self._span("dgm.standardizer", fn))

        patcher.wrap(calibrate, "mc_predict", lambda fn: self._span("calibrate.mc_predict", fn, self._mc_call))
        patcher.wrap(calibrate, "report_from_predictions", lambda fn: self._span("calibrate.report", fn))
        patcher.wrap(train, "save_tensors", lambda fn: self._span("checkpoint.save", fn, after=self._saved))
        patcher.wrap(train, "load_tensors", lambda fn: self._span("checkpoint.load", fn))
        patcher.wrap(data, "synth_blobs", lambda fn: self._span("data.synth", fn))

    # -- wrappers with bookkeeping -----------------------------------------------

    def _primitive(self, key: str, fn):
        counted = fn
        if key in TIMED_PRIMITIVES:
            counted = self._span(f"autodiff.{key}_fwd", fn)

        def primitive(*args, **kwargs):
            if self.step:
                self._in_step["ops"] += 1
            return counted(*args, **kwargs)
        return primitive

    def _step(self, fn, clf: int, dgm: int | None = None):
        def step(*args, **kwargs):
            self._roles = {id(args[clf]): "clf"}
            if dgm is not None:
                self._roles[id(args[dgm])] = "dgm"
                if not self.dgm_params:
                    self.dgm_params = sum(p.data.size for p in args[1].parameters())
            self._backwards = 0
            self._in_step = Counter()
            self.step = len(self.step_counts) + 1
            rec = self._enter("train.step")
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(rec)
                self.step = 0
                c = self._in_step
                self.step_counts.append((c["ops"], c["global_norm"], c["prior"]))
        return step

    def _backward_name(self, *args) -> str:
        self._backwards += 1
        return "autodiff.backward_clf" if self._backwards == 1 else "autodiff.backward_dgm"

    def _adam_name(self, opt, *args) -> str:
        return f"optim.adam_{self._roles.get(id(opt), 'clf')}"

    def _adam_call(self, opt, *args, **kwargs) -> None:
        # computed traffic: read p, g, m, v and write m, v, p, 8 bytes each
        self.adam_bytes += 7 * 8 * sum(p.data.size for p in opt.params)

    def _norm_call(self, *args, **kwargs) -> None:
        if self.step:
            self._in_step["global_norm"] += 1

    def _prior(self, fn):
        def prior(*args, **kwargs):
            if self.step:
                self._in_step["prior"] += 1
            return fn(*args, **kwargs)
        return prior

    def _forward(self, fn):
        traced = self._span("nets.forward", fn)

        def forward(*args, **kwargs):
            # predict's own forward calls stay inside the predict span
            if self._current() == "nets.predict":
                return fn(*args, **kwargs)
            return traced(*args, **kwargs)
        return forward

    def _mask_sampled(self, mask, *args, **kwargs) -> None:
        layout = mask.layout
        for layer in range(layout.n_layers):
            acc = self.masked[layer]
            acc[0] += float(mask.values[:, layout.layer_slice(layer)].mean())
            acc[1] += 1

    def _splice_rows(self, clf, record, mask, imputed) -> None:
        # A resumed stage row is useful when the stage lies downstream of that
        # example's own earliest masked layer; other rows recompute the record.
        layout = clf.layout
        per_layer = np.stack([mask.values[:, layout.layer_slice(l)].any(axis=1)
                              for l in range(layout.n_layers)], axis=1)
        masked_any = per_layer.any(axis=1)
        if not masked_any.any():
            return
        own_first = np.where(masked_any, per_layer.argmax(axis=1), layout.n_layers)
        first = int(own_first.min())
        stages = np.arange(first + 1, layout.n_layers)
        self.splice_rows[0] += int((stages[None, :] > own_first[:, None]).sum())
        self.splice_rows[1] += len(own_first) * len(stages)

    def _mc_call(self, bundle, x, *args, **kwargs) -> None:
        # record, mask and imputation held for the whole set at once, float64
        width = bundle.classifier.layout.total
        self.mc_resident_bytes = max(self.mc_resident_bytes, 3 * 8 * len(x) * width)

    def _saved(self, out, path, *args, **kwargs) -> None:
        self.checkpoint_bytes = os.path.getsize(path)

    # -- results -----------------------------------------------------------------

    def self_times(self) -> dict:
        """name -> (calls, total self seconds)."""
        out = defaultdict(lambda: [0, 0.0])
        for name, start, end, _, _, child in self.spans:
            agg = out[name]
            agg[0] += 1
            agg[1] += (end - start) - child
        return out

    def per_layer(self) -> dict:
        agg = self.self_times()
        steps = max(1, len(self.step_counts))

        def per_call_ms(name):
            calls, total = agg.get(name, (0, 0.0))
            return 1e3 * total / calls if calls else 0.0

        def per_step(i):
            return sum(c[i] for c in self.step_counts) / steps

        out = {
            "autodiff.ops_per_step": per_step(0),
            "train.step_self_ms": per_call_ms("train.step"),
            "autodiff.conv2d_fwd_ms": per_call_ms("autodiff.conv2d_fwd"),
            "autodiff.max_pool2d_fwd_ms": per_call_ms("autodiff.max_pool2d_fwd"),
            "autodiff.matmul_fwd_ms": per_call_ms("autodiff.matmul_fwd"),
            "autodiff.backward_clf_ms": per_call_ms("autodiff.backward_clf"),
            "autodiff.backward_dgm_ms": per_call_ms("autodiff.backward_dgm"),
            "optim.adam_clf_ms": per_call_ms("optim.adam_clf"),
            "optim.adam_dgm_ms": per_call_ms("optim.adam_dgm"),
            "optim.adam_bytes_per_step": self.adam_bytes / steps if self.step_counts else 0.0,
            "optim.norm_clip_ms": 1e3 * (agg.get("optim.global_norm", (0, 0.0))[1]
                                         + agg.get("optim.clip", (0, 0.0))[1]) / steps,
            "optim.global_norm_calls_per_step": per_step(1),
            "nets.forward_record_ms": per_call_ms("nets.forward_record"),
            "nets.forward_spliced_ms": per_call_ms("nets.forward_spliced"),
            "nets.forward_ms": per_call_ms("nets.forward"),
            "nets.predict_ms": per_call_ms("nets.predict"),
            "nets.splice_useful_frac": (self.splice_rows[0] / self.splice_rows[1]
                                        if self.splice_rows[1] else 0.0),
            "masks.sample_mask_ms": per_call_ms("masks.sample_mask"),
        }
        for layer in range(4):
            total, n = self.masked.get(layer, (0.0, 0))
            out[f"masks.masked_frac_l{layer}"] = total / n if n else 0.0
        out.update({
            "dgm.impute_ms": per_call_ms("dgm.impute"),
            "dgm.elbo_fwd_ms": per_call_ms("dgm.lambda_elbo"),
            "dgm.standardizer_ms": per_call_ms("dgm.standardizer"),
            "dgm.params": float(self.dgm_params),
            "dgm.prior_calls_per_step": per_step(2),
            "calibrate.mc_predict_ms": per_call_ms("calibrate.mc_predict"),
            "calibrate.report_ms": per_call_ms("calibrate.report"),
            "calibrate.mc_resident_mib": self.mc_resident_bytes / 2**20,
            "checkpoint.save_ms": per_call_ms("checkpoint.save"),
            "checkpoint.load_ms": per_call_ms("checkpoint.load"),
            "checkpoint.mib": self.checkpoint_bytes / 2**20,
            "data.synth_ms": per_call_ms("data.synth"),
        })
        return out

    def write(self, path, header: dict) -> None:
        """One JSON header line, then one line per span: name, start and end
        in seconds, parent span index (-1 for none), step id (0 outside steps)."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, step, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, step]) + "\n")
