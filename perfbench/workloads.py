"""The benchmark's workloads and the measurement of one run.

Every workload follows the user's path through the program: synthetic data
from ``data.synth_blobs`` (the workload seed is the only source of
randomness), ``train.train``, ``TrainedBundle.save`` and ``.load``, and
``calibrate.evaluate``. A run repeats rounds of set-up -> train -> save and
load -> evaluate. On ``cnn_mc_eval`` training, saving and loading belong to
the set-up, and what is measured is the Monte Carlo evaluation.

Every timing is the median over all calls of a run, with set-ups spread
through it. On a shared host the core's speed wanders by some 20% over tens
of seconds; in trials there, a median over the whole run varied less from
run to run than the best call or the quietest stretch of calls did.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import Patcher, StepClock, Tracer, module, now

SETUPS = 3          # least set-ups per run; setup_s is their median
BATCH = 32
MC_SAMPLES = 10


@dataclass(frozen=True)
class Workload:
    """One set of inputs; why each was chosen is recorded in BENCHMARK.json."""

    name: str
    kind: str           # "mlp": 3-class 8-d noisy blobs; "cnn": 10-class blobs as 3x32x32
    method: str         # "pilot" (a_aug, r=0.5) or "vanilla"
    train_size: int
    test_size: int
    epochs: int
    eval_mode: str      # "plain", or "pilot_mc": train in set-up, measure the MC evaluation


WORKLOADS = {w.name: w for w in (
    Workload("blobs_pilot", "mlp", "pilot", 300, 1500, 5, "plain"),
    Workload("blobs_vanilla", "mlp", "vanilla", 300, 1500, 5, "plain"),
    Workload("cnn_pilot", "cnn", "pilot", 192, 256, 1, "plain"),
    Workload("cnn_mc_eval", "cnn", "pilot", 64, 512, 1, "pilot_mc"),
)}


# -- program inputs -------------------------------------------------------------


def make_data(w: Workload, seed: int):
    data = module("data")
    classes, dim, noise = (3, 8, 0.1) if w.kind == "mlp" else (10, 3072, 0.0)
    ds = data.synth_blobs(classes, math.ceil(w.train_size / classes), dim, 2.0, seed,
                          label_noise=noise, n_test_per_class=math.ceil(w.test_size / classes))
    x_train, x_test = ds.x_train[: w.train_size], ds.x_test[: w.test_size]
    shape = None
    if w.kind == "cnn":
        shape = (3, 32, 32)
        x_train, x_test = x_train.reshape((-1,) + shape), x_test.reshape((-1,) + shape)
    return data.Dataset(x_train, ds.y_train[: w.train_size], x_test, ds.y_test[: w.test_size],
                        classes, shape)


def configs(w: Workload, seed: int):
    nets, train, dgm = module("nets"), module("train"), module("dgm")
    if w.kind == "mlp":
        spec = nets.ClassifierSpec("mlp", (8,), 3, hidden=(64, 64))
    else:
        spec = nets.ClassifierSpec("cnn", (3, 32, 32), 10, conv_channels=(8, 16), dense_width=128)
    pilot = w.method == "pilot"
    tcfg = train.TrainConfig(method=w.method, mask_mode="a_aug" if pilot else None, mask_rate=0.5,
                             epochs=w.epochs, batch_size=BATCH, lr_dgm=5e-4, seed=seed)
    dcfg = dgm.DGMConfig(latent_dim=16, hidden=(64, 64)) if pilot else None
    return spec, tcfg, dcfg


# -- checks -----------------------------------------------------------------------


class Checks:
    """Output checks of one run; ``outputs`` keeps each checked value."""

    def __init__(self):
        self.failures = []
        self.outputs = {}
        self.repeats = {}

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def same(self, name: str, value: float) -> None:
        """A value computed again at the same seed must be bit-identical."""
        self.expect(math.isfinite(value), f"{name} is not finite: {value!r}")
        if name in self.outputs:
            self.expect(value == self.outputs[name],
                        f"{name} differs on repeat at one seed: {value!r} != {self.outputs[name]!r}")
            self.repeats[name] += 1
        else:
            self.outputs[name] = value
            self.repeats[name] = 1


def check_separation(w: Workload, ds, seed: int, checks: Checks) -> None:
    """One untimed pilot step with validate_separation=True: each loss may
    write gradients only into its own parameter group."""
    nets, dgm, optim, train = module("nets"), module("dgm"), module("optim"), module("train")
    spec, tcfg, dcfg = configs(w, seed)
    tcfg = dataclasses.replace(tcfg, validate_separation=True)
    rng = np.random.default_rng(seed)
    clf = nets.build_classifier(spec, rng)
    model = dgm.ActivationDGM(clf.layout.total, dcfg, rng)
    opt_psi, opt_dgm = optim.Adam(clf.parameters(), tcfg.lr_classifier), optim.Adam(model.parameters(), tcfg.lr_dgm)
    try:
        train.pilot_step(clf, model, opt_psi, opt_dgm, ds.x_train[:BATCH], ds.y_train[:BATCH],
                         tcfg, rng, rng)
    except AssertionError as err:
        checks.expect(False, f"gradient separation: {err}")
        return
    checks.expect(any(p.grad is not None for p in opt_dgm.params),
                  "gradient separation: the ELBO wrote no DGM gradient")


# -- one phase of a run -------------------------------------------------------------


@dataclass
class Phase:
    """Durations in seconds of every call in one phase, in order."""

    setup_s: list = field(default_factory=list)
    unit_s: list = field(default_factory=list)      # train steps, or MC draws on cnn_mc_eval
    train_s: list = field(default_factory=list)     # train() calls
    eval_s: list = field(default_factory=list)      # evaluate() calls
    attempted: int = 0
    step_counts: list = field(default_factory=list)  # traced: per train() call


class Runner:
    def __init__(self, w: Workload, seed: int, ckpt_dir: Path, checks: Checks):
        self.w, self.seed, self.ckpt_dir, self.checks = w, seed, ckpt_dir, checks
        self.spec, self.tcfg, self.dcfg = configs(w, seed)
        cal = module("calibrate")
        self.ecfg = cal.EvalConfig(mode=w.eval_mode, mc_samples=MC_SAMPLES, seed=seed)

    def train_and_load(self, ds, phase: Phase, tracer: Tracer | None):
        """``train()`` without a checkpoint directory, so that its wall time is
        the training loop alone; then save the bundle and load it back."""
        train = module("train")
        before = len(tracer.step_counts) if tracer else 0
        start = now()
        bundle, log = train.train(self.spec, self.tcfg, ds, self.dcfg)
        phase.train_s.append(now() - start)
        phase.attempted += math.ceil(len(ds.x_train) / BATCH) * self.w.epochs
        if tracer:
            phase.step_counts.append(tuple(tracer.step_counts[before:]))
        columns = ("loss_act", "loss_dgm") if self.w.method == "pilot" else ("loss_act",)
        for name in columns:
            self.checks.expect(bool(np.all(np.isfinite(log.column(name)))), f"{name} not finite")
            self.checks.same(f"final_{name}", getattr(log.rows[-1], name))
        path = self.ckpt_dir / "bundle.ckpt"
        bundle.save(path)
        loaded = train.TrainedBundle.load(path)
        phase.attempted += 1
        saved, back = bundle.classifier.state_arrays(), loaded.classifier.state_arrays()
        if bundle.dgm is not None:
            saved.update(bundle.dgm.state_arrays())
            back.update(loaded.dgm.state_arrays())
        self.checks.expect(saved.keys() == back.keys()
                           and all(np.array_equal(saved[k], back[k]) for k in saved),
                           "checkpoint round trip changed the bundle")
        return loaded

    def evaluate(self, bundle, ds, phase: Phase) -> None:
        cal = module("calibrate")
        start = now()
        report = cal.evaluate(bundle, ds.x_test, ds.y_test, self.ecfg)
        phase.eval_s.append(now() - start)
        phase.attempted += 1
        self.checks.same("eval_nll", report.nll)
        self.checks.same("eval_ece", report.ece)

    def setup(self, phase: Phase, tracer: Tracer | None):
        start = now()
        ds = make_data(self.w, self.seed)
        bundle = self.train_and_load(ds, phase, tracer) if self.w.eval_mode == "pilot_mc" else None
        phase.setup_s.append(now() - start)
        return ds, bundle

    def phase(self, seconds: float, tracer: Tracer | None = None) -> Phase:
        """Set up SETUPS - 1 times, then repeat rounds for ``seconds``: set up,
        train and load unless the set-up did, evaluate. Another round starts
        only if the last one's duration still fits."""
        phase, clock, patcher = Phase(), StepClock(), Patcher()
        clock.install(patcher)
        if tracer:
            tracer.install(patcher)
        try:
            for _ in range(SETUPS - 1):
                self.setup(phase, tracer)
            durations, start = [], now()
            while not durations or now() - start + durations[-1] <= seconds:
                t = now()
                ds, bundle = self.setup(phase, tracer)
                if bundle is None:
                    bundle = self.train_and_load(ds, phase, tracer)
                self.evaluate(bundle, ds, phase)
                durations.append(now() - t)
        finally:
            patcher.restore()
        phase.unit_s = clock.draws if self.w.eval_mode == "pilot_mc" else clock.steps
        self.checks.expect(clock.worst_row_error < 1e-9,
                           f"prediction rows do not sum to 1 (worst error {clock.worst_row_error:.3g})")
        if self.w.eval_mode == "pilot_mc":
            # a phase evaluates the full set only once or twice, so repeat
            # the read path at the same seed on a prefix of the set
            cal, x, y = module("calibrate"), ds.x_test[:BATCH], ds.y_test[:BATCH]
            first, again = (cal.evaluate(bundle, x, y, self.ecfg) for _ in range(2))
            self.checks.expect((first.nll, first.ece) == (again.nll, again.ece),
                               "pilot_mc evaluation differs on repeat at one seed")
        return phase


# -- statistics ------------------------------------------------------------------------


def tail(values: list) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); the maximum when no percentile above the median
    has ten samples beyond it."""
    s = sorted(values)
    n = len(s)
    if n <= 20:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def step_p50(seconds: list) -> float:
    """Median step in ms."""
    return 1e3 * statistics.median(seconds)


def end_to_end(phase: Phase, w: Workload) -> dict:
    """The end-to-end metrics of one untraced phase, except peak RSS. The
    step tail is printed but not returned: it moves with the host's noise
    more than any bound allows."""
    value, pct = tail(phase.unit_s)
    unit = "MC draw" if w.eval_mode == "pilot_mc" else "training step"
    print(f"medians over {len(phase.unit_s)} x {unit}, {len(phase.train_s)} x train(), "
          f"{len(phase.eval_s)} x evaluate(), {len(phase.setup_s)} x set-up")
    print(f"{'step_ms_tail':<34} {1e3 * value:>24.6f} ms  p{pct:.1f} of {len(phase.unit_s)}, not bounded")
    return {
        "setup_s": statistics.median(phase.setup_s),
        "step_ms_p50": step_p50(phase.unit_s),
        "train_examples_per_s": w.train_size * w.epochs / statistics.median(phase.train_s),
        "eval_examples_per_s": w.test_size / statistics.median(phase.eval_s),
    }


def micro_kernels(seed: int) -> dict:
    """conv2d and matmul forward and backward at cnn_pilot shapes (batch 32):
    both convolutions of the classifier, and the DGM encoder's first layer."""
    ad = module("autodiff")
    rng = np.random.default_rng(seed)

    def timed(fn, *fresh):
        times = []
        for _ in range(3):
            for t in fresh:
                t.grad = None
            start = now()
            out = fn()
            times.append(now() - start)
        return statistics.median(times), out

    spec = configs(WORKLOADS["cnn_pilot"], seed)[0]
    clf = module("nets").build_classifier(spec, rng)
    convs = [((BATCH,) + spec.input_shape, clf.w1.shape),
             ((BATCH,) + clf.conv_shapes[0], clf.w2.shape)]
    conv_fwd = conv_bwd = flops = 0.0
    for xs, ws in convs:
        x = ad.Tensor(rng.standard_normal(xs), requires_grad=True)
        w = ad.Tensor(rng.standard_normal(ws), requires_grad=True)
        fwd, y = timed(lambda: ad.conv2d(x, w))
        bwd, _ = timed(lambda: y.sum().backward(), x, w, y)
        conv_fwd, conv_bwd = conv_fwd + fwd, conv_bwd + bwd
        n, o, oh, ow = y.shape
        flops += 2.0 * n * o * oh * ow * ws[1] * ws[2] * ws[3]
    width = 2 * clf.layout.total     # the encoder sees the record and its mask
    a = ad.Tensor(rng.standard_normal((BATCH, width)))
    b = ad.Tensor(rng.standard_normal((width, 64)) * 0.01, requires_grad=True)
    _, z = timed(lambda: ad.matmul(a, b))
    mm_bwd, _ = timed(lambda: z.sum().backward(), b, z)
    return {
        "autodiff.conv2d_bwd_ms": 1e3 * conv_bwd,
        "autodiff.matmul_bwd_ms": 1e3 * mm_bwd,
        "autodiff.conv2d_flops": flops,
        "autodiff.conv2d_gflops_per_s": flops / conv_fwd / 1e9,
    }
