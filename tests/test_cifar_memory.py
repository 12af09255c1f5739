"""Pilot steps at the CIFAR-10 config's sizes fit in memory, and the
memory does not grow after the first.

At ``configs/cifar10_cnn_pilot_a_aug.cfg`` (conv 32,64; dense 1024; DGM
hidden 256,256; latent 64; batch 128) the record is 83,082 values wide. A
DGM with a dense mask weight would need about 4.45 GiB for its parameters,
Adam moments and gradients alone; with the per-layer mask weight table it
needs about 2.55 GiB. Three steps run in a child process on synthetic
(3, 32, 32) tensors, so no download is needed. The child reports its own
peak resident size after the first step and after the third: a step that
kept the last step's DGM gradients alive through its record pass would
raise the later peak by their size.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PEAK_BOUND_GIB = 3.6     # measured: 3.38 GiB on a 2-vCPU x86-64 host, numpy 2.4.6
STEADY_RATIO = 1.02      # the third step's peak over the first's

STEP = """
import json, resource, sys, time
import numpy as np
from pilot.config import classifier_spec, dgm_config, load_config, train_config
from pilot.dgm import ActivationDGM
from pilot.masks import BLOCK_MODES
from pilot.nets import build_classifier
from pilot.optim import Adam
from pilot.train import pilot_step

cfg = load_config(sys.argv[1])
spec = classifier_spec(cfg, (3, 32, 32), 10)
tcfg, dcfg = train_config(cfg), dgm_config(cfg)
assert tcfg.mask_mode in BLOCK_MODES
rng = np.random.default_rng(0)
clf = build_classifier(spec, rng)
dgm = ActivationDGM(clf.layout.total, dcfg, rng, clf.layout)
opt_psi = Adam(clf.parameters(), tcfg.lr_classifier)
opt_dgm = Adam(dgm.parameters(), tcfg.lr_dgm, dgm.registry.row_counts())
x = rng.random((tcfg.batch_size, 3, 32, 32))
y = rng.integers(0, 10, tcfg.batch_size)
peaks, step_ms, finite = [], [], True
for _ in range(3):
    start = time.perf_counter()
    stats = pilot_step(clf, dgm, opt_psi, opt_dgm, x, y, tcfg, rng, rng)
    step_ms.append(1e3 * (time.perf_counter() - start))
    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 2**20)
    finite &= bool(np.isfinite(stats["loss_dgm"]) and np.isfinite(stats["loss_act"]))
print(json.dumps({"step_ms": step_ms, "peak_gib": peaks,
                  "record": clf.layout.total,
                  "dgm_params": sum(p.size for p in dgm.parameters()),
                  "finite": finite}))
"""


def test_cifar_size_pilot_step_fits_in_memory():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", STEP, str(ROOT / "configs" / "cifar10_cnn_pilot_a_aug.cfg")],
                         env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout.splitlines()[-1])
    first, last = out["peak_gib"][0], out["peak_gib"][-1]
    print(f"CIFAR-size pilot steps: {', '.join(f'{ms:.0f}' for ms in out['step_ms'])} ms, "
          f"peak RSS {first:.3f} GiB after the first, {last:.3f} GiB after the third")
    assert out["record"] == 83082 and out["finite"]
    assert out["dgm_params"] < 86e6
    assert first < PEAK_BOUND_GIB
    assert last <= STEADY_RATIO * first
