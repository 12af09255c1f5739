"""Minimal-length runs of the benchmark.

    python3 -m pytest perfbench/tests -q

Each workload runs untraced for one second, one workload runs traced, and a
copy of the benchmark without the program must refuse to produce a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    return out


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    out = result(run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"))
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    out = result(run(ROOT, "--workload", "blobs_pilot", "--seed", "1", "--seconds", "1", "--trace", "1"))
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    # run.py checks that the per-step counts repeat exactly; their values may fall
    assert metrics["autodiff.ops_per_step"] > 0
    for name in ("optim.global_norm_calls_per_step", "dgm.prior_calls_per_step"):
        assert metrics[name] >= 1 and metrics[name] == int(metrics[name]), (name, metrics[name])
    assert (ROOT / "perfbench" / "out" / "trace-blobs_pilot-seed1.jsonl").is_file()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, "--workload", "blobs_vanilla", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
