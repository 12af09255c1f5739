"""Benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # each workload in a fresh process

Run from the repository root; the package is imported from ``src/``. One
run measures one workload in this process with BLAS pinned to one thread,
checks the program's outputs, prints every metric by name and unit, and
prints as its last line a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports the per-layer metrics and the tracing overhead, and
writes the spans to ``perfbench/out/``. The exit code is 0 only if every
check passed.
"""

import os
import sys

# Pin BLAS before numpy loads anywhere in this process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics() -> dict:
    """BENCHMARK.json's metric names and units, per trace mode."""
    bench = declared()
    return {trace: {m["name"]: m["unit"] for m in bench[key]}
            for trace, key in ((0, "end_to_end"), (1, "per_layer"))}


# Per-layer values derived from shapes rather than measured.
COMPUTED = {"autodiff.conv2d_flops", "optim.adam_bytes_per_step", "calibrate.mc_resident_mib",
            "dgm.params"}


def load_benchmark():
    """Import the program from src/; exit 2 without a result if it is absent."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy
        import pilot
    except ImportError as err:
        print(f"error: cannot import the program from {ROOT / 'src'}: {err}", file=sys.stderr)
        raise SystemExit(2)
    if not Path(pilot.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: pilot was imported from {pilot.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        raise SystemExit(2)
    import tracing
    import workloads
    return numpy, tracing, workloads


def blas_threads(numpy) -> int | None:
    """OS threads in this process after a BLAS call, or None without /proc."""
    a = numpy.ones((256, 256))
    a @ a
    try:
        return len(os.listdir("/proc/self/task"))
    except FileNotFoundError:
        return None


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop, in ms. It is printed beside
    the metrics, not as one of them: on a shared host it tells a shift of the
    host's speed apart from a change of the program."""
    times = []
    for _ in range(30):
        start = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def run_one(args) -> int:
    numpy, tracing, workloads = load_benchmark()
    w = workloads.WORKLOADS[args.workload]
    units = declared_metrics()[args.trace]
    threads = blas_threads(numpy)
    probe_before = host_probe_ms()
    print(f"workload {w.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"machine  nproc={os.cpu_count()}  python={platform.python_version()}  "
          f"numpy={numpy.__version__}  blas_threads=1 ({', '.join(THREAD_VARS)})  "
          f"process_threads={threads}")

    checks = workloads.Checks()
    checks.expect(threads in (None, 1), f"BLAS cap not in effect: {threads} threads in the process")
    OUT_DIR.mkdir(exist_ok=True)
    ckpt_dir = OUT_DIR / f"ckpt-{w.name}-{os.getpid()}"
    ckpt_dir.mkdir()
    attempted = failed = 0
    metrics = {}
    try:
        runner = workloads.Runner(w, args.seed, ckpt_dir, checks)
        if w.method == "pilot":
            workloads.check_separation(w, workloads.make_data(w, args.seed), args.seed, checks)
        if not args.trace:
            phase = runner.phase(args.seconds)
            attempted = phase.attempted
            metrics = workloads.end_to_end(phase, w)
            metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            # The same phase untraced, then traced: the difference is the overhead.
            plain = runner.phase(args.seconds / 2)
            tracer = tracing.Tracer()
            traced = runner.phase(args.seconds / 2, tracer)
            attempted = plain.attempted + traced.attempted
            checks.expect(len(set(traced.step_counts)) == 1,
                          "per-step counts differ between repeats at one seed")
            metrics = tracer.per_layer()
            metrics.update(workloads.micro_kernels(args.seed))
            metrics["trace.overhead_ms"] = (workloads.step_p50(traced.unit_s)
                                            - workloads.step_p50(plain.unit_s))
            path = OUT_DIR / f"trace-{w.name}-seed{args.seed}.jsonl"
            tracer.write(path, {"workload": w.name, "seed": args.seed, "nproc": os.cpu_count(),
                                "numpy": numpy.__version__, "process_threads": threads})
            print(f"spans    {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    except Exception:
        traceback.print_exc()
        failed, attempted = 1, attempted + 1
    finally:
        shutil.rmtree(ckpt_dir, ignore_errors=True)

    print(f"host     probe {probe_before:.4f} ms before, {host_probe_ms():.4f} ms after "
          "(a fixed pure-Python loop; not a metric)")
    if metrics:
        checks.expect(set(metrics) == set(units), "reported metrics differ from BENCHMARK.json")
        print_metrics(metrics, units)
    for name, value in checks.outputs.items():
        print(f"{name:<34} {value!r:>24}  output, identical over {checks.repeats[name]} computation(s)")
    print(f"{'ops_failed_frac':<34} {failed / max(attempted, 1):>24}  ({failed} of {attempted})")
    for message in checks.failures:
        print(f"CHECK FAILED: {message}")
    correct = not checks.failures and not failed
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        note = "  computed" if name in COMPUTED else ""
        print(f"{name:<34} {value:>24.6f} {units.get(name, '?')}{note}")


def run_all(args, names) -> int:
    """Each workload in a fresh process, so peak RSS and BLAS state are per workload."""
    results = {}
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        results[name] = proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
        print()
    for name, ok in results.items():
        print(f"{name:<16} {'ok' if ok else 'FAILED'}")
    return 0 if all(results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run; BENCHMARK.json's run_seconds if not given")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(declared()["run_seconds"])
    import workloads
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (one of {', '.join(workloads.WORKLOADS)}, all)")
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
