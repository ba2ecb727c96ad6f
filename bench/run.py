"""Time one workload end to end, or block by block with --trace 1, and check its outputs.

Usage, from the repository root:

    python3 bench/run.py --workload grid-d1-square --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it that start with "# " are the
run's log: BLAS build, thread pinning, per-round times, certified gaps.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the measurements are single-threaded.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import CheckFailed, require
from tracer import LAYER_METRICS, Tracer, install, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC_DIR))
try:
    from workloads import WORKLOADS, fingerprint
except ModuleNotFoundError as exc:
    sys.exit(f"error: cannot import the package from {SRC_DIR}: {exc}")

# Set-up runs this many times per run, and the package import as often in
# fresh interpreters; setup_s reports the sum of the two medians.
SETUP_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import quantfactor; "
                "print(time.perf_counter() - t)")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "quantile_err": "mse", "theta_err": "1e-4"}


def log(line: str):
    print(f"# {line}", flush=True)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for, in MB."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Median time to import the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    times = [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                                  capture_output=True, text=True).stdout)
             for _ in range(SETUP_REPEATS)]
    return statistics.median(times)


def build_info() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"python {sys.version.split()[0]}, numpy {np.__version__}, "
            f"BLAS {blas.get('name')} {blas.get('version')}, {threads}, nproc {os.cpu_count()}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    log(build_info())
    out_dir = BENCH_DIR / "out"
    workdir = out_dir / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, WORKLOADS[args.workload](args.seed, workdir), import_seconds(),
                   out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, wl, import_s: float, out_dir: Path) -> int:
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setups)

    # Whole rounds of the same body; another round starts only if it should
    # end within --seconds, and a traced run times a single untraced round.
    walls, outs = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        outs.append(wl.body())
        walls.append(time.perf_counter() - t)
        if args.trace or time.perf_counter() - start + walls[-1] > args.seconds:
            break
    peak = peak_rss_mb()
    log(f"{wl.name}: set-up {setup_s:.3f} s (import {import_s:.3f} s, median of "
        f"{SETUP_REPEATS}), rounds " + ", ".join(f"{w:.3f}" for w in walls) + " s")

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        verdict = wl.check(outs[0])
        reference = fingerprint(outs[0])
        for k, out in enumerate(outs[1:], start=2):
            require(fingerprint(out) == reference, f"round {k} computed different fits")
        rounds = len(outs)
        if args.trace:
            layers, traced_wall = traced_round(wl, reference, out_dir, args)
            rounds += 1
    except CheckFailed as exc:
        log(f"CHECK FAILED: {exc}")
        result["correct"] = False
        print(json.dumps(result))
        return 1

    for note in verdict.notes:
        log(note)
    for label, gap, sweeps in verdict.gaps:
        log(f"gap {label}: {gap.gap:.3e} on objective {gap.primal:.6g}, "
            f"refit {sweeps} sweeps")
    log(f"per round: {verdict.attempted} fits, {verdict.failed} failed, "
        f"{verdict.sweeps} sweeps; quantile_err per pick "
        + ", ".join(repr(q) for q in verdict.quantile_errs))
    result["attempted"] = verdict.attempted * rounds
    result["failed"] = verdict.failed * rounds

    if args.trace:
        layers["admm.gap_rel_max"] = max(g.rel for _, g, _ in verdict.gaps)
        layers["trace.overhead_s"] = traced_wall - walls[0]
        values = layers
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak,
            "quantile_err": statistics.fmean(verdict.quantile_errs),
            "theta_err": statistics.fmean(verdict.theta_errs),
        }
    units = LAYER_METRICS if args.trace else END_TO_END_UNITS
    result["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(json.dumps(result))
    return 0


def traced_round(wl, reference, out_dir: Path, args):
    """One set-up and one body with every layer wrapped; returns (metrics, body seconds)."""
    tracer = Tracer()
    install(tracer)
    try:
        with tracer.span("setup"):
            wl.setup()
        first = len(tracer.spans)
        t = time.perf_counter()
        with tracer.span("body"):
            out = wl.body()
        wall = time.perf_counter() - t
    finally:
        tracer.uninstall()
    require(fingerprint(out) == reference, "the traced round computed different fits")
    tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    return layer_metrics(tracer, first), wall


if __name__ == "__main__":
    sys.exit(main())
