"""Digest of the fits one body of each benchmark workload makes, to check them bit for bit.

Runs the body of grid-d1-square, tune-d1-tall and mc-d1-accept from
bench/workloads.py once each at the given seed, with one BLAS thread as
bench/run.py pins it.  For every fit, in call order, it prints the workload,
the fit's index, its sweeps, its converged flag, the sha1 of its theta and
Pi bytes (`workloads.fingerprint`), the repr of its objective, primal
residual and dual residual, and its rank and sparsity estimates, then one
total line per workload.  The package comes from PYTHONPATH and the
workloads from this tree's bench/, so two source trees compute the same fits
when their digests agree, e.g. a parent checkout against this one, run from
the repository root:

    diff <(PYTHONPATH=<parent>/src python scripts/fit_digest.py --seed 11) \\
         <(PYTHONPATH=src python scripts/fit_digest.py --seed 11)
"""

import os

# One BLAS thread, set before numpy loads, as in bench/run.py.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import WORKLOADS, fingerprint  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="the benchmark's --seed")
    args = parser.parse_args(argv)
    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory() as workdir:
            wl = workload(args.seed, Path(workdir))
            wl.setup()
            out = wl.body()
        prints = fingerprint(out)
        for k, ((sweeps, converged, digest), (_, _, r)) in enumerate(zip(prints, out["calls"])):
            print(f"{name} {k} {sweeps} {int(converged)} {digest} {r.objective!r} "
                  f"{r.primal_residual!r} {r.dual_residual!r} "
                  f"{r.rank_estimate} {r.sparsity_estimate}")
        print(f"{name}: {len(prints)} fits, {sum(p[0] for p in prints)} sweeps")
    return 0


if __name__ == "__main__":
    sys.exit(main())
