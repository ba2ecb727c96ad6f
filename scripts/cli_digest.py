"""Digest of the files a fixed set of CLI calls writes, to check byte-identity.

Runs simulate (D1, D4), fit (two taus, --fix-pi-zero, --loss squared, a
rank-zero fit, a missing panel, three data errors: a directory as --panel, a
panel that is not UTF-8 and a file as --out, and four usage errors: --loss
squared at two taus other than 0.5, --tol-rel nan, --nu2 inf, and taus 0.1 and
0.1000001, which share one tau_0.1 directory), tune (explicit grid; default
grid with --c1; --fix-pi-zero; three usage errors: --c1 nan, and on a
missing panel an ascending --grid-nu1 and --c1 nan, which must be found before
the panel is read; and the default grid with an --out below the file
`out_file`, a data error found before any fit), factors (rank 2, rank 0, a
usage error, and a directory as --pi, a data error), bench (three methods with
--oracle), bench --max-iter 1, bench --loss squared (a usage error), a 4-rep
bench in which l1qr fails rep 1, and bench --methods l1qr,l1qr (a usage error
that writes nothing), through `cli_main`, in a temporary working directory
with relative --out and --panel paths, so the summary.json config echo is the
same wherever the script runs.  The directory `a_directory`, the non-UTF-8
panel `not_utf8.csv` and the file `out_file` are made there first.  It prints
the exit code of each call, or the name of an exception that escaped
`cli_main`, then "sha256  relative/path" for every file under that directory.

Two source trees write the same bytes when their digests agree, e.g. a parent
checkout against this one, run from the repository root:

    diff <(PYTHONPATH=<parent>/src python scripts/cli_digest.py) \\
         <(PYTHONPATH=src python scripts/cli_digest.py)
"""

import hashlib
import os
import tempfile
from pathlib import Path

from quantfactor.cli import cli_main

FIT = ["--nu1", "1e-4", "--nu2", "1e-2", "--max-iter", "2000"]
BENCH = ["--design", "D1", "--n", "10", "--p", "2", "--T", "12", "--reps", "2"]

CALLS = [
    ["simulate", "--design", "D1", "--n", "12", "--p", "3", "--T", "10", "--seed", "1",
     "--out", "sim1"],
    ["simulate", "--design", "D4", "--n", "8", "--p", "2", "--T", "9", "--seed", "2",
     "--out", "sim4"],
    ["fit", "--panel", "sim1/panel.csv", "--tau", "0.25,0.75", *FIT, "--out", "fit_taus"],
    ["fit", "--panel", "sim1/panel.csv", *FIT, "--fix-pi-zero", "--out", "fit_l1qr"],
    ["fit", "--panel", "sim4/panel.csv", *FIT, "--loss", "squared", "--out", "fit_sq"],
    ["fit", "--panel", "sim1/panel.csv", "--nu2", "10", "--out", "fit_rank0"],
    ["fit", "--panel", "missing.csv", "--out", "fit_missing"],
    ["fit", "--panel", "sim1/panel.csv", "--loss", "squared", "--tau", "0.25,0.75",
     "--out", "fit_sq_taus"],
    ["fit", "--panel", "sim1/panel.csv", *FIT, "--tol-rel", "nan", "--out", "fit_tol_nan"],
    ["fit", "--panel", "sim1/panel.csv", "--nu2", "inf", "--out", "fit_nu2_inf"],
    ["fit", "--panel", "sim1/panel.csv", "--tau", "0.1,0.1000001", "--out", "fit_tau_twice"],
    ["fit", "--panel", "a_directory", "--out", "fit_panel_dir"],
    ["fit", "--panel", "not_utf8.csv", "--out", "fit_not_utf8"],
    ["fit", "--panel", "sim1/panel.csv", *FIT, "--out", "out_file"],
    ["tune", "--panel", "sim1/panel.csv", "--tau", "0.5,0.9", "--grid-nu1", "1e-3,1e-4",
     "--grid-nu2", "1e-2,1e-3", "--out", "tune_grid"],
    ["tune", "--panel", "sim4/panel.csv", "--c1", "0.5", "--max-iter", "500",
     "--out", "tune_default"],
    ["tune", "--panel", "sim1/panel.csv", "--grid-nu1", "1e-3,1e-4", "--grid-nu2",
     "1e-2,1e-3", "--fix-pi-zero", "--out", "tune_l1qr"],
    ["tune", "--panel", "sim1/panel.csv", "--grid-nu1", "1e-3", "--grid-nu2", "1e-2",
     "--c1", "nan", "--out", "tune_c1_nan"],
    ["tune", "--panel", "missing.csv", "--grid-nu1", "1e-3,1e-2", "--out", "tune_grid_up"],
    ["tune", "--panel", "missing.csv", "--c1", "nan", "--out", "tune_c1_missing"],
    ["tune", "--panel", "sim1/panel.csv", "--out", "out_file/tune_out_file"],
    ["factors", "--pi", "fit_taus/tau_0.25/pi.csv", "--rank", "2", "--out", "factors"],
    ["factors", "--pi", "fit_taus/tau_0.25/pi.csv", "--rank", "0", "--out", "factors_rank0"],
    ["factors", "--pi", "a_directory", "--rank", "1", "--out", "factors_pi_dir"],
    ["bench", *BENCH, "--methods", "l1nnqr,l1qr,l1nnls", "--oracle",
     "--grid-nu1", "1e-3,1e-4", "--grid-nu2", "1e-2,1e-3", "--out", "bench_oracle"],
    ["bench", *BENCH, "--max-iter", "1", "--grid-nu1", "1e-3", "--grid-nu2", "1e-2",
     "--out", "bench_fail"],
    ["bench", *BENCH, "--loss", "squared", "--grid-nu1", "1e-3", "--grid-nu2", "1e-2",
     "--out", "bench_loss"],
    ["bench", "--design", "D1", "--n", "10", "--p", "2", "--T", "12", "--reps", "4",
     "--grid-nu1", "1e-3", "--grid-nu2", "1e-2", "--methods", "l1nnqr,l1qr",
     "--max-iter", "1000", "--out", "bench_partial"],
    ["bench", *BENCH, "--methods", "l1qr,l1qr", "--grid-nu1", "1e-3", "--grid-nu2", "1e-2",
     "--out", "bench_methods_twice"],
]


def exit_code(argv):
    try:
        return cli_main(argv)
    except Exception as exc:
        return f"uncaught {type(exc).__name__}"


def main():
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        Path("a_directory").mkdir()
        Path("not_utf8.csv").write_bytes(b"unit,period,y,x1\nu1,t1,1,\xff\xfe\n")
        Path("out_file").write_bytes(b"kept\n")
        for argv in CALLS:
            print(exit_code(argv), " ".join(argv))
        root = Path(tmp)
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(root).as_posix()}")


if __name__ == "__main__":
    main()
