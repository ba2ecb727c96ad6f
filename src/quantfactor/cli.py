"""Command-line surface: fit, tune, simulate, factors, bench.

Exit codes: 0 success (a non-converged fit is a result, not a failure), 2 usage
errors, 3 data errors (any OSError among them), 4 numeric/solver errors.  Failures
print one machine-parsable line: "error:<Category>: <detail>".
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import admm
from .errors import PanelFormatError, QuantfactorError
from .factors import extract_factors, variance_explained
from .panel import LOSSES, SolverConfig, compute_column_scales
from .panel_io import (
    read_matrix_csv,
    read_panel_csv,
    write_csv,
    write_fit,
    write_json,
    write_matrix_csv,
    write_sim_instance,
)
from .selection import TuningGrid, check_c1, grid_search
from .simulate import DESIGNS, DesignSpec, generate
from .metrics import check_monte_carlo, run_monte_carlo


def _str_list(text: str):
    items = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    if not items:
        raise argparse.ArgumentTypeError(f"empty comma list: {text!r}")
    return items


def _float_list(text: str):
    items = _str_list(text)
    try:
        return tuple(float(tok) for tok in items)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of numbers: {text!r}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_solver_flags(sub, model_flags=True):
    d = SolverConfig()
    sub.add_argument("--eta", type=float, default=d.eta)
    sub.add_argument("--max-iter", type=int, default=d.max_iter)
    sub.add_argument("--tol-abs", type=float, default=d.tol_abs)
    sub.add_argument("--tol-rel", type=float, default=d.tol_rel)
    if model_flags:  # bench's --methods sets both
        sub.add_argument("--loss", choices=LOSSES, default=d.loss)
        sub.add_argument("--fix-pi-zero", action="store_true", default=d.fix_pi_zero)


def _add_design_flags(sub):
    sub.add_argument("--design", choices=DESIGNS, default="D1")
    sub.add_argument("--n", type=int, default=100)
    sub.add_argument("--p", type=int, default=5)
    sub.add_argument("--T", type=int, default=100, dest="t_len")
    sub.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantfactor",
        description="Sparse plus low-rank panel quantile regression",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_fit = subs.add_parser("fit", help="fit one (nu1, nu2) pair per quantile")
    p_fit.add_argument("--panel", required=True)
    p_fit.add_argument("--tau", type=_float_list, default=(SolverConfig.tau,),
                       dest="taus")
    p_fit.add_argument("--nu1", type=float, default=SolverConfig.nu1)
    p_fit.add_argument("--nu2", type=float, default=SolverConfig.nu2)
    _add_solver_flags(p_fit)
    p_fit.add_argument("--out", default=".")

    p_tune = subs.add_parser("tune", help="grid search scored by modified BIC")
    p_tune.add_argument("--panel", required=True)
    p_tune.add_argument("--tau", type=_float_list, default=(SolverConfig.tau,),
                        dest="taus")
    p_tune.add_argument("--grid-nu1", type=_float_list, default=None)
    p_tune.add_argument("--grid-nu2", type=_float_list, default=None)
    p_tune.add_argument("--c1", type=float, default=None)
    _add_solver_flags(p_tune)
    p_tune.add_argument("--out", default=".")

    p_sim = subs.add_parser("simulate", help="write one simulated panel")
    _add_design_flags(p_sim)
    p_sim.add_argument("--out", default=".")

    p_fac = subs.add_parser("factors", help="decompose a stored pi.csv")
    p_fac.add_argument("--pi", required=True, dest="pi_path")
    p_fac.add_argument("--rank", type=_positive_int, required=True)
    p_fac.add_argument("--out", default=".")

    p_bench = subs.add_parser("bench", help="Monte Carlo benchmark table")
    _add_design_flags(p_bench)
    p_bench.add_argument("--reps", type=int, default=20)
    p_bench.add_argument("--methods", type=_str_list, default=("l1nnqr",))
    p_bench.add_argument("--grid-nu1", type=_float_list, default=None)
    p_bench.add_argument("--grid-nu2", type=_float_list, default=None)
    p_bench.add_argument("--c1", type=float, default=None)
    p_bench.add_argument("--oracle", action="store_true")
    _add_solver_flags(p_bench, model_flags=False)
    p_bench.add_argument("--out", default=".")

    return parser


def _solver_config(args: argparse.Namespace, tau: float) -> SolverConfig:
    """SolverConfig from the flags a subcommand has; the others keep its defaults."""
    solver = {f.name: getattr(args, f.name) for f in fields(SolverConfig)
              if hasattr(args, f.name)}
    return SolverConfig(tau=tau, **solver)


def _grid(args: argparse.Namespace) -> TuningGrid:
    kwargs = {}
    if args.grid_nu1 is not None:
        kwargs["nu1_values"] = np.asarray(args.grid_nu1)
    if args.grid_nu2 is not None:
        kwargs["nu2_values"] = np.asarray(args.grid_nu2)
    return TuningGrid(**kwargs)


def _tau_configs(args: argparse.Namespace) -> dict[Path, SolverConfig]:
    """Each --tau's SolverConfig, keyed by the tau_{:g} directory it alone writes."""
    configs = {}
    for tau in args.taus:
        tau_dir = Path(args.out) / f"tau_{tau:g}"
        if tau_dir in configs:
            raise ValueError(f"--tau {tau!r} would overwrite {tau_dir.name}")
        configs[tau_dir] = _solver_config(args, tau)
    return configs


def _check_out(out: str) -> None:
    """Raise NotADirectoryError unless --out, or its nearest existing ancestor, is a directory."""
    path = Path(out)
    while not path.exists():
        path = path.parent
    if not path.is_dir():
        raise NotADirectoryError(f"--out {out}: {path} is not a directory")


def _write_one_fit(result, scales, tau_dir: Path, echo: dict, nu1, nu2):
    decomposition = None
    if result.rank_estimate >= 1:
        decomposition = extract_factors(result.pi, result.rank_estimate)
    echo = {**echo, "tau": result.tau, "nu1": nu1, "nu2": nu2}
    return write_fit(result, decomposition, tau_dir, scales=scales, config_echo=echo)


def _cmd_fit(args: argparse.Namespace, echo: dict) -> int:
    # every tau's config, then --out, is checked before any file is read or written
    configs = _tau_configs(args)
    _check_out(args.out)
    data = read_panel_csv(args.panel)
    scales = compute_column_scales(data)
    for tau_dir, cfg in configs.items():
        result = admm.fit(data, cfg, scales=scales)
        _write_one_fit(result, scales, tau_dir, echo, args.nu1, args.nu2)
    return 0


def _cmd_tune(args: argparse.Namespace, echo: dict) -> int:
    # the configs, the grid, c1, then --out are checked before any file is read or written
    configs = _tau_configs(args)
    grid = _grid(args)
    check_c1(args.c1)
    _check_out(args.out)
    data = read_panel_csv(args.panel)
    scales = compute_column_scales(data)
    for tau_dir, cfg in configs.items():
        report = grid_search(data, grid, cfg, c1=args.c1, scales=scales)
        write_csv(
            tau_dir / "selection.csv",
            ([row.nu1, row.nu2, row.bic, row.sparsity, row.rank, row.objective,
              int(row.converged)] for row in report.table),
            ["nu1", "nu2", "bic", "sparsity", "rank", "objective", "converged"],
        )
        _write_one_fit(report.best_fit, scales, tau_dir, echo, report.best_nu1, report.best_nu2)
    return 0


def _cmd_simulate(args: argparse.Namespace, echo: dict) -> int:
    spec = DesignSpec(args.design, args.n, args.t_len, args.p, args.seed)
    inst = generate(spec)
    write_sim_instance(inst, args.out, args.seed, args.design)
    return 0


def _cmd_factors(args: argparse.Namespace, echo: dict) -> int:
    pi = read_matrix_csv(args.pi_path)
    # both are formed before the first write, so a failure leaves no file behind
    decomposition = extract_factors(pi, args.rank)
    shares = variance_explained(decomposition.singular_values)
    out_dir = Path(args.out)
    write_matrix_csv(decomposition.factors, out_dir / "factors.csv")
    write_matrix_csv(decomposition.loadings, out_dir / "loadings.csv")
    write_csv(
        out_dir / "variance.csv",
        ([k, sv, share] for k, (sv, share)
         in enumerate(zip(decomposition.singular_values, shares), start=1)),
        ["component", "singular_value", "percent"],
    )
    return 0


def _cmd_bench(args: argparse.Namespace, echo: dict) -> int:
    spec = DesignSpec(args.design, args.n, args.t_len, args.p, args.seed)
    # the Monte Carlo errors are scored against the median surface
    base = _solver_config(args, 0.5)
    # the settings, then --out, are checked before the Monte Carlo runs
    grid = _grid(args)
    check_monte_carlo(args.methods, args.reps, args.c1)
    _check_out(args.out)
    reports = run_monte_carlo(
        spec, args.methods, grid, args.reps,
        oracle_tuning=args.oracle, base_config=base, c1=args.c1,
    )
    out_dir = Path(args.out)
    tuning = "oracle" if args.oracle else "bic"
    write_csv(
        out_dir / "bench.csv",
        ([rep.method, spec.design, spec.n, spec.p, spec.t_len, rep.reps, tuning,
          rep.mean_theta_err_scaled, rep.mean_quantile_err, rep.failed_reps]
         for rep in reports),
        ["method", "design", "n", "p", "T", "reps", "tuning",
         "theta_err_scaled_mean", "quantile_err_mean", "failed_reps"],
    )
    write_csv(
        out_dir / "per_rep.csv",
        ([rep.method, r, te, qe] for rep in reports
         for r, (te, qe) in enumerate(zip(rep.per_rep_theta_err, rep.per_rep_quantile_err))
         if not np.isnan(te)),
        ["method", "rep", "theta_err_scaled", "quantile_err"],
    )
    write_json(out_dir / "bench_config.json", echo)
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "tune": _cmd_tune,
    "simulate": _cmd_simulate,
    "factors": _cmd_factors,
    "bench": _cmd_bench,
}


def cli_main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    # The echo leaves out the output directory: that is where the file already
    # sits, and echoing it would break byte-identity of reruns into different
    # directories.
    echo = {key: value for key, value in vars(args).items() if key != "out"}
    try:
        return _COMMANDS[args.command](args, echo)
    except (PanelFormatError, OSError) as exc:
        print(f"error:{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except QuantfactorError as exc:
        print(f"error:{type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error:ValueError: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
