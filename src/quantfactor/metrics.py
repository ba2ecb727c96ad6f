"""Evaluation measures and the Monte Carlo benchmarking harness."""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .admm import fit
from .errors import DimensionMismatch, LengthMismatch, QuantfactorError
from .panel import SolverConfig, check_count, compute_column_scales, support_mask
from .selection import TuningGrid, bic_pick, bic_score, check_c1, grid_path
from .simulate import DesignSpec, SimInstance, generate

log = logging.getLogger(__name__)

# method name -> (loss, fix_pi_zero)
METHODS = {
    "l1nnqr": ("quantile", False),
    "l1qr": ("quantile", True),
    "l1nnls": ("squared", False),
}


def quantile_error(true_surface, est_surface) -> float:
    """Mean squared error between two quantile surfaces."""
    a = np.asarray(true_surface, dtype=float)
    b = np.asarray(est_surface, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def theta_error_scaled(theta_hat, theta_true) -> float:
    """Squared Euclidean distance in units of 1e-4."""
    a = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    b = np.atleast_1d(np.asarray(theta_true, dtype=float))
    if a.shape != b.shape:
        raise LengthMismatch(f"lengths differ: {a.size} vs {b.size}")
    return float(np.sum((a - b) ** 2) / 1e-4)


def support_recovery(theta_hat, theta_true):
    """(true positives, false positives, false negatives) of the support."""
    a = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    b = np.atleast_1d(np.asarray(theta_true, dtype=float))
    if a.shape != b.shape:
        raise LengthMismatch(f"lengths differ: {a.size} vs {b.size}")
    hat = support_mask(a)
    true = support_mask(b)
    tp = int(np.sum(hat & true))
    fp = int(np.sum(hat & ~true))
    fn = int(np.sum(~hat & true))
    return tp, fp, fn


@dataclass(frozen=True)
class McReport:
    """Monte Carlo results for one method on one design.

    The per-rep arrays are indexed by rep and hold NaN where the rep failed;
    reps counts the reps that did not, over which the means are taken (NaN
    when every rep failed).
    """

    method: str
    per_rep_theta_err: np.ndarray
    per_rep_quantile_err: np.ndarray

    @property
    def reps(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.per_rep_theta_err)))

    @property
    def failed_reps(self) -> int:
        return self.per_rep_theta_err.size - self.reps

    @property
    def mean_theta_err_scaled(self) -> float:
        return self._mean(self.per_rep_theta_err)

    @property
    def mean_quantile_err(self) -> float:
        return self._mean(self.per_rep_quantile_err)

    def _mean(self, errs: np.ndarray) -> float:
        return float(errs[~np.isnan(self.per_rep_theta_err)].mean()) if self.reps else np.nan


@dataclass(frozen=True)
class RepMetrics:
    """Both tunings of one (rep, method): grid-best per metric and BIC-picked."""

    method: str
    rep: int
    oracle_theta_err: float
    oracle_quantile_err: float
    bic_theta_err: float
    bic_quantile_err: float


def _method_config(method: str, base: SolverConfig) -> SolverConfig:
    loss, fix_pi = METHODS[method]
    return replace(base, loss=loss, fix_pi_zero=fix_pi)


def evaluate_rep(
    inst: SimInstance,
    method: str,
    grid: TuningGrid,
    base_config: SolverConfig,
    c1: float | None = None,
    rep: int = 0,
) -> RepMetrics:
    """Fit one instance along the grid path and record oracle and BIC metrics.

    Both tunings look only at converged fits.  Oracle tuning takes the
    minimum of each metric separately over them; the BIC variant reports the
    metrics of the fit selection.bic_pick takes, and raises AllFitsFailed
    when no fit converged.  The errors are scored against the median surface,
    so base_config.tau must be 0.5.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {sorted(METHODS)}")
    if base_config.tau != 0.5:
        raise ValueError(f"tau {base_config.tau}: errors are scored at the median only")
    check_c1(c1)
    data = inst.data
    scales = compute_column_scales(data)
    cfg0 = _method_config(method, base_config)
    converged_errs = []

    def points():
        for cfg, state in grid_path(data, grid.nu1_values, grid.nu2_values, cfg0):
            result = fit(data, cfg, scales=scales, init=state)
            est_surface = data.x @ result.theta + result.pi
            errs = (theta_error_scaled(result.theta, inst.theta_true),
                    quantile_error(inst.true_median_surface, est_surface))
            if result.converged:
                converged_errs.append(errs)
            yield bic_score(result, data, c1), result.converged, errs

    bic_theta_err, bic_quantile_err = bic_pick(points())
    oracle_theta_err, oracle_quantile_err = np.min(converged_errs, axis=0)
    return RepMetrics(
        method=method,
        rep=rep,
        oracle_theta_err=float(oracle_theta_err),
        oracle_quantile_err=float(oracle_quantile_err),
        bic_theta_err=bic_theta_err,
        bic_quantile_err=bic_quantile_err,
    )


def check_monte_carlo(methods, reps: int, c1: float | None) -> list:
    """The methods as a list, or ValueError on reps that is not an integer >= 1, a bad
    c1, or an unknown or repeated method (which would fit every rep twice and report it
    twice).
    """
    check_count("reps", reps, 1)
    check_c1(c1)
    methods = list(methods)
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {sorted(METHODS)}")
    if len(set(methods)) < len(methods):
        raise ValueError(f"each method may be named once, got {methods}")
    return methods


def run_monte_carlo(
    spec: DesignSpec,
    methods,
    grid: TuningGrid,
    reps: int,
    oracle_tuning: bool = False,
    base_config: SolverConfig | None = None,
    c1: float | None = None,
):
    """Replicate the design, fit each method across the grid, average metrics.

    Per-rep seeds are spec.seed + rep.  Reps where a method fails outright are
    excluded from that method's averages, with the count logged and reported,
    and left NaN in its per-rep arrays.

    Returns a list of McReport, one per method, in the order given.
    """
    methods = check_monte_carlo(methods, reps, c1)
    if base_config is None:
        base_config = SolverConfig()

    theta_errs = {m: np.full(reps, np.nan) for m in methods}
    q_errs = {m: np.full(reps, np.nan) for m in methods}
    for rep in range(reps):
        inst = generate(replace(spec, seed=spec.seed + rep))
        for m in methods:
            try:
                rm = evaluate_rep(inst, m, grid, base_config, c1=c1, rep=rep)
            except QuantfactorError as exc:
                log.warning("rep %d method %s failed: %s", rep, m, exc)
                continue
            if oracle_tuning:
                theta_errs[m][rep], q_errs[m][rep] = rm.oracle_theta_err, rm.oracle_quantile_err
            else:
                theta_errs[m][rep], q_errs[m][rep] = rm.bic_theta_err, rm.bic_quantile_err

    return [McReport(m, theta_errs[m], q_errs[m]) for m in methods]
