"""Core data model: balanced panels, solver configuration, and the penalized objective.

The estimation target is a quantile surface X'theta + Pi where theta is a sparse
coefficient vector and Pi an n x T low-rank matrix.  The objective combines the
pinball loss with a weighted l1 penalty on theta and a nuclear-norm penalty on Pi.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateColumn, DimensionMismatch

LOSSES = ("quantile", "squared")

# Entries (or singular values) below ZERO_TOL * max(1, largest magnitude)
# count as exact zeros in a fit's support size and rank.
ZERO_TOL = 1e-8


def _readonly(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PanelData:
    """Balanced panel with response y (n x T) and covariates x (n x T x p).

    p = 0 is allowed and represents the no-covariate problem.  Arrays are
    copied and frozen, so instances are safe to share across workers.
    """

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y = _readonly(self.y)
        x = _readonly(self.x)
        if y.ndim != 2:
            raise DimensionMismatch(f"y must be 2-d, got shape {y.shape}")
        if x.ndim != 3 or x.shape[:2] != y.shape:
            raise DimensionMismatch(
                f"x must have shape (n, T, p) matching y {y.shape}, got {x.shape}"
            )
        if y.shape[0] < 1 or y.shape[1] < 1:
            raise ValueError("panel needs at least one unit and one period")
        if not np.isfinite(y).all():
            raise ValueError("y contains non-finite entries")
        if x.size and not np.isfinite(x).all():
            raise ValueError("x contains non-finite entries")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def t_len(self) -> int:
        return self.y.shape[1]

    @property
    def p(self) -> int:
        return self.x.shape[2]

    @classmethod
    def without_covariates(cls, y) -> "PanelData":
        y = np.asarray(y, dtype=float)
        return cls(y, np.empty((y.shape[0], y.shape[1], 0)))


@dataclass(frozen=True)
class ColumnScales:
    """Per-covariate root mean square scales; used as l1 penalty weights."""

    sigma_hat: np.ndarray

    def __post_init__(self):
        s = _readonly(np.atleast_1d(self.sigma_hat))
        if s.ndim != 1:
            raise DimensionMismatch("sigma_hat must be a vector")
        if s.size and (not np.isfinite(s).all() or np.any(s <= 0)):
            raise ValueError("sigma_hat entries must be positive and finite")
        object.__setattr__(self, "sigma_hat", s)

    @property
    def p(self) -> int:
        return self.sigma_hat.size


def support_mask(v) -> np.ndarray:
    """Boolean mask of entries treated as nonzero, with a relative floor."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.size == 0:
        return np.zeros(0, dtype=bool)
    floor = ZERO_TOL * max(1.0, float(np.max(np.abs(v))))
    return np.abs(v) > floor


def check_count(name: str, value, least: int):
    """Raise ValueError unless value is a Python or numpy integer, not a bool, >= least.

    A float fails even when whole, and NaN with it.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters of one penalized quantile fit.

    tau          quantile level in (0, 1)
    nu1, nu2     l1 and nuclear-norm penalty levels (finite, >= 0)
    eta          ADMM penalty (finite, > 0), or None for 10 / (nT), which suits a
                 response near unit scale; affects the path, not the optimum
    max_iter     sweep budget, an integer >= 1
    tol_abs/rel  combined absolute/relative stopping tolerances (finite, > 0)
    loss         "quantile" or "squared"; squared loss fits the mean, so it takes
                 tau = 0.5 only
    fix_pi_zero  solve the plain l1-penalized regression with Pi pinned at 0
    """

    tau: float = 0.5
    nu1: float = 0.0
    nu2: float = 0.0
    eta: float | None = None
    max_iter: int = 5000
    tol_abs: float = 1e-6
    tol_rel: float = 1e-5
    loss: str = "quantile"
    fix_pi_zero: bool = False

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        # Each range test is written so that NaN fails it too.
        if not (0.0 <= self.nu1 < np.inf and 0.0 <= self.nu2 < np.inf):
            raise ValueError(f"penalty levels must be finite and nonnegative, got "
                             f"nu1={self.nu1}, nu2={self.nu2}")
        if self.eta is not None and not 0.0 < self.eta < np.inf:
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        check_count("max_iter", self.max_iter, 1)
        if not (0.0 < self.tol_abs < np.inf and 0.0 < self.tol_rel < np.inf):
            raise ValueError(f"tolerances must be positive and finite, got "
                             f"tol_abs={self.tol_abs}, tol_rel={self.tol_rel}")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        if self.loss == "squared" and self.tau != 0.5:
            raise ValueError(f"squared loss fits the mean: tau must be 0.5, got {self.tau}")


@dataclass(frozen=True)
class QuantileFit:
    """Result of one solve: estimates, all min(n, T) of Pi's singular values, diagnostics."""

    tau: float
    theta: np.ndarray
    pi: np.ndarray
    objective: float
    iterations: int
    converged: bool
    primal_residual: float
    dual_residual: float
    singular_values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", _readonly(np.atleast_1d(self.theta)))
        object.__setattr__(self, "pi", _readonly(self.pi))
        object.__setattr__(
            self, "singular_values", _readonly(np.atleast_1d(self.singular_values))
        )
        if not np.isfinite(self.objective):
            raise ValueError("fit objective must be finite")
        if self.singular_values.shape != (min(self.pi.shape),):
            raise ValueError(f"singular_values must hold min(n, T) = {min(self.pi.shape)} values")

    @property
    def rank_estimate(self) -> int:
        """Number of singular values support_mask counts as nonzero."""
        return int(np.count_nonzero(support_mask(self.singular_values)))

    @property
    def sparsity_estimate(self) -> int:
        """Number of coefficients support_mask counts as nonzero."""
        return int(np.count_nonzero(support_mask(self.theta)))


def compute_column_scales(data: PanelData) -> ColumnScales:
    """Root mean square of each covariate column over all (i, t) cells.

    A panel without covariates gets empty scales.  Raises DegenerateColumn
    when a column is identically zero, since its l1 weight would vanish and
    leave that coordinate unpenalized.
    """
    mean_sq = np.mean(data.x ** 2, axis=(0, 1))
    if np.any(mean_sq <= 0.0):
        bad = np.flatnonzero(mean_sq <= 0.0)
        raise DegenerateColumn(f"covariate columns {bad.tolist()} are identically zero")
    return ColumnScales(np.sqrt(mean_sq))


def pinball_loss(residual, tau: float):
    """Asymmetric absolute loss (tau - 1{r <= 0}) * r; vectorized, always >= 0.

    At residual exactly 0 both branches give 0, so no tie-break is needed.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    r = np.asarray(residual, dtype=float)
    out = np.where(r > 0.0, tau * r, (tau - 1.0) * r)
    if out.ndim == 0:
        return float(out)
    return out


def penalized_objective(
    data: PanelData,
    theta,
    pi,
    config: SolverConfig,
    scales: ColumnScales | None = None,
) -> float:
    """Loss term plus weighted l1 and nuclear-norm penalties.

    quantile loss: (1/nT) sum rho_tau(Y - X theta - Pi)
    squared loss:  (1/nT) sum (Y - X theta - Pi)^2
    plus nu1 * sum_j sigma_hat_j |theta_j| + nu2 * (sum of singular values of Pi).
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    pi = np.asarray(pi, dtype=float)
    if theta.shape != (data.p,):
        raise DimensionMismatch(f"theta has length {theta.size}, expected {data.p}")
    if pi.shape != data.y.shape:
        raise DimensionMismatch(f"pi has shape {pi.shape}, expected {data.y.shape}")
    resid = data.y - pi - data.x @ theta
    if config.loss == "squared":
        fit_term = float(np.mean(resid ** 2))
    else:
        fit_term = float(np.mean(pinball_loss(resid, config.tau)))
    l1_term = 0.0
    if data.p:
        if scales is None or scales.p != data.p:
            raise DimensionMismatch("scales must match the number of covariates")
        l1_term = config.nu1 * float(np.sum(scales.sigma_hat * np.abs(theta)))
    nuclear = config.nu2 * float(np.sum(np.linalg.svd(pi, compute_uv=False)))
    return fit_term + l1_term + nuclear
