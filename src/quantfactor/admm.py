"""Scaled ADMM solver for pinball or squared loss with l1 and nuclear-norm penalties.

The problem splits as V = W, W = Y - X theta - Z_Pi, Z_Pi = Pi, Z_theta = theta.  The
(Z_Pi, W) step's first-order conditions leave the scaled duals of the middle two at
U_V and -U_V, so U_V serves the first three and U_theta the fourth.  Every block update
is an exact prox or an exact minimizer in closed form: a pinball (or squared-loss)
prox for V, a cached Gram solve for theta, singular value thresholding for Pi, soft
thresholding for Z_theta, and for (Z_Pi, W) a consensus projection that reads no
dual: V and Pi move back by the mean violation e = (V + Pi + X theta - Y) / 3.
A panel without covariates (p = 0) runs the same loop with empty theta blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpotrs

from .errors import DimensionMismatch, NonFiniteIterate
from .panel import (
    ColumnScales,
    PanelData,
    QuantileFit,
    SolverConfig,
    compute_column_scales,
    penalized_objective,
)
from .prox import prox_pinball, prox_squared, singular_value_threshold, soft_threshold

# fit's primal pre-test scales its bound's tolerance by this for rounding: each norm in
# the bound or in the full test sums at most nT squares, to within about nT ulps, and
# 1e-9 (4.5e6 ulps) covers that on panels of up to about 4e6 entries.
BOUND_MARGIN = 1.0 + 1e-9


@dataclass
class AdmmState:
    """w, z_pi, u_v, z_theta and u_theta carry over between sweeps; theta and pi are outputs.

    Each sweep forms theta and Pi afresh, as it forms V from W - U_V.  u_v is the one dual
    of the three consensus constraints.  Mutable and confined to a single worker; pass a
    previous state back into fit() to warm start.  fit() sets eta to the penalty it used.
    """

    theta: np.ndarray
    pi: np.ndarray
    w: np.ndarray
    z_theta: np.ndarray
    z_pi: np.ndarray
    u_v: np.ndarray
    u_theta: np.ndarray
    eta: float | None

    @classmethod
    def zeros(cls, n: int, t_len: int, p: int, eta: float | None) -> "AdmmState":
        m = lambda: np.zeros((n, t_len))
        v = lambda: np.zeros(p)
        return cls(theta=v(), pi=m(), w=m(), z_theta=v(), z_pi=m(), u_v=m(), u_theta=v(),
                   eta=eta)


class GramCache:
    """Cholesky factorization of (sum_it X_it X_it' + I_p), built by each fit for its sweeps.

    The matrix is symmetric positive definite by construction, so the
    factorization always exists.
    """

    def __init__(self, data: PanelData):
        self.x_flat = np.ascontiguousarray(data.x.reshape(data.n * data.t_len, data.p))
        gram = self.x_flat.T @ self.x_flat + np.eye(data.p)
        self._chol, self._lower = cho_factor(gram)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve (Gram + I) theta = b; a non-finite b is left to fit's residual test."""
        if b.size == 0:
            return b  # f2py rejects a 0 x 0 dpotrs
        theta, info = dpotrs(self._chol, b, lower=self._lower)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of dpotrs")
        return theta

    def xt_dot(self, mat: np.ndarray) -> np.ndarray:
        """sum_it X_it * mat_it, an R^p vector."""
        return self.x_flat.T @ mat.ravel()


def solve_zw_joint(a_tilde, b_tilde, c_tilde):
    """Exact joint minimizer of ||W + Z + A||^2 + ||W + B||^2 + ||Z + C||^2.

    W = -B - e, Z = -C - e with e = (A - B - C) / 3: the consensus projection of Boyd
    et al. (2011, sec. 7.3).  fit passes A = X theta - Y, B = -V, C = -Pi and no dual.
    """
    a = np.asarray(a_tilde, dtype=float)
    b = np.asarray(b_tilde, dtype=float)
    c = np.asarray(c_tilde, dtype=float)
    if a.shape != b.shape or a.shape != c.shape:
        raise DimensionMismatch("a_tilde, b_tilde, c_tilde must share one shape")
    # In place on new arrays: (a - b - c) / 3, -c - e and -b - e, with fewer temporaries.
    e = a - b
    e -= c
    e /= 3.0
    z, w = -c, -b
    z -= e
    w -= e
    return z, w


def fit(
    data: PanelData,
    config: SolverConfig,
    scales: ColumnScales | None = None,
    init: AdmmState | None = None,
) -> QuantileFit:
    """Solve the penalized panel regression at one (nu1, nu2) pair.

    The one solver loop: every panel, with or without covariates, runs the
    same scaled ADMM sweeps.

    Parameters
    ----------
    data : PanelData
        Balanced panel.  With p = 0 theta is empty and only Pi is estimated;
        the theta, Z_theta and U_theta blocks are then zero-length.
    config : SolverConfig
        Loss, penalties, and stopping rule; eta=None means 10 / (nT).  With
        fix_pi_zero the low-rank part is pinned at zero and nu2 is ignored.
    scales : ColumnScales, optional
        l1 penalty weights; computed from the data when omitted.
    init : AdmmState, optional
        Warm start, advanced in place: on return it holds the final iterates,
        which grid search reuses, and the eta used.  A state whose eta is set
        and differs from this fit's has its scaled duals rescaled by old/new.

    Returns
    -------
    QuantileFit with theta taken from the soft-threshold iterate and pi from
    the singular-value-threshold iterate, so support and rank counts reflect
    exact zeros.  primal_residual is sqrt(k ||V - W||^2 + ||Z_theta - theta||^2), the
    norm of the last sweep's four violations, k = 3 of them +-(V - W) (pinned, k = 2).
    dual_residual is eta times the norm of that sweep's change in (W, Z_Pi, Z_theta).

    The stop is the every-sweep test of Boyd et al. (2011, sec. 3.3.1).  With r = V - W the
    (Z_Pi, W) step leaves Z_Pi = Pi - r and X theta - Y = k r - V - Pi (Pi = 0 pinned), so
    no n x T norm in the primal tolerance exceeds k ||r|| + ||V|| + ||Pi||.  A sweep whose
    primal residual fails that bound's tolerance (times BOUND_MARGIN) fails the test; only
    the others form all seven norms, and only one that passes the primal test, or the
    last, forms the dual residual.

    Raises
    ------
    ValueError, DimensionMismatch
        fix_pi_zero with p = 0; scales or init that do not match the panel.
    NonFiniteIterate
        A sweep's primal residual, or a dual residual it forms, is NaN or inf.
    NonFiniteInput
        A warm start holds NaN or inf where the pinball prox or SVT reads it.  The squared
        loss prox checks nothing, so there a NaN in W raises NonFiniteIterate in the first
        sweep instead.
    """
    if data.p == 0 and config.fix_pi_zero:
        raise ValueError("fix_pi_zero with p = 0 leaves nothing to estimate")
    if scales is None:
        scales = compute_column_scales(data)
    if scales.p != data.p:
        raise DimensionMismatch("scales do not match the number of covariates")
    gram = GramCache(data)

    n, t_len, p = data.n, data.t_len, data.p
    nt = n * t_len
    y = data.y
    # The pinball prox moves V by at most 1/(nT eta) a sweep: 0.1 at the default.
    eta = config.eta if config.eta is not None else 10.0 / nt
    s = init if init is not None else AdmmState.zeros(n, t_len, p, eta)
    for name in ("pi", "w", "z_pi", "u_v", "theta", "z_theta", "u_theta"):
        if np.shape(getattr(s, name)) != ((p,) if "theta" in name else (n, t_len)):
            raise DimensionMismatch(f"warm-start {name} does not match the panel")
    if s.eta is not None and s.eta != eta:
        # The scaled duals are the true duals over eta: keep the true duals.
        ratio = s.eta / eta
        s.u_v, s.u_theta = s.u_v * ratio, s.u_theta * ratio
    s.eta = eta
    if config.fix_pi_zero:
        s.pi = np.zeros((n, t_len))
        s.z_pi = np.zeros((n, t_len))

    kappa = 1.0 / (nt * eta)
    l1_thresholds = config.nu1 * scales.sigma_hat / eta
    svt_threshold = config.nu2 / eta
    squared = config.loss == "squared"
    fix_pi = config.fix_pi_zero
    # k consensus constraints (2 when pinned): each absolute tolerance counts the entries
    # its residual stacks, k nT + p and (k - 1) nT + p (Boyd et al. 2011, sec. 3.3.1).
    k = 2 if fix_pi else 3
    abs_primal = config.tol_abs * np.sqrt(k * nt + p)
    abs_dual = config.tol_abs * np.sqrt((k - 1) * nt + p)
    svals = np.zeros(min(n, t_len))

    converged = False
    # The residual test is the non-finite guard; numpy's warnings would repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for sweep in range(1, config.max_iter + 1):
            w_prev, z_pi_prev, z_theta_prev = s.w, s.z_pi, s.z_theta

            # V: prox of the loss at W - U_V.
            av = s.w - s.u_v
            v = prox_squared(av, eta, nt) if squared else prox_pinball(av, config.tau, kappa)

            # theta: (Gram + I)^{-1} (-sum X A + Z_theta + U_theta), with A = W + Z_Pi + U_V - Y
            # from last sweep, summed in place.
            a = s.w + s.z_pi
            a += s.u_v
            a -= y
            s.theta = gram.solve(-gram.xt_dot(a) + s.z_theta + s.u_theta)

            # Pi: singular value shrinkage of Z_Pi - U_V (skipped when pinned).  The pairs the
            # last sweep's SVT kept are the hint that picks its eigensolver; the first has none.
            if not fix_pi:
                hint = None if sweep == 1 else int(np.count_nonzero(svals))
                svt = singular_value_threshold(s.z_pi - s.u_v, svt_threshold, hint)
                s.pi = svt.matrix
                svals = svt.singular_values_after

            # Z_theta: soft threshold with the scale-weighted l1 level.
            s.z_theta = soft_threshold(s.theta - s.u_theta, l1_thresholds)

            # (Z_Pi, W): the consensus projection reads no dual; pinned, only W moves.
            xth_minus_y = (gram.x_flat @ s.theta).reshape(n, t_len) - y
            if fix_pi:
                s.w = (v - xth_minus_y) / 2.0
            else:
                s.z_pi, s.w = solve_zw_joint(xth_minus_y, -v, -s.pi)

            # The (Z_Pi, W) step left the k constraints violated by r = V - W
            # (Z_Pi = Pi by -r): U_V steps by r, and the primal residual counts it that often.
            r = v - s.w
            r_theta = s.z_theta - s.theta
            s.u_v = s.u_v + r
            s.u_theta = s.u_theta + r_theta

            # Any NaN or inf reaches the primal residual: in theta, Pi or V by way of W.
            r_sq = np.add.reduce(r ** 2, None)
            primal = float(np.sqrt(k * r_sq + np.add.reduce(r_theta ** 2)))
            if not np.isfinite(primal):
                raise NonFiniteIterate("ADMM iterate became non-finite; try a different eta")
            # All seven norms only on a sweep within the bound's tolerance (fit's docstring).
            nv, npi, nzt, nth = map(np.linalg.norm, (v, s.pi, s.z_theta, s.theta))
            bound = max(k * np.sqrt(r_sq) + nv + npi, nzt, nth)
            passed = (primal <= BOUND_MARGIN * (abs_primal + config.tol_rel * bound)
                      and primal <= abs_primal + config.tol_rel * max(
                          nv, npi, nzt, nth, *map(np.linalg.norm, (s.w, s.z_pi, xth_minus_y))))
            if passed or sweep == config.max_iter:
                dual = float(eta * np.sqrt(np.sum((s.w - w_prev) ** 2)
                                           + np.sum((s.z_pi - z_pi_prev) ** 2)
                                           + np.sum((s.z_theta - z_theta_prev) ** 2)))
                if not np.isfinite(dual):
                    raise NonFiniteIterate("ADMM iterate became non-finite; try a different eta")
            if passed and dual <= abs_dual + config.tol_rel * (
                    eta * max(np.linalg.norm(s.u_v), np.linalg.norm(s.u_theta))):
                converged = True
                break

    objective = penalized_objective(data, s.z_theta, s.pi, config, scales)
    return QuantileFit(
        tau=config.tau,
        theta=s.z_theta,
        pi=s.pi,
        objective=objective,
        iterations=sweep,
        converged=converged,
        primal_residual=primal,
        dual_residual=dual,
        singular_values=svals,
    )
