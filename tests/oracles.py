"""Independent oracles used by the tests: grid minimizers, an LP solver for
l1-penalized quantile regression, and a brute-force Procrustes search.

These deliberately avoid the package's own solution paths.
"""

import numpy as np
from scipy.optimize import linprog


def grid_minimize(objective, lo, hi, step=1e-5):
    """Argmin of a scalar function over a dense grid [lo, hi]."""
    grid = np.arange(lo, hi + step, step)
    return float(grid[np.argmin(objective(grid))])


def pinball_scalar(v, tau):
    return np.where(v > 0, tau * v, (tau - 1.0) * v)


def prox_pinball_grid(a, tau, kappa, step=1e-5):
    """Grid minimizer of kappa * rho_tau(v) + 0.5 (v - a)^2."""
    pad = kappa + 0.01
    return grid_minimize(
        lambda v: kappa * pinball_scalar(v, tau) + 0.5 * (v - a) ** 2,
        a - pad, a + pad, step,
    )


def prox_squared_grid(a, eta, n_times_t, step=1e-5):
    """Grid minimizer of (1/nT) v^2 + (eta/2) (v - a)^2."""
    lo, hi = min(0.0, a) - 0.01, max(0.0, a) + 0.01
    return grid_minimize(
        lambda v: v ** 2 / n_times_t + 0.5 * eta * (v - a) ** 2, lo, hi, step
    )


def soft_threshold_grid(v, t, step=1e-5):
    """Grid minimizer of t |z| + 0.5 (z - v)^2."""
    pad = t + 0.01
    return grid_minimize(
        lambda z: t * np.abs(z) + 0.5 * (z - v) ** 2, v - pad, v + pad, step
    )


def l1_quantile_lp(y, x, tau, nu1, weights):
    """Solve min (1/nT) sum rho_tau(Y - X theta) + nu1 sum_j w_j |theta_j| as an LP.

    Variables are (theta+, theta-, u+, u-) with Y = X theta + u+ - u-.
    Returns (theta, optimal objective value).
    """
    n, t_len, p = x.shape
    nt = n * t_len
    x_flat = x.reshape(nt, p)
    y_flat = y.ravel()
    c = np.concatenate([
        nu1 * weights,
        nu1 * weights,
        np.full(nt, tau / nt),
        np.full(nt, (1.0 - tau) / nt),
    ])
    a_eq = np.hstack([x_flat, -x_flat, np.eye(nt), -np.eye(nt)])
    res = linprog(c, A_eq=a_eq, b_eq=y_flat, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"LP failed: {res.message}")
    theta = res.x[:p] - res.x[p : 2 * p]
    return theta, float(res.fun)


def procrustes_brute(a, b, step=1e-4):
    """min_O ||a O - b||_F over 2x2 orthonormal O by angle grid plus reflection."""
    angles = np.arange(0.0, 2.0 * np.pi, step)
    best = np.inf
    for ang in angles:
        c, s = np.cos(ang), np.sin(ang)
        for refl in (1.0, -1.0):
            o = np.array([[c, -refl * s], [s, refl * c]])
            d = np.linalg.norm(a @ o - b)
            if d < best:
                best = d
    return float(best)


def penalized_objective(y, x, theta, pi, tau, nu1, nu2, weights):
    """(1/nT) sum rho_tau(Y - X theta - Pi) + nu1 sum_j w_j |theta_j| + nu2 ||Pi||_*."""
    resid = y - np.einsum("itp,p->it", x, theta) - pi
    loss = float(np.mean(pinball_scalar(resid, tau)))
    nuclear = float(np.sum(np.linalg.svd(pi, compute_uv=False)))
    return loss + nu1 * float(np.sum(weights * np.abs(theta))) + nu2 * nuclear


def dual_lower_bound(y, x, tau, nu1, nu2, weights, g, rounds=20, fix_pi_zero=False):
    """<G, Y> / nT for a dual-feasible G reached from the candidate g.

    The dual of the penalized pinball problem maximizes <G, Y> / nT over G in
    [tau - 1, tau] entrywise with |X_j' G| <= nT nu1 w_j for every covariate j
    and, unless Pi is pinned at zero, ||G||_op <= nT nu2.  By weak duality its
    value at any feasible G bounds the optimum from below.  The candidate (for
    an ADMM fit, -nT eta U_V) goes through a fixed number of rounds that clip
    its singular values, take out the least-squares part of X'G beyond the
    caps, and clip its entries.  Then it is scaled by the largest factor in
    [0, 1] that meets every cap; the box holds 0, so it stays in the box.
    """
    n, t_len, p = x.shape
    nt = n * t_len
    xf = x.reshape(nt, p)
    l1_cap = nt * nu1 * np.asarray(weights, dtype=float)
    op_cap = nt * nu2
    g = np.array(g, dtype=float)
    for _ in range(rounds):
        if not fix_pi_zero:
            u, s, vt = np.linalg.svd(g, full_matrices=False)
            g = (u * np.minimum(s, op_cap)) @ vt
        if p:
            xtg = xf.T @ g.ravel()
            beyond = xtg - np.clip(xtg, -l1_cap, l1_cap)
            g = g - (xf @ np.linalg.solve(xf.T @ xf, beyond)).reshape(n, t_len)
        g = np.clip(g, tau - 1.0, tau)
    factor = 1.0
    if p:
        xtg = np.abs(xf.T @ g.ravel())
        over = xtg > l1_cap
        if over.any():
            factor = float(np.min(l1_cap[over] / xtg[over]))
    if not fix_pi_zero:
        top = float(np.linalg.svd(g, compute_uv=False)[0])
        if top > op_cap:
            factor = min(factor, op_cap / top)
    return factor * float(np.sum(g * y)) / nt
