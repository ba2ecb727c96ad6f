"""Correctness checks computed apart from the solver.

Everything here is plain numpy on a fit's outputs (theta, Pi) and on the
panel arrays: the penalized objective, rank and support counts, the modified
BIC and its argmin, Design 1's true quantile surface, and a duality-gap
certificate built from the ADMM dual iterate.  No function here calls into
quantfactor, so a fault in the package cannot hide itself from these checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

# Relative agreement required between a recomputed objective or BIC and the
# value the package reports.  Both sum the same terms in double precision.
VALUE_RTOL = 1e-9

# An entry or singular value counts as nonzero above this share of
# max(1, largest magnitude); SVT and soft thresholding produce exact zeros.
ZERO_REL = 1e-8

# Largest accepted duality gap, in the objective's own units (mean pinball
# loss per panel cell on unit-variance noise).  Fixed before any result was
# seen: gaps of 3e-5 to 7e-4 were measured at the default tolerances on
# objectives of 0.09 to 0.51, and this bound leaves about 3x room over the
# largest.  A gap below -GAP_ROUNDOFF * max(1, objective) would mean the
# certificate itself is wrong.
GAP_BOUND = 2e-3
GAP_ROUNDOFF = 1e-9

# Alternating projections applied to the dual iterate before the final
# uniform scaling.
GAP_ROUNDS = 20

# Criterion 5's quantile-error window on Design 1, [q*/3, 3 q*], with
# q* = sigma^2 [(sqrt n + sqrt T)^2 + n + T - 1] / (nT) and
# sigma^2 = tau (1 - tau) / f_eps(0)^2 = pi^2 / 16 at tau = 0.5.
D1_SIGMA2 = np.pi ** 2 / 16.0


class CheckFailed(AssertionError):
    """An output of the package disagrees with the benchmark's recomputation."""


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= VALUE_RTOL * max(1.0, abs(a), abs(b))


def pinball_sum(resid: np.ndarray, tau: float) -> float:
    """Sum of (tau - 1{r <= 0}) r over all cells."""
    return float(np.sum(np.maximum(tau * resid, (tau - 1.0) * resid)))


def column_scales(x: np.ndarray) -> np.ndarray:
    """Root mean square of each covariate over all (i, t) cells."""
    return np.sqrt(np.mean(x ** 2, axis=(0, 1)))


def residual(y, x, theta, pi) -> np.ndarray:
    return y - np.einsum("itp,p->it", x, theta) - pi


def objective(y, x, theta, pi, tau, nu1, nu2) -> float:
    """(1/nT) sum rho_tau + nu1 sum_j sigma_j |theta_j| + nu2 ||Pi||_*."""
    loss = pinball_sum(residual(y, x, theta, pi), tau) / y.size
    l1 = nu1 * float(np.sum(column_scales(x) * np.abs(theta)))
    nuclear = nu2 * float(np.sum(np.linalg.svd(pi, compute_uv=False)))
    return loss + l1 + nuclear


def count_rank(pi: np.ndarray) -> int:
    s = np.linalg.svd(pi, compute_uv=False)
    return int(np.sum(s > ZERO_REL * max(1.0, float(s[0]))))


def count_support(theta: np.ndarray) -> int:
    theta = np.abs(theta)
    return int(np.sum(theta > ZERO_REL * max(1.0, float(theta.max(initial=0.0)))))


def bic(y, x, theta, pi, tau, rank: int, support: int) -> float:
    """Unnormalized pinball loss + log(nT)/2 (c1 s + (1 + n + T) r), c1 = log^2(nT)."""
    n, t_len = y.shape
    log_nt = float(np.log(n * t_len))
    c1 = log_nt ** 2
    loss = pinball_sum(residual(y, x, theta, pi), tau)
    return loss + (log_nt / 2.0) * (c1 * support + (1 + n + t_len) * rank)


def bic_argmin(scores, converged) -> int:
    """First index of the smallest score among converged rows, in grid order."""
    best = None
    for k, (score, ok) in enumerate(zip(scores, converged)):
        if ok and (best is None or score < scores[best]):
            best = k
    require(best is not None, "no converged row to pick from")
    return best


def d1_quantile_surface(x, theta, units, tau: float) -> np.ndarray:
    """Design 1's tau-quantile: X theta + 5 i cos(4 pi t / T) / n + F_t3^-1(tau) / sqrt 3.

    units holds each row's 1-based unit index i in the generated panel, so a
    panel whose rows were permuted gets the matching surface.
    """
    n, t_len = x.shape[0], x.shape[1]
    t = np.arange(1, t_len + 1)
    pi = 5.0 * np.outer(np.asarray(units, dtype=float), np.cos(4.0 * np.pi * t / t_len)) / n
    offset = stats.t.ppf(tau, 3) / np.sqrt(3.0)
    return np.einsum("itp,p->it", x, theta) + pi + offset


def d1_theta(p: int) -> np.ndarray:
    theta = np.zeros(p)
    theta[: min(10, p)] = 1.0
    return theta


def quantile_error(surface_true, x, theta_hat, pi_hat) -> float:
    est = np.einsum("itp,p->it", x, theta_hat) + pi_hat
    return float(np.mean((est - surface_true) ** 2))


def theta_error(theta_hat, theta_true) -> float:
    """||theta_hat - theta||^2 in units of 1e-4."""
    return float(np.sum((np.asarray(theta_hat) - theta_true) ** 2) / 1e-4)


def d1_window(n: int, t_len: int) -> tuple[float, float]:
    q_star = D1_SIGMA2 * ((np.sqrt(n) + np.sqrt(t_len)) ** 2 + n + t_len - 1) / (n * t_len)
    return q_star / 3.0, 3.0 * q_star


@dataclass(frozen=True)
class Gap:
    primal: float
    dual: float

    @property
    def gap(self) -> float:
        return self.primal - self.dual

    @property
    def rel(self) -> float:
        return self.gap / max(abs(self.primal), 1e-300)


def dual_gap(y, x, theta, pi, tau, nu1, nu2, u_v, eta, fix_pi_zero=False) -> Gap:
    """Certified duality gap of (theta, Pi) from a scaled dual iterate U_V.

    The dual of the penalized problem is max <G, Y> / nT over G with
    G in [tau - 1, tau] entrywise, |X_j' G| <= nT nu1 sigma_j and
    ||G||_op <= nT nu2 (the last dropped when Pi is pinned at zero).  Start
    from G = -nT eta U_V, alternate projections toward the three sets, and
    finish with the largest uniform scaling in [0, 1] that is feasible for
    all of them.  Any feasible G bounds the optimum from below, so
    P(theta, Pi) - <G, Y> / nT >= 0 is a gap no solver bug can shrink.
    """
    n, t_len, p = x.shape
    nt = n * t_len
    xf = x.reshape(nt, p)
    xtx = xf.T @ xf
    l1_cap = nt * nu1 * column_scales(x)
    op_cap = nt * nu2
    g = -nt * eta * np.asarray(u_v, dtype=float)
    for _ in range(GAP_ROUNDS):
        if not fix_pi_zero:
            u, s, vt = np.linalg.svd(g, full_matrices=False)
            g = (u * np.minimum(s, op_cap)) @ vt
        xtg = xf.T @ g.ravel()
        excess = xtg - np.clip(xtg, -l1_cap, l1_cap)
        g = g - (xf @ np.linalg.solve(xtx, excess)).reshape(n, t_len)
        g = np.clip(g, tau - 1.0, tau)
    scale = 1.0
    xtg = np.abs(xf.T @ g.ravel())
    over = xtg > l1_cap
    if over.any():
        scale = min(scale, float(np.min(l1_cap[over] / xtg[over])))
    if not fix_pi_zero:
        top = float(np.linalg.svd(g, compute_uv=False)[0])
        if top > op_cap:
            scale = min(scale, op_cap / top)
    dual = max(0.0, scale * float(np.sum(g * y)) / nt)
    primal = objective(y, x, theta, pi, tau, nu1, nu2)
    return Gap(primal, dual)


def within_gap_bound(gap: Gap, label: str) -> bool:
    """Whether the certified gap is at most GAP_BOUND; a negative gap is an error."""
    require(gap.gap >= -GAP_ROUNDOFF * max(1.0, abs(gap.primal)),
            f"{label}: negative duality gap {gap.gap:.3e}; the certificate is wrong")
    return gap.gap <= GAP_BOUND


@dataclass(frozen=True)
class ScoredFit:
    """What the checks need of one fit: its point, outputs and reported values."""

    nu1: float
    nu2: float
    tau: float
    theta: np.ndarray
    pi: np.ndarray
    objective: float
    rank: int
    sparsity: int
    converged: bool


def check_fit(y, x, f: ScoredFit, label: str):
    """Recompute the objective and recount rank and support."""
    obj = objective(y, x, f.theta, f.pi, f.tau, f.nu1, f.nu2)
    require(close(obj, f.objective),
            f"{label}: reported objective {f.objective!r} != recomputed {obj!r}")
    rank = count_rank(f.pi)
    require(rank == f.rank, f"{label}: reported rank {f.rank} != recounted {rank}")
    support = count_support(f.theta)
    require(support == f.sparsity,
            f"{label}: reported sparsity {f.sparsity} != recounted {support}")


def check_grid(y, x, fits, reported_bics, pick, label: str) -> int:
    """Check every fit of one grid, its BIC column and its pick; return the pick.

    fits are in grid order; reported_bics holds the package's score per row
    and pick its chosen row, each None where the package does not expose it.
    """
    scores = []
    for k, f in enumerate(fits):
        check_fit(y, x, f, f"{label} row {k}")
        score = bic(y, x, f.theta, f.pi, f.tau, f.rank, f.sparsity)
        if f.converged and reported_bics is not None:
            require(close(score, reported_bics[k]),
                    f"{label} row {k}: reported BIC {reported_bics[k]!r} != {score!r}")
        scores.append(score)
    mine = bic_argmin(scores, [f.converged for f in fits])
    require(pick is None or mine == pick,
            f"{label}: reported pick is row {pick}, recomputed BIC picks {mine}")
    return mine


def full_rank_row(fits) -> int:
    """First converged row of a grid whose Pi has full rank."""
    for k, f in enumerate(fits):
        if f.converged and f.rank == min(f.pi.shape):
            return k
    raise CheckFailed("the grid has no converged full-rank point to certify")
