"""Closed-form proximal operators used by every ADMM update."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.blas import dsyrk

from .errors import LengthMismatch, NonFiniteInput, SvdFailure

# A rank hint at or below this fraction of min(n, T) selects the partial SVT
# path; past it one dense SVD costs less than the eigenpairs it would need
# (break-even near 0.12 at 100 x 100 and 0.4 at 250 x 24, one BLAS thread).
PARTIAL_RANK_FRACTION = 0.1

# The partial path works on the Gram matrix, whose rounding error is about
# eps * sigma_1^2, so it runs only while threshold^2 exceeds this fraction of
# ||m||_F^2 >= sigma_1^2; below that the dense SVD keeps the result exact.
PARTIAL_MIN_THRESHOLD_SQ = 1e-10


@dataclass(frozen=True)
class SvtResult:
    """Output of singular value thresholding with the spectra recorded."""

    matrix: np.ndarray
    singular_values_before: np.ndarray
    singular_values_after: np.ndarray


def prox_pinball(a, tau: float, kappa: float):
    """Elementwise minimizer of kappa * rho_tau(v) + 0.5 * (v - a)^2.

    Two-sided shrinkage: a - tau*kappa above the dead zone, a + (1-tau)*kappa
    below it, 0 inside [-(1-tau)*kappa, tau*kappa].
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise NonFiniteInput("prox_pinball input contains non-finite entries")
    return a - np.clip(a, -(1.0 - tau) * kappa, tau * kappa)


def prox_squared(a, eta: float, n_times_t: int):
    """Elementwise minimizer of (1/nT) v^2 + (eta/2) (v - a)^2."""
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    a = np.asarray(a, dtype=float)
    return a * (eta / (eta + 2.0 / n_times_t))


def soft_threshold(v, thresholds):
    """sign(v) * max(|v| - thresholds, 0), elementwise."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    t = np.atleast_1d(np.asarray(thresholds, dtype=float))
    if v.shape != t.shape:
        raise LengthMismatch(f"vector length {v.size} != thresholds length {t.size}")
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def singular_value_threshold(m, threshold: float, rank_hint: int | None = None) -> SvtResult:
    """Shrink every singular value of m by threshold, clipping at zero.

    Exact minimizer of threshold * ||P||_* + 0.5 * ||P - m||_F^2.  Without a
    rank hint, or with a hint above PARTIAL_RANK_FRACTION * min(n, T), it
    takes a dense full SVD.  Otherwise it takes the partial path: only the
    eigenpairs of the short-side Gram matrix above threshold^2, found by
    LAPACK's MRRR solver, and P = Q diag((sigma - threshold) / sigma) Q' m.
    The partial path falls back to the dense SVD when it finds more pairs
    than the fraction allows, when threshold is 0, or when threshold is too
    small against ||m||_F for the Gram matrix to resolve it.

    Both spectra have length min(n, T) and are sorted descending.  On the
    partial path they are zero past the kept values, so singular_values_before
    is exact only up to the kept rank; singular_values_after is exact on
    either path.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise NonFiniteInput("singular_value_threshold input contains non-finite entries")
    max_rank = int(PARTIAL_RANK_FRACTION * min(m.shape))
    if threshold > 0 and rank_hint is not None and rank_hint <= max_rank:
        partial = _partial_svt(m, threshold, max_rank)
        if partial is not None:
            return partial
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdFailure(f"SVD did not converge on a {m.shape} matrix") from exc
    s_after = np.maximum(s - threshold, 0.0)
    out = (u * s_after) @ vt
    return SvtResult(out, s, s_after)


def _partial_svt(m: np.ndarray, threshold: float, max_rank: int) -> SvtResult | None:
    """SVT from the short-side Gram eigenpairs above threshold^2.

    Returns None, so the caller runs the dense SVD, when threshold is too small
    for the Gram matrix to resolve or more than max_rank pairs lie above it.
    """
    n, t_len = m.shape
    wide = n <= t_len
    # The Gram matrix comes from scipy's BLAS, as the eigensolve does: numpy
    # and scipy each load their own threaded OpenBLAS, and a numpy product
    # right before the scipy solve leaves numpy's workers spinning against
    # scipy's, which made this path ten times slower on two threads.  dsyrk
    # fills the upper triangle only, the one eigh reads with lower=False.
    gram = dsyrk(1.0, m.T, trans=1 if wide else 0)
    thr_sq = threshold * threshold
    if thr_sq <= PARTIAL_MIN_THRESHOLD_SQ * np.trace(gram):
        return None
    try:
        w, q = eigh(gram, lower=False, subset_by_value=(thr_sq, np.inf), driver="evr")
    except np.linalg.LinAlgError as exc:
        raise SvdFailure(f"eigh did not converge on a {gram.shape} Gram matrix") from exc
    k = w.size
    if k > max_rank:
        return None
    s = np.zeros(min(n, t_len))
    s[:k] = np.sqrt(w[::-1])
    s_after = np.maximum(s - threshold, 0.0)
    q = q[:, ::-1]
    shrink = s_after[:k] / s[:k]
    out = (q * shrink) @ (q.T @ m) if wide else ((m @ q) * shrink) @ q.T
    return SvtResult(out, s, s_after)
