"""Closed-form proximal operators used by every ADMM update."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dsyevd, dsyevr

from .errors import LengthMismatch, NonFiniteInput, SvdFailure

# A rank hint at or below this fraction of min(n, T) asks LAPACK only for the
# eigenpairs above threshold^2 (MRRR, driver "evr"); past it divide and
# conquer over all pairs costs less (driver "evd": 1.1 against 5.7 ms for a
# full-rank 100 x 100 Gram matrix, 1.1 against 0.3 ms at rank 1, one thread).
PARTIAL_RANK_FRACTION = 0.1

# The Gram matrix's rounding error is about eps * sigma_1^2, so SVT goes
# through it only while threshold^2 exceeds this fraction of
# ||m||_F^2 >= sigma_1^2; below that the dense SVD keeps the result exact.
PARTIAL_MIN_THRESHOLD_SQ = 1e-10

# sigma_1^2 <= ||m||_F^2, so below this fraction of threshold^2 every singular
# value shrinks to zero; the margin covers the rounding of dsyrk and evr.
ZERO_MAX_NORM_SQ = 1.0 - 1e-8


@dataclass(frozen=True)
class SvtResult:
    """Output of singular value thresholding with the spectra recorded.

    Both spectra have length min(n, T) and are sorted descending.  On the Gram
    route singular_values_before holds only the values above the threshold,
    then zeros; on the zero route, where ||m||_F falls below the threshold, it
    is all zeros; on the dense route it is the whole spectrum.
    singular_values_after is exact on every route.
    """

    matrix: np.ndarray
    singular_values_before: np.ndarray
    singular_values_after: np.ndarray


def prox_pinball(a, tau: float, kappa: float):
    """Elementwise minimizer of kappa * rho_tau(v) + 0.5 * (v - a)^2.

    Two-sided shrinkage: a - tau*kappa above the dead zone, a + (1-tau)*kappa
    below it, 0 inside [-(1-tau)*kappa, tau*kappa].
    """
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise NonFiniteInput("prox_pinball input contains non-finite entries")
    return a - np.clip(a, -(1.0 - tau) * kappa, tau * kappa)


def prox_squared(a, eta: float, n_times_t: int):
    """Elementwise minimizer of (1/nT) v^2 + (eta/2) (v - a)^2."""
    if not eta > 0:
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

    Exact minimizer of threshold * ||P||_* + 0.5 * ||P - m||_F^2, by one of
    three routes, decided in this order from ||m||_F^2:
    - dense: at threshold^2 <= PARTIAL_MIN_THRESHOLD_SQ * ||m||_F^2, threshold 0
      included, a dense SVD keeps the result exact;
    - zero: at ||m||_F^2 < ZERO_MAX_NORM_SQ * threshold^2 every singular value
      is below the threshold, and P = 0 with no factorization;
    - Gram: otherwise LAPACK's dsyevr or dsyevd, with its documented minimum
      workspace, gives the eigenpairs (sigma^2, Q) of the short-side Gram
      matrix above threshold^2, and
      P = Q diag((sigma - threshold) / sigma) Q' m (or m Q ... Q' for tall m).
      rank_hint is how many pairs to expect above threshold^2 (fit passes the
      count its last SVT kept).  At most PARTIAL_RANK_FRACTION * min(n, T) it
      asks dsyevr, whose work grows with that count, for those pairs alone; no
      hint or a larger one takes all pairs from dsyevd.
      The two solvers' results agree to round-off, not bit for bit.
    SvtResult says what each route records.
    """
    if not 0.0 <= threshold < np.inf:
        raise ValueError(f"threshold must be finite and nonnegative, got {threshold}")
    m = np.asarray(m, dtype=float)
    # The route is decided before the Gram matrix exists, by numpy's elementwise
    # sum rather than a BLAS call, so the dense SVD never follows a call into
    # scipy's BLAS pool (see the Gram matrix's comment).  A NaN or inf in m makes
    # the sum non-finite, so only then is m scanned; a finite m whose sum
    # overflows takes the dense route.
    norm_sq = np.sum(m * m)
    if not np.isfinite(norm_sq) and not np.isfinite(m).all():
        raise NonFiniteInput("singular_value_threshold input contains non-finite entries")
    thr_sq = threshold * threshold
    if thr_sq <= PARTIAL_MIN_THRESHOLD_SQ * norm_sq:
        try:
            u, s, vt = np.linalg.svd(m, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise SvdFailure(f"SVD did not converge on a {m.shape} matrix") from exc
        s_after = np.maximum(s - threshold, 0.0)
        return SvtResult((u * s_after) @ vt, s, s_after)
    if norm_sq < ZERO_MAX_NORM_SQ * thr_sq:
        return SvtResult(np.zeros(m.shape), np.zeros(min(m.shape)), np.zeros(min(m.shape)))

    n, t_len = m.shape
    wide = n <= t_len
    # The Gram matrix comes from scipy's BLAS, as the eigensolve does: numpy
    # and scipy each load their own threaded OpenBLAS, and a numpy product
    # right before the scipy solve leaves numpy's workers spinning against
    # scipy's, which made this route ten times slower on two threads.  dsyrk
    # fills the upper triangle only, the one the eigensolvers read with lower=0.
    # Only a finite ||m||_F^2 gets here (an infinite one took the dense SVD), so
    # the Gram matrix is finite and needs no check before LAPACK; it is ours to
    # overwrite.
    gram = dsyrk(1.0, m.T, trans=1 if wide else 0)
    order = gram.shape[0]
    if rank_hint is not None and rank_hint <= PARTIAL_RANK_FRACTION * min(n, t_len):
        w, q, found, _, info = dsyevr(gram, range="V", lower=0, vl=thr_sq, vu=np.inf,
                                      overwrite_a=1)
        w, q = w[:found], q[:, :found]
    else:
        w, q, info = dsyevd(gram, lower=0, overwrite_a=1)
    if info != 0:
        raise SvdFailure(f"LAPACK's eigensolver failed on a {order} x {order} Gram matrix "
                         f"(info {info})")
    # Ascending pairs, and dsyevd returns every one: keep those above
    # threshold^2, largest first.
    keep = w > thr_sq
    w, q = w[keep][::-1], q[:, keep][:, ::-1]
    k = w.size
    s = np.zeros(min(n, t_len))
    s[:k] = np.sqrt(w)
    s_after = np.maximum(s - threshold, 0.0)
    shrink = s_after[:k] / s[:k]
    out = (q * shrink) @ (q.T @ m) if wide else ((m @ q) * shrink) @ q.T
    return SvtResult(out, s, s_after)
