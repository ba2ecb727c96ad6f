"""Closed-form proximal operators used by every ADMM update."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, NonFiniteInput, SvdFailure


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


def singular_value_threshold(m, threshold: float) -> SvtResult:
    """Shrink every singular value of m by threshold, clipping at zero.

    Exact minimizer of threshold * ||P||_* + 0.5 * ||P - m||_F^2.  The SVD is
    dense and full; problem sizes here keep that tractable.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise NonFiniteInput("singular_value_threshold input contains non-finite entries")
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdFailure(f"SVD did not converge on a {m.shape} matrix") from exc
    s_after = np.maximum(s - threshold, 0.0)
    out = (u * s_after) @ vt
    return SvtResult(out, s, s_after)
