"""Factor and loading extraction from an estimated low-rank matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllZeroSpectrum, DimensionMismatch, NonFiniteInput, RankTooLarge


@dataclass(frozen=True)
class FactorDecomposition:
    """Truncated SVD of Pi with the singular-value scale folded into loadings.

    factors has orthonormal columns (T x r); loadings (n x r) reconstructs the
    rank-r part of Pi as loadings @ factors.T.
    """

    loadings: np.ndarray
    factors: np.ndarray
    singular_values: np.ndarray


def extract_factors(pi, rank: int) -> FactorDecomposition:
    """Top-rank SVD of pi; loadings carry the scale, factors stay orthonormal.

    Each factor column's largest-magnitude entry is made positive, with the
    loading column flipped to compensate, so outputs are reproducible despite
    SVD sign ambiguity.
    """
    pi = np.asarray(pi, dtype=float)
    if pi.ndim != 2:
        raise DimensionMismatch(f"pi must be 2-d, got shape {pi.shape}")
    max_rank = min(pi.shape)
    if not 1 <= rank <= max_rank:
        raise RankTooLarge(f"rank {rank} not in [1, {max_rank}] for shape {pi.shape}")
    if not np.isfinite(pi).all():
        raise NonFiniteInput("extract_factors input contains non-finite entries")
    u, s, vt = np.linalg.svd(pi, full_matrices=False)
    u = u[:, :rank].copy()
    s = s[:rank].copy()
    factors = vt[:rank].T.copy()
    for k in range(rank):
        j = int(np.argmax(np.abs(factors[:, k])))
        if factors[j, k] < 0:
            factors[:, k] = -factors[:, k]
            u[:, k] = -u[:, k]
    return FactorDecomposition(u * s, factors, s)


def variance_explained(singular_values) -> np.ndarray:
    """Share of squared spectrum per component, as percentages summing to 100."""
    s = np.atleast_1d(np.asarray(singular_values, dtype=float))
    if not np.isfinite(s).all():
        raise NonFiniteInput("variance_explained input contains non-finite entries")
    if np.any(s < 0) or np.any(np.diff(s) > 0):
        raise ValueError("singular values must be nonnegative and descending")
    if s.size == 0 or s[0] == 0.0:
        raise AllZeroSpectrum("variance shares are undefined for a zero spectrum")
    # A power of two takes s[0] into [0.5, 1), so its square neither overflows nor
    # underflows; the scaling is exact and leaves the shares' bits as they were.
    s = np.ldexp(s, -np.frexp(s[0])[1])
    total = float(np.sum(s ** 2))
    return 100.0 * s ** 2 / total


def procrustes_distance(a, b) -> float:
    """min over orthonormal O of ||a O - b||_F, via the SVD of a'b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    if a.ndim != 2 or a.shape[1] > a.shape[0]:
        raise DimensionMismatch("inputs must be tall matrices (columns <= rows)")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NonFiniteInput("procrustes_distance input contains non-finite entries")
    u, _, vt = np.linalg.svd(a.T @ b)
    o = u @ vt
    return float(np.linalg.norm(a @ o - b))
