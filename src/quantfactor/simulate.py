"""Seeded generators for the four Monte Carlo designs.

D1  location shift: Y = X'theta + Pi + eps, eps = t(3)/sqrt(3), deterministic
    rank-1 Pi with entries 5 i cos(4 pi t / T) / n.
D2  location-scale shift: Y = X'theta + Pi + (X'theta_bar) eps, eps ~ N(0,1),
    theta_bar_j = j / (2p); same Pi as D1.
D3  as D1 with random Pi = sum_{k<=5} c_k u_k v_k', c_k ~ U[0, 1/4] and
    u_k, v_k normalized Gaussian vectors.
D4  as D2 with the random Pi of D3.

Covariates are i.i.d. standard normal and theta has ones on the first
min(10, p) coordinates.  Draw order is fixed (X, then Pi components, then
errors) so equal specs generate bit-identical instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .panel import PanelData, check_count

DESIGNS = ("D1", "D2", "D3", "D4")

# Algorithm identifier echoed into sidecar files so instances can be
# reproduced by any implementation with the same generator.
RNG_ALGORITHM = "numpy-PCG64"


@dataclass(frozen=True)
class DesignSpec:
    """One generative configuration: design label, dimensions, and seed."""

    design: str
    n: int
    t_len: int
    p: int
    seed: int

    def __post_init__(self):
        if self.design not in DESIGNS:
            raise ValueError(f"design must be one of {DESIGNS}, got {self.design!r}")
        for name in ("n", "t_len", "p"):
            check_count(name, getattr(self, name), 1)
        check_count("seed", self.seed, 0)


@dataclass(frozen=True)
class SimInstance:
    """A generated panel, the spec that drew it, and the truth needed for evaluation.

    true_median_surface is X'theta + Pi, the tau = 0.5 quantile function; all
    four designs have conditional-median-zero errors by construction.
    """

    spec: DesignSpec
    data: PanelData
    theta_true: np.ndarray
    pi_true: np.ndarray
    scale_coef: np.ndarray | None
    true_median_surface: np.ndarray


def sample_scaled_t3(count: int, rng: np.random.Generator) -> np.ndarray:
    """Student-t(3) draws divided by sqrt(3): unit variance, median zero.

    Built from the ratio normal / sqrt(chi2(3) / 3), which is exact.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    z = rng.standard_normal(count)
    w = rng.chisquare(3.0, count)
    return z / np.sqrt(w / 3.0) / np.sqrt(3.0)


def _cosine_pi(n: int, t_len: int) -> np.ndarray:
    i = np.arange(1, n + 1)
    t = np.arange(1, t_len + 1)
    return 5.0 * np.outer(i, np.cos(4.0 * np.pi * t / t_len)) / n


def _random_low_rank_pi(n: int, t_len: int, rng: np.random.Generator) -> np.ndarray:
    c = rng.uniform(0.0, 0.25, 5)
    pi = np.zeros((n, t_len))
    for k in range(5):
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(t_len)
        v /= np.linalg.norm(v)
        pi += c[k] * np.outer(u, v)
    return pi


def generate(spec: DesignSpec) -> SimInstance:
    """Draw one instance of the given design; equal specs give equal bits."""
    rng = np.random.default_rng(spec.seed)
    n, t_len, p = spec.n, spec.t_len, spec.p

    x = rng.standard_normal((n, t_len, p))
    theta = np.zeros(p)
    theta[: min(10, p)] = 1.0

    if spec.design in ("D1", "D2"):
        pi = _cosine_pi(n, t_len)
    else:
        pi = _random_low_rank_pi(n, t_len, rng)

    surface = x @ theta + pi

    scale_coef = None
    if spec.design in ("D2", "D4"):
        scale_coef = np.arange(1, p + 1) / (2.0 * p)
        eps = rng.standard_normal((n, t_len))
        y = surface + (x @ scale_coef) * eps
    else:
        eps = sample_scaled_t3(n * t_len, rng).reshape(n, t_len)
        y = surface + eps

    return SimInstance(
        spec=spec,
        data=PanelData(y, x),
        theta_true=theta,
        pi_true=pi,
        scale_coef=scale_coef,
        true_median_surface=surface,
    )
