"""Tuning-parameter selection: grid search scored by a modified BIC.

The score adds the unnormalized pinball loss to log(nT)/2 times an effective
parameter count, c1 * s_hat for the coefficients plus (1 + n + T) * r_hat for
the low-rank part.  c1 defaults to log^2(nT), which balances the otherwise
dominating rank term.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .admm import AdmmState, fit
from .errors import AllFitsFailed
from .panel import (
    ColumnScales,
    PanelData,
    QuantileFit,
    SolverConfig,
    compute_column_scales,
    pinball_loss,
)

__all__ = [
    "TuningGrid",
    "SelectionRow",
    "SelectionReport",
    "bic_pick",
    "bic_score",
    "default_c1",
    "grid_path",
    "grid_search",
]

log = logging.getLogger(__name__)


def _default_nu1():
    # 10^-4, 10^-4.5, ..., 10^-8
    return 10.0 ** -(np.arange(8, 17) / 2.0)


def _default_nu2():
    # 10^-3, 10^-4, ..., 10^-9
    return 10.0 ** -np.arange(3.0, 10.0)


@dataclass(frozen=True)
class TuningGrid:
    """Penalty grids, one-dimensional and sorted descending so warm starts relax gradually,
    and the BIC's sparsity weight c1: finite and >= 0, or None for default_c1."""

    nu1_values: np.ndarray = field(default_factory=_default_nu1)
    nu2_values: np.ndarray = field(default_factory=_default_nu2)
    c1: float | None = None

    def __post_init__(self):
        for name in ("nu1_values", "nu2_values"):
            vals = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if vals.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional, got shape {vals.shape}")
            if vals.size == 0:
                raise ValueError(f"{name} must be nonempty")
            if not np.all((vals > 0) & (vals < np.inf)):
                raise ValueError(f"{name} entries must be positive and finite")
            if np.any(np.diff(vals) >= 0):
                raise ValueError(f"{name} must be sorted strictly descending")
            vals.setflags(write=False)
            object.__setattr__(self, name, vals)
        # A NaN c1 makes every BIC NaN, so bic_pick's strict < never fires, and a
        # negative one rewards nonzero coefficients.
        if self.c1 is not None and not 0.0 <= self.c1 < np.inf:
            raise ValueError(f"c1 must be finite and nonnegative, got {self.c1}")


@dataclass(frozen=True)
class SelectionRow:
    nu1: float
    nu2: float
    bic: float
    sparsity: int
    rank: int
    objective: float
    converged: bool


@dataclass(frozen=True)
class SelectionReport:
    """Full grid table plus the BIC-minimizing converged fit."""

    table: tuple
    best_fit: QuantileFit

    @property
    def best_nu1(self) -> float:
        return self.best_fit.config.nu1

    @property
    def best_nu2(self) -> float:
        return self.best_fit.config.nu2


def default_c1(data: PanelData) -> float:
    return float(np.log(data.n * data.t_len) ** 2)


def bic_score(fit_result: QuantileFit, data: PanelData, c1: float | None = None) -> float:
    """Modified BIC: unnormalized pinball loss plus the dimension penalty.

    Uses the fit's own sparsity and rank estimates; the loss term carries no
    1/nT normalization.
    """
    if c1 is None:
        c1 = default_c1(data)
    resid = data.y - fit_result.pi - data.x @ fit_result.theta
    loss = float(np.sum(pinball_loss(resid, fit_result.config.tau)))
    n, t_len = data.n, data.t_len
    penalty = (np.log(n * t_len) / 2.0) * (
        c1 * fit_result.sparsity_estimate + (1 + n + t_len) * fit_result.rank_estimate
    )
    return loss + float(penalty)


def grid_path(data: PanelData, grid: TuningGrid, config: SolverConfig):
    """Yield (config, warm-start state) for every grid point, in fit order.

    Fit each point, passing its state to `fit` as init, before drawing the
    next: `fit` advances the state in place.  Down a column the same state
    is handed on along the grid's (descending) nu2 values, so each fit starts
    from the one above it.  Only the first column's top point starts cold.
    Each later column's top point starts from a copy of the previous
    column's top state, taken as the point after that top is drawn, so no
    descent reaches it.  Below the top row a column depends only on its own
    top state.  With config.fix_pi_zero, nu2 has no effect, so the walk
    takes nu2 = 0 only: one point per nu1.
    """
    nu2_values = (0.0,) if config.fix_pi_zero else grid.nu2_values
    top = AdmmState.zeros(data.n, data.t_len, data.p, config.eta)
    for nu1 in grid.nu1_values:
        state = top
        for k, nu2 in enumerate(nu2_values):
            yield replace(config, nu1=float(nu1), nu2=float(nu2)), state
            if k == 0:
                top = copy.deepcopy(state)


def bic_pick(points):
    """The payload of the first converged point with the smallest BIC.

    points yields (bic, converged, payload) in grid order and is consumed
    lazily, so only the running best is held.  Replacing the best only on
    strict improvement breaks ties toward the larger penalties of the
    descending grids, i.e. the sparser, lower-rank model.  Raises
    AllFitsFailed when no point converged.
    """
    best_bic, best, count = np.inf, None, 0
    for count, (bic, converged, payload) in enumerate(points, start=1):
        if converged and (best is None or bic < best_bic):
            best_bic, best = bic, payload
    if best is None:
        raise AllFitsFailed(
            f"none of the {count} grid fits converged; raise max_iter or adjust eta"
        )
    return best


def grid_search(
    data: PanelData,
    grid: TuningGrid,
    config: SolverConfig,
    scales: ColumnScales | None = None,
) -> SelectionReport:
    """Fit every (nu1, nu2) pair along grid_path and take the bic_pick, scored with grid.c1.

    Non-converged fits stay in the table, flagged, but cannot be picked.
    """
    if scales is None:
        scales = compute_column_scales(data)
    rows = []

    def points():
        for cfg, state in grid_path(data, grid, config):
            result = fit(data, cfg, scales=scales, init=state)
            row = SelectionRow(
                nu1=cfg.nu1,
                nu2=cfg.nu2,
                bic=bic_score(result, data, grid.c1),
                sparsity=result.sparsity_estimate,
                rank=result.rank_estimate,
                objective=result.objective,
                converged=result.converged,
            )
            rows.append(row)
            yield row.bic, row.converged, result

    best_fit = bic_pick(points())
    n_failed = sum(not r.converged for r in rows)
    if n_failed:
        log.warning("%d of %d grid fits did not converge", n_failed, len(rows))
    return SelectionReport(table=tuple(rows), best_fit=best_fit)
