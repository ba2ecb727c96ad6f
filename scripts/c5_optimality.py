"""Optimality evidence behind acceptance criterion 5 (Design 1, 100 x 5 x 100).

For each of the 20 benchmark reps (seeds 100..119) this walks the l1nnqr
default grid along `selection.grid_path`, as `metrics.evaluate_rep` does, with
the acceptance settings, counts the converged fits, and takes the oracle
point: the converged fit with the smallest quantile error.  It then refits
that (nu1, nu2) from a cold start at tol_abs = tol_rel = 1e-10 and reports how
far the quantile error moves.  A shift far below the error itself shows that
the grid fit already sits at the optimum of the convex program, so the error
C5 scores belongs to the estimator, not to an early stop.

It also scores the two estimators that C5's window must reject: Pi = 0 (the
l1qr baseline, oracle over the nu1 grid) and an over-shrunk Pi (nu2 = 2e-3,
oracle over the nu1 grid).

Run from the repository root:

    OMP_NUM_THREADS=1 PYTHONPATH=src python scripts/c5_optimality.py
"""

from dataclasses import replace

import numpy as np

from quantfactor import (
    SolverConfig,
    TuningGrid,
    compute_column_scales,
    fit,
    quantile_error,
)
from quantfactor.selection import grid_path
from quantfactor.simulate import DesignSpec, generate

CONFIG = SolverConfig(tau=0.5, eta=5e-4, max_iter=12000)  # C5's BENCH_CONFIG
TIGHT = replace(CONFIG, tol_abs=1e-10, tol_rel=1e-10, max_iter=200000)
REPS = 20


def grid_errors(inst, grid, cfg0, scales):
    """Quantile error and convergence of every warm-started grid fit."""
    rows = []
    for cfg, state in grid_path(inst.data, grid, cfg0):
        f = fit(inst.data, cfg, scales=scales, init=state)
        est = inst.data.x @ f.theta + f.pi
        rows.append((cfg.nu1, cfg.nu2, quantile_error(inst.true_median_surface, est),
                     f.converged))
    return rows


def oracle(rows):
    converged = [r for r in rows if r[3]]
    return min(converged, key=lambda r: r[2])


def main():
    grid = TuningGrid()
    n_conv = n_fits = 0
    q_grid, q_tight, q_l1qr, q_shrunk, shifts = [], [], [], [], []
    print("rep  nu1      nu2      q_grid    q_tight   |shift|   sweeps  rank  "
          "q_l1qr  q_nu2=2e-3")
    for rep in range(REPS):
        inst = generate(DesignSpec("D1", 100, 100, 5, seed=100 + rep))
        scales = compute_column_scales(inst.data)

        rows = grid_errors(inst, grid, CONFIG, scales)
        n_fits += len(rows)
        n_conv += sum(r[3] for r in rows)
        nu1, nu2, q, _ = oracle(rows)

        tight = fit(inst.data, replace(TIGHT, nu1=nu1, nu2=nu2), scales=scales)
        assert tight.converged, f"rep {rep}: tight refit did not converge"
        q_t = quantile_error(inst.true_median_surface,
                             inst.data.x @ tight.theta + tight.pi)

        l1qr = oracle(grid_errors(
            inst, grid, replace(CONFIG, fix_pi_zero=True), scales))[2]
        shrunk = oracle(grid_errors(
            inst, TuningGrid(grid.nu1_values, np.array([2e-3])), CONFIG, scales))[2]

        q_grid.append(q)
        q_tight.append(q_t)
        shifts.append(abs(q_t - q))
        q_l1qr.append(l1qr)
        q_shrunk.append(shrunk)
        print(f"{rep:3d}  {nu1:.1e}  {nu2:.1e}  {q:.6f}  {q_t:.6f}  "
              f"{abs(q_t - q):.1e}  {tight.iterations:6d}  {tight.rank_estimate:4d}  "
              f"{l1qr:.3f}   {shrunk:.4f}", flush=True)

    print(f"converged grid fits: {n_conv} of {n_fits}")
    print(f"mean oracle quantile error: grid {np.mean(q_grid):.4f}, "
          f"tight refit {np.mean(q_tight):.4f}; max |shift| {max(shifts):.1e}")
    print(f"mean oracle quantile error with Pi = 0 (l1qr): {np.mean(q_l1qr):.3f}")
    print(f"mean oracle quantile error at nu2 = 2e-3: {np.mean(q_shrunk):.4f}")


if __name__ == "__main__":
    main()
