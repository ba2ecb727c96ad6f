"""Each correctness check of the benchmark passes on a true fit and fails on a broken one.

Small panels keep this fast:

    PYTHONPATH=src python -m pytest -q bench/test_checks.py
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import checks  # noqa: E402
from quantfactor import AdmmState, SolverConfig, TuningGrid, fit, selection  # noqa: E402
from quantfactor.simulate import DesignSpec, generate  # noqa: E402
from workloads import FitLog, Verdict, certify, scored  # noqa: E402

N = T = 30
CONFIG = SolverConfig(tau=0.5, nu1=1e-3, nu2=5e-3, eta=10.0 / (N * T))


@pytest.fixture(scope="module")
def small():
    inst = generate(DesignSpec("D1", N, T, 5, seed=3))
    state = AdmmState.zeros(N, T, 5, CONFIG.eta)
    result = fit(inst.data, CONFIG, init=state)
    assert result.converged
    return inst, result, state


def arrays(inst):
    return np.asarray(inst.data.y), np.asarray(inst.data.x)


def gap_of(small, theta, pi):
    inst, _, state = small
    y, x = arrays(inst)
    return checks.dual_gap(y, x, theta, pi, CONFIG.tau, CONFIG.nu1, CONFIG.nu2,
                           state.u_v, state.eta)


def test_true_fit_passes_every_check(small):
    inst, result, _ = small
    y, x = arrays(inst)
    assert result.rank_estimate >= 1
    checks.check_fit(y, x, scored(CONFIG, result), "fit")
    assert checks.within_gap_bound(gap_of(small, result.theta, result.pi), "fit")


def test_gap_is_tight_at_tight_tolerance(small):
    inst = small[0]
    y, x = arrays(inst)
    state = AdmmState.zeros(N, T, 5, CONFIG.eta)
    tight = fit(inst.data, replace(CONFIG, tol_abs=1e-10, tol_rel=1e-10, max_iter=100000),
                init=state)
    gap = checks.dual_gap(y, x, tight.theta, tight.pi, CONFIG.tau, CONFIG.nu1, CONFIG.nu2,
                          state.u_v, state.eta)
    assert -1e-9 <= gap.gap <= 1e-6


def test_negative_gap_is_an_error():
    with pytest.raises(checks.CheckFailed, match="negative duality gap"):
        checks.within_gap_bound(checks.Gap(primal=0.5, dual=0.5 + 1e-6), "gap")


def test_wrong_objective_fails_recomputation(small):
    inst, result, _ = small
    y, x = arrays(inst)
    wrong = replace(scored(CONFIG, result), objective=result.objective * (1 + 1e-6))
    with pytest.raises(checks.CheckFailed, match="objective"):
        checks.check_fit(y, x, wrong, "fit")


def test_wrong_rank_and_support_fail_recount(small):
    inst, result, _ = small
    y, x = arrays(inst)
    with pytest.raises(checks.CheckFailed, match="rank"):
        checks.check_fit(y, x, replace(scored(CONFIG, result), rank=result.rank_estimate + 1), "fit")
    with pytest.raises(checks.CheckFailed, match="sparsity"):
        checks.check_fit(y, x, replace(scored(CONFIG, result), sparsity=result.sparsity_estimate - 1),
                         "fit")


def test_wrong_pick_and_wrong_bic_fail(small):
    inst = small[0]
    y, x = arrays(inst)
    grid = TuningGrid(np.array([1e-2, 1e-3]), np.array([3e-2, 1e-2, 3e-3]))
    log = FitLog()
    with log.watching(selection):
        report = selection.grid_search(inst.data, grid, CONFIG)
    fits = [scored(config, result) for _, config, result in log.calls]
    bics = [row.bic for row in report.table]
    pick = [(f.nu1, f.nu2) for f in fits].index((report.best_nu1, report.best_nu2))
    assert checks.check_grid(y, x, fits, bics, pick, "grid") == pick
    with pytest.raises(checks.CheckFailed, match="pick"):
        checks.check_grid(y, x, fits, bics, (pick + 1) % len(fits), "grid")
    bad = list(bics)
    bad[pick] += 1.0
    with pytest.raises(checks.CheckFailed, match="BIC"):
        checks.check_grid(y, x, fits, bad, pick, "grid")


def test_quantile_surface_matches_design_1(small):
    inst = small[0]
    x = np.asarray(inst.data.x)
    units = np.arange(1, N + 1)
    median = checks.d1_quantile_surface(x, inst.theta_true, units, 0.5)
    assert np.allclose(median, inst.true_median_surface, atol=1e-12)
    upper = checks.d1_quantile_surface(x, inst.theta_true, units, 0.9)
    assert np.allclose(upper - median, 1.6377443536962102 / np.sqrt(3.0), atol=1e-12)
    # a permuted panel carries its units' labels
    perm = np.random.default_rng(0).permutation(N)
    permuted = checks.d1_quantile_surface(x[perm], inst.theta_true, units[perm], 0.5)
    assert np.allclose(permuted, inst.true_median_surface[perm], atol=1e-12)


def test_scaled_pi_and_shifted_theta_fail_certification(small):
    inst, result, _ = small
    verdict = Verdict()
    certify(verdict, inst.data, CONFIG, scored(CONFIG, result), "fit")
    assert verdict.failed == 0
    shifted = result.theta.copy()
    shifted[0] += 0.25
    for label, broken in (("pi", replace(scored(CONFIG, result), pi=1.05 * result.pi)),
                          ("theta", replace(scored(CONFIG, result), theta=shifted))):
        certify(verdict, inst.data, CONFIG, broken, label)
        assert verdict.notes[-1].startswith(f"{label}:")
        assert not checks.within_gap_bound(verdict.gaps[-1][1], label)
    assert verdict.failed == 2
