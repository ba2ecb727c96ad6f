import copy
from dataclasses import replace

import numpy as np
import pytest

from quantfactor import (
    AdmmState,
    AllFitsFailed,
    PanelData,
    QuantileFit,
    SolverConfig,
    TuningGrid,
    bic_score,
    compute_column_scales,
    fit,
    grid_search,
    pinball_loss,
    support_mask,
)
from quantfactor.selection import grid_path
from quantfactor.simulate import DesignSpec, generate


def fit_of(theta, pi, singular_values, tau=0.5):
    return QuantileFit(
        tau=tau, theta=theta, pi=pi, objective=0.0, iterations=1, converged=True,
        primal_residual=0.0, dual_residual=0.0, singular_values=singular_values,
    )


def make_fit(tau, theta, pi, sparsity, rank):
    """A fit with pi's shape whose spectrum holds `rank` ones; theta must hold `sparsity` nonzeros.

    bic_score reads its loss from theta and pi, and its counts from theta and the spectrum.
    """
    spectrum = np.zeros(min(np.shape(pi)))
    spectrum[:rank] = 1.0
    f = fit_of(theta, pi, spectrum, tau)
    assert (f.sparsity_estimate, f.rank_estimate) == (sparsity, rank)
    return f


class TestTuningGrid:
    def test_defaults(self):
        grid = TuningGrid()
        np.testing.assert_allclose(grid.nu1_values, 10.0 ** -(np.arange(8, 17) / 2.0))
        np.testing.assert_allclose(grid.nu2_values, 10.0 ** -np.arange(3.0, 10.0))
        assert np.all(np.diff(grid.nu1_values) < 0)
        assert np.all(np.diff(grid.nu2_values) < 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TuningGrid(nu1_values=np.array([1e-5, 1e-4]))  # ascending
        with pytest.raises(ValueError):
            TuningGrid(nu2_values=np.array([1e-3, -1e-4]))
        with pytest.raises(ValueError):
            TuningGrid(nu1_values=np.array([]))

    @pytest.mark.parametrize("name", ["nu1_values", "nu2_values"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, name, bad):
        with pytest.raises(ValueError, match="finite"):
            TuningGrid(**{name: np.array([bad, 1e-2])})

    @pytest.mark.parametrize("name", ["nu1_values", "nu2_values"])
    def test_grid_of_two_dimensions_rejected(self, name):
        # grid_search would take its first row as one penalty and fail at the first fit
        with pytest.raises(ValueError, match="one-dimensional"):
            TuningGrid(**{name: np.array([[1e-3, 1e-4]])})


class TestEstimators:
    @staticmethod
    def sparsity(theta):
        return fit_of(theta, np.zeros((1, 1)), np.zeros(1)).sparsity_estimate

    @staticmethod
    def rank(singular_values):
        k = len(singular_values)
        return fit_of(np.zeros(1), np.zeros((k, k)), singular_values).rank_estimate

    def test_sparsity_zero_vector(self):
        assert self.sparsity(np.zeros(4)) == 0

    def test_sparsity_counts_nonzeros(self):
        assert self.sparsity(np.array([1.0, 0.0, -0.5])) == 2

    def test_sparsity_relative_floor(self):
        # 1e-12 is below the 1e-8 relative floor, treated as an exact zero
        assert self.sparsity(np.array([1.0, 1e-12])) == 1

    def test_rank_all_zero(self):
        assert self.rank(np.zeros(3)) == 0

    def test_rank_counts_positive(self):
        assert self.rank(np.array([3.0, 0.5, 0.0])) == 2

    def test_rank_empty(self):
        assert np.count_nonzero(support_mask(np.zeros(0))) == 0


class TestBicScore:
    def test_perfect_sparse_rankless_fit(self):
        rng = np.random.default_rng(50)
        x = rng.standard_normal((3, 4, 2))
        data = PanelData(np.zeros((3, 4)), x)
        f = make_fit(0.5, np.zeros(2), np.zeros((3, 4)), sparsity=0, rank=0)
        assert bic_score(f, data) == 0.0

    def test_dimension_penalty_value(self):
        # zero residuals, n = T = 10, s = 2, r = 1, c1 = log^2(100):
        # (log 100 / 2) * (2 log^2 100 + 21)
        data = PanelData(np.zeros((10, 10)), np.zeros((10, 10, 3)))
        f = make_fit(0.5, np.array([1.0, -1.0, 0.0]), np.zeros((10, 10)), sparsity=2, rank=1)
        expected = (np.log(100.0) / 2.0) * (np.log(100.0) ** 2 * 2 + 21.0)
        got = bic_score(f, data, c1=np.log(100.0) ** 2)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(146.0187, abs=1e-3)

    def test_linear_in_rank(self):
        data = PanelData(np.zeros((6, 7)), np.zeros((6, 7, 2)))
        theta = np.array([1.0, 0.0])
        f1 = make_fit(0.5, theta, np.zeros((6, 7)), sparsity=1, rank=1)
        f2 = make_fit(0.5, theta, np.zeros((6, 7)), sparsity=1, rank=2)
        step = bic_score(f2, data) - bic_score(f1, data)
        assert step == pytest.approx(np.log(42.0) / 2.0 * (1 + 6 + 7), rel=1e-12)

    def test_decomposes_into_loss_plus_penalty(self):
        rng = np.random.default_rng(51)
        inst = generate(DesignSpec("D1", 6, 8, 2, seed=3))
        theta = rng.standard_normal(2)
        pi = rng.standard_normal((6, 8))
        f = make_fit(0.3, theta, pi, sparsity=2, rank=4)
        resid = inst.data.y - inst.data.x @ theta - pi
        loss = float(np.sum(pinball_loss(resid, 0.3)))
        c1 = 7.0
        penalty = np.log(48.0) / 2.0 * (c1 * 2 + (1 + 6 + 8) * 4)
        assert bic_score(f, inst.data, c1=c1) == pytest.approx(loss + penalty, rel=1e-12)


class TestGridSearch:
    def small_instance(self):
        inst = generate(DesignSpec("D1", 8, 9, 2, seed=5))
        return inst.data

    def config(self, **kw):
        defaults = dict(tau=0.5, eta=10.0 / 72.0, max_iter=20000)
        defaults.update(kw)
        return SolverConfig(**defaults)

    @pytest.mark.parametrize("c1", [np.nan, np.inf, -1e3])
    def test_bad_c1_rejected_before_the_first_fit(self, monkeypatch, c1):
        import quantfactor.selection as selection

        def no_fit(*args, **kwargs):
            raise AssertionError("fit called before c1 was checked")

        monkeypatch.setattr(selection, "fit", no_fit)
        grid = TuningGrid(nu1_values=np.array([1e-3]), nu2_values=np.array([1e-2]))
        with pytest.raises(ValueError, match="c1"):
            grid_search(self.small_instance(), grid, self.config(), c1=c1)

    def test_single_point_grid(self):
        data = self.small_instance()
        grid = TuningGrid(nu1_values=np.array([1e-3]), nu2_values=np.array([1e-2]))
        report = grid_search(data, grid, self.config())
        assert (report.best_nu1, report.best_nu2) == (1e-3, 1e-2)
        assert len(report.table) == 1

    def test_table_covers_full_grid(self):
        data = self.small_instance()
        grid = TuningGrid(
            nu1_values=np.array([1e-2, 1e-3]),
            nu2_values=np.array([1e-1, 1e-2, 1e-3]),
        )
        report = grid_search(data, grid, self.config())
        assert len(report.table) == 6
        best_rows = [r for r in report.table if r.converged]
        best = min(r.bic for r in best_rows)
        chosen = [
            r for r in report.table
            if r.nu1 == report.best_nu1 and r.nu2 == report.best_nu2
        ][0]
        assert chosen.bic == best
        assert all(chosen.bic <= r.bic for r in best_rows)

    def test_tie_break_prefers_larger_penalties(self):
        # zero response: every fit is identically zero, so every BIC ties
        data = PanelData(np.zeros((4, 4)), generate(
            DesignSpec("D1", 4, 4, 2, seed=11)).data.x)
        grid = TuningGrid(
            nu1_values=np.array([1e-1, 1e-2]), nu2_values=np.array([1e-1, 1e-2])
        )
        report = grid_search(data, grid, self.config())
        assert report.best_nu1 == 1e-1
        assert report.best_nu2 == 1e-1

    def test_all_fits_failed(self):
        data = self.small_instance()
        grid = TuningGrid(nu1_values=np.array([1e-3]), nu2_values=np.array([1e-2]))
        cfg = self.config(max_iter=1, tol_abs=1e-14, tol_rel=1e-14)
        with pytest.raises(AllFitsFailed):
            grid_search(data, grid, cfg)

    def test_fix_pi_zero_walks_nu1_at_nu2_zero(self):
        # with Pi pinned nu2 has no effect, so each nu1 is fitted once
        grid = TuningGrid(nu1_values=np.array([1e-2, 1e-3]),
                          nu2_values=np.array([1e-1, 1e-2, 1e-3]))
        report = grid_search(self.small_instance(), grid, self.config(fix_pi_zero=True))
        assert [(r.nu1, r.nu2) for r in report.table] == [(1e-2, 0.0), (1e-3, 0.0)]
        assert report.best_nu2 == 0.0
        assert all(r.rank == 0 for r in report.table)

    def test_best_fit_matches_best_pair(self):
        data = self.small_instance()
        scales = compute_column_scales(data)
        grid = TuningGrid(
            nu1_values=np.array([1e-2, 1e-4]), nu2_values=np.array([1e-2, 1e-4])
        )
        tight = self.config(max_iter=60000, tol_abs=1e-10, tol_rel=1e-9)
        report = grid_search(data, grid, tight, scales=scales)
        cfg = self.config(nu1=report.best_nu1, nu2=report.best_nu2,
                          max_iter=60000, tol_abs=1e-10, tol_rel=1e-9)
        direct = fit(data, cfg, scales)
        # warm and cold starts agree to the optimum, not bit-for-bit
        assert report.best_fit.objective == pytest.approx(direct.objective, rel=1e-4)


def assert_states_equal(a, b):
    # V is not kept: a sweep forms it from W, U_V and eta, compared here
    for name in ("theta", "pi", "w", "z_theta", "z_pi", "u_v", "u_theta"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
    assert a.eta == b.eta


class TestGridPath:
    NU1 = np.array([1e-2, 1e-3, 1e-4])
    NU2 = np.array([1e-1, 1e-2])

    def setup_method(self):
        self.data = generate(DesignSpec("D1", 8, 9, 2, seed=5)).data
        self.scales = compute_column_scales(self.data)
        self.config = SolverConfig(tau=0.5, max_iter=20000)

    def walk(self, config, nu1_values=NU1, nu2_values=NU2, on_point=None):
        """Fit every grid_path point; on_point(cfg, state) runs before each fit."""
        results = []
        for cfg, state in grid_path(self.data, nu1_values, nu2_values, config):
            if on_point is not None:
                on_point(cfg, state)
            results.append(fit(self.data, cfg, self.scales, init=state))
        return results

    def test_first_column_is_a_cold_walk_down_nu2(self):
        results = self.walk(self.config)
        state = AdmmState.zeros(8, 9, 2, None)
        for k, nu2 in enumerate(self.NU2):
            cfg = replace(self.config, nu1=float(self.NU1[0]), nu2=float(nu2))
            cold = fit(self.data, cfg, self.scales, init=state)
            np.testing.assert_array_equal(results[k].theta, cold.theta)
            np.testing.assert_array_equal(results[k].pi, cold.pi)
            assert results[k].iterations == cold.iterations

    def test_top_point_starts_from_previous_top_fit(self):
        starts, tops_after, states = [], [], []
        n2 = len(self.NU2)

        def on_point(cfg, state):
            k = len(states)
            if k % n2 == 1:
                # the previous point was a top fit and this descent continues it
                tops_after.append(copy.deepcopy(state))
            if k % n2 == 0:
                starts.append(copy.deepcopy(state))
            states.append(state)

        self.walk(self.config, on_point=on_point)
        assert not starts[0].pi.any() and not starts[0].u_v.any()
        for col in range(1, len(self.NU1)):
            assert_states_equal(starts[col], tops_after[col - 1])
            # the previous column's descent ran on its own state
            assert states[col * n2] is not states[(col - 1) * n2]
            assert not np.array_equal(states[col * n2 - 1].u_v, starts[col].u_v)

    def test_every_point_near_its_cold_optimum(self):
        tight = SolverConfig(tau=0.5, max_iter=60000, tol_abs=1e-8, tol_rel=1e-7)
        results = self.walk(tight)
        points = [(a, b) for a in self.NU1 for b in self.NU2]
        for (nu1, nu2), warm in zip(points, results):
            cold = fit(self.data, replace(tight, nu1=nu1, nu2=nu2), self.scales)
            assert warm.converged and cold.converged
            assert warm.objective == pytest.approx(cold.objective, rel=1e-4), (nu1, nu2)

    def test_fix_pi_zero_path_chains_along_nu1(self):
        config = SolverConfig(tau=0.5, max_iter=20000, fix_pi_zero=True)
        starts = []
        results = self.walk(config, nu2_values=np.array([0.0]),
                            on_point=lambda cfg, state: starts.append(copy.deepcopy(state)))
        assert len(results) == len(self.NU1)
        assert not starts[0].z_theta.any()
        for prev, start in zip(results, starts[1:]):
            np.testing.assert_array_equal(start.z_theta, prev.theta)
            assert not start.pi.any()
