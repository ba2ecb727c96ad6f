import copy
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from quantfactor import (
    AdmmState,
    ColumnScales,
    DimensionMismatch,
    GramCache,
    NonFiniteIterate,
    PanelData,
    SolverConfig,
    SvtResult,
    compute_column_scales,
    fit,
    penalized_objective,
    prox_pinball,
    prox_squared,
    solve_zw_joint,
)
from quantfactor import admm
from quantfactor.simulate import DesignSpec, generate

import oracles


def random_panel(rng, n, t_len, p):
    x = rng.standard_normal((n, t_len, p))
    y = rng.standard_normal((n, t_len))
    return PanelData(y, x)


def one_sweep_fits(data, config, state, max_sweeps, scales=None):
    """Advance state one sweep per fit; stop after the first converged fit."""
    one = replace(config, max_iter=1)
    fits = []
    while len(fits) < max_sweeps and not (fits and fits[-1].converged):
        fits.append(fit(data, one, scales, init=state))
    return fits


def last_v(data, cfg, before):
    """The V a sweep forms from the state before it."""
    av = before.w - before.u_v
    if cfg.loss == "squared":
        return prox_squared(av, before.eta, data.n * data.t_len)
    return prox_pinball(av, cfg.tau, 1.0 / (data.n * data.t_len * before.eta))


def dense_only_svt(m, threshold, rank_hint=None):
    """SVT from numpy's full SVD on every call, whatever the threshold or hint."""
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    s_after = np.maximum(s - threshold, 0.0)
    return SvtResult((u * s_after) @ vt, s, s_after)


class TestSolveZwJoint:
    def test_zeros(self):
        z, w = solve_zw_joint(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
        np.testing.assert_array_equal(z, np.zeros((2, 2)))
        np.testing.assert_array_equal(w, np.zeros((2, 2)))

    def test_scalar_case(self):
        # FOC system 2W + Z = 1, W + 2Z = 1 has solution (1/3, 1/3)
        z, w = solve_zw_joint(np.array([[-1.0]]), np.array([[0.0]]), np.array([[0.0]]))
        assert z[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert w[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_first_order_conditions(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            a, b, c = rng.standard_normal((3, 4, 5))
            z, w = solve_zw_joint(a, b, c)
            foc_w = (w + z + a) + (w + b)
            foc_z = (w + z + a) + (z + c)
            assert np.abs(foc_w).max() < 1e-12
            assert np.abs(foc_z).max() < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_zw_joint(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)))

    def test_a_shared_dual_cancels(self):
        # adding U to A and taking it from B and C leaves the minimizer where it
        # was, so the sweep passes no dual
        rng = np.random.default_rng(34)
        for _ in range(100):
            a, b, c, u = rng.standard_normal((4, 4, 5))
            for shifted, plain in zip(solve_zw_joint(a + u, b - u, c - u),
                                      solve_zw_joint(a, b, c)):
                np.testing.assert_allclose(shifted, plain, rtol=0, atol=1e-12)


class TestGramCache:
    def test_solve_roundtrip(self):
        rng = np.random.default_rng(31)
        data = random_panel(rng, 4, 6, 3)
        cache = GramCache(data)
        gram = data.x.reshape(-1, 3).T @ data.x.reshape(-1, 3) + np.eye(3)
        for _ in range(10):
            b = rng.standard_normal(3)
            sol = cache.solve(b)
            np.testing.assert_allclose(gram @ sol, b, rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("p", [1, 20])
    def test_solve_matches_cho_solve_bit_for_bit(self, p):
        rng = np.random.default_rng(33)
        cache = GramCache(random_panel(rng, 25, 12, p))
        factor = cho_factor(cache.x_flat.T @ cache.x_flat + np.eye(p))
        for _ in range(5):
            b = rng.standard_normal(p)
            np.testing.assert_array_equal(cache.solve(b), cho_solve(factor, b))

    def test_solve_without_covariates_returns_an_empty_vector(self):
        cache = GramCache(random_panel(np.random.default_rng(34), 4, 6, 0))
        assert cache.solve(np.zeros(0)).shape == (0,)


class TestFit:
    def test_zero_data_gives_zero_fit(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((3, 4, 2))
        data = PanelData(np.zeros((3, 4)), x)
        cfg = SolverConfig(tau=0.5, nu1=0.1, nu2=0.1)
        f = fit(data, cfg)
        np.testing.assert_allclose(f.theta, np.zeros(2), atol=1e-8)
        np.testing.assert_allclose(f.pi, np.zeros((3, 4)), atol=1e-8)
        assert f.objective == pytest.approx(0.0, abs=1e-7)
        assert f.sparsity_estimate == 0
        assert f.rank_estimate == 0

    def test_matches_lp_oracle_on_tiny_instances(self):
        rng = np.random.default_rng(33)
        for k in range(8):
            n = int(rng.integers(2, 5))
            t_len = int(rng.integers(2, 5))
            p = int(rng.integers(1, 4))
            data = random_panel(rng, n, t_len, p)
            scales = compute_column_scales(data)
            tau = float(rng.choice([0.3, 0.5, 0.7]))
            nu1 = float(rng.uniform(0.01, 0.3))
            cfg = SolverConfig(
                tau=tau, nu1=nu1, nu2=0.0,
                fix_pi_zero=True, max_iter=60000, tol_abs=1e-11, tol_rel=1e-10,
            )
            f = fit(data, cfg, scales)
            _, lp_obj = oracles.l1_quantile_lp(data.y, data.x, tau, nu1, scales.sigma_hat)
            assert f.objective == pytest.approx(lp_obj, abs=1e-5)

    def test_squared_loss_matches_ols(self):
        rng = np.random.default_rng(34)
        for _ in range(5):
            n, t_len, p = 8, 11, 3
            data = random_panel(rng, n, t_len, p)
            cfg = SolverConfig(
                tau=0.5, nu1=0.0, nu2=0.0, loss="squared", fix_pi_zero=True,
                max_iter=30000, tol_abs=1e-12, tol_rel=1e-11,
            )
            f = fit(data, cfg)
            x_flat = data.x.reshape(-1, p)
            theta_ols = np.linalg.lstsq(x_flat, data.y.ravel(), rcond=None)[0]
            rel = np.linalg.norm(f.theta - theta_ols) / np.linalg.norm(theta_ols)
            assert rel <= 1e-6

    def test_huge_nuclear_penalty_reduces_to_l1_baseline(self):
        rng = np.random.default_rng(35)
        data = random_panel(rng, 5, 6, 2)
        scales = compute_column_scales(data)
        common = dict(max_iter=60000, tol_abs=1e-11, tol_rel=1e-10)
        full = fit(data, SolverConfig(tau=0.5, nu1=0.05, nu2=1e3, **common), scales)
        base = fit(
            data, SolverConfig(tau=0.5, nu1=0.05, fix_pi_zero=True, **common), scales
        )
        assert np.abs(full.pi).max() == 0.0
        assert full.rank_estimate == 0
        np.testing.assert_allclose(full.theta, base.theta, atol=1e-5)
        assert full.objective == pytest.approx(base.objective, abs=1e-5)

    def test_objective_no_worse_than_truth(self):
        inst = generate(DesignSpec("D1", 20, 25, 3, seed=7))
        scales = compute_column_scales(inst.data)
        cfg = SolverConfig(tau=0.5, nu1=1e-4, nu2=5e-3, max_iter=20000)
        f = fit(inst.data, cfg, scales)
        assert f.converged
        assert f.primal_residual <= 1e-4 * np.sqrt(inst.data.y.size)
        obj_truth = penalized_objective(inst.data, inst.theta_true, inst.pi_true,
                                        cfg, scales)
        slack = 10.0 * (f.primal_residual + f.dual_residual) + 1e-8
        assert f.objective <= obj_truth + slack

    def test_warm_start_agrees_with_cold_start(self):
        rng = np.random.default_rng(36)
        data = random_panel(rng, 6, 7, 2)
        scales = compute_column_scales(data)
        common = dict(max_iter=40000, tol_abs=1e-10, tol_rel=1e-9)
        state = AdmmState.zeros(6, 7, 2, None)
        fit(data, SolverConfig(tau=0.5, nu1=0.05, nu2=0.05, **common), scales,
            init=state)
        warm = fit(data, SolverConfig(tau=0.5, nu1=0.02, nu2=0.02, **common), scales,
                   init=state)
        cold = fit(data, SolverConfig(tau=0.5, nu1=0.02, nu2=0.02, **common), scales)
        assert warm.objective == pytest.approx(cold.objective, rel=1e-4)

    def test_warm_start_at_another_eta_rescales_the_duals(self):
        # a converged state is a fixed point at any eta once its scaled duals
        # are read as true duals over the old eta; read unscaled, it is not
        inst = generate(DesignSpec("D1", 30, 40, 3, seed=21))
        base = SolverConfig(tau=0.5, nu1=1e-3, nu2=1e-2, max_iter=20000)
        state = AdmmState.zeros(30, 40, 3, None)
        fit(inst.data, base, init=state)
        cfg = replace(base, eta=4.0 * state.eta)
        unscaled = copy.deepcopy(state)
        unscaled.eta = None
        warm = fit(inst.data, cfg, init=state)
        misread = fit(inst.data, cfg, init=unscaled)
        cold = fit(inst.data, cfg)
        assert state.eta == cfg.eta
        assert warm.converged and warm.iterations <= 2
        assert misread.iterations > 50
        assert cold.iterations > 1000
        assert warm.objective == pytest.approx(cold.objective, rel=1e-4)

    def test_result_does_not_alias_warm_start_state(self):
        rng = np.random.default_rng(38)
        data = random_panel(rng, 5, 6, 2)
        state = AdmmState.zeros(5, 6, 2, None)
        first = fit(data, SolverConfig(tau=0.5, nu1=0.05, nu2=0.05), init=state)
        theta, pi = first.theta.copy(), first.pi.copy()
        fit(data, SolverConfig(tau=0.5, nu1=0.001, nu2=0.001), init=state)
        assert not np.array_equal(state.pi, pi)
        np.testing.assert_array_equal(first.theta, theta)
        np.testing.assert_array_equal(first.pi, pi)

    def test_monotone_primal_feasibility_near_convergence(self):
        inst = generate(DesignSpec("D1", 15, 15, 2, seed=9))
        scales = compute_column_scales(inst.data)
        cfg = SolverConfig(tau=0.5, nu1=1e-3, nu2=1e-2)
        state = AdmmState.zeros(15, 15, 2, None)
        fits = one_sweep_fits(inst.data, cfg, state, 20000, scales)
        assert fits[-1].converged and len(fits) > 60
        tail = [f.primal_residual for f in fits[-50:]]
        for prev, cur in zip(tail, tail[1:]):
            assert cur <= 1.1 * prev

    def test_iterates_stay_finite(self):
        inst = generate(DesignSpec("D1", 8, 8, 2, seed=13))
        scales = compute_column_scales(inst.data)
        cfg = SolverConfig(tau=0.5, nu1=1e-3, nu2=1e-2)
        fits = one_sweep_fits(inst.data, cfg, AdmmState.zeros(8, 8, 2, None), 300, scales)
        assert all(np.isfinite(f.primal_residual) and np.isfinite(f.dual_residual)
                   for f in fits)

    def test_default_eta_is_ten_over_nt(self):
        inst = generate(DesignSpec("D1", 8, 9, 2, seed=15))
        cfg = SolverConfig(tau=0.5, nu1=1e-3, nu2=1e-2)
        state = AdmmState.zeros(8, 9, 2, None)
        derived = fit(inst.data, cfg, init=state)
        explicit = fit(inst.data, SolverConfig(tau=0.5, nu1=1e-3, nu2=1e-2, eta=10.0 / 72))
        assert state.eta == 10.0 / 72
        assert derived.config.eta == 10.0 / 72
        np.testing.assert_array_equal(derived.theta, explicit.theta)
        np.testing.assert_array_equal(derived.pi, explicit.pi)
        assert derived.iterations == explicit.iterations

    @pytest.mark.parametrize("nu2, rank", [(1e-2, 1), (1e-3, 30)])
    def test_rank_hint_leaves_the_fit_unchanged(self, monkeypatch, nu2, rank):
        # fit hints each SVT with the number of pairs the last sweep's SVT kept,
        # which picks only the eigensolver; a reference SVT through numpy's full
        # SVD on every sweep must give the same fit
        inst = generate(DesignSpec("D1", 30, 40, 3, seed=21))
        cfg = SolverConfig(tau=0.5, nu1=1e-3, nu2=nu2)
        svt = admm.singular_value_threshold
        hints = []

        def recording(m, threshold, rank_hint=None):
            hints.append(rank_hint)
            return svt(m, threshold, rank_hint)

        monkeypatch.setattr(admm, "singular_value_threshold", recording)
        hinted = fit(inst.data, cfg)
        monkeypatch.setattr(admm, "singular_value_threshold", dense_only_svt)
        dense = fit(inst.data, cfg)
        assert hints[0] is None and len(hints) == hinted.iterations
        assert hints.count(rank) > hinted.iterations // 2
        assert hinted.rank_estimate == dense.rank_estimate == rank
        assert hinted.sparsity_estimate == dense.sparsity_estimate
        assert hinted.converged and dense.converged
        assert hinted.objective == pytest.approx(dense.objective, rel=1e-9)

    def test_divergent_scale_raises(self):
        y = np.full((2, 2), 1e308)
        x = np.ones((2, 2, 1))
        data = PanelData(y, x)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteIterate):
            fit(data, SolverConfig(tau=0.5, nu1=0.1, nu2=0.1, max_iter=50))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_warm_start_raises_in_the_first_sweep(self, bad):
        # a one-sweep fit: the error comes in the first sweep, not after it
        rng = np.random.default_rng(43)
        data = random_panel(rng, 3, 4, 2)
        state = AdmmState.zeros(3, 4, 2, 1.0)
        state.u_theta[0] = bad
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteIterate):
            fit(data, SolverConfig(max_iter=1), init=state)

    def test_scales_of_another_length_rejected(self):
        data = random_panel(np.random.default_rng(38), 3, 4, 2)
        with pytest.raises(DimensionMismatch, match="scales"):
            fit(data, SolverConfig(max_iter=1), ColumnScales(np.ones(3)))

    def test_fix_pi_zero_without_covariates_rejected(self):
        data = PanelData.without_covariates(np.ones((2, 2)))
        with pytest.raises(ValueError):
            fit(data, SolverConfig(fix_pi_zero=True))

    # each broadcasts against a 6 x 7 panel's shapes, so only fit's check stops it
    MISSHAPED = {"pi": (1, 7), "w": (1, 7), "z_pi": (6, 1), "u_v": (6, 1), "theta": (1,),
                 "z_theta": (1,), "u_theta": (1,)}

    @pytest.mark.parametrize("name", ["panel", *MISSHAPED])
    def test_warm_start_shape_mismatch(self, name):
        data = random_panel(np.random.default_rng(37), 6, 7, 2)
        if name == "panel":  # a whole state for another panel; pi is checked first
            state, name = AdmmState.zeros(4, 4, 2, 1.0), "pi"
        else:
            state = AdmmState.zeros(6, 7, 2, 1.0)
            setattr(state, name, np.zeros(self.MISSHAPED[name]))
        with pytest.raises(DimensionMismatch, match=f"warm-start {name} "):
            fit(data, SolverConfig(max_iter=50), init=state)

    def test_matches_cvxpy_reference(self):
        cp = pytest.importorskip("cvxpy")
        inst = generate(DesignSpec("D1", 10, 12, 2, seed=21))
        data = inst.data
        scales = compute_column_scales(data)
        tau, nu1, nu2 = 0.4, 5e-3, 2e-2
        cfg = SolverConfig(tau=tau, nu1=nu1, nu2=nu2,
                           max_iter=60000, tol_abs=1e-10, tol_rel=1e-9)
        f = fit(data, cfg, scales)
        th = cp.Variable(2)
        pi = cp.Variable((10, 12))
        xth = cp.reshape(data.x.reshape(-1, 2) @ th, (10, 12), order="C")
        resid = data.y - xth - pi
        loss = cp.sum(cp.maximum(tau * resid, (tau - 1) * resid)) / 120.0
        objective = (
            loss
            + nu1 * cp.sum(cp.multiply(scales.sigma_hat, cp.abs(th)))
            + nu2 * cp.normNuc(pi)
        )
        problem = cp.Problem(cp.Minimize(objective))
        problem.solve(solver=cp.SCS, eps=1e-8, max_iters=100000)
        assert f.objective == pytest.approx(problem.value, abs=5e-6)


class TestAdmmResiduals:
    def test_first_sweep_from_zero_is_infeasible(self):
        inst = generate(DesignSpec("D1", 5, 5, 2, seed=23))
        scales = compute_column_scales(inst.data)
        cfg = SolverConfig(tau=0.5, nu1=1e-3, nu2=1e-2, max_iter=1)
        assert fit(inst.data, cfg, scales).primal_residual > 0


class TestResidualDefinitions:
    """A one-sweep fit's residuals, recomputed from the state it leaves."""

    PANELS = {"p>0": (2, False), "fix_pi_zero": (2, True), "p=0": (0, False)}

    def stepped(self, name, sweeps=25):
        """(data, config, state before the last sweep, last fit, state after)."""
        p, pinned = self.PANELS[name]
        data = random_panel(np.random.default_rng(42), 6, 7, p)
        # at this nu1 the soft threshold zeroes one coefficient, so that
        # Z_theta - theta is not zero
        cfg = SolverConfig(tau=0.3, nu1=3e-2, nu2=2e-2, fix_pi_zero=pinned)
        state = AdmmState.zeros(6, 7, p, None)
        fit(data, replace(cfg, max_iter=sweeps), init=state)
        before = copy.deepcopy(state)
        last = fit(data, replace(cfg, max_iter=1), init=state)
        return data, cfg, before, last, state

    @pytest.mark.parametrize("name", list(PANELS))
    def test_primal_residual_is_the_dual_step(self, name):
        data, cfg, before, last, s = self.stepped(name)
        assert last.iterations == 1 and not last.converged
        xth = data.x @ s.theta
        v = last_v(data, cfg, before)
        violations = {"u_v": v - s.w, "r_w": s.w - data.y + xth + s.z_pi,
                      "r_pi": s.z_pi - s.pi, "u_theta": s.z_theta - s.theta}
        assert violations["u_theta"].any() == (data.p > 0)
        primal = np.sqrt(sum(np.sum(r ** 2) for r in violations.values()))
        assert last.primal_residual == pytest.approx(primal, rel=1e-12)
        assert last.primal_residual > 0
        for dual in ("u_v", "u_theta"):
            step = getattr(s, dual) - getattr(before, dual)
            np.testing.assert_allclose(step, violations[dual], rtol=1e-9, atol=1e-12,
                                       err_msg=dual)

    @pytest.mark.parametrize("name", list(PANELS))
    def test_one_dual_serves_three_constraints(self, name):
        # The (Z_Pi, W) step's first-order conditions make W = Y - X theta - Z_Pi
        # violated by V - W and Z_Pi = Pi by W - V, so U_V's step is theirs too.
        data, cfg, before, _, s = self.stepped(name)
        r_v = last_v(data, cfg, before) - s.w
        r_w = s.w - data.y + data.x @ s.theta + s.z_pi
        r_pi = s.z_pi - s.pi
        scale = np.abs(r_v).max()
        assert scale > 0
        np.testing.assert_allclose(r_w, r_v, rtol=0, atol=1e-9 * scale)
        if cfg.fix_pi_zero:
            assert not r_pi.any()
        else:
            np.testing.assert_allclose(r_pi, -r_v, rtol=0, atol=1e-9 * scale)

    @pytest.mark.parametrize("name", list(PANELS))
    def test_consensus_step_moves_back_by_the_mean_violation(self, name):
        # W and Z_Pi are V and Pi less e, the mean violation of
        # W + Z_Pi = Y - X theta at (V, Pi); pinned, W splits V's gap to Y - X theta.
        data, cfg, before, _, s = self.stepped(name)
        v = last_v(data, cfg, before)
        xth_minus_y = data.x @ s.theta - data.y
        atol = 1e-9 * np.abs(v).max()
        assert atol > 0
        if cfg.fix_pi_zero:
            np.testing.assert_allclose(s.w, (v - xth_minus_y) / 2, rtol=0, atol=atol)
            assert not s.z_pi.any()
        else:
            e = (v + s.pi + xth_minus_y) / 3
            np.testing.assert_allclose(s.w, v - e, rtol=0, atol=atol)
            np.testing.assert_allclose(s.z_pi, s.pi - e, rtol=0, atol=atol)

    @pytest.mark.parametrize("name", list(PANELS))
    def test_dual_residual_is_eta_times_the_change(self, name):
        _, _, before, last, s = self.stepped(name)
        change = (np.sum((s.w - before.w) ** 2) + np.sum((s.z_pi - before.z_pi) ** 2)
                  + np.sum((s.z_theta - before.z_theta) ** 2))
        assert s.eta == before.eta
        assert last.dual_residual == pytest.approx(s.eta * np.sqrt(change), rel=1e-12)
        assert last.dual_residual > 0

    def test_pinned_fit_keeps_the_pi_blocks_zero(self):
        # start from an unpinned state, whose Pi blocks are not zero
        data, cfg, _, _, state = self.stepped("p>0")
        assert state.pi.any() and state.z_pi.any()
        f = fit(data, replace(cfg, fix_pi_zero=True, max_iter=50), init=state)
        for name in ("pi", "z_pi"):
            assert not getattr(state, name).any(), name
        assert not f.pi.any() and f.rank_estimate == 0


class TestStoppingTest:
    @pytest.mark.parametrize("pinned", [False, True], ids=["free", "fix_pi_zero"])
    def test_absolute_tolerances_count_the_constraints(self, pinned):
        # With tol_rel at 1e-300 only the absolute parts are left: tol_abs
        # sqrt(k nT + p) for the primal residual and tol_abs sqrt((k - 1) nT + p)
        # for the dual, with k = 3 consensus constraints, or 2 with Pi pinned.
        data = random_panel(np.random.default_rng(0), 6, 7, 2)
        cfg = SolverConfig(tau=0.3, nu1=3e-2, fix_pi_zero=pinned, tol_abs=1e-5,
                           tol_rel=1e-300, max_iter=20000)
        k, nt = (2 if pinned else 3), 6 * 7
        eps_primal = cfg.tol_abs * np.sqrt(k * nt + 2)
        eps_dual = cfg.tol_abs * np.sqrt((k - 1) * nt + 2)
        passes = lambda f: f.primal_residual <= eps_primal and f.dual_residual <= eps_dual
        last = fit(data, cfg)
        assert last.converged and passes(last)
        before = fit(data, replace(cfg, max_iter=last.iterations - 1))
        assert not before.converged and not passes(before)

    # A small panel of each kind, with penalties that leave Z_theta - theta and Pi nonzero.
    # At eta = 0.01 the primal part sets most sweeps' tightest passing tolerance, where a
    # bound too small to cover the seven norms would fail the sweep.
    CHAINS = {"p>0": {}, "fix_pi_zero": {"fix_pi_zero": True}, "p=0": {},
              "squared": {"loss": "squared", "tau": 0.5}}

    def chain(self, name, tol_rel):
        """(data, config, [(state before, one-sweep fit, state after)]) from zeros to the stop."""
        data = random_panel(np.random.default_rng(42), 6, 7, 0 if name == "p=0" else 2)
        cfg = replace(SolverConfig(tau=0.3, nu1=3e-2, nu2=2e-2, eta=0.01, tol_abs=1e-300,
                                   tol_rel=tol_rel, max_iter=5000), **self.CHAINS[name])
        state = AdmmState.zeros(6, 7, data.p, cfg.eta)
        steps = []
        while not (steps and steps[-1][1].converged):
            before = copy.deepcopy(state)
            steps.append((before, fit(data, replace(cfg, max_iter=1), init=state),
                          copy.deepcopy(state)))
        return data, cfg, steps

    @staticmethod
    def norms(data, cfg, before, after):
        """The seven norms of the primal tolerance, rebuilt from the states around a sweep."""
        v = last_v(data, cfg, before)
        return [np.linalg.norm(a) for a in (v, after.w, after.z_pi, after.pi, after.z_theta,
                                            after.theta, data.x @ after.theta - data.y)]

    @staticmethod
    def dual_norm(after):
        """eta max(||U_V||, ||U_theta||), the dual tolerance's relative scale."""
        return after.eta * max(np.linalg.norm(after.u_v), np.linalg.norm(after.u_theta))

    @pytest.mark.parametrize("name", list(CHAINS))
    def test_relative_tolerances_scale_the_largest_norms(self, monkeypatch, name):
        # With tol_abs near 0 only the relative parts are left: tol_rel times the largest
        # of the seven primal norms, and tol_rel eta max(||U_V||, ||U_theta||).  Dense SVT
        # on every call, so the one-sweep chain repeats the whole fit's sweeps.
        monkeypatch.setattr(admm, "singular_value_threshold", dense_only_svt)
        data, cfg, steps = self.chain(name, tol_rel=1e-5)
        assert fit(data, cfg).iterations == len(steps) > 1

        def passes(before, one, after):
            return (one.primal_residual <= cfg.tol_rel * max(self.norms(data, cfg, before, after))
                    and one.dual_residual <= cfg.tol_rel * self.dual_norm(after))

        assert passes(*steps[-1]) and not passes(*steps[-2])

    @pytest.mark.parametrize("name", list(CHAINS))
    def test_bound_lets_every_passing_sweep_stop(self, name):
        # W = V - r, Z_Pi = Pi - r and X theta - Y = k r - V - Pi bound every n x T norm of
        # the primal tolerance by k ||r|| + ||V|| + ||Pi||.  So at the tolerance where a
        # sweep's full test just passes, a fit from the state before it stops there.
        data, cfg, steps = self.chain(name, tol_rel=1e-3)
        k = 2 if cfg.fix_pi_zero else 3
        for sweep, (before, one, after) in enumerate(steps, start=1):
            norms = self.norms(data, cfg, before, after)
            r = last_v(data, cfg, before) - after.w
            bound = k * np.linalg.norm(r) + norms[0] + norms[3]
            assert max(bound, *norms[4:6]) * admm.BOUND_MARGIN >= max(norms), sweep
            tol_rel = max(one.primal_residual / max(norms),
                          one.dual_residual / self.dual_norm(after)) * (1 + 1e-6)
            stop = fit(data, replace(cfg, tol_rel=tol_rel, max_iter=2),
                       init=copy.deepcopy(before))
            assert stop.converged and stop.iterations == 1, sweep



def poisoned(out, bad):
    """A copy of a block's array output with its first entry set to bad."""
    out = np.array(out, dtype=float)
    out.flat[0] = bad
    return out


class TestNonFiniteGuard:
    """The primal residual is the one non-finite guard on most sweeps.

    A NaN or inf from any block must raise NonFiniteIterate in the sweep where it
    appears: each block runs once a sweep, so the error comes on its 3rd call.
    """

    BLOCKS = {
        "prox_pinball": (admm, "prox_pinball", poisoned),
        "GramCache.solve": (GramCache, "solve", poisoned),
        "singular_value_threshold": (
            admm, "singular_value_threshold",
            lambda out, bad: replace(out, matrix=poisoned(out.matrix, bad))),
        "soft_threshold": (admm, "soft_threshold", poisoned),
        "solve_zw_joint-w": (admm, "solve_zw_joint",
                             lambda out, bad: (out[0], poisoned(out[1], bad))),
        # The projection makes Z_Pi = Pi - e non-finite only through a non-finite Pi
        # or e, and either makes W = V - e non-finite too (Pi by way of e), so a
        # non-finite Z_Pi reaches r = V - W in its own sweep.
        "solve_zw_joint-e": (admm, "solve_zw_joint",
                             lambda out, bad: tuple(poisoned(o, bad) for o in out)),
    }

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("block", list(BLOCKS))
    def test_raises_in_the_sweep_it_appears(self, monkeypatch, block, bad):
        owner, name, poison = self.BLOCKS[block]
        real = getattr(owner, name)
        calls = []

        def third_call_poisoned(*args, **kwargs):
            calls.append(None)
            out = real(*args, **kwargs)
            return poison(out, bad) if len(calls) == 3 else out

        monkeypatch.setattr(owner, name, third_call_poisoned)
        data = random_panel(np.random.default_rng(45), 6, 7, 2)
        cfg = SolverConfig(tau=0.3, nu1=3e-2, nu2=2e-2, max_iter=50)
        with pytest.raises(NonFiniteIterate):
            fit(data, cfg)
        assert len(calls) == 3


class TestFitNoCovariates:
    def test_zero_input(self):
        f = fit(PanelData.without_covariates(np.zeros((3, 3))), SolverConfig(nu2=0.1))
        np.testing.assert_allclose(f.pi, np.zeros((3, 3)), atol=1e-10)
        assert f.rank_estimate == 0
        assert f.theta.size == 0

    def test_recovers_strong_rank_one_signal(self):
        u = np.ones(12) / np.sqrt(12.0)
        v = np.arange(1.0, 16.0)
        v /= np.linalg.norm(v)
        y = 100.0 * np.outer(u, v)
        cfg = SolverConfig(tau=0.5, nu2=1e-4, max_iter=10000)
        f = fit(PanelData.without_covariates(y), cfg)
        assert f.rank_estimate == 1
        assert np.linalg.norm(f.pi - y) / np.linalg.norm(y) <= 0.05

    def test_large_penalty_returns_zero(self):
        rng = np.random.default_rng(39)
        y = rng.standard_normal((6, 8))
        cfg = SolverConfig(tau=0.5, nu2=1e3)
        f = fit(PanelData.without_covariates(y), cfg)
        assert np.abs(f.pi).max() == 0.0
        assert f.rank_estimate == 0

    def test_quantile_level_monotonicity(self):
        rng = np.random.default_rng(40)
        y = rng.standard_normal((3, 3))
        fits = {}
        for tau in (0.25, 0.5, 0.75):
            cfg = SolverConfig(tau=tau, nu2=0.0,
                               max_iter=60000, tol_abs=1e-11, tol_rel=1e-10)
            fits[tau] = fit(PanelData.without_covariates(y), cfg)
        # with no penalty each cell fits its own sample quantile, which is y itself
        assert np.all(fits[0.5].pi >= fits[0.25].pi - 1e-6)
        assert np.all(fits[0.75].pi >= fits[0.5].pi - 1e-6)

    def test_p_zero_panel_routes_here(self):
        y = np.zeros((2, 2))
        data = PanelData.without_covariates(y)
        f = fit(data, SolverConfig(nu2=0.5))
        assert f.theta.size == 0
        np.testing.assert_allclose(f.pi, np.zeros((2, 2)), atol=1e-10)

    def test_one_sweep_resumes_reach_the_whole_fit(self, monkeypatch):
        # one-sweep fits that each resume from the state the last one left
        # reach the whole fit's optimum
        rng = np.random.default_rng(41)
        data = PanelData.without_covariates(rng.standard_normal((5, 6)))
        cfg = SolverConfig(tau=0.5, nu2=0.05, max_iter=20000)
        state = AdmmState.zeros(5, 6, 0, cfg.eta)
        fits = one_sweep_fits(data, cfg, state, cfg.max_iter)
        whole = fit(data, cfg)
        assert all(f.iterations == 1 for f in fits) and fits[-1].converged
        assert len(fits) == whole.iterations
        np.testing.assert_array_equal(state.pi, fits[-1].pi)
        assert fits[-1].objective == pytest.approx(whole.objective, rel=1e-9)

        # Each one-sweep fit tests its only sweep, so the chain stops where the
        # every-sweep rule stops; the whole fit must stop there too, with its
        # bits, on a p = 0 panel, a p > 0 panel cold and pinned, and a warm start
        # at 4x its state's eta.  A one-sweep fit has no rank hint, so SVT takes
        # the dense route throughout, where the hint picks nothing.
        monkeypatch.setattr(admm, "singular_value_threshold", dense_only_svt)
        rng = np.random.default_rng(41)
        covariates = random_panel(rng, 6, 7, 2)
        warm_cfg = SolverConfig(tau=0.3, nu1=3e-2, nu2=2e-2, max_iter=20000)
        warm = AdmmState.zeros(6, 7, 2, None)
        fit(covariates, replace(warm_cfg, max_iter=40), init=warm)
        cases = {
            "p=0": (PanelData.without_covariates(rng.standard_normal((5, 6))),
                    SolverConfig(tau=0.5, nu2=0.05, max_iter=20000), None),
            "p>0": (covariates, warm_cfg, None),
            "fix_pi_zero": (covariates, replace(warm_cfg, fix_pi_zero=True), None),
            "eta x 4": (covariates, replace(warm_cfg, eta=4.0 * warm.eta), warm),
            "squared": (covariates, replace(warm_cfg, loss="squared", tau=0.5), None),
        }
        for name, (data, cfg, init) in cases.items():
            whole_state = copy.deepcopy(init)
            state = (copy.deepcopy(init) if init is not None
                     else AdmmState.zeros(data.n, data.t_len, data.p, cfg.eta))
            fits = one_sweep_fits(data, cfg, state, cfg.max_iter)
            whole = fit(data, cfg, init=whole_state)
            assert all(f.iterations == 1 for f in fits) and fits[-1].converged, name
            assert len(fits) == whole.iterations, name
            last = fits[-1]
            np.testing.assert_array_equal(last.theta, whole.theta, err_msg=name)
            np.testing.assert_array_equal(last.pi, whole.pi, err_msg=name)
            assert (last.primal_residual, last.dual_residual) == (
                whole.primal_residual, whole.dual_residual), name
            assert last.objective == whole.objective, name

    def test_rejects_non_finite(self):
        y = np.zeros((2, 2))
        y[0, 0] = np.nan
        with pytest.raises(ValueError):
            fit(PanelData.without_covariates(y), SolverConfig())


class TestDualCertificate:
    """A fit proved near its optimum by weak duality, with numpy alone.

    tests/oracles.py turns -nT eta U_V into a dual-feasible G whose <G, Y> / nT
    bounds the optimum from below, apart from the package's own code.
    """

    GAP = 5e-6  # test_matches_cvxpy_reference's tolerance
    TIGHT = dict(max_iter=60000, tol_abs=1e-10, tol_rel=1e-9)

    @staticmethod
    def gap(data, cfg, pi_shift=0.0):
        """Primal objective of the fit, its Pi's first entry moved by pi_shift, less the bound."""
        scales = compute_column_scales(data)
        state = AdmmState.zeros(data.n, data.t_len, data.p, None)
        f = fit(data, cfg, scales, init=state)
        assert f.converged
        pi = f.pi.copy()
        pi[0, 0] += pi_shift
        args = (cfg.tau, cfg.nu1, cfg.nu2, scales.sigma_hat)
        primal = oracles.penalized_objective(data.y, data.x, f.theta, pi, *args)
        if not pi_shift:
            assert f.objective == pytest.approx(primal, rel=1e-12)
        bound = oracles.dual_lower_bound(data.y, data.x, *args,
                                         -data.n * data.t_len * state.eta * state.u_v)
        # weak duality: no feasible G bounds the objective from above
        assert bound <= primal + 1e-12
        return primal - bound

    def cvxpy_instance(self):
        """test_matches_cvxpy_reference's panel and settings."""
        inst = generate(DesignSpec("D1", 10, 12, 2, seed=21))
        return inst.data, SolverConfig(tau=0.4, nu1=5e-3, nu2=2e-2, **self.TIGHT)

    def test_certifies_the_cvxpy_reference_fit(self):
        assert self.gap(*self.cvxpy_instance()) <= self.GAP

    def test_catches_pi_moved_in_one_entry(self):
        assert self.gap(*self.cvxpy_instance(), pi_shift=1e-3) > self.GAP

    @pytest.mark.parametrize("name", ["p=0", "tall"])
    def test_certifies_tight_fits(self, name):
        if name == "p=0":
            y = np.random.default_rng(44).standard_normal((8, 10))
            data, cfg = PanelData.without_covariates(y), SolverConfig(tau=0.3, nu2=2e-2,
                                                                      **self.TIGHT)
        else:
            data = generate(DesignSpec("D1", 60, 8, 3, seed=22)).data
            cfg = SolverConfig(tau=0.7, nu1=1e-2, nu2=1e-2, **self.TIGHT)
        assert self.gap(data, cfg) <= self.GAP
