import numpy as np
import pytest

from quantfactor import (
    ColumnScales,
    DegenerateColumn,
    DimensionMismatch,
    PanelData,
    QuantileFit,
    SolverConfig,
    compute_column_scales,
    penalized_objective,
    pinball_loss,
)


def panel(y, x):
    return PanelData(np.asarray(y, dtype=float), np.asarray(x, dtype=float))


class TestPanelData:
    def test_dimensions(self):
        d = panel(np.zeros((2, 3)), np.zeros((2, 3, 4)))
        assert (d.n, d.t_len, d.p) == (2, 3, 4)

    def test_p_zero_allowed(self):
        d = PanelData.without_covariates(np.ones((2, 2)))
        assert d.p == 0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            panel(np.zeros((2, 3)), np.zeros((3, 2, 1)))

    def test_rejects_y_that_is_not_a_matrix(self):
        with pytest.raises(DimensionMismatch, match="y must be 2-d"):
            panel(np.zeros(3), np.zeros((3, 1, 1)))

    def test_rejects_non_finite(self):
        y = np.zeros((2, 2))
        y[0, 0] = np.nan
        with pytest.raises(ValueError):
            panel(y, np.zeros((2, 2, 1)))
        x = np.zeros((2, 2, 1))
        x[1, 1, 0] = np.inf
        with pytest.raises(ValueError):
            panel(np.zeros((2, 2)), x)

    def test_rejects_empty_panel(self):
        with pytest.raises(ValueError):
            panel(np.zeros((0, 2)), np.zeros((0, 2, 1)))

    def test_arrays_are_frozen(self):
        d = panel(np.zeros((2, 2)), np.zeros((2, 2, 1)))
        with pytest.raises(ValueError):
            d.y[0, 0] = 1.0


class TestColumnScales:
    def test_constant_column(self):
        d = panel(np.zeros((2, 2)), np.ones((2, 2, 1)))
        s = compute_column_scales(d)
        assert s.sigma_hat[0] == pytest.approx(1.0)

    def test_unit_magnitude_entries(self):
        x = np.array([1.0, -1.0, 1.0, -1.0]).reshape(2, 2, 1)
        s = compute_column_scales(panel(np.zeros((2, 2)), x))
        assert s.sigma_hat[0] == pytest.approx(1.0)

    def test_mean_of_squares(self):
        # direct arithmetic: sqrt((1 + 4 + 9 + 16) / 4) = sqrt(7.5)
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(2, 2, 1)
        s = compute_column_scales(panel(np.zeros((2, 2)), x))
        assert s.sigma_hat[0] == pytest.approx(2.7386127875258306, rel=1e-12)

    def test_degenerate_column(self):
        x = np.zeros((2, 2, 2))
        x[:, :, 0] = 1.0
        with pytest.raises(DegenerateColumn):
            compute_column_scales(panel(np.zeros((2, 2)), x))

    def test_no_covariates_give_empty_scales(self):
        s = compute_column_scales(PanelData.without_covariates(np.zeros((2, 2))))
        assert s.p == 0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 4, 2))
        d1 = panel(np.zeros((3, 4)), x)
        perm = rng.permutation(12)
        x2 = x.reshape(12, 2)[perm].reshape(3, 4, 2)
        d2 = panel(np.zeros((3, 4)), x2)
        s1 = compute_column_scales(d1).sigma_hat
        s2 = compute_column_scales(d2).sigma_hat
        np.testing.assert_allclose(s1, s2, rtol=1e-12)

    def test_sigma_invariant(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 5, 3))
        s = compute_column_scales(panel(np.zeros((4, 5)), x))
        np.testing.assert_allclose(
            s.sigma_hat ** 2, np.mean(x ** 2, axis=(0, 1)), rtol=1e-12
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ColumnScales(np.array([1.0, 0.0]))

    def test_rejects_a_matrix(self):
        with pytest.raises(DimensionMismatch, match="vector"):
            ColumnScales(np.ones((2, 2)))


class TestPinballLoss:
    def test_zero_residual(self):
        assert pinball_loss(0.0, 0.5) == 0.0

    def test_positive_residual(self):
        assert pinball_loss(2.0, 0.3) == pytest.approx(0.6)

    def test_negative_residual(self):
        assert pinball_loss(-2.0, 0.3) == pytest.approx(1.4)

    def test_tau_validation(self):
        for tau in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                pinball_loss(1.0, tau)

    def test_positive_part_identity(self):
        rng = np.random.default_rng(2)
        r = rng.standard_normal(500) * 3
        for tau in (0.1, 0.37, 0.5, 0.9):
            expected = tau * np.maximum(r, 0) + (1 - tau) * np.maximum(-r, 0)
            np.testing.assert_allclose(pinball_loss(r, tau), expected, atol=1e-14)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        r = rng.standard_normal(200)
        assert np.all(pinball_loss(r, 0.25) >= 0)


class TestPenalizedObjective:
    def test_all_zero(self):
        d = panel(np.zeros((2, 2)), np.zeros((2, 2, 0)))
        cfg = SolverConfig(tau=0.5, nu1=1.0, nu2=1.0)
        assert penalized_objective(d, np.zeros(0), np.zeros((2, 2)), cfg) == 0.0

    def test_identity_pi(self):
        # residual -I at tau 0.5 costs (0.5 + 0.5)/4; nuclear norm of I is 2
        d = panel(np.zeros((2, 2)), np.zeros((2, 2, 0)))
        cfg = SolverConfig(tau=0.5, nu1=0.0, nu2=1.0)
        val = penalized_objective(d, np.zeros(0), np.eye(2), cfg)
        assert val == pytest.approx(2.25, rel=1e-12)

    def test_lower_bound_by_nuclear_term(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 4, 2))
        d = panel(rng.standard_normal((3, 4)), x)
        scales = compute_column_scales(d)
        cfg = SolverConfig(tau=0.3, nu1=0.1, nu2=0.7)
        for _ in range(20):
            theta = rng.standard_normal(2)
            pi = rng.standard_normal((3, 4))
            val = penalized_objective(d, theta, pi, cfg, scales)
            nuc = cfg.nu2 * np.sum(np.linalg.svd(pi, compute_uv=False))
            assert val >= nuc - 1e-12

    def test_squared_loss_variant(self):
        d = panel(np.full((2, 2), 2.0), np.zeros((2, 2, 0)))
        cfg = SolverConfig(tau=0.5, loss="squared")
        assert penalized_objective(d, np.zeros(0), np.zeros((2, 2)), cfg) == 4.0

    def test_convex_along_segments(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 4, 2))
        d = panel(rng.standard_normal((3, 4)), x)
        scales = compute_column_scales(d)
        cfg = SolverConfig(tau=0.4, nu1=0.2, nu2=0.3)
        for _ in range(30):
            th0, th1 = rng.standard_normal((2, 2))
            pi0, pi1 = rng.standard_normal((2, 3, 4))
            alpha = rng.uniform()
            f0 = penalized_objective(d, th0, pi0, cfg, scales)
            f1 = penalized_objective(d, th1, pi1, cfg, scales)
            fm = penalized_objective(
                d,
                alpha * th0 + (1 - alpha) * th1,
                alpha * pi0 + (1 - alpha) * pi1,
                cfg,
                scales,
            )
            assert fm <= alpha * f0 + (1 - alpha) * f1 + 1e-10

    def test_dimension_mismatch(self):
        d = panel(np.zeros((2, 2)), np.zeros((2, 2, 1)))
        cfg = SolverConfig()
        scales = ColumnScales(np.array([1.0]))
        with pytest.raises(DimensionMismatch):
            penalized_objective(d, np.zeros(2), np.zeros((2, 2)), cfg, scales)
        with pytest.raises(DimensionMismatch):
            penalized_objective(d, np.zeros(1), np.zeros((3, 2)), cfg, scales)

    @pytest.mark.parametrize("scales", [None, ColumnScales(np.ones(2))], ids=["none", "p=2"])
    def test_scales_must_match_the_covariates(self, scales):
        d = panel(np.zeros((2, 2)), np.ones((2, 2, 1)))
        with pytest.raises(DimensionMismatch, match="scales"):
            penalized_objective(d, np.zeros(1), np.zeros((2, 2)), SolverConfig(), scales)


class TestQuantileFit:
    VALID = dict(config=SolverConfig(tau=0.5), theta=np.zeros(2), pi=np.zeros((2, 3)),
                 objective=1.0, iterations=1, converged=True, primal_residual=0.0,
                 dual_residual=0.0, singular_values=np.zeros(2))

    @pytest.mark.parametrize("field, value, message", [
        ("objective", np.nan, "objective"), ("objective", np.inf, "objective"),
        ("singular_values", np.zeros(3), r"min\(n, T\)"),
    ], ids=["nan-objective", "inf-objective", "spectrum-length"])
    def test_invariants(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            QuantileFit(**{**self.VALID, field: value})

    def test_spectrum_must_be_pis(self):
        # a random 6 x 8 pi has rank 6: a spectrum of its top 4 values is not its own
        pi = np.random.default_rng(52).standard_normal((6, 8))
        s = np.linalg.svd(pi, compute_uv=False)
        assert QuantileFit(**{**self.VALID, "pi": pi, "singular_values": s}).rank_estimate == 6
        for tail in (0.0, np.nan):
            with pytest.raises(ValueError, match="not pi's"):
                QuantileFit(**{**self.VALID, "pi": pi,
                               "singular_values": np.where(np.arange(6) < 4, s, tail)})


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tau=0.0)
        with pytest.raises(ValueError):
            SolverConfig(nu1=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(eta=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)
        with pytest.raises(ValueError):
            SolverConfig(loss="huber")

    @pytest.mark.parametrize("name", ["nu1", "nu2", "eta", "tol_abs", "tol_rel"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_settings_rejected(self, name, bad):
        # NaN passes every < and <= test, so each range test must reject it itself
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(**{name: bad})

    @pytest.mark.parametrize("bad", [2.5, np.nan, True], ids=["fraction", "nan", "bool"])
    def test_max_iter_must_be_an_integer(self, bad):
        # fit sweeps range(1, max_iter + 1): a float there is a TypeError mid-run
        with pytest.raises(ValueError, match="max_iter"):
            SolverConfig(max_iter=bad)

    def test_max_iter_takes_numpy_integers(self):
        assert SolverConfig(max_iter=np.int64(3)).max_iter == 3

    @pytest.mark.parametrize("tau", [0.25, 0.75])
    def test_squared_loss_takes_only_the_median(self, tau):
        # squared loss fits the mean, whatever tau says
        with pytest.raises(ValueError, match="squared loss"):
            SolverConfig(tau=tau, loss="squared")
        assert SolverConfig(tau=tau).loss == "quantile"
        assert SolverConfig(tau=0.5, loss="squared").tau == 0.5

    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.eta is None
        assert cfg.max_iter == 5000
        assert (cfg.tol_abs, cfg.tol_rel) == (1e-6, 1e-5)
