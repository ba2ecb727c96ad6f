import numpy as np
import pytest

from quantfactor import (
    AllFitsFailed,
    DimensionMismatch,
    LengthMismatch,
    SolverConfig,
    TuningGrid,
    compute_column_scales,
    evaluate_rep,
    fit,
    grid_search,
    quantile_error,
    run_monte_carlo,
    support_recovery,
    theta_error_scaled,
)
from quantfactor.simulate import DesignSpec, generate


class TestQuantileError:
    def test_identical_surfaces(self):
        a = np.ones((3, 3))
        assert quantile_error(a, a) == 0.0

    def test_constant_shift(self):
        a = np.zeros((4, 5))
        assert quantile_error(a, a + 1.0) == pytest.approx(1.0)

    def test_partial_disagreement(self):
        assert quantile_error(np.zeros((2, 2)), np.eye(2)) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            quantile_error(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_positive_unless_equal(self):
        rng = np.random.default_rng(80)
        a = rng.standard_normal((3, 4))
        b = a.copy()
        b[0, 0] += 1e-8
        assert quantile_error(a, b) > 0


class TestThetaError:
    def test_equal_vectors(self):
        assert theta_error_scaled(np.ones(3), np.ones(3)) == 0.0

    def test_single_difference(self):
        assert theta_error_scaled([0.01, 0.0], [0.0, 0.0]) == pytest.approx(1.0)

    def test_two_differences(self):
        assert theta_error_scaled([0.01, 0.01], [0.0, 0.0]) == pytest.approx(2.0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            theta_error_scaled(np.ones(2), np.ones(3))


class TestSupportRecovery:
    def test_both_empty(self):
        assert support_recovery(np.zeros(2), np.zeros(2)) == (0, 0, 0)

    def test_missed_coefficient(self):
        assert support_recovery([1.0, 0.0], [1.0, 1.0]) == (1, 0, 1)

    def test_false_positive(self):
        assert support_recovery([0.0, 1.0], [1.0, 0.0]) == (0, 1, 1)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            support_recovery(np.ones(2), np.ones(3))


class TestMonteCarlo:
    def grid(self, c1=None):
        return TuningGrid(nu1_values=np.array([1e-3]), nu2_values=np.array([1e-2]), c1=c1)

    def config(self):
        return SolverConfig(tau=0.5, eta=10.0 / 100.0, max_iter=20000)

    def test_single_rep_single_point_matches_direct_fit(self):
        spec = DesignSpec("D1", 10, 10, 2, seed=21)
        reports = run_monte_carlo(
            spec, ["l1nnqr"], self.grid(), reps=1, oracle_tuning=True,
            base_config=self.config(),
        )
        inst = generate(DesignSpec("D1", 10, 10, 2, seed=21))
        scales = compute_column_scales(inst.data)
        cfg = SolverConfig(tau=0.5, nu1=1e-3, nu2=1e-2, eta=0.1, max_iter=20000)
        direct = fit(inst.data, cfg, scales)
        est = inst.data.x @ direct.theta + direct.pi
        r = reports[0]
        assert r.reps == 1
        assert r.mean_theta_err_scaled == pytest.approx(
            theta_error_scaled(direct.theta, inst.theta_true), rel=1e-9
        )
        assert r.mean_quantile_err == pytest.approx(
            quantile_error(inst.true_median_surface, est), rel=1e-9
        )

    def test_oracle_dominates_bic_per_rep(self):
        spec = DesignSpec("D1", 10, 12, 2, seed=22)
        inst = generate(spec)
        grid = TuningGrid(
            nu1_values=np.array([1e-2, 1e-4]), nu2_values=np.array([1e-1, 1e-3])
        )
        rm = evaluate_rep(inst, "l1nnqr", grid, self.config())
        assert rm.oracle_theta_err <= rm.bic_theta_err + 1e-12
        assert rm.oracle_quantile_err <= rm.bic_quantile_err + 1e-12

    def test_bic_pick_is_grid_search_pick(self):
        inst = generate(DesignSpec("D1", 10, 12, 2, seed=22))
        grid = TuningGrid(
            nu1_values=np.array([1e-2, 1e-4]), nu2_values=np.array([1e-1, 1e-3]), c1=2.0
        )
        rm = evaluate_rep(inst, "l1nnqr", grid, self.config())
        best = grid_search(inst.data, grid, self.config()).best_fit
        est = inst.data.x @ best.theta + best.pi
        assert rm.bic_theta_err == theta_error_scaled(best.theta, inst.theta_true)
        assert rm.bic_quantile_err == quantile_error(inst.true_median_surface, est)

    def test_no_converged_fit_raises_all_fits_failed(self):
        inst = generate(DesignSpec("D1", 8, 8, 2, seed=24))
        with pytest.raises(AllFitsFailed):
            evaluate_rep(inst, "l1nnqr", self.grid(), SolverConfig(max_iter=1))

    def test_oracle_ignores_non_converged_fits(self, monkeypatch):
        import dataclasses

        import quantfactor.metrics as metrics

        spec = DesignSpec("D1", 10, 12, 2, seed=22)
        inst = generate(spec)
        grid = TuningGrid(
            nu1_values=np.array([1e-2, 1e-4]), nu2_values=np.array([1e-1, 1e-3])
        )
        real_fit = metrics.fit

        def fit_with_one_perfect_failure(data, cfg, **kwargs):
            result = real_fit(data, cfg, **kwargs)
            if cfg.nu1 == 1e-4 and cfg.nu2 == 1e-3:
                # an unconverged fit that happens to sit on the truth
                return dataclasses.replace(
                    result, converged=False, theta=inst.theta_true, pi=inst.pi_true,
                    singular_values=np.linalg.svd(inst.pi_true, compute_uv=False),
                )
            return result

        monkeypatch.setattr(metrics, "fit", fit_with_one_perfect_failure)
        rm = evaluate_rep(inst, "l1nnqr", grid, self.config())
        assert rm.oracle_theta_err > 0.0
        assert rm.oracle_quantile_err > 0.0
        assert rm.oracle_theta_err <= rm.bic_theta_err + 1e-12
        assert rm.oracle_quantile_err <= rm.bic_quantile_err + 1e-12

    def test_report_means_are_arithmetic(self):
        spec = DesignSpec("D1", 8, 8, 2, seed=23)
        reports = run_monte_carlo(
            spec, ["l1nnqr", "l1qr"], self.grid(), reps=3, oracle_tuning=True,
            base_config=self.config(),
        )
        for r in reports:
            assert r.reps == 3
            assert r.mean_theta_err_scaled == pytest.approx(
                float(np.mean(r.per_rep_theta_err)), rel=1e-12
            )
            assert r.mean_quantile_err == pytest.approx(
                float(np.mean(r.per_rep_quantile_err)), rel=1e-12
            )

    def test_bic_tuning_reports_the_bic_picks(self):
        spec = DesignSpec("D1", 8, 8, 2, seed=23)
        grid = TuningGrid(nu1_values=np.array([1e-2, 1e-3]), nu2_values=np.array([1e-2]))
        (report,) = run_monte_carlo(spec, ["l1nnqr"], grid, reps=2,
                                    base_config=self.config())
        for rep in range(2):
            rm = evaluate_rep(generate(DesignSpec("D1", 8, 8, 2, seed=23 + rep)),
                              "l1nnqr", grid, self.config())
            assert report.per_rep_theta_err[rep] == rm.bic_theta_err
            assert report.per_rep_quantile_err[rep] == rm.bic_quantile_err

    def failing(self, monkeypatch, failed_reps):
        """Make l1qr fail on the given reps."""
        import quantfactor.metrics as metrics

        real = metrics.evaluate_rep

        def evaluate_or_fail(inst, method, *args, rep=0, **kwargs):
            if method == "l1qr" and rep in failed_reps:
                raise AllFitsFailed("none of the grid fits converged")
            return real(inst, method, *args, rep=rep, **kwargs)

        monkeypatch.setattr(metrics, "evaluate_rep", evaluate_or_fail)

    def test_failed_rep_keeps_the_others_at_their_index(self, monkeypatch):
        spec = DesignSpec("D1", 8, 8, 2, seed=23)
        args = (spec, ["l1qr"], self.grid(), 3)
        (whole,) = run_monte_carlo(*args, base_config=self.config())
        self.failing(monkeypatch, {1})
        (report,) = run_monte_carlo(*args, base_config=self.config())
        assert (report.reps, report.failed_reps) == (2, 1)
        for per_rep in ("per_rep_theta_err", "per_rep_quantile_err"):
            got, want = getattr(report, per_rep), getattr(whole, per_rep)
            assert np.isnan(got[1])
            np.testing.assert_array_equal(got[[0, 2]], want[[0, 2]])
        assert report.mean_theta_err_scaled == np.mean(whole.per_rep_theta_err[[0, 2]])
        assert report.mean_quantile_err == np.mean(whole.per_rep_quantile_err[[0, 2]])

    def test_all_reps_failed_gives_nan_means_without_warning(self, monkeypatch):
        import warnings

        self.failing(monkeypatch, {0, 1})
        spec = DesignSpec("D1", 8, 8, 2, seed=23)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (report,) = run_monte_carlo(spec, ["l1qr"], self.grid(), 2,
                                        base_config=self.config())
        assert (report.reps, report.failed_reps) == (0, 2)
        assert np.isnan(report.mean_theta_err_scaled) and np.isnan(report.mean_quantile_err)
        assert np.isnan(report.per_rep_theta_err).all()

    @pytest.mark.parametrize("c1", [np.nan, np.inf, -1e3])
    def test_bad_c1_rejected_before_any_fit(self, monkeypatch, c1):
        import quantfactor.metrics as metrics

        def never(*args, **kwargs):
            raise AssertionError("called before c1 was checked")

        spec = DesignSpec("D1", 8, 8, 2, seed=24)
        inst = generate(spec)
        monkeypatch.setattr(metrics, "fit", never)
        monkeypatch.setattr(metrics, "generate", never)
        with pytest.raises(ValueError, match="c1"):
            evaluate_rep(inst, "l1nnqr", self.grid(c1), self.config())
        with pytest.raises(ValueError, match="c1"):
            run_monte_carlo(spec, ["l1qr"], self.grid(c1), reps=1, base_config=self.config())

    def test_repeated_method_rejected_before_any_rep(self, monkeypatch):
        import quantfactor.metrics as metrics

        def never(*args, **kwargs):
            raise AssertionError("a rep was generated before the methods were checked")

        monkeypatch.setattr(metrics, "generate", never)
        spec = DesignSpec("D1", 8, 8, 2, seed=24)
        with pytest.raises(ValueError, match="once"):
            run_monte_carlo(spec, ["l1qr", "l1nnqr", "l1qr"], self.grid(), reps=1,
                            base_config=self.config())

    @pytest.mark.parametrize("reps", [1.5, 2.0, np.nan, True, 0])
    def test_reps_that_is_not_a_positive_integer_rejected_before_any_rep(self, monkeypatch,
                                                                        reps):
        import quantfactor.metrics as metrics

        def never(*args, **kwargs):
            raise AssertionError("a rep was generated before reps was checked")

        monkeypatch.setattr(metrics, "generate", never)
        spec = DesignSpec("D1", 8, 8, 2, seed=24)
        with pytest.raises(ValueError, match="reps"):
            run_monte_carlo(spec, ["l1qr"], self.grid(), reps=reps, base_config=self.config())

    def test_unknown_method_rejected(self):
        spec = DesignSpec("D1", 5, 5, 2, seed=24)
        with pytest.raises(ValueError):
            run_monte_carlo(spec, ["pca"], self.grid(), reps=1)
        with pytest.raises(ValueError, match="unknown method"):
            evaluate_rep(generate(spec), "pca", self.grid(), self.config())

    def test_default_base_config_is_the_solver_default(self):
        spec = DesignSpec("D1", 6, 6, 2, seed=26)
        implicit = run_monte_carlo(spec, ["l1nnqr"], self.grid(), reps=1)
        explicit = run_monte_carlo(spec, ["l1nnqr"], self.grid(), reps=1,
                                   base_config=SolverConfig())
        assert implicit[0].reps == 1
        assert implicit[0].mean_quantile_err == explicit[0].mean_quantile_err
        assert implicit[0].mean_theta_err_scaled == explicit[0].mean_theta_err_scaled

    @pytest.mark.parametrize("tau", [0.1, 0.9])
    def test_tau_other_than_the_median_rejected(self, tau):
        # the errors are scored against the true median surface
        spec = DesignSpec("D1", 8, 8, 2, seed=24)
        cfg = SolverConfig(tau=tau, eta=10.0 / 64.0)
        with pytest.raises(ValueError, match="median"):
            evaluate_rep(generate(spec), "l1nnqr", self.grid(), cfg)
        with pytest.raises(ValueError, match="median"):
            run_monte_carlo(spec, ["l1qr"], self.grid(), reps=1, base_config=cfg)

    def test_squared_loss_method_runs(self):
        spec = DesignSpec("D1", 8, 8, 2, seed=25)
        reports = run_monte_carlo(
            spec, ["l1nnls"], self.grid(), reps=1, oracle_tuning=True,
            base_config=self.config(),
        )
        assert reports[0].reps == 1
        assert np.isfinite(reports[0].mean_quantile_err)
