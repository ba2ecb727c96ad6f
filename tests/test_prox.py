import numpy as np
import pytest

from quantfactor import (
    LengthMismatch,
    NonFiniteInput,
    SvdFailure,
    prox_pinball,
    prox_squared,
    singular_value_threshold,
    soft_threshold,
    support_mask,
)

from quantfactor import prox

import oracles


class TestProxPinball:
    def test_fixes_zero(self):
        a = np.zeros((3, 3))
        for tau in (0.1, 0.5, 0.9):
            np.testing.assert_array_equal(prox_pinball(a, tau, 0.7), a)

    def test_above_dead_zone(self):
        # grid oracle confirms 2 - 0.5 * 1
        assert prox_pinball(2.0, 0.5, 1.0) == pytest.approx(1.5, abs=1e-12)
        assert oracles.prox_pinball_grid(2.0, 0.5, 1.0) == pytest.approx(1.5, abs=2e-5)

    def test_inside_dead_zone(self):
        assert prox_pinball(0.2, 0.5, 1.0) == 0.0
        assert oracles.prox_pinball_grid(0.2, 0.5, 1.0) == pytest.approx(0.0, abs=2e-5)

    def test_below_dead_zone(self):
        assert prox_pinball(-1.0, 0.3, 1.0) == pytest.approx(-0.3, abs=1e-12)
        assert oracles.prox_pinball_grid(-1.0, 0.3, 1.0) == pytest.approx(-0.3, abs=2e-5)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            a = rng.uniform(-2, 2)
            tau = rng.uniform(0.05, 0.95)
            kappa = rng.uniform(0.05, 1.0)
            got = prox_pinball(a, tau, kappa)
            want = oracles.prox_pinball_grid(a, tau, kappa)
            assert got == pytest.approx(want, abs=2e-5)

    def test_local_optimality(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = rng.uniform(-3, 3)
            tau = rng.uniform(0.05, 0.95)
            kappa = rng.uniform(0.01, 2.0)
            v = float(prox_pinball(a, tau, kappa))
            obj = lambda z: kappa * oracles.pinball_scalar(z, tau) + 0.5 * (z - a) ** 2
            for delta in (1e-4, -1e-4):
                assert obj(v) <= obj(v + delta) + 1e-12

    def test_firmly_nonexpansive(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a = rng.standard_normal((4, 5))
            b = rng.standard_normal((4, 5))
            pa = prox_pinball(a, 0.3, 0.4)
            pb = prox_pinball(b, 0.3, 0.4)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-10

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteInput):
            prox_pinball(np.array([1.0, np.nan]), 0.5, 1.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            prox_pinball(1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            prox_pinball(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            prox_pinball(1.0, 0.5, np.nan)


class TestProxSquared:
    def test_fixes_zero(self):
        np.testing.assert_array_equal(prox_squared(np.zeros(4), 1.0, 6), np.zeros(4))

    def test_halves_at_unit_scale(self):
        assert prox_squared(1.0, 1.0, 2) == pytest.approx(0.5, rel=1e-12)
        assert oracles.prox_squared_grid(1.0, 1.0, 2) == pytest.approx(0.5, abs=2e-5)

    def test_single_cell(self):
        assert prox_squared(3.0, 2.0, 1) == pytest.approx(1.5, rel=1e-12)
        assert oracles.prox_squared_grid(3.0, 2.0, 1) == pytest.approx(1.5, abs=2e-5)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a = rng.uniform(-2, 2)
            eta = rng.uniform(0.1, 3.0)
            nt = int(rng.integers(1, 50))
            got = prox_squared(a, eta, nt)
            want = oracles.prox_squared_grid(a, eta, nt)
            assert got == pytest.approx(want, abs=2e-5)

    @pytest.mark.parametrize("eta", [np.nan, 0.0])
    def test_rejects_eta_that_is_not_positive(self, eta):
        with pytest.raises(ValueError):
            prox_squared(np.ones(3), eta, 3)

    def test_nonexpansive(self):
        rng = np.random.default_rng(14)
        a, b = rng.standard_normal((2, 3, 3))
        pa, pb = prox_squared(a, 0.5, 9), prox_squared(b, 0.5, 9)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-10


class TestSoftThreshold:
    def test_zeros(self):
        np.testing.assert_array_equal(
            soft_threshold(np.zeros(2), np.ones(2)), np.zeros(2)
        )

    def test_shrinks_above(self):
        np.testing.assert_allclose(soft_threshold([1.0], [0.3]), [0.7], atol=1e-12)
        assert oracles.soft_threshold_grid(1.0, 0.3) == pytest.approx(0.7, abs=2e-5)

    def test_kills_below(self):
        np.testing.assert_array_equal(soft_threshold([-0.2], [0.3]), [0.0])
        assert oracles.soft_threshold_grid(-0.2, 0.3) == pytest.approx(0.0, abs=2e-5)

    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(15)
        v = rng.standard_normal(20)
        np.testing.assert_array_equal(soft_threshold(v, np.zeros(20)), v)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            v = rng.uniform(-2, 2)
            t = rng.uniform(0.0, 1.0)
            got = soft_threshold([v], [t])[0]
            want = oracles.soft_threshold_grid(v, t)
            assert got == pytest.approx(want, abs=2e-5)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            soft_threshold(np.ones(3), np.ones(2))

    def test_nonexpansive(self):
        rng = np.random.default_rng(17)
        t = np.abs(rng.standard_normal(10))
        a, b = rng.standard_normal((2, 10))
        pa, pb = soft_threshold(a, t), soft_threshold(b, t)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-10


class TestSingularValueThreshold:
    def test_zero_matrix(self):
        res = singular_value_threshold(np.zeros((3, 4)), 0.5)
        np.testing.assert_array_equal(res.matrix, np.zeros((3, 4)))
        assert np.count_nonzero(support_mask(res.singular_values_after)) == 0

    def test_identity_shrinks_uniformly(self):
        res = singular_value_threshold(np.eye(2), 0.4)
        np.testing.assert_allclose(res.matrix, 0.6 * np.eye(2), atol=1e-12)
        assert np.count_nonzero(res.singular_values_after) == 2
        np.testing.assert_allclose(res.singular_values_after, [0.6, 0.6], atol=1e-12)

    def test_kills_small_singular_value(self):
        res = singular_value_threshold(np.diag([3.0, 0.1]), 0.5)
        np.testing.assert_allclose(res.matrix, np.diag([2.5, 0.0]), atol=1e-12)
        assert np.count_nonzero(support_mask(res.singular_values_after)) == 1
        # subgradient condition of the nuclear-norm prox at the output
        gap = np.diag([3.0, 0.1]) - res.matrix
        assert np.linalg.norm(gap, 2) <= 0.5 + 1e-12

    def test_spectral_contract(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            m = rng.standard_normal((6, 9))
            thr = rng.uniform(0.0, 3.0)
            res = singular_value_threshold(m, thr)
            s_in = np.linalg.svd(m, compute_uv=False)
            np.testing.assert_allclose(
                res.singular_values_after,
                np.maximum(s_in - thr, 0.0),
                rtol=1e-9, atol=1e-12,
            )
            s_out = np.linalg.svd(res.matrix, compute_uv=False)
            np.testing.assert_allclose(
                s_out, np.maximum(s_in - thr, 0.0), rtol=1e-9, atol=1e-9
            )
            assert np.count_nonzero(support_mask(res.singular_values_after)) <= np.linalg.matrix_rank(m)

    def test_reconstruction_invariant(self):
        rng = np.random.default_rng(19)
        m = rng.standard_normal((5, 7))
        res = singular_value_threshold(m, 0.3)
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        rebuilt = (u * np.maximum(s - 0.3, 0.0)) @ vt
        err = np.linalg.norm(res.matrix - rebuilt) / (1 + np.linalg.norm(rebuilt))
        assert err <= 1e-9

    def test_nonexpansive(self):
        rng = np.random.default_rng(21)
        a, b = rng.standard_normal((2, 5, 6))
        pa = singular_value_threshold(a, 0.7).matrix
        pb = singular_value_threshold(b, 0.7).matrix
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-10

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            singular_value_threshold(np.eye(2), -0.1)

    @pytest.mark.parametrize("hint", [None, 0, 5])
    @pytest.mark.parametrize("threshold", [np.nan, np.inf])
    def test_rejects_non_finite_threshold(self, threshold, hint):
        with pytest.raises(ValueError, match="threshold"):
            singular_value_threshold(np.eye(2), threshold, hint)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        # LAPACK returns a NaN spectrum for the inf case and can loop without
        # end on larger non-finite inputs, so the check must come first
        with pytest.raises(NonFiniteInput):
            singular_value_threshold(np.array([[bad, 0.0], [0.0, 1.0]]), 0.1)


def dense_svt(m, thr):
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return (u * np.maximum(s - thr, 0.0)) @ vt, s


class TestPartialSvt:
    # criterion-2-style Gaussian matrices, wide and tall; min(n, T) = 40 and 30
    # put the rank hint's cut-over between LAPACK drivers at rank 4 and 3
    SHAPES = [(40, 70), (75, 30)]

    @staticmethod
    def cut_over(shape):
        return int(prox.PARTIAL_RANK_FRACTION * min(shape))

    @staticmethod
    def case(shape, kept, seed):
        """A matrix and a threshold between its kept-th and next singular value.

        At kept = min(shape) the next value is taken as 0.
        """
        rng = np.random.default_rng(seed)
        m = rng.standard_normal(shape) * rng.uniform(0.5, 3.0)
        s = np.append(np.linalg.svd(m, compute_uv=False), 0.0)
        thr = 1.1 * s[0] if kept == 0 else 0.5 * (s[kept - 1] + s[kept])
        return m, thr

    def check(self, m, thr, hint, kept):
        """Agreement with the dense SVT, and the route the exactness cut calls for."""
        res = singular_value_threshold(m, thr, hint)
        want, s = dense_svt(m, thr)
        scale = max(1.0, s[0])
        assert res.singular_values_before.shape == (min(m.shape),)
        assert res.singular_values_after.shape == (min(m.shape),)
        assert np.abs(res.matrix - want).max() <= 1e-10 * scale
        np.testing.assert_allclose(res.singular_values_after, np.maximum(s - thr, 0.0),
                                   rtol=0, atol=1e-10 * scale)
        if thr * thr > prox.PARTIAL_MIN_THRESHOLD_SQ * np.sum(m * m):
            np.testing.assert_allclose(res.singular_values_before[:kept], s[:kept],
                                       rtol=0, atol=1e-10 * scale)
            assert not res.singular_values_before[kept:].any()
        else:
            np.testing.assert_array_equal(res.singular_values_before, s)
        return res

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("kept", [0, 1, 2, 3])
    @pytest.mark.parametrize("hint", ["none", "zero", "exact", "too_small", "too_large",
                                      "above_cut"])
    def test_agrees_with_dense(self, shape, kept, hint):
        m, thr = self.case(shape, kept, seed=100 * kept + shape[0])
        cap = self.cut_over(shape)
        hint = {"none": None, "zero": 0, "exact": kept, "too_small": max(0, kept - 1),
                "too_large": kept + 1, "above_cut": cap + 1}[hint]
        self.check(m, thr, hint, kept)

    @pytest.mark.parametrize("shape, kept", [((1, 7), 1), ((9, 1), 1), ((2, 9), 1),
                                             ((2, 9), 2)])
    @pytest.mark.parametrize("hint, driver", [(None, "dsyevd"), (0, "dsyevr")])
    def test_smallest_orders_agree_with_dense(self, monkeypatch, shape, kept, hint, driver):
        # Gram orders 1 and 2, where each driver runs with its smallest
        # default workspace
        calls = []
        solve = getattr(prox, driver)

        def spy(*args, **kwargs):
            calls.append(driver)
            return solve(*args, **kwargs)

        monkeypatch.setattr(prox, driver, spy)
        m, thr = self.case(shape, kept, seed=11 * kept + shape[0])
        self.check(m, thr, hint, kept)
        assert calls == [driver]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_rank_above_cut_over_keeps_every_pair(self, shape):
        # a hint the matrix outgrew: the solve bounded by value returns more
        # pairs than the cut-over, and all of them are kept
        kept = self.cut_over(shape) + 3
        m, thr = self.case(shape, kept, seed=7)
        for hint in (0, 1):
            self.check(m, thr, hint, kept)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_zero_threshold_returns_input(self, shape):
        m, _ = self.case(shape, 1, seed=8)
        res = self.check(m, 0.0, 1, min(shape))
        np.testing.assert_allclose(res.matrix, m, rtol=0, atol=1e-12 * np.abs(m).max())

    @pytest.mark.parametrize("shape", SHAPES)
    def test_zero_matrix(self, shape):
        res = self.check(np.zeros(shape), 0.5, 0, 0)
        assert not res.matrix.any()

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("ratio", [1e-4, 1e-6, 1e-8, 1e-10])
    def test_tiny_threshold_stays_exact(self, shape, ratio):
        # two strong directions and a spectrum running down past the
        # threshold: the Gram matrix loses values below sqrt(eps) * sigma_1
        rng = np.random.default_rng(9)
        k = min(shape)
        u = np.linalg.qr(rng.standard_normal((shape[0], k)))[0]
        v = np.linalg.qr(rng.standard_normal((shape[1], k)))[0]
        s = np.concatenate([[1.0, 2 * ratio], np.geomspace(0.9 * ratio, 1e-3 * ratio, 4),
                            np.zeros(k - 6)])
        m = (u * s) @ v.T
        res = singular_value_threshold(m, ratio, 1)
        want, _ = dense_svt(m, ratio)
        assert np.abs(res.matrix - want).max() <= 1e-10
        assert np.count_nonzero(res.singular_values_after) == 2

    @pytest.mark.parametrize("owner, name, hint", [(prox, "dsyevr", 1),
                                                   (np.linalg, "svd", None),
                                                   (prox, "dsyevd", None)])
    def test_lapack_failure_maps_to_svd_failure(self, monkeypatch, owner, name, hint):
        m, thr = self.case((40, 70), 1, seed=10)
        if name == "svd":
            thr = 0.0  # only a threshold below the exactness cut reaches the SVD

            def fail(*args, **kwargs):
                raise np.linalg.LinAlgError("no convergence")
        else:
            driver = getattr(owner, name)

            def fail(*args, **kwargs):
                *out, _ = driver(*args, **kwargs)
                return (*out, 1)  # LAPACK's info > 0: no convergence

        monkeypatch.setattr(owner, name, fail)
        with pytest.raises(SvdFailure):
            singular_value_threshold(m, thr, hint)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("hint", [None, 1])
    @pytest.mark.parametrize("side", [1 + 1e-6, 1 - 1e-6])
    def test_threshold_at_the_frobenius_norm(self, monkeypatch, shape, hint, side):
        # sigma_1 <= ||m||_F, so just above the norm every value shrinks to zero
        # with no factorization; a rank-one m has sigma_1 = ||m||_F, and just
        # below it the Gram route keeps that one value
        rng = np.random.default_rng(16)
        m = np.outer(rng.standard_normal(shape[0]), rng.standard_normal(shape[1]))
        thr = side * np.sqrt(np.sum(m * m))
        calls = []

        def recorded(name, original):
            def call(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return call

        for owner, name in ((prox, "dsyevr"), (prox, "dsyevd"), (np.linalg, "svd")):
            monkeypatch.setattr(owner, name, recorded(name, getattr(owner, name)))
        if side > 1:
            res = singular_value_threshold(m, thr, hint)
            assert calls == []
            assert res.matrix.shape == shape and not res.matrix.any()
            for spectrum in (res.singular_values_before, res.singular_values_after):
                assert spectrum.shape == (min(shape),) and not spectrum.any()
        else:
            self.check(m, thr, hint, 1)
            assert calls[0] == ("dsyevd" if hint is None else "dsyevr")

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("hint", [None, 0, 1, 1000])
    def test_full_rank_agrees_with_dense(self, shape, hint):
        m, _ = self.case(shape, 1, seed=11)
        s = np.linalg.svd(m, compute_uv=False)
        self.check(m, 0.5 * s[-1], hint, min(shape))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("side", [1.01, 0.99])
    @pytest.mark.parametrize("hint", [None, 1])
    def test_threshold_at_the_exactness_cut(self, monkeypatch, shape, side, hint):
        # just above the cut the Gram route runs at its least accurate
        # threshold; just below it the dense SVD takes over
        m, _ = self.case(shape, 1, seed=12)
        thr = side * np.sqrt(prox.PARTIAL_MIN_THRESHOLD_SQ * np.sum(m * m))
        svd, calls = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        singular_value_threshold(m, thr, hint)
        monkeypatch.undo()
        assert len(calls) == (side < 1)
        self.check(m, thr, hint, min(shape))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("hint", [None, 0, 5])
    def test_rank_deficient_input(self, shape, hint):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((shape[0], 5)) @ rng.standard_normal((5, shape[1]))
        s = np.linalg.svd(m, compute_uv=False)
        res = self.check(m, 1e-3 * s[0], hint, 5)
        assert np.count_nonzero(res.singular_values_after) == 5

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("hint", [None, 0, 1, 3, 4, 1000])
    def test_gram_admissible_input_never_reaches_the_dense_svd(self, monkeypatch, shape,
                                                                hint):
        # the old partial path reran the dense SVD after its eigensolve when a
        # small hint found too many pairs, and no hint went straight to it
        cases = [(np.zeros(shape), 0.5)]
        cases += [self.case(shape, kept, seed=14 + kept) for kept in (0, 1, 3, 10)]
        m, _ = self.case(shape, 1, seed=15)
        cases.append((m, 0.5 * np.linalg.svd(m, compute_uv=False)[-1]))

        def fail(*args, **kwargs):
            raise AssertionError("dense SVD reached above the exactness cut")

        monkeypatch.setattr(np.linalg, "svd", fail)
        for m, thr in cases:
            assert thr * thr > prox.PARTIAL_MIN_THRESHOLD_SQ * np.sum(m * m)
            singular_value_threshold(m, thr, hint)
