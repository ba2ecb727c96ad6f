import warnings

import numpy as np
import pytest

from quantfactor import (
    AllZeroSpectrum,
    DimensionMismatch,
    NonFiniteInput,
    RankTooLarge,
    extract_factors,
    procrustes_distance,
    variance_explained,
)
from quantfactor.simulate import DesignSpec, generate

import oracles


def random_orthonormal(rng, rows, cols):
    q, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q[:, :cols]


class TestExtractFactors:
    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(60)
        u = rng.standard_normal(6)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(9)
        v /= np.linalg.norm(v)
        pi = 5.0 * np.outer(u, v)
        dec = extract_factors(pi, 1)
        assert dec.singular_values[0] == pytest.approx(5.0, rel=1e-12)
        np.testing.assert_allclose(dec.loadings @ dec.factors.T, pi, atol=1e-10)

    def test_zero_matrix_yields_zero_spectrum(self):
        dec = extract_factors(np.zeros((4, 5)), 1)
        np.testing.assert_array_equal(dec.singular_values, [0.0])
        np.testing.assert_array_equal(dec.loadings, np.zeros((4, 1)))

    def test_deterministic_cosine_surface_is_rank_one(self):
        inst = generate(DesignSpec("D1", 30, 40, 2, seed=1))
        dec = extract_factors(inst.pi_true, 1)
        err = np.linalg.norm(dec.loadings @ dec.factors.T - inst.pi_true)
        assert err <= 1e-10 * (1 + np.linalg.norm(inst.pi_true))

    def test_factors_are_orthonormal(self):
        rng = np.random.default_rng(61)
        pi = rng.standard_normal((8, 10))
        dec = extract_factors(pi, 3)
        np.testing.assert_allclose(dec.factors.T @ dec.factors, np.eye(3), atol=1e-10)

    def test_reconstructs_truncated_svd(self):
        rng = np.random.default_rng(62)
        pi = rng.standard_normal((7, 9))
        for rank in (1, 3, 7):
            dec = extract_factors(pi, rank)
            u, s, vt = np.linalg.svd(pi, full_matrices=False)
            best = (u[:, :rank] * s[:rank]) @ vt[:rank]
            err = np.linalg.norm(dec.loadings @ dec.factors.T - best)
            assert err <= 1e-9 * (1 + np.linalg.norm(pi))

    def test_sign_convention(self):
        rng = np.random.default_rng(63)
        pi = rng.standard_normal((6, 6))
        dec = extract_factors(pi, 4)
        for k in range(4):
            j = np.argmax(np.abs(dec.factors[:, k]))
            assert dec.factors[j, k] > 0

    def test_rank_bounds(self):
        with pytest.raises(RankTooLarge):
            extract_factors(np.zeros((3, 5)), 4)
        with pytest.raises(RankTooLarge):
            extract_factors(np.zeros((3, 5)), 0)

    def test_rejects_a_vector(self):
        with pytest.raises(DimensionMismatch, match="2-d"):
            extract_factors(np.ones(4), 1)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        # LAPACK returns a NaN spectrum for the inf case and can loop without
        # end on larger non-finite inputs, so the check must come first
        with pytest.raises(NonFiniteInput):
            extract_factors(np.array([[bad, 0.0], [0.0, 1.0]]), 1)


class TestVarianceExplained:
    def test_single_component(self):
        np.testing.assert_allclose(variance_explained([1.0]), [100.0])

    def test_two_components(self):
        np.testing.assert_allclose(variance_explained([3.0, 1.0]), [90.0, 10.0])

    def test_shares_sum_to_hundred(self):
        rng = np.random.default_rng(64)
        s = np.sort(np.abs(rng.standard_normal(6)))[::-1]
        shares = variance_explained(s)
        assert np.all(shares >= 0)
        assert np.all(np.diff(shares) <= 1e-12)
        assert np.sum(shares) == pytest.approx(100.0, abs=1e-9)

    def test_dominant_leading_share_on_factor_surface(self):
        # synthetic analogue of the empirical spectrum shape: one strong
        # component plus weaker ones gives a dominant leading share
        rng = np.random.default_rng(65)
        pi = 10.0 * np.outer(rng.standard_normal(40), rng.standard_normal(50))
        pi += rng.standard_normal((40, 50))
        s = np.linalg.svd(pi, compute_uv=False)
        shares = variance_explained(s)
        assert shares[0] > 70.0
        assert shares[0] > 3 * shares[1]

    @pytest.mark.parametrize("s", [[1e200, 1e199], [1e-170, 1e-171]],
                             ids=["overflow", "underflow"])
    def test_extreme_scales(self, s):
        # squared unscaled, the first spectrum overflows to inf / inf and the
        # second underflows to a zero total; the shares depend only on the ratio
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            shares = variance_explained(s)
        np.testing.assert_allclose(shares, [10000.0 / 101.0, 100.0 / 101.0], rtol=1e-14)

    def test_all_zero_spectrum(self):
        with pytest.raises(AllZeroSpectrum):
            variance_explained(np.zeros(3))

    def test_rejects_ascending(self):
        with pytest.raises(ValueError):
            variance_explained([1.0, 2.0])

    @pytest.mark.parametrize("s", [[np.nan, 1.0], [1.0, np.nan], [np.inf, 1.0]],
                             ids=["nan-first", "nan-last", "inf"])
    def test_rejects_non_finite(self, s):
        # np.diff(s) > 0 is false for NaN, so the order check alone lets these through
        with pytest.raises(NonFiniteInput):
            variance_explained(s)


class TestProcrustesDistance:
    def test_identical_inputs(self):
        rng = np.random.default_rng(66)
        a = random_orthonormal(rng, 6, 2)
        assert procrustes_distance(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(67)
        a = random_orthonormal(rng, 8, 3)
        q = random_orthonormal(rng, 3, 3)
        assert procrustes_distance(a, a @ q) == pytest.approx(0.0, abs=1e-10)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(68)
        a = random_orthonormal(rng, 4, 2)
        b = random_orthonormal(rng, 4, 2)
        got = procrustes_distance(a, b)
        want = oracles.procrustes_brute(a, b, step=1e-4)
        assert got == pytest.approx(want, abs=1e-6)

    def test_symmetry_for_square_inputs(self):
        rng = np.random.default_rng(69)
        a = random_orthonormal(rng, 3, 3)
        b = random_orthonormal(rng, 3, 3)
        assert procrustes_distance(a, b) == pytest.approx(
            procrustes_distance(b, a), abs=1e-9
        )

    def test_bounded_by_frobenius_distance(self):
        rng = np.random.default_rng(70)
        for _ in range(20):
            a = rng.standard_normal((5, 2))
            b = rng.standard_normal((5, 2))
            assert procrustes_distance(a, b) <= np.linalg.norm(a - b) + 1e-12

    def test_shape_checks(self):
        with pytest.raises(DimensionMismatch):
            procrustes_distance(np.zeros((3, 2)), np.zeros((4, 2)))
        with pytest.raises(DimensionMismatch):
            procrustes_distance(np.zeros((2, 3)), np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        m = np.array([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(NonFiniteInput):
            procrustes_distance(m, np.eye(2))
        with pytest.raises(NonFiniteInput):
            procrustes_distance(np.eye(2), m)
