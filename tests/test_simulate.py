import numpy as np
import pytest

from quantfactor import DesignSpec, generate, sample_scaled_t3


class TestDesignSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            DesignSpec("D5", 10, 10, 2, seed=0)
        with pytest.raises(ValueError):
            DesignSpec("D1", 0, 10, 2, seed=0)
        with pytest.raises(ValueError):
            DesignSpec("D1", 10, 10, 0, seed=0)
        with pytest.raises(ValueError):
            DesignSpec("D1", 10, 10, 2, seed=-1)

    @pytest.mark.parametrize("field", ["n", "t_len", "p", "seed"])
    @pytest.mark.parametrize("bad", [6.5, 6.0, np.nan, True])
    def test_counts_must_be_integers(self, field, bad):
        counts = {"n": 6, "t_len": 6, "p": 2, "seed": 1, field: bad}
        with pytest.raises(ValueError, match=field):
            DesignSpec("D1", **counts)

    def test_counts_take_numpy_integers(self):
        spec = DesignSpec("D1", np.int64(6), np.int32(5), np.int64(2), seed=np.uint8(0))
        assert generate(spec).data.y.shape == (6, 5)


class TestGenerate:
    def test_cosine_surface_values(self):
        inst = generate(DesignSpec("D1", 2, 4, 1, seed=0))
        # Pi_{i,t} = 5 i cos(4 pi t / T) / n at i = 1, t = T: 5 * 1 * 1 / 2
        assert inst.pi_true[0, 3] == pytest.approx(2.5, rel=1e-12)
        i = np.arange(1, 3)
        t = np.arange(1, 5)
        expected = 5.0 * np.outer(i, np.cos(4 * np.pi * t / 4)) / 2.0
        np.testing.assert_allclose(inst.pi_true, expected, rtol=1e-12)

    def test_d2_scale_coefficients(self):
        inst = generate(DesignSpec("D2", 3, 3, 4, seed=1))
        np.testing.assert_allclose(inst.scale_coef, [0.125, 0.25, 0.375, 0.5])

    def test_d1_has_no_scale_coefficients(self):
        inst = generate(DesignSpec("D1", 3, 3, 4, seed=1))
        assert inst.scale_coef is None

    def test_theta_support(self):
        inst = generate(DesignSpec("D1", 4, 4, 3, seed=2))
        np.testing.assert_array_equal(inst.theta_true, [1.0, 1.0, 1.0])
        inst = generate(DesignSpec("D1", 4, 4, 14, seed=2))
        assert int(np.sum(inst.theta_true != 0)) == 10
        np.testing.assert_array_equal(inst.theta_true[:10], np.ones(10))

    def test_cosine_pi_is_rank_one(self):
        for design in ("D1", "D2"):
            inst = generate(DesignSpec(design, 12, 15, 2, seed=3))
            assert np.linalg.matrix_rank(inst.pi_true) == 1

    def test_random_pi_rank_and_scale(self):
        for design in ("D3", "D4"):
            inst = generate(DesignSpec(design, 20, 25, 2, seed=4))
            assert np.linalg.matrix_rank(inst.pi_true) <= 5
            # sum of c_k u_k v_k' with unit u, v and c <= 1/4 has small spectral norm
            assert np.linalg.norm(inst.pi_true, 2) <= 1.25 + 1e-12

    def test_median_surface_is_signal_part(self):
        for design in ("D1", "D2", "D3", "D4"):
            inst = generate(DesignSpec(design, 6, 7, 3, seed=5))
            expected = inst.data.x @ inst.theta_true + inst.pi_true
            np.testing.assert_allclose(inst.true_median_surface, expected, rtol=1e-12)

    def test_bit_identical_reproducibility(self):
        for design in ("D1", "D4"):
            spec = DesignSpec(design, 10, 11, 3, seed=6)
            a, b = generate(spec), generate(spec)
            assert np.array_equal(a.data.y, b.data.y)
            assert np.array_equal(a.data.x, b.data.x)
            assert np.array_equal(a.pi_true, b.pi_true)

    def test_different_seeds_differ(self):
        a = generate(DesignSpec("D1", 5, 5, 2, seed=7))
        b = generate(DesignSpec("D1", 5, 5, 2, seed=8))
        assert not np.array_equal(a.data.y, b.data.y)

    def test_residual_signs_balanced_location_designs(self):
        inst = generate(DesignSpec("D1", 60, 60, 2, seed=9))
        resid = inst.data.y - inst.true_median_surface
        frac = np.mean(resid > 0)
        bound = 3 * 0.5 / np.sqrt(resid.size)
        assert abs(frac - 0.5) <= bound

    def test_residual_signs_balanced_scale_designs(self):
        # residual is (X' theta_bar) eps, symmetric conditional on X
        for design in ("D2", "D4"):
            inst = generate(DesignSpec(design, 60, 60, 3, seed=10))
            resid = inst.data.y - inst.true_median_surface
            frac = np.mean(resid > 0)
            bound = 3 * 0.5 / np.sqrt(resid.size)
            assert abs(frac - 0.5) <= bound


class TestScaledT3:
    def test_moments_and_median(self):
        rng = np.random.default_rng(12)
        draws = sample_scaled_t3(1_000_000, rng)
        assert abs(draws.mean()) <= 0.01
        assert 0.9 <= draws.var() <= 1.1
        assert abs(np.median(draws)) <= 0.005

    def test_count_validation(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError):
            sample_scaled_t3(0, rng)
