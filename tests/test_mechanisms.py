import math

import numpy as np
import pytest

from dpem.mechanisms import (
    NoiseOracle,
    PrivacyBudget,
    derive_seed,
    gaussian_noise_std,
    noisy_hard_threshold,
    noisy_ht_scale,
    sample_gaussian,
    sample_laplace,
)
from dpem.oracle import exact_top_k

BUDGET = PrivacyBudget(0.5, 1e-3)


class TestSamplers:
    def test_laplace_silent_is_zero(self):
        oracle = NoiseOracle(3, "silent")
        assert sample_laplace(2.7, oracle) == 0.0
        assert np.all(sample_laplace(2.7, oracle, size=10) == 0.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_laplace_rejects_bad_scale(self, bad):
        with pytest.raises(ValueError):
            sample_laplace(bad, NoiseOracle(0))

    def test_laplace_variance(self):
        # Var of Laplace(b) is 2 b^2.
        b = 1.7
        draws = sample_laplace(b, NoiseOracle(101), size=1_000_000)
        assert abs(draws.var() / (2 * b * b) - 1.0) < 0.05

    def test_laplace_absolute_median(self):
        # |X| has median b ln 2.
        b = 0.9
        draws = sample_laplace(b, NoiseOracle(102), size=1_000_000)
        frac = np.mean(np.abs(draws) > b * math.log(2))
        assert abs(frac - 0.5) < 0.01

    def test_gaussian_silent_is_zero(self):
        oracle = NoiseOracle(3, "silent")
        assert sample_gaussian(1.3, oracle) == 0.0

    @pytest.mark.parametrize("bad", [0.0, -0.5, math.inf])
    def test_gaussian_rejects_bad_std(self, bad):
        with pytest.raises(ValueError):
            sample_gaussian(bad, NoiseOracle(0))

    def test_gaussian_moments(self):
        sigma = 2.3
        draws = sample_gaussian(sigma, NoiseOracle(103), size=1_000_000)
        assert abs(draws.var() / sigma**2 - 1.0) < 0.05
        assert abs(np.mean(draws > 0) - 0.5) < 0.01


class TestNoiseOracle:
    def test_reproducible_stream(self):
        a = NoiseOracle(42)
        b = NoiseOracle(42)
        np.testing.assert_array_equal(a.standard_normal(100), b.standard_normal(100))
        np.testing.assert_array_equal(a.uniform_centered(50), b.uniform_centered(50))

    def test_different_seeds_differ(self):
        assert NoiseOracle(1).standard_normal() != NoiseOracle(2).standard_normal()

    def test_uniform_range(self):
        u = NoiseOracle(7).uniform_centered(100_000)
        assert u.min() >= -0.5 and u.max() < 0.5

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            NoiseOracle(0, "loud")

    def test_derive_seed_distinct(self):
        seeds = {derive_seed(5, "n", v, r) for v in (4000, 5000) for r in range(1000)}
        assert len(seeds) == 2000


class TestPrivacyBudget:
    def test_valid(self):
        PrivacyBudget(0.5, 1e-4)
        PrivacyBudget(math.inf, 0.5)

    @pytest.mark.parametrize("eps, delta", [
        (0.0, 0.1), (-1.0, 0.1), (1.0, 0.0), (1.0, 1.0),
        (True, 0.1), ("0.5", 0.1), ("abc", 0.1), (math.nan, 0.1),
        (1.0, True), (1.0, "0.1"), (1.0, math.nan),
    ])
    def test_invalid(self, eps, delta):
        with pytest.raises(ValueError):
            PrivacyBudget(eps, delta)


class TestNoisyHardThreshold:
    def test_scale_frozen_example(self):
        # lambda = 2 * 0.5 * 2 * 8 / 4000, s = 10, eps = 0.5, delta = 1/8000.
        lam = 2 * 0.5 * 2 * 8 / 4000
        scale = noisy_ht_scale(lam, 10, PrivacyBudget(0.5, 1 / 8000))
        assert scale == pytest.approx(0.2627197586453747, rel=1e-12)

    @pytest.mark.parametrize("scale_fn", [noisy_ht_scale, gaussian_noise_std])
    def test_scale_without_budget(self, scale_fn):
        # Both privatizers share one guard.  Zero sensitivity needs no
        # budget; a positive one cannot be calibrated without it; a negative,
        # NaN or infinite one is never a certified sensitivity.
        assert scale_fn(0.0, 10, None) == 0.0
        with pytest.raises(ValueError, match="budget"):
            scale_fn(0.004, 10, None)
        for lam in (-0.004, math.nan, math.inf):
            for budget in (None, BUDGET):
                with pytest.raises(ValueError, match="lam"):
                    scale_fn(lam, 10, budget)

    def test_scale_formula_audit(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            lam = float(rng.uniform(0, 0.1))
            s = int(rng.integers(1, 50))
            eps = float(rng.uniform(0.05, 3.0))
            delta = float(rng.uniform(1e-8, 0.2))
            expected = lam * (2.0 / eps) * math.sqrt(3.0 * s * (-math.log(delta)))
            got = noisy_ht_scale(lam, s, PrivacyBudget(eps, delta))
            assert got == pytest.approx(expected, rel=1e-12)

    def test_silent_examples(self):
        silent = NoiseOracle(0, "silent")
        sel = noisy_hard_threshold(np.array([5.0, 1.0, 3.0, 2.0]), 2, 0.01, BUDGET, silent)
        np.testing.assert_array_equal(sel.support, [0, 2])
        np.testing.assert_array_equal(sel.values, [5.0, 0.0, 3.0, 0.0])

        sel = noisy_hard_threshold(np.array([-7.0, 0.0, 0.0]), 1, 0.01, BUDGET, silent)
        np.testing.assert_array_equal(sel.support, [0])
        np.testing.assert_array_equal(sel.values, [-7.0, 0.0, 0.0])

    def test_select_all_returns_input(self):
        v = np.array([0.3, -2.0, 1.1, 0.0])
        sel = noisy_hard_threshold(v, 4, 0.01, BUDGET, NoiseOracle(0, "silent"))
        np.testing.assert_array_equal(sel.values, v)
        assert sorted(sel.support) == [0, 1, 2, 3]

    def test_errors(self):
        v = np.zeros(3)
        with pytest.raises(ValueError):
            noisy_hard_threshold(v, 4, 0.01, BUDGET, NoiseOracle(0))
        with pytest.raises(ValueError):
            noisy_hard_threshold(v, 0, 0.01, BUDGET, NoiseOracle(0))
        with pytest.raises(ValueError):
            noisy_hard_threshold(v, 2, -0.01, BUDGET, NoiseOracle(0))

    def test_support_size_and_off_support_zero_live(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(1, 15))
            s = int(rng.integers(1, d + 1))
            v = rng.standard_normal(d)
            sel = noisy_hard_threshold(v, s, 0.05, BUDGET, NoiseOracle(int(rng.integers(1 << 30))))
            assert sel.support.size == s
            assert np.unique(sel.support).size == s
            off = np.setdiff1d(np.arange(d), sel.support)
            assert np.all(sel.values[off] == 0.0)

    def test_deterministic(self):
        v = np.array([0.5, -1.0, 2.0, 0.1, 0.0])
        a = noisy_hard_threshold(v, 3, 0.2, BUDGET, NoiseOracle(77))
        b = noisy_hard_threshold(v, 3, 0.2, BUDGET, NoiseOracle(77))
        np.testing.assert_array_equal(a.support, b.support)
        np.testing.assert_array_equal(a.values, b.values)

    def test_silent_matches_exact_top_k(self):
        rng = np.random.default_rng(21)
        silent = NoiseOracle(0, "silent")
        for d in range(1, 13):
            vs = [rng.standard_normal(d), rng.integers(-2, 3, size=d).astype(float), np.ones(d)]
            for v in vs:
                for s in range(1, d + 1):
                    sel = noisy_hard_threshold(v, s, 0.1, BUDGET, silent)
                    ref = exact_top_k(v, s)
                    np.testing.assert_array_equal(sel.support, ref.support)
                    np.testing.assert_array_equal(sel.values, ref.values)

    def test_selected_set_dominates_unselected(self):
        # With zero noise, any unselected subset has l2 mass at most that of
        # an equal-size selected subset.
        from itertools import combinations

        rng = np.random.default_rng(33)
        silent = NoiseOracle(0, "silent")
        for _ in range(20):
            d = int(rng.integers(4, 9))
            s = int(rng.integers(2, d))
            v = np.round(rng.standard_normal(d), 1)  # rounding induces ties
            sel = noisy_hard_threshold(v, s, 0.1, BUDGET, silent)
            inside = list(sel.support)
            outside = [j for j in range(d) if j not in inside]
            for r in range(1, min(len(inside), len(outside), 3) + 1):
                best_out = max(
                    (sum(v[j] ** 2 for j in R2) for R2 in combinations(outside, r)),
                )
                worst_in = min(
                    (sum(v[j] ** 2 for j in R1) for R1 in combinations(inside, r)),
                )
                assert best_out <= worst_in + 1e-12

    def test_zero_sensitivity_means_no_noise(self):
        v = np.array([1.0, -3.0, 0.5])
        sel = noisy_hard_threshold(v, 2, 0.0, BUDGET, NoiseOracle(5))
        ref = exact_top_k(v, 2)
        np.testing.assert_array_equal(sel.values, ref.values)

    def test_infinite_epsilon_means_no_noise(self):
        v = np.array([1.0, -3.0, 0.5, 0.2])
        sel = noisy_hard_threshold(v, 2, 0.3, PrivacyBudget(math.inf, 1e-3), NoiseOracle(5))
        np.testing.assert_array_equal(sel.values, exact_top_k(v, 2).values)
