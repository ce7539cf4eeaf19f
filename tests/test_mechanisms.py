import math

import numpy as np
import pytest

from dpem.mechanisms import (
    _UNIFORM_CAP,
    NoiseOracle,
    _laplace_from_uniform,
    PrivacyBudget,
    derive_seed,
    exact_top_k,
    gaussian_noise_std,
    noisy_hard_threshold,
    noisy_ht_scale,
    sample_gaussian,
    sample_laplace,
)

BUDGET = PrivacyBudget(0.5, 1e-3)
# epsilon = inf: every noise scale is exactly 0, whatever the oracle draws.
NONPRIVATE = PrivacyBudget(math.inf, 1e-3)


class TestSamplers:
    @pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan, True])
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

    @pytest.mark.parametrize("bad", [-0.5, math.inf, math.nan, True])
    def test_gaussian_rejects_bad_std(self, bad):
        with pytest.raises(ValueError):
            sample_gaussian(bad, NoiseOracle(0))

    @pytest.mark.parametrize("sampler", [sample_laplace, sample_gaussian])
    def test_zero_scale_draws_exact_zeros(self, sampler):
        # Scale 0 is the epsilon = inf release: exact zeros, drawn from the
        # stream as a positive scale would, so later draws do not shift.
        zero, live = NoiseOracle(6), NoiseOracle(6)
        assert np.all(sampler(0.0, zero, size=1000) == 0.0)
        sampler(1.0, live, size=1000)
        np.testing.assert_array_equal(zero.standard_normal(5), live.standard_normal(5))

    def test_laplace_refuses_a_scale_whose_draws_overflow(self):
        # The largest unit draw is -log1p(-2 * cap) = 53 ln 2; a scale whose
        # product with it is finite keeps even that draw finite.
        with pytest.raises(ValueError, match="^scale must be a finite nonnegative number"):
            sample_laplace(1e308, NoiseOracle(1), 5)
        largest = np.nextafter(np.finfo(float).max / (53 * math.log(2)), 0.0)
        extremes = _laplace_from_uniform(largest, np.array([_UNIFORM_CAP, -_UNIFORM_CAP]))
        assert np.all(np.isfinite(extremes))
        assert np.all(np.isfinite(sample_laplace(largest, NoiseOracle(1), 1000)))
        with pytest.raises(ValueError, match="^scale must be"):
            sample_laplace(np.nextafter(largest * 1.0000001, np.inf), NoiseOracle(1))

    @pytest.mark.parametrize("scale_fn", [noisy_ht_scale, gaussian_noise_std])
    def test_scale_functions_refuse_a_scale_whose_draws_overflow(self, scale_fn):
        with pytest.raises(ValueError, match="must be a finite nonnegative number whose product"):
            scale_fn(1e-3, 10, PrivacyBudget(1e-310, 1e-5))

    def test_gaussian_raises_rather_than_return_inf(self):
        with pytest.raises(ValueError, match="^std_dev must be a finite nonnegative number whose"):
            sample_gaussian(1.7e308, NoiseOracle(1), 100)

    def test_gaussian_refusal_does_not_depend_on_the_draw(self):
        # 1e308 is finite, yet only some seeds' draws overflow at it; the
        # refusal is the Laplace scales' bound, so every seed refuses, and
        # the largest std_dev under that bound draws finite values.
        for seed in range(10):
            with pytest.raises(ValueError, match="^std_dev must be a finite nonnegative number"):
                sample_gaussian(1e308, NoiseOracle(seed), 10)
        largest = np.nextafter(np.finfo(float).max / (53 * math.log(2)), 0.0)
        for seed in range(10):
            assert np.all(np.isfinite(sample_gaussian(largest, NoiseOracle(seed), 10)))

    def test_gaussian_scalar_draw(self):
        x = sample_gaussian(1.3, NoiseOracle(3))
        assert np.ndim(x) == 0
        assert x == 1.3 * NoiseOracle(3).standard_normal()

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

    def test_takes_only_a_seed(self):
        # The stream is the oracle's whole state; there is no noise-off mode.
        with pytest.raises(TypeError):
            NoiseOracle(0, "silent")
        assert not hasattr(NoiseOracle(0), "silent")

    def test_repr_names_the_seed(self):
        assert repr(NoiseOracle(42)) == "NoiseOracle(seed=42)"

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
    def test_scale_rejects_uncertified_lam(self, scale_fn):
        # Zero sensitivity calibrates to exactly +0.0 under a finite budget;
        # a negative, NaN, infinite or bool one is never a certified
        # sensitivity, whatever the budget.
        got = scale_fn(0.0, 10, BUDGET)
        assert got == 0.0 and math.copysign(1.0, got) == 1.0
        for lam in (-0.004, math.nan, math.inf, True):
            for budget in (BUDGET, NONPRIVATE):
                with pytest.raises(ValueError, match="lam"):
                    scale_fn(lam, 10, budget)

    @pytest.mark.parametrize("bad", [2.5, True, 0, -3])
    @pytest.mark.parametrize("fn, name", [
        (lambda k: noisy_ht_scale(0.1, k, BUDGET), "s"),
        (lambda k: gaussian_noise_std(0.1, k, BUDGET), "d"),
        (lambda k: noisy_hard_threshold(np.zeros(5), k, 0.1, NoiseOracle(0)), "s"),
        (lambda k: exact_top_k(np.zeros(5), k), "s"),
    ], ids=["noisy_ht_scale", "gaussian_noise_std", "noisy_hard_threshold", "exact_top_k"])
    def test_count_must_be_a_whole_number(self, fn, name, bad):
        # A bool or fractional s (or d) is not a count: a ValueError naming
        # it, not a scale at a fractional count, a one-coordinate selection
        # or numpy's TypeError.
        with pytest.raises(ValueError, match=f"^{name} must be a positive integer"):
            fn(bad)

    @pytest.mark.parametrize("select", [
        lambda v, s: exact_top_k(v, s),
        lambda v, s: noisy_hard_threshold(v, s, 0.1, NoiseOracle(0)),
    ], ids=["exact_top_k", "noisy_hard_threshold"])
    def test_selection_input_contract(self, select):
        # Both sparse selections take a 1-D v and at most d coordinates.
        with pytest.raises(ValueError, match=r"^v must be one-dimensional, got shape \(2, 3\)"):
            select(np.zeros((2, 3)), 1)
        with pytest.raises(ValueError, match=r"^s must not exceed the dimension d \(6 > 5\)"):
            select(np.zeros(5), 6)
        # Both refuse a non-finite coordinate, on which they would disagree:
        # an argmax selects a NaN, a sort skips it.
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="^v must have finite coordinates$"):
                select(np.array([bad, 1.0, 2.0, 0.5]), 1)

    def test_overflowing_scale_is_refused(self):
        # An infinite Laplace scale, what epsilon = 1e-310 would calibrate
        # lam = 1 to: peeling must refuse it rather than release +-inf values.
        with pytest.raises(ValueError, match="^scale must be a finite nonnegative number"):
            noisy_hard_threshold(np.arange(6.0), 3, math.inf, NoiseOracle(1))

    def test_finite_scale_that_overflows_a_draw_is_refused(self):
        # A finite scale of 1e307 would release values past the largest float
        # on the draws nearest to |u| = 1/2: refused by the same check as the
        # sampler's, not released as +-inf.
        with pytest.raises(ValueError, match="^scale must be a finite nonnegative number"):
            noisy_hard_threshold(np.arange(6.0), 3, 1e307, NoiseOracle(1))

    @pytest.mark.parametrize("bad", [-0.01, math.nan, True])
    def test_rejects_bad_scale(self, bad):
        # The scale it is handed passes the check sample_laplace applies.
        with pytest.raises(ValueError, match="^scale must be a finite nonnegative number"):
            noisy_hard_threshold(np.arange(6.0), 3, bad, NoiseOracle(1))

    @pytest.mark.parametrize("scale_fn", [noisy_ht_scale, gaussian_noise_std])
    @pytest.mark.parametrize("lam", [1e-12, 0.004, 50.0])
    def test_scale_is_zero_at_inf_epsilon(self, scale_fn, lam):
        # epsilon = inf is the one way to switch noise off: a positive
        # certified sensitivity is calibrated to exactly +0.0.
        got = scale_fn(lam, 10, NONPRIVATE)
        assert got == 0.0 and math.copysign(1.0, got) == 1.0

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

    def test_inf_epsilon_examples(self):
        oracle = NoiseOracle(0)
        scale = noisy_ht_scale(0.01, 2, NONPRIVATE)
        sel = noisy_hard_threshold(np.array([5.0, 1.0, 3.0, 2.0]), 2, scale, oracle)
        np.testing.assert_array_equal(sel.support, [0, 2])
        np.testing.assert_array_equal(sel.values, [5.0, 0.0, 3.0, 0.0])

        scale = noisy_ht_scale(0.01, 1, NONPRIVATE)
        sel = noisy_hard_threshold(np.array([-7.0, 0.0, 0.0]), 1, scale, oracle)
        np.testing.assert_array_equal(sel.support, [0])
        np.testing.assert_array_equal(sel.values, [-7.0, 0.0, 0.0])

    def test_select_all_returns_input(self):
        v = np.array([0.3, -2.0, 1.1, 0.0])
        sel = noisy_hard_threshold(v, 4, noisy_ht_scale(0.01, 4, NONPRIVATE), NoiseOracle(0))
        np.testing.assert_array_equal(sel.values, v)
        assert sorted(sel.support) == [0, 1, 2, 3]

    def test_errors(self):
        v = np.zeros(3)
        with pytest.raises(ValueError):
            noisy_hard_threshold(v, 4, 0.01, NoiseOracle(0))
        with pytest.raises(ValueError):
            noisy_hard_threshold(v, 0, 0.01, NoiseOracle(0))
        with pytest.raises(ValueError):
            noisy_hard_threshold(v, 2, -0.01, NoiseOracle(0))

    def test_support_size_and_off_support_zero_live(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(1, 15))
            s = int(rng.integers(1, d + 1))
            v = rng.standard_normal(d)
            scale = noisy_ht_scale(0.05, s, BUDGET)
            sel = noisy_hard_threshold(v, s, scale, NoiseOracle(int(rng.integers(1 << 30))))
            assert sel.support.size == s
            assert np.unique(sel.support).size == s
            off = np.setdiff1d(np.arange(d), sel.support)
            assert np.all(sel.values[off] == 0.0)

    def test_deterministic(self):
        v = np.array([0.5, -1.0, 2.0, 0.1, 0.0])
        scale = noisy_ht_scale(0.2, 3, BUDGET)
        a = noisy_hard_threshold(v, 3, scale, NoiseOracle(77))
        b = noisy_hard_threshold(v, 3, scale, NoiseOracle(77))
        np.testing.assert_array_equal(a.support, b.support)
        np.testing.assert_array_equal(a.values, b.values)

    def test_inf_epsilon_matches_exact_top_k(self):
        rng = np.random.default_rng(21)
        oracle = NoiseOracle(0)
        for d in range(1, 13):
            vs = [rng.standard_normal(d), rng.integers(-2, 3, size=d).astype(float), np.ones(d)]
            for v in vs:
                for s in range(1, d + 1):
                    sel = noisy_hard_threshold(v, s, noisy_ht_scale(0.1, s, NONPRIVATE), oracle)
                    ref = exact_top_k(v, s)
                    np.testing.assert_array_equal(sel.support, ref.support)
                    np.testing.assert_array_equal(sel.values, ref.values)

    def test_selected_set_dominates_unselected(self):
        # With zero noise, any unselected subset has l2 mass at most that of
        # an equal-size selected subset.
        from itertools import combinations

        rng = np.random.default_rng(33)
        oracle = NoiseOracle(0)
        for _ in range(20):
            d = int(rng.integers(4, 9))
            s = int(rng.integers(2, d))
            v = np.round(rng.standard_normal(d), 1)  # rounding induces ties
            sel = noisy_hard_threshold(v, s, noisy_ht_scale(0.1, s, NONPRIVATE), oracle)
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
        sel = noisy_hard_threshold(v, 2, noisy_ht_scale(0.0, 2, BUDGET), NoiseOracle(5))
        ref = exact_top_k(v, 2)
        np.testing.assert_array_equal(sel.values, ref.values)

    def test_infinite_epsilon_means_no_noise(self):
        v = np.array([1.0, -3.0, 0.5, 0.2])
        sel = noisy_hard_threshold(v, 2, noisy_ht_scale(0.3, 2, NONPRIVATE), NoiseOracle(5))
        np.testing.assert_array_equal(sel.values, exact_top_k(v, 2).values)
