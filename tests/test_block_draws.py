"""The one-draw and in-place kernels against their round-by-round references.

``noisy_hard_threshold`` samples its ``s`` exponential-mechanism rounds from
one Gumbel draw per coordinate; the gmm generator builds its batch in one
(n, d) array.  Both must reproduce the straightforward formulations in
``references.py`` and below bit for bit, consume the oracle identically, and
stay within their memory bounds.  The selection must also follow the law of
sequential exponential-mechanism rounds.
"""

import math

import numpy as np
import pytest

from helpers import bits, traced_peak_bytes
from references import exponential_peeling_law, gumbel_peeling
from references import laplace_from_uniform as reference_laplace

import dpem.mechanisms as mechanisms
from dpem.mechanisms import (
    _UNIFORM_CAP,
    NoiseOracle,
    PrivacyBudget,
    _laplace_from_uniform,
    exact_top_k,
    noisy_hard_threshold,
    noisy_ht_scale,
    sample_laplace,
)
from dpem.models import ModelSpec, generate

BUDGET = PrivacyBudget(0.5, 1e-3)
NONPRIVATE = PrivacyBudget(math.inf, 1e-3)


def reference_generate_gmm(spec, n, oracle):
    u = np.atleast_1d(oracle.uniform_centered(n))
    z = np.where(u >= 0.0, 1.0, -1.0)
    e = spec.sigma * np.atleast_2d(oracle.standard_normal((n, spec.d)))
    return z[:, None] * spec.true_beta + e


# lam of the peeling-sparse benchmark workload (n = 500, so delta = 1e-3 as in
# BUDGET): its scale, 6.39 at s = 100, is far above the magnitude gap of a
# standard normal v, about 4.
PEELING_LAM = 0.0351


def assert_matches_round_by_round(v, s, scale, seed):
    fast_oracle, ref_oracle = NoiseOracle(seed), NoiseOracle(seed)

    sel = noisy_hard_threshold(v, s, scale, fast_oracle)
    ref = gumbel_peeling(v, s, scale, ref_oracle)

    np.testing.assert_array_equal(sel.support, ref.support)
    np.testing.assert_array_equal(bits(sel.values), bits(ref.values))
    # Both consumed the stream identically.
    np.testing.assert_array_equal(bits(fast_oracle.uniform_centered(9)),
                                  bits(ref_oracle.uniform_centered(9)))


def assert_exact_at_scale_zero(v, s, seed):
    sel = noisy_hard_threshold(v, s, 0.0, NoiseOracle(seed))
    exact = exact_top_k(v, s)
    np.testing.assert_array_equal(sel.support, exact.support)
    np.testing.assert_array_equal(bits(sel.values), bits(exact.values))


def dominant(d, s, height):
    """s columns at ``height`` above a small normal floor."""
    v = 0.01 * np.random.default_rng(d).standard_normal(d)
    v[::d // s] += height
    return v


class StubOracle:
    """Returns ``first`` for the first draw and 0.25 everywhere after it."""

    def __init__(self, first):
        self.first = np.asarray(first, dtype=float)

    def uniform_centered(self, size=None):
        first, self.first = self.first, None
        return first.copy() if first is not None else np.full(size, 0.25)


class TestNoisyHardThresholdBlocks:
    # (1, 1) and (7, 7): s == d; (200, 10), (5000, 100) and (5000, 400): the
    # benchmark shapes; (70000, 3): d above mechanisms.BLOCK_VALUES.  Scale 0
    # two ways: lam = 0 never reads the budget, while epsilon = inf calibrates
    # a positive lam down to 0.  The oracle is consumed either way.
    @pytest.mark.parametrize("d, s", [(1, 1), (200, 10), (5000, 400), (7, 7), (70000, 3),
                                      (5000, 100)])
    @pytest.mark.parametrize("lam, budget", [(0.0, BUDGET), (0.05, BUDGET), (0.05, NONPRIVATE),
                                             (PEELING_LAM, BUDGET)],
                             ids=["0.0", "0.05", "0.05-inf_eps", "peeling"])
    def test_bitwise_equal_to_round_by_round(self, d, s, lam, budget):
        seed = 1000 * d + s
        # Rounding makes ties, so lowest-index tie-breaking is exercised too.
        v = np.round(np.random.default_rng(seed).standard_normal(d), 1)
        scale = noisy_ht_scale(lam, s, budget)
        assert_matches_round_by_round(v, s, scale, seed)
        if scale == 0.0:
            assert_exact_at_scale_zero(v, s, seed)

    # Inputs that stress the selection, named for the regimes that the pruned
    # Laplace peeling once treated apart.  At scale 0 each must give exact
    # top-s, and at its own scale the round-by-round result:
    # - far-below-gap and near-gap: s dominant columns, at gap / b = 500 and 4;
    # - exp-overflow: gap / b = 4000 on rounded v, so many ties;
    # - v=0: every score ties at scale 0;
    # - small-d: s == d = 5, evenly spaced;
    # - b=1e-300: noise that rounds away against |v|, so ties in |v| decide;
    # - v=0-b=1e-300: the same noise, which alone decides on v = 0;
    # - b=subnormal: noise that underflows to a few subnormal steps, so most
    #   scores tie and the index decides;
    # - b=1e300: a scale near the refused ones, where the noise dominates.
    @pytest.mark.parametrize("v, s, scale", [
        (dominant(200, 10, 5.0), 10, 0.01),
        (dominant(5000, 100, 4.0), 100, 1.0),
        (np.round(np.random.default_rng(3).standard_normal(5000), 1), 100, 1e-3),
        (np.zeros(5000), 100, 1.0),
        (np.array([0.0, 0.3, 0.6, 0.9, 1.2]), 5, 1.0),
        (np.round(np.random.default_rng(4).standard_normal(200), 1), 10, 1e-300),
        (np.zeros(200), 10, 1e-300),
        (np.round(np.random.default_rng(5).standard_normal(200), 1), 10, 1e300),
        (np.zeros(200), 10, 5e-324),
    ], ids=["far-below-gap", "near-gap", "exp-overflow", "v=0", "small-d", "b=1e-300",
            "v=0-b=1e-300", "b=1e300", "b=subnormal"])
    def test_bitwise_equal_in_each_pruning_regime(self, v, s, scale):
        for seed in range(3):
            assert_exact_at_scale_zero(v, s, seed)
            assert_matches_round_by_round(v, s, scale, seed)

    def test_pruning_transforms_few_draws(self, monkeypatch):
        # Only the release goes through the Laplace inverse CDF: s of the
        # d + s draws.
        d, s = 5000, 100
        transformed = []

        def counting(scale, u):
            transformed.append(np.size(u))
            return _laplace_from_uniform(scale, u)

        monkeypatch.setattr(mechanisms, "_laplace_from_uniform", counting)
        v = np.random.default_rng(6).standard_normal(d)
        sel = noisy_hard_threshold(v, s, noisy_ht_scale(PEELING_LAM, s, BUDGET), NoiseOracle(6))
        assert sel.support.size == s
        assert transformed == [s]

    def test_block_draw_is_same_stream_as_row_draws(self):
        a, b = NoiseOracle(8), NoiseOracle(8)
        block = a.uniform_centered((4, 6))
        rows = np.stack([b.uniform_centered(6) for _ in range(4)])
        np.testing.assert_array_equal(bits(block), bits(rows))

    @pytest.mark.parametrize("d, s", [(5, 2), (200, 10), (5000, 400)])
    def test_consumes_d_plus_s_uniforms(self, d, s):
        used, fresh = NoiseOracle(d), NoiseOracle(d)
        v = np.random.default_rng(d).standard_normal(d)
        noisy_hard_threshold(v, s, 0.5, used)
        fresh.uniform_centered(d + s)
        np.testing.assert_array_equal(bits(used.uniform_centered(7)),
                                      bits(fresh.uniform_centered(7)))

    def test_zero_uniform_never_gives_nan(self):
        # u = 0 at coordinates 1 and 3, where 0 * log(-log 0) would be NaN.
        v = np.array([0.5, 3.0, 1.0, 2.0, 0.0])
        first = np.array([0.1, -0.5, 0.2, -0.5, 0.3])
        with np.errstate(invalid="raise"):
            live = noisy_hard_threshold(v, 4, 0.7, StubOracle(first))
            exact = noisy_hard_threshold(v, 4, 0.0, StubOracle(first))
        # At a positive scale both score -inf: they come last, the lower index first.
        assert live.support.tolist() == [2, 4, 0, 1]
        assert not np.isnan(live.values).any()
        np.testing.assert_array_equal(exact.support, exact_top_k(v, 4).support)
        np.testing.assert_array_equal(bits(exact.values), bits(exact_top_k(v, 4).values))

    def test_ordered_top_two_follows_sequential_rounds(self):
        # 40000 draws of the ordered top 2 of 4 against the exact law of two
        # sequential exponential-mechanism rounds: a chi-square test on the 12
        # ordered pairs (11 degrees of freedom) at a fixed seed.
        v, scale, draws = np.array([0.0, -0.5, 1.0, 1.6]), 0.6, 40000
        law = exponential_peeling_law(v, 2, scale)
        oracle = NoiseOracle(2019)
        counts = dict.fromkeys(law, 0)
        for _ in range(draws):
            counts[tuple(noisy_hard_threshold(v, 2, scale, oracle).support.tolist())] += 1
        expected = np.array([draws * p for p in law.values()])
        observed = np.array([counts[pair] for pair in law])
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        assert chi2_survival(chi2, len(law) - 1) > 1e-3, chi2


def chi2_survival(x, k):
    """P[X > x] for X chi-square with k degrees of freedom: 1 - P(k/2, x/2), by its series."""
    a, t = k / 2.0, x / 2.0
    term = math.exp(a * math.log(t) - t - math.lgamma(a + 1.0))
    total, n = 0.0, 0
    while term > 1e-17 * total or n < 10:
        total += term
        n += 1
        term *= t / (a + n)
    return 1.0 - total


class TestLaplaceTransform:
    @pytest.mark.parametrize("scale", [0.0, 1e-300, 9.0, 1e300])
    def test_copysign_form_bitwise_equal_to_sign_form(self, scale):
        edges = [0.0, -0.5, _UNIFORM_CAP, -_UNIFORM_CAP, 5e-324, -5e-324]
        u = np.concatenate([edges, NoiseOracle(4242).uniform_centered(1_000_000)])
        expected = bits(reference_laplace(scale, u))
        np.testing.assert_array_equal(bits(_laplace_from_uniform(scale, u)), expected)
        for x in edges:
            assert bits(_laplace_from_uniform(scale, x)) == bits(reference_laplace(scale, x))

    def test_scalar_draw(self):
        x = sample_laplace(2.7, NoiseOracle(3))
        assert np.ndim(x) == 0
        assert bits(x) == bits(reference_laplace(2.7, NoiseOracle(3).uniform_centered()))


class TestGenerateGmmInPlace:
    def test_bitwise_equal_to_broadcast_form(self):
        beta = np.zeros(40)
        beta[:6] = [0.5, -0.25, 1.0, -1.0, 0.0, 3.0]
        spec = ModelSpec("gmm", 40, 0.7, beta)
        got = generate(spec, 300, NoiseOracle(17)).y
        expected = reference_generate_gmm(spec, 300, NoiseOracle(17))
        np.testing.assert_array_equal(bits(got), bits(expected))


class TestAllocationBounds:
    def test_noisy_hard_threshold_memory_is_block_sized(self):
        d, s = 5000, 400
        v = np.random.default_rng(0).standard_normal(d)
        oracle = NoiseOracle(1)
        scale = noisy_ht_scale(0.05, s, BUDGET)
        peak, sel = traced_peak_bytes(lambda: noisy_hard_threshold(v, s, scale, oracle))
        assert sel.support.size == s
        # O(d): |v|, the scores, the partitioned copy, the values and a
        # boolean mask, plus O(s) for the candidates; s rounds of d draws
        # each would take 16 MB.
        assert peak < 6 * d * 8

    def test_generate_gmm_memory_is_one_batch(self):
        n, d = 500, 5000
        beta = np.zeros(d)
        beta[:10] = 1.0 / math.sqrt(10)
        spec = ModelSpec("gmm", d, 0.5, beta)
        peak, batch = traced_peak_bytes(lambda: generate(spec, n, NoiseOracle(2)))
        assert batch.y.shape == (n, d)
        assert peak < 1.5 * batch.y.nbytes
