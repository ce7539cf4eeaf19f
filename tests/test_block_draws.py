"""The block-drawn, in-place kernels against their round-by-round references.

``noisy_hard_threshold`` draws its selection noise a block of rows at a time
and transforms only the draws that can win their round; the gmm generator
builds its batch in one (n, d) array.  Both must reproduce the straightforward
formulations below bit for bit, consume the oracle identically, and stay
within their memory bounds.
"""

import math

import numpy as np
import pytest

from helpers import bits, traced_peak_bytes

import dpem.mechanisms as mechanisms
from dpem.mechanisms import (
    BLOCK_VALUES,
    _UNIFORM_CAP,
    NoiseOracle,
    PrivacyBudget,
    _laplace_from_uniform,
    noisy_hard_threshold,
    noisy_ht_scale,
    sample_laplace,
)
from dpem.models import ModelSpec, generate

BUDGET = PrivacyBudget(0.5, 1e-3)
NONPRIVATE = PrivacyBudget(math.inf, 1e-3)


def reference_laplace(scale, u):
    a = np.minimum(np.abs(u), _UNIFORM_CAP)
    return -scale * np.sign(u) * np.log1p(-2.0 * a)


def reference_noisy_hard_threshold(v, s, scale, oracle):
    """One fresh d-vector of Laplace noise per round, then one for the release."""
    v = np.asarray(v, dtype=float)
    d = v.size
    magnitudes = np.abs(v)
    support = np.empty(s, dtype=int)
    available = np.ones(d, dtype=bool)
    for i in range(s):
        w = reference_laplace(scale, oracle.uniform_centered(d))
        scores = np.where(available, magnitudes + w, -np.inf)
        j = int(np.argmax(scores))
        support[i] = j
        available[j] = False
    w_final = reference_laplace(scale, oracle.uniform_centered(d))
    values = np.zeros(d)
    values[support] = v[support] + w_final[support]
    return support, values


def reference_generate_gmm(spec, n, oracle):
    u = np.atleast_1d(oracle.uniform_centered(n))
    z = np.where(u >= 0.0, 1.0, -1.0)
    e = spec.sigma * np.atleast_2d(oracle.standard_normal((n, spec.d)))
    return z[:, None] * spec.true_beta + e


# lam of the peeling-sparse benchmark workload (n = 500, so delta = 1e-3 as in
# BUDGET): its Laplace scale, 6.39 at s = 100, is far above the magnitude gap
# of a standard normal v, about 4.
PEELING_LAM = 0.0351


def assert_matches_round_by_round(v, s, scale, seed):
    fast_oracle, ref_oracle = NoiseOracle(seed), NoiseOracle(seed)

    sel = noisy_hard_threshold(v, s, scale, fast_oracle)
    ref_support, ref_values = reference_noisy_hard_threshold(v, s, scale, ref_oracle)

    np.testing.assert_array_equal(sel.support, ref_support)
    np.testing.assert_array_equal(bits(sel.values), bits(ref_values))
    # Both consumed the stream identically.
    np.testing.assert_array_equal(bits(fast_oracle.uniform_centered(9)),
                                  bits(ref_oracle.uniform_centered(9)))


def dominant(d, s, height):
    """s columns at ``height`` above a small normal floor: every row wants the same columns."""
    v = 0.01 * np.random.default_rng(d).standard_normal(d)
    v[::d // s] += height
    return v


class TestNoisyHardThresholdBlocks:
    # (1, 1) and (7, 7): s == d; (200, 10): one block; (5000, 100) and
    # (5000, 400): 13-row blocks, the last one short; (70000, 3): d > B, one
    # row per block.  Scale 0 two ways: lam = 0 never reads the budget, while
    # epsilon = inf calibrates a positive lam down to 0.  The oracle is
    # consumed either way.
    @pytest.mark.parametrize("d, s", [(1, 1), (200, 10), (5000, 400), (7, 7), (70000, 3),
                                      (5000, 100)])
    @pytest.mark.parametrize("lam, budget", [(0.0, BUDGET), (0.05, BUDGET), (0.05, NONPRIVATE),
                                             (PEELING_LAM, BUDGET)],
                             ids=["0.0", "0.05", "0.05-inf_eps", "peeling"])
    def test_bitwise_equal_to_round_by_round(self, d, s, lam, budget):
        seed = 1000 * d + s
        # Rounding makes ties, so lowest-index tie-breaking is exercised too.
        v = np.round(np.random.default_rng(seed).standard_normal(d), 1)
        assert_matches_round_by_round(v, s, noisy_ht_scale(lam, s, budget), seed)

    # The regimes that pruning treats apart, each against the reference that
    # transforms every draw:
    # - far-below-gap: noise far below the gap between the dominant columns
    #   and the rest, so every row of a block wants the same column and the
    #   rows that collide score their whole row (no draw is pruned: e^(gap/b)
    #   puts every cut below -1/2);
    # - near-gap: gap / b = 4, so rows are pruned and still collide;
    # - exp-overflow: gap / b = 4000, past the largest exponent exp takes;
    # - v=0: a zero gap, which prunes all but the top draws;
    # - small-d: cuts below 0 but above -1/2, and rows whose top draw an
    #   earlier row took, which score their whole row;
    # - b=1e-300 and b=1e300, on rounded v and on v = 0, and a subnormal scale,
    #   which turns pruning off.
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
            assert_matches_round_by_round(v, s, scale, seed)

    def test_pruning_transforms_few_draws(self, monkeypatch):
        # At the peeling-sparse scale almost every draw loses before its
        # inverse CDF is taken: on this v about 3 values per round reach it,
        # 271 of the (s + 1) * d = 505000 draws.
        d, s = 5000, 100
        transformed = []

        def counting(scale, u):
            transformed.append(np.size(u))
            return _laplace_from_uniform(scale, u)

        monkeypatch.setattr(mechanisms, "_laplace_from_uniform", counting)
        v = np.random.default_rng(6).standard_normal(d)
        sel = noisy_hard_threshold(v, s, noisy_ht_scale(PEELING_LAM, s, BUDGET), NoiseOracle(6))
        assert sel.support.size == s
        assert sum(transformed) < 0.002 * (s + 1) * d

    def test_block_draw_is_same_stream_as_row_draws(self):
        a, b = NoiseOracle(8), NoiseOracle(8)
        block = a.uniform_centered((4, 6))
        rows = np.stack([b.uniform_centered(6) for _ in range(4)])
        np.testing.assert_array_equal(bits(block), bits(rows))


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
        # Two block draws of at most B values each (the next is drawn while
        # the last is still held), plus the cut mask, the kept draws' scores
        # and a few d-vectors; drawing all (s + 1) * d values at once would
        # take 16 MB.
        assert peak < 2 * BLOCK_VALUES * 8 + 8 * d * 8

    def test_generate_gmm_memory_is_one_batch(self):
        n, d = 500, 5000
        beta = np.zeros(d)
        beta[:10] = 1.0 / math.sqrt(10)
        spec = ModelSpec("gmm", d, 0.5, beta)
        peak, batch = traced_peak_bytes(lambda: generate(spec, n, NoiseOracle(2)))
        assert batch.y.shape == (n, d)
        assert peak < 1.5 * batch.y.nbytes
