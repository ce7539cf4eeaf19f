import math
from itertools import combinations

import numpy as np
import pytest

from helpers import SliceRecorder
from references import finite_diff_grad, q_value

from dpem import models
from dpem.em_engine import EmConfig, nonprivate_em
from dpem.harness import estimation_errors
from dpem.mechanisms import NoiseOracle, PrivacyBudget, exact_top_k
from dpem.models import GmmBatch, ModelSpec, RmcBatch, generate_gmm

# epsilon = inf: the budget that T = inf requires.
NONPRIVATE = PrivacyBudget(math.inf, 1e-3)


class TestExactTopK:
    def test_examples(self):
        sel = exact_top_k(np.array([5.0, 1.0, 3.0, 2.0]), 2)
        np.testing.assert_array_equal(sel.values, [5.0, 0.0, 3.0, 0.0])
        np.testing.assert_array_equal(sel.support, [0, 2])

        sel = exact_top_k(np.array([1.0, 1.0, 1.0]), 2)
        np.testing.assert_array_equal(sorted(sel.support), [0, 1])

        v = np.array([0.1, -0.4, 0.0])
        np.testing.assert_array_equal(exact_top_k(v, 3).values, v)
        # A whole-number float is a count.
        np.testing.assert_array_equal(exact_top_k(v, 2.0).support, [1, 0])

    def test_errors(self):
        with pytest.raises(ValueError):
            exact_top_k(np.zeros(3), 4)
        with pytest.raises(ValueError):
            exact_top_k(np.zeros(3), 0)

    def test_maximizes_l2_mass_exhaustively(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            d = int(rng.integers(2, 10))
            if rng.random() < 0.5:
                v = rng.standard_normal(d)
            else:
                v = rng.integers(-2, 3, size=d).astype(float)  # tie-heavy
            for s in range(1, d + 1):
                sel = exact_top_k(v, s)
                mass = float(np.sum(v[sel.support] ** 2))
                best = max(sum(v[list(c)] ** 2) for c in combinations(range(d), s))
                assert mass == pytest.approx(best, abs=1e-12)


class TestQValue:
    def test_gmm_zero_beta(self):
        y = np.array([[1.0, 2.0]])
        got = q_value("gmm", np.zeros(2), np.zeros(2), GmmBatch(y), 1.0)
        assert got == pytest.approx(-np.sum(y**2) / 2, rel=1e-12)

    def test_gmm_frozen_value(self):
        got = q_value("gmm", np.array([1.0]), np.array([1.0]), GmmBatch(np.array([[2.0]])), 1.0)
        assert got == pytest.approx(-0.9768116880884707, rel=1e-12)

    def test_rmc_fully_observed_collapses_to_least_squares(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((12, 3))
        y = rng.standard_normal(12)
        batch = RmcBatch(x, np.ones((12, 3)), y)
        beta_prime = rng.standard_normal(3)
        expected = np.mean(y * (x @ beta_prime) - 0.5 * (x @ beta_prime) ** 2)
        got = q_value("rmc", beta_prime, rng.standard_normal(3), batch, 0.8)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal((15, 3))
        perm = rng.permutation(15)
        beta = rng.standard_normal(3)
        a = q_value("gmm", beta, beta, GmmBatch(y), 1.0)
        b = q_value("gmm", beta, beta, GmmBatch(y[perm]), 1.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            q_value("abc", np.zeros(1), np.zeros(1), GmmBatch(np.zeros((1, 1))), 1.0)


class TestFiniteDiff:
    def test_exact_on_quadratic_objectives(self):
        # Every surrogate objective here is quadratic in its first argument,
        # so the central difference has no O(h^2) truncation term: the
        # mismatch is pure roundoff (~eps/h) at any step size.
        from dpem.models import gmm_truncated_grad

        rng = np.random.default_rng(3)
        beta = rng.standard_normal(4) * 0.5
        batch = GmmBatch(rng.standard_normal((30, 4)))
        exact = gmm_truncated_grad(beta, batch, 1.0, math.inf)
        for h in (1e-2, 1e-4):
            fd = finite_diff_grad("gmm", beta, batch, 1.0, h=h)
            assert np.linalg.norm(fd - exact) < 1e-9

    def test_roundoff_grows_as_h_shrinks(self):
        # The flip side of exactness: with no truncation term, shrinking h
        # can only amplify cancellation error.
        from dpem.models import gmm_truncated_grad

        rng = np.random.default_rng(4)
        beta = rng.standard_normal(4) * 0.5
        batch = GmmBatch(rng.standard_normal((30, 4)))
        exact = gmm_truncated_grad(beta, batch, 1.0, math.inf)
        coarse = np.linalg.norm(finite_diff_grad("gmm", beta, batch, 1.0, h=1e-3) - exact)
        fine = np.linalg.norm(finite_diff_grad("gmm", beta, batch, 1.0, h=1e-8) - exact)
        assert coarse < fine

    def test_rejects_bad_h(self):
        with pytest.raises(ValueError):
            finite_diff_grad("gmm", np.zeros(1), GmmBatch(np.zeros((1, 1))), 1.0, h=0.0)


class TestNonprivateEm:
    def _spec_and_data(self, seed=4, d=10, n=5000, sigma=0.5):
        beta_star = np.ones(d) / math.sqrt(d)
        spec = ModelSpec("gmm", d, sigma, beta_star)
        return spec, generate_gmm(spec, n, NoiseOracle(seed)), beta_star

    def test_rejects_empty_batch(self):
        spec, data, beta_star = self._spec_and_data(n=10)
        config = EmConfig(eta=0.5, T=math.inf, N0=2, budget=NONPRIVATE)
        with pytest.raises(ValueError, match="batch must be nonempty"):
            nonprivate_em(spec, data[10:], config, beta_star)

    def test_zero_step_is_constant(self):
        spec, data, beta_star = self._spec_and_data()
        config = EmConfig(eta=0.0, T=math.inf, N0=4, budget=NONPRIVATE)
        betas = nonprivate_em(spec, data, config, beta_star * 0.9)
        assert np.all(betas == betas[0])

    def test_batch_bounds_one_full_batch_per_iteration(self, monkeypatch):
        # Each of the N0 iterations takes its gradient over the whole batch,
        # unsliced.
        spec, data, beta_star = self._spec_and_data(n=300)
        config = EmConfig(eta=0.5, T=math.inf, N0=4, budget=NONPRIVATE)
        batch, seen, real = SliceRecorder(data), [], models.raw_grad

        def spy(spec, beta, read):
            seen.append(read)
            return real(spec, beta, read.batch)

        monkeypatch.setattr(models, "raw_grad", spy)
        betas = nonprivate_em(spec, batch, config, beta_star)
        assert len(seen) == 4 and all(read is batch for read in seen)
        assert batch.reads == []
        assert betas.shape == (5, spec.d)

    def test_error_contracts_from_perturbed_start_at_high_snr(self):
        # From a start above the statistical floor the error decreases
        # monotonically toward it (empirical contraction at high SNR).
        spec, data, beta_star = self._spec_and_data(sigma=0.2)
        config = EmConfig(eta=0.5, T=math.inf, N0=8, budget=NONPRIVATE)
        direction = NoiseOracle(9).standard_normal(10)
        beta0 = beta_star + 0.3 * direction / np.linalg.norm(direction)
        errors, _ = estimation_errors(nonprivate_em(spec, data, config, beta0), beta_star)
        # Strict decrease above the floor; tiny fluctuations once the iterate
        # settles at the empirical optimum are allowed.
        assert np.all(np.diff(errors) <= 1e-3)
        assert errors[-1] < errors[0] / 10

    def test_statistical_recovery_single_seed(self):
        spec, data, beta_star = self._spec_and_data()
        config = EmConfig(eta=0.5, T=math.inf, N0=9, budget=NONPRIVATE)
        beta0 = beta_star + 0.1 * NoiseOracle(5).standard_normal(10)
        betas = nonprivate_em(spec, data, config, beta0)
        assert np.linalg.norm(betas[-1] - beta_star) <= 3 * math.sqrt(10 / 5000)
