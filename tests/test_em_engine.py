import math

import numpy as np
import pytest

from helpers import SliceRecorder, bits, fit_geometric_decay
from references import ht_gradient_em

from dpem import em_engine
from dpem.em_engine import EmConfig, nonprivate_em, run_high_dim, run_low_dim
from dpem.harness import estimation_errors
from dpem.mechanisms import (NoiseOracle, PrivacyBudget, exact_top_k, gaussian_noise_std,
                             noisy_ht_scale, sample_gaussian)
from dpem.models import LazySample, ModelSpec, generate, sensitivity, truncated_grad

BUDGET = PrivacyBudget(0.5, 1e-3)
# epsilon = inf: every noise scale is exactly 0, whatever the oracle draws.
NONPRIVATE = PrivacyBudget(math.inf, 1e-3)


def sparse_beta(d, s, value=None):
    beta = np.zeros(d)
    beta[:s] = (1.0 / math.sqrt(s)) if value is None else value
    return beta


def private_reads(n, N0):
    """The rows ``(lo, hi)`` that each private driver reads, in order, from an n-row sample."""
    spec = ModelSpec("gmm", 4, 0.5, sparse_beta(4, 2))
    reads = []
    for run, s_hat in ((run_high_dim, 2), (run_low_dim, None)):
        batch = SliceRecorder(generate(spec, n, NoiseOracle(0)))
        run(spec, batch, EmConfig(0.5, 1.5, N0, BUDGET, s_hat), sparse_beta(4, 2), NoiseOracle(1))
        reads.append(batch.reads)
    return reads


class TestSplitBatches:
    # Both private drivers read batch t = rows [t m, t m + m), m = n // N0,
    # once each, in order, and never the n mod N0 trailing rows: every batch
    # has the size the sensitivity constants assume, and disjoint batches are
    # what parallel composition rests on.
    def test_even_split(self):
        assert private_reads(10, 2) == [[(0, 5), (5, 10)]] * 2

    def test_remainder_dropped(self):
        assert private_reads(10, 3) == [[(0, 3), (3, 6), (6, 9)]] * 2

    def test_singletons(self):
        assert private_reads(7, 7) == [[(i, i + 1) for i in range(7)]] * 2

    def test_errors(self):
        # N0 > n, an empty sample included, is refused by every driver; the
        # private ones refuse it before they read any batch.
        spec = ModelSpec("gmm", 4, 0.5, sparse_beta(4, 2))
        for n in (3, 0):
            data = generate(spec, 3, NoiseOracle(0))[:n]
            with pytest.raises(ValueError, match=f"at least N0 = 4 rows, got {n}$"):
                nonprivate_em(spec, data, EmConfig(0.5, 1.5, 4, BUDGET), sparse_beta(4, 2))
            for run, s_hat in ((run_high_dim, 2), (run_low_dim, None)):
                batch = SliceRecorder(data)
                with pytest.raises(ValueError, match=f"at least N0 = 4 rows, got {n}$"):
                    run(spec, batch, EmConfig(0.5, 1.5, 4, BUDGET, s_hat), sparse_beta(4, 2),
                        NoiseOracle(1))
                assert batch.reads == []

    @pytest.mark.parametrize("n, N0, name", [(2.5, 2, "n"), (5, True, "N0"),
                                             (True, 1, "n"), (5, 2.5, "N0")])
    def test_counts_must_be_whole_numbers(self, n, N0, name):
        # A run's batches are cut from its sample's size and EmConfig.N0, and
        # both refuse anything but a whole number: 2.5 used to give the float
        # bounds [(0.0, 1.0), (1.0, 2.0)], and N0 = True ran as N0 = 1.
        spec = ModelSpec("gmm", 4, 0.5, sparse_beta(4, 2))
        refusing = {"n": lambda: LazySample(spec, n, NoiseOracle(0)),
                    "N0": lambda: EmConfig(0.5, 1.5, N0, BUDGET)}[name]
        with pytest.raises(ValueError, match=f"^{name} must be a positive integer"):
            refusing()

    def test_disjoint_cover(self):
        for n, N0 in [(100, 7), (53, 9), (12, 12)]:
            for reads in private_reads(n, N0):
                seen = [i for lo, hi in reads for i in range(lo, hi)]
                assert seen == list(range(N0 * (n // N0)))


class TestEmConfig:
    def test_high_dim_requires_s_hat(self):
        spec, data, beta_star = make_instance("gmm", 5)
        config = EmConfig(eta=0.5, T=1.0, N0=3, budget=BUDGET)
        with pytest.raises(ValueError, match="s_hat"):
            run_high_dim(spec, data, config, beta_star, NoiseOracle(0))

    def test_low_dim_refuses_s_hat(self):
        # s_hat selects peeling's Laplace calibration, which the Gaussian
        # release must not draw at.
        spec, data, beta_star = make_instance("gmm", 5)
        config = EmConfig(eta=0.5, T=1.0, N0=3, budget=BUDGET, s_hat=3)
        with pytest.raises(ValueError, match="s_hat"):
            run_low_dim(spec, data, config, beta_star, NoiseOracle(0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(eta=-0.1, T=1.0, N0=3, s_hat=1, budget=BUDGET),
            dict(eta=0.5, T=0.0, N0=3, s_hat=1, budget=BUDGET),
            dict(eta=0.5, T=1.0, N0=0, s_hat=1, budget=BUDGET),
            dict(eta=True, T=1.0, N0=3, s_hat=1, budget=BUDGET),
            dict(eta="0.5", T=1.0, N0=3, s_hat=1, budget=BUDGET),
            dict(eta=0.5, T=True, N0=3, s_hat=1, budget=BUDGET),
            dict(eta=0.5, T="1.0", N0=3, s_hat=1, budget=BUDGET),
            dict(eta=0.5, T=1.0, N0=2.5, s_hat=1, budget=BUDGET),
            dict(eta=0.5, T=1.0, N0=True, s_hat=1, budget=BUDGET),
            dict(eta=0.5, T=1.0, N0=3, s_hat=True, budget=BUDGET),
            dict(eta=0.5, T=1.0, N0=3, s_hat="2", budget=BUDGET),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            EmConfig(**kwargs)

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_rejects_non_finite_eta(self, eta):
        with pytest.raises(ValueError, match="eta"):
            EmConfig(eta=eta, T=1.0, N0=3, budget=BUDGET, s_hat=1)

    @pytest.mark.parametrize("s_hat", [3, None], ids=["high_dim", "low_dim"])
    def test_inf_T_rejects_finite_epsilon(self, s_hat):
        # No truncation certifies no sensitivity, so it cannot carry a finite
        # epsilon.  test_budget_rule_same_in_both_drivers runs the legal cases.
        with pytest.raises(ValueError, match="T = inf"):
            EmConfig(eta=0.5, T=math.inf, N0=4, s_hat=s_hat, budget=PrivacyBudget(0.5, 1e-3))

    @pytest.mark.parametrize("s_hat", [3, None], ids=["high_dim", "low_dim"])
    def test_inf_T_rejects_missing_budget(self, s_hat):
        # A missing budget is not a noiseless run in either regime; T = inf
        # needs PrivacyBudget(inf, delta).
        with pytest.raises(ValueError, match="budget"):
            EmConfig(eta=0.5, T=math.inf, N0=4, s_hat=s_hat, budget=None)

    @pytest.mark.parametrize("budget", [NONPRIVATE], ids=["inf_eps"])
    @pytest.mark.parametrize("s_hat", [3, None], ids=["high_dim", "low_dim"])
    def test_inf_T_accepts_no_privacy(self, s_hat, budget):
        config = EmConfig(eta=0.5, T=math.inf, N0=4, s_hat=s_hat, budget=budget)
        assert config.budget is budget

    @pytest.mark.parametrize("budget", [BUDGET, NONPRIVATE], ids=["finite_eps", "inf_eps"])
    def test_finite_T_accepts_any_budget(self, budget):
        config = EmConfig(eta=0.5, T=2.0, N0=4, s_hat=3, budget=budget)
        assert config.budget is budget

    @pytest.mark.parametrize("budget", [None, (0.5, 1e-3), 0.5], ids=["none", "tuple", "float"])
    @pytest.mark.parametrize("T", [math.inf, 2.0], ids=["inf_T", "finite_T"])
    def test_budget_is_required(self, T, budget):
        # Every run carries a PrivacyBudget; a missing one is not a noiseless
        # run, epsilon = inf is.
        with pytest.raises(ValueError, match="budget"):
            EmConfig(eta=0.5, T=T, N0=4, s_hat=3, budget=budget)


def make_instance(kind, seed, d=12, n=240, s_star=3, sigma=0.5):
    beta_star = sparse_beta(d, s_star)
    spec = ModelSpec(kind, d, sigma, beta_star, missing_prob=0.2)
    return spec, generate(spec, n, NoiseOracle(seed)), beta_star


class TestRunHighDim:
    def test_rejects_dense_beta0(self):
        spec, data, beta_star = make_instance("gmm", 1)
        config = EmConfig(eta=0.5, T=2.0, N0=4, s_hat=2, budget=BUDGET)
        with pytest.raises(ValueError):
            run_high_dim(spec, data, config, np.ones(spec.d), NoiseOracle(0))

    def test_rejects_dimension_mismatch(self):
        spec, data, beta_star = make_instance("gmm", 1)
        config = EmConfig(eta=0.5, T=2.0, N0=4, s_hat=3, budget=BUDGET)
        with pytest.raises(ValueError):
            run_high_dim(spec, data, config, np.zeros(spec.d + 1), NoiseOracle(0))

    def test_rejects_small_dataset(self):
        spec, data, beta_star = make_instance("gmm", 1, n=3)
        config = EmConfig(eta=0.5, T=2.0, N0=4, s_hat=3, budget=BUDGET)
        with pytest.raises(ValueError):
            run_high_dim(spec, data, config, sparse_beta(spec.d, 3), NoiseOracle(0))

    @pytest.mark.parametrize("budget", [BUDGET, NONPRIVATE], ids=["finite_eps", "inf_eps"])
    def test_zero_step_is_fixed_point(self, budget):
        # With eta = 0 the sensitivity is 0, so even live noise vanishes.
        spec, data, beta_star = make_instance("gmm", 2)
        beta0 = sparse_beta(spec.d, 3)
        config = EmConfig(eta=0.0, T=2.0, N0=4, s_hat=3, budget=budget)
        betas = run_high_dim(spec, data, config, beta0, NoiseOracle(3))
        assert np.all(betas == beta0)

    def test_sparsity_invariant(self):
        for kind in ("gmm", "mor", "rmc"):
            spec, data, beta_star = make_instance(kind, 3)
            config = EmConfig(eta=0.5, T=1.5, N0=5, s_hat=4, budget=BUDGET)
            betas = run_high_dim(spec, data, config, sparse_beta(spec.d, 4), NoiseOracle(9))
            assert betas.shape == (6, spec.d)
            for t in range(1, betas.shape[0]):
                assert np.count_nonzero(betas[t]) <= 4

    def test_deterministic(self):
        spec, data, beta_star = make_instance("mor", 4)
        config = EmConfig(eta=0.5, T=1.5, N0=5, s_hat=4, budget=BUDGET)
        t1 = run_high_dim(spec, data, config, sparse_beta(spec.d, 4), NoiseOracle(17))
        t2 = run_high_dim(spec, data, config, sparse_beta(spec.d, 4), NoiseOracle(17))
        np.testing.assert_array_equal(t1, t2)

    def test_batch_bounds_disjoint(self):
        spec, data, beta_star = make_instance("gmm", 5, n=103)
        config = EmConfig(eta=0.5, T=1.5, N0=4, s_hat=3, budget=BUDGET)
        batch = SliceRecorder(data)
        run_high_dim(spec, batch, config, sparse_beta(spec.d, 3), NoiseOracle(1))
        seen = set()
        for lo, hi in batch.reads:
            for i in range(lo, hi):
                assert i not in seen
                seen.add(i)
        assert seen == set(range(4 * (103 // 4)))

    @pytest.mark.parametrize("kind", ["gmm", "mor", "rmc"])
    def test_matches_reference_at_inf_epsilon(self, kind):
        spec, data, beta_star = make_instance(kind, 6)
        beta0 = exact_top_k(beta_star + 0.05 * NoiseOracle(8).standard_normal(spec.d), 4).values
        config = EmConfig(eta=0.5, T=math.inf, N0=5, s_hat=4, budget=NONPRIVATE)
        betas = run_high_dim(spec, data, config, beta0, NoiseOracle(0))
        ref = ht_gradient_em(spec, data, config, beta0)
        assert np.abs(betas - ref).max() <= 1e-12

    def test_statistical_recovery_noiseless(self):
        # Frozen threshold 3 sqrt(s* ln d / n_used), validated over 20 seeds
        # before freezing (all passed, max observed error 0.083).
        d, n, s = 20, 2000, 5
        beta_star = sparse_beta(d, s)
        spec = ModelSpec("gmm", d, 0.5, beta_star)
        data = generate(spec, n, NoiseOracle(55))
        beta0 = exact_top_k(beta_star + 0.05 * NoiseOracle(56).standard_normal(d), s).values
        config = EmConfig(eta=0.5, T=math.inf, N0=8, s_hat=s, budget=NONPRIVATE)
        betas = run_high_dim(spec, data, config, beta0, NoiseOracle(0))
        assert np.linalg.norm(betas[-1] - beta_star) <= 3 * math.sqrt(s * math.log(d) / 2000)

    def test_geometric_decay_diagnostic(self):
        # Well-separated mixture, noiseless: the optimization error contracts.
        d, n, s = 10, 4000, 3
        beta_star = sparse_beta(d, s, value=2.0)  # ||beta*|| / sigma >= 4
        spec = ModelSpec("gmm", d, 0.5, beta_star)
        data = generate(spec, n, NoiseOracle(77))
        beta0 = exact_top_k(beta_star * 0.7, s).values
        config = EmConfig(eta=0.5, T=math.inf, N0=8, s_hat=s, budget=NONPRIVATE)
        errors, _ = estimation_errors(run_high_dim(spec, data, config, beta0, NoiseOracle(0)),
                                      beta_star)
        kappa, floor = fit_geometric_decay(errors)
        assert kappa < 1.0
        assert np.all(errors[1:] <= kappa * errors[:-1] + max(floor, 0.05) + 1e-9)


class TestNoiseCalibration:
    GMM5 = ModelSpec("gmm", 5, 0.5)

    def test_variance_frozen_example(self):
        got = gaussian_noise_std(sensitivity(self.GMM5, 2.0, 1.0, 8, 4000), 5,
                                 PrivacyBudget(0.5, 1 / 8000)) ** 2
        assert got == pytest.approx(0.02357847135225903, rel=1e-12)

    @pytest.mark.parametrize(
        "kind, factor",
        [("gmm", lambda T: 2 * T), ("mor", lambda T: 4 * T**2), ("rmc", lambda T: 6 * T**2 + T)],
    )
    def test_variance_formula_by_model(self, kind, factor):
        eta, T, N0, n, d, eps, delta = 0.7, 1.3, 6, 3000, 9, 0.4, 1e-4
        expected = 2 * eta**2 * d * factor(T) ** 2 * N0**2 * math.log(1.25 / delta) / (n**2 * eps**2)
        got = gaussian_noise_std(sensitivity(ModelSpec(kind, d, 0.5), T, eta, N0, n), d,
                                 PrivacyBudget(eps, delta)) ** 2
        assert got == pytest.approx(expected, rel=1e-12)

    def test_doubling_epsilon_halves_std(self):
        lam = sensitivity(self.GMM5, 2.0, 1.0, 8, 4000)
        lo = gaussian_noise_std(lam, 5, PrivacyBudget(0.5, 1e-4))
        hi = gaussian_noise_std(lam, 5, PrivacyBudget(1.0, 1e-4))
        assert lo == 2.0 * hi

    def test_rejects_inf_T(self):
        with pytest.raises(ValueError):
            gaussian_noise_std(sensitivity(self.GMM5, math.inf, 1.0, 8, 4000), 5,
                               BUDGET)


@pytest.mark.parametrize("regime", ["high_dim", "low_dim"])
@pytest.mark.parametrize(
    "T, budget, ok",
    [
        (math.inf, BUDGET, False),  # no truncation certifies no sensitivity
        (2.0, None, False),  # every run carries a budget
        (math.inf, None, False),  # even a noiseless one
        (math.inf, NONPRIVATE, True),  # the noiseless reference run
    ],
    ids=["inf_T_finite_eps", "finite_T_no_budget", "inf_T_no_budget", "inf_T_inf_eps"],
)
def test_budget_rule_same_in_both_drivers(regime, T, budget, ok):
    spec, data, beta_star = make_instance("gmm", 7)
    s_hat = 3 if regime == "high_dim" else None
    run = run_high_dim if regime == "high_dim" else run_low_dim

    def fit():
        config = EmConfig(eta=0.5, T=T, N0=4, s_hat=s_hat, budget=budget)
        return run(spec, data, config, sparse_beta(spec.d, 3), NoiseOracle(0))

    if ok:
        assert fit().shape == (5, spec.d)
    else:
        with pytest.raises(ValueError):
            fit()


@pytest.mark.parametrize("regime", ["high_dim", "low_dim"])
@pytest.mark.parametrize("kind", ["gmm", "mor", "rmc"])
def test_inf_epsilon_releases_the_noiseless_step(regime, kind):
    # At finite T the certified sensitivity is positive, and epsilon = inf
    # makes both noise scales exactly 0: the release does not depend on the
    # oracle, and it is the plain truncated step (thresholded when high-dim).
    spec, data, beta_star = make_instance(kind, 9)
    high = regime == "high_dim"
    run = run_high_dim if high else run_low_dim
    config = EmConfig(eta=0.5, T=1.5, N0=4, s_hat=3 if high else None, budget=NONPRIVATE)
    beta0 = sparse_beta(spec.d, 3)
    betas = run(spec, data, config, beta0, NoiseOracle(4))
    other = run(spec, data, config, beta0, NoiseOracle(5))
    np.testing.assert_array_equal(bits(betas), bits(other))

    beta, expected, m = beta0, [beta0], len(data) // config.N0
    for t in range(config.N0):
        beta = beta + config.eta * truncated_grad(spec, beta, data[t * m:t * m + m], config.T)
        if high:
            beta = exact_top_k(beta, config.s_hat).values
        expected.append(beta)
    np.testing.assert_array_equal(betas, np.vstack(expected))


@pytest.mark.parametrize("kind", ["gmm", "mor", "rmc"])
def test_low_dim_noise_is_the_samplers_draw(kind):
    # Each released iterate is the truncated step from the previous one plus
    # exactly the sample_gaussian draw that criterion 05 audits, at the run's
    # certified sensitivity, so the audited sampler is the one the driver
    # releases.
    spec, data, beta_star = make_instance(kind, 10, n=243)
    eta, T, N0, seed = 0.5, 1.5, 4, 11
    private = run_low_dim(spec, data, EmConfig(eta, T, N0, BUDGET), beta_star, NoiseOracle(seed))
    oracle, m = NoiseOracle(seed), len(data) // N0
    lam = sensitivity(spec, T, eta, N0, N0 * m)
    for t in range(N0):
        beta = private[t]
        noise = sample_gaussian(gaussian_noise_std(lam, spec.d, BUDGET), oracle, spec.d)
        assert np.all(noise != 0.0)
        step = beta + eta * truncated_grad(spec, beta, data[t * m:t * m + m], T)
        np.testing.assert_array_equal(bits(private[t + 1]), bits(step + noise))


@pytest.mark.parametrize("regime", ["high_dim", "low_dim"])
@pytest.mark.parametrize("kind", ["gmm", "mor", "rmc"])
def test_lambda_is_certified_at_each_iterate(monkeypatch, regime, kind):
    # Both drivers hand their release, at every step, the run's one scale:
    # config.step_scale, calibrated at the certified sensitivity, whatever
    # the iterate entering the step.
    spec, data, beta_star = make_instance(kind, 12)
    eta, T, N0 = 0.5, 1.5, 4
    seen = []
    high = regime == "high_dim"
    name = "noisy_hard_threshold" if high else "sample_gaussian"
    real = getattr(em_engine, name)

    def record(*args):
        seen.append(args[2] if high else args[0])
        return real(*args)

    monkeypatch.setattr(em_engine, name, record)
    run = run_high_dim if high else run_low_dim
    config = EmConfig(eta, T, N0, BUDGET, s_hat=3 if high else None)
    run(spec, data, config, beta_star, NoiseOracle(6))
    lam = sensitivity(spec, T, eta, N0, N0 * (len(data) // N0))
    scale = config.step_scale(spec, len(data))
    assert scale == (noisy_ht_scale(lam, 3, BUDGET) if high
                     else gaussian_noise_std(lam, spec.d, BUDGET))
    assert seen == [scale] * N0


class TestStepScale:
    # The one calibration of a private step, read by the loop and by the
    # harness's pre-run check.
    @pytest.mark.parametrize("s_hat", [4, None], ids=["high_dim", "low_dim"])
    @pytest.mark.parametrize("kind", ["gmm", "mor", "rmc"])
    def test_regime_scale_at_the_certified_sensitivity(self, kind, s_hat):
        eta, T, N0, n, d = 0.7, 1.3, 6, 3001, 9  # n_used = 3000
        config = EmConfig(eta, T, N0, BUDGET, s_hat)
        spec = ModelSpec(kind, d, 0.5)
        lam = sensitivity(spec, T, eta, N0, 3000)
        expected = (noisy_ht_scale(lam, s_hat, BUDGET) if s_hat is not None
                    else gaussian_noise_std(lam, d, BUDGET))
        assert config.step_scale(spec, n) == expected > 0.0

    @pytest.mark.parametrize("s_hat", [3, None], ids=["high_dim", "low_dim"])
    @pytest.mark.parametrize("kind", ["gmm", "mor", "rmc"])
    @pytest.mark.parametrize("T", [math.inf, 1.5], ids=["inf_T", "finite_T"])
    def test_exactly_zero_at_inf_T_or_inf_epsilon(self, kind, s_hat, T):
        got = EmConfig(0.5, T, 4, NONPRIVATE, s_hat).step_scale(ModelSpec(kind, 5, 0.5), 400)
        assert got == 0.0 and math.copysign(1.0, got) == 1.0

    @pytest.mark.parametrize("run, s_hat", [(run_high_dim, 3), (run_low_dim, None)],
                             ids=["high_dim", "low_dim"])
    def test_overflowing_scale_names_epsilon(self, run, s_hat):
        # The drivers, called directly, refuse the scale with the message
        # the harness's pre-run check gives, before any batch is read.
        spec, data, beta_star = make_instance("gmm", 12)
        config = EmConfig(0.5, 1.5, 4, PrivacyBudget(1e-310, 1e-3), s_hat)
        with pytest.raises(ValueError, match=r"^the noise at epsilon = 1e-310 overflows: "):
            run(spec, data, config, beta_star, NoiseOracle(6))


class TestRunLowDim:
    def _instance(self, seed, d=10, n=5000, sigma=0.5):
        beta_star = np.ones(d) / math.sqrt(d)
        spec = ModelSpec("gmm", d, sigma, beta_star)
        return spec, generate(spec, n, NoiseOracle(seed)), beta_star

    def test_untruncated_recovery(self):
        # Frozen threshold 3 sqrt(d/n); validated over 20 seeds before
        # freezing (all passed, max observed error 0.098).
        spec, data, beta_star = self._instance(31)
        config = EmConfig(eta=0.5, T=math.inf, N0=9, budget=NONPRIVATE)
        beta0 = beta_star + 0.1 * NoiseOracle(32).standard_normal(spec.d)
        betas = run_low_dim(spec, data, config, beta0, NoiseOracle(0))
        assert np.linalg.norm(betas[-1] - beta_star) <= 3 * math.sqrt(spec.d / len(data))

    def test_deterministic(self):
        spec, data, beta_star = self._instance(33, n=600)
        config = EmConfig(eta=0.5, T=2.0, N0=5, budget=BUDGET)
        t1 = run_low_dim(spec, data, config, beta_star, NoiseOracle(3))
        t2 = run_low_dim(spec, data, config, beta_star, NoiseOracle(3))
        np.testing.assert_array_equal(t1, t2)

    def test_requires_budget_for_finite_T(self):
        # The config refuses a missing budget before any run can start.
        with pytest.raises(ValueError, match="budget"):
            EmConfig(eta=0.5, T=2.0, N0=5, budget=None)

    def test_trajectory_shape_and_errors(self):
        spec, data, beta_star = self._instance(36, n=400)
        config = EmConfig(eta=0.5, T=2.0, N0=5, budget=BUDGET)
        betas = run_low_dim(spec, data, config, beta_star, NoiseOracle(4))
        assert betas.shape == (6, spec.d)
        errors, signfree = estimation_errors(betas, beta_star)
        assert errors.shape == signfree.shape == (6,)
        assert np.all(signfree <= errors + 1e-15)
