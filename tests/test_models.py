import math
import re
from pathlib import Path

import numpy as np
import pytest

from helpers import TAIL_N
from references import rmc_fill_in

from dpem import models
from dpem.mechanisms import NoiseOracle
from dpem.models import (
    GmmBatch,
    ModelSpec,
    MorBatch,
    RmcBatch,
    generate,
    raw_grad,
    sensitivity,
    truncated_grad,
)


def gmm_spec(d=2, sigma=0.5, beta=None):
    beta = np.array([1.0, 0.0]) if beta is None else np.asarray(beta, float)
    return ModelSpec("gmm", d, sigma, beta)


def _spec(kind):
    # sensitivity reads only the spec's kind.
    return ModelSpec(kind, 2, 0.5)


def gmm_weight(beta, y, sigma):
    """The gmm mixing weight of one observation y, read from its one-row raw gradient.

    The gradient is (2 w - 1) y - beta, so w = ((g + beta) . y / ||y||^2 + 1) / 2.
    """
    g = raw_grad(ModelSpec("gmm", len(y), sigma), beta, GmmBatch(y[None, :]))
    return ((g + beta) @ y / (y @ y) + 1.0) / 2.0


def mor_weight(beta, x, y, sigma):
    """The mor mixing weight of one pair (x, y), read from its one-row raw gradient.

    The gradient is 2 w y x - x x^T beta, so w = (g + x x^T beta) . x / (2 y ||x||^2).
    """
    g = raw_grad(ModelSpec("mor", len(x), sigma), beta, MorBatch(x[None, :], np.array([y])))
    return (g + x * (x @ beta)) @ x / (2.0 * y * (x @ x))


class TestModelSpec:
    def test_valid(self):
        ModelSpec("rmc", 3, 1.0, np.zeros(3), 0.2)
        ModelSpec("mor", 5, 0.5)  # true_beta optional outside generators

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="xyz", d=2, sigma=1.0),
            dict(kind="gmm", d=0, sigma=1.0),
            dict(kind="gmm", d=2, sigma=0.0),
            dict(kind="rmc", d=2, sigma=1.0, missing_prob=1.0),
            dict(kind="gmm", d=2, sigma=1.0, true_beta=np.zeros(3)),
            dict(kind="gmm", d=2.5, sigma=1.0),
            dict(kind="gmm", d=2, sigma=math.inf),
            dict(kind="gmm", d=2, sigma=True),
            dict(kind="rmc", d=2, sigma=1.0, missing_prob="0.1"),
            dict(kind="gmm", d=2, sigma="2"),
            dict(kind="gmm", d=2, sigma=math.nan),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ModelSpec(**kwargs)

    def test_equality_and_hash_are_by_identity(self):
        # A spec holds an array, so a field-wise == would be ambiguous for d > 1.
        spec = ModelSpec("gmm", 3, 0.5, np.zeros(3))
        same_fields = ModelSpec("gmm", 3, 0.5, np.zeros(3))
        assert spec == spec and hash(spec) == hash(spec)
        assert spec != same_fields
        assert len({spec, same_fields}) == 2


class TestGenerators:
    def test_gmm_moments(self):
        spec = gmm_spec()
        batch = generate(spec, 100_000, NoiseOracle(11))
        n = len(batch)
        # z symmetry makes E[Y] = 0.
        assert np.all(np.abs(batch.y.mean(axis=0)) < 4 / math.sqrt(n))
        # Second moment of coordinate 0 is beta0^2 + sigma^2 = 1.25.
        second = np.mean(batch.y[:, 0] ** 2)
        assert abs(second / 1.25 - 1.0) < 0.02

    def test_gmm_rejects_empty(self):
        # Every generator takes n as a whole number >= 1: 2.0 counts, a
        # bool or a fraction does not.
        for kind in ("gmm", "mor", "rmc"):
            spec = ModelSpec(kind, 2, 0.5, np.array([1.0, 0.0]), missing_prob=0.0)
            for bad in (0, 2.5, True):
                with pytest.raises(ValueError, match="^n must be a positive integer"):
                    generate(spec, bad, NoiseOracle(0))
            assert len(generate(spec, 2.0, NoiseOracle(0))) == 2

    def test_mor_variance_and_symmetry(self):
        beta = np.array([0.6, -0.8])  # unit norm
        spec = ModelSpec("mor", 2, 0.5, beta)
        batch = generate(spec, 100_000, NoiseOracle(13))
        # Law of total variance: Var(y) = ||beta||^2 + sigma^2 = 1.25.
        assert abs(batch.y.var() / 1.25 - 1.0) < 0.02
        # z symmetry kills the correlation between y and x^T beta.
        proj = batch.x @ beta
        corr = np.corrcoef(batch.y, proj)[0, 1]
        assert abs(corr) < 0.02

    def test_rmc_no_missingness(self):
        spec = ModelSpec("rmc", 3, 0.5, np.array([1.0, 0.0, 0.0]), missing_prob=0.0)
        batch = generate(spec, 100, NoiseOracle(17))
        np.testing.assert_array_equal(batch.z, np.ones((100, 3)))

    def test_rmc_missing_rate(self):
        spec = ModelSpec("rmc", 5, 0.5, np.zeros(5), missing_prob=0.2)
        batch = generate(spec, 100_000, NoiseOracle(19))
        frac = np.mean(batch.z == 0.0)
        assert abs(frac - 0.2) < 0.01
        # Mask convention: observed covariates vanish where z is 0.
        assert np.all(batch.x_obs[batch.z == 0.0] == 0.0)


class TestGmmOps:
    def test_weight_examples(self):
        assert gmm_weight(np.zeros(3), np.array([1.0, 2.0, 3.0]), 1.0) == 0.5
        assert gmm_weight(np.array([math.log(3)]), np.array([1.0]), 1.0) == pytest.approx(0.75)
        assert gmm_weight(np.array([-math.log(3)]), np.array([1.0]), 1.0) == pytest.approx(0.25)

    def test_weight_symmetry(self):
        rng = np.random.default_rng(1)
        beta = rng.standard_normal(4)
        y = rng.standard_normal((10, 4))
        total = [gmm_weight(beta, row, 0.7) + gmm_weight(-beta, row, 0.7) for row in y]
        np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-15)

    def test_grad_zero_beta(self):
        batch = GmmBatch(np.random.default_rng(2).standard_normal((20, 3)))
        np.testing.assert_array_equal(
            truncated_grad(ModelSpec("gmm", 3, 1.0), np.zeros(3), batch, math.inf), np.zeros(3)
        )

    def test_grad_frozen_value(self):
        # d=1, beta=1, sigma=1, single y=2.
        got = truncated_grad(ModelSpec("gmm", 1, 1.0), np.array([1.0]), GmmBatch(np.array([[2.0]])),
                             math.inf)
        assert got[0] == pytest.approx(0.5231883119115293, rel=1e-12)

    def test_truncated_equals_raw_when_T_large(self):
        # Bitwise within one row block only: T = inf is one einsum over the
        # whole batch, a finite T adds per-block sums, so a batch of several
        # blocks agrees to rounding.
        rng = np.random.default_rng(3)
        batch = GmmBatch(rng.standard_normal((30, 4)))
        beta = rng.standard_normal(4)
        T = float(np.abs(batch.y).max()) + 1.0
        spec = ModelSpec("gmm", 4, 0.8)
        np.testing.assert_array_equal(
            truncated_grad(spec, beta, batch, T), truncated_grad(spec, beta, batch, math.inf)
        )

    def test_truncated_frozen_value(self):
        got = truncated_grad(ModelSpec("gmm", 1, 1.0), np.array([1.0]), GmmBatch(np.array([[2.0]])),
                             1.5)
        assert got[0] == pytest.approx(0.14239123393364705, rel=1e-12)

    def test_truncated_zero_beta(self):
        batch = GmmBatch(np.random.default_rng(4).standard_normal((20, 3)) * 5)
        got = truncated_grad(ModelSpec("gmm", 3, 1.0), np.zeros(3), batch, 0.5)
        np.testing.assert_array_equal(got, np.zeros(3))

    def test_sensitivity(self):
        # 2 * 0.5 * 2 * 8 / 4000; this is also the lambda used by the noisy
        # hard-threshold scale example in test_mechanisms.
        spec = _spec("gmm")
        assert sensitivity(spec, 2.0, 0.5, 8, 4000) == pytest.approx(0.004, rel=1e-12)
        assert sensitivity(spec, 2.0, 0.0, 8, 4000) == 0.0
        with pytest.raises(ValueError):
            sensitivity(spec, math.inf, 0.5, 8, 4000)

    def test_sensitivity_bounds_adjacent_steps(self):
        rng = np.random.default_rng(5)
        eta, T, N0, n0 = 0.5, 1.2, 4, 30
        spec = ModelSpec("gmm", 3, 1.0)
        for trial in range(50):
            beta = rng.standard_normal(3)
            bound = sensitivity(spec, T, eta, N0, N0 * n0)
            y = rng.standard_normal((n0, 3)) * rng.uniform(0.5, 4)
            y2 = y.copy()
            y2[rng.integers(n0)] = rng.standard_normal(3) * 10.0 ** rng.integers(0, 6)
            diff = eta * np.abs(
                truncated_grad(spec, beta, GmmBatch(y), T)
                - truncated_grad(spec, beta, GmmBatch(y2), T)
            )
            assert diff.max() <= bound * (1 + 1e-9)


class TestMorOps:
    def test_weight_examples(self):
        one = np.array([1.0])
        assert mor_weight(np.zeros(3), np.array([1.0, 2.0, 3.0]), 2.0, 1.0) == 0.5
        assert mor_weight(np.array([math.log(3)]), one, 1.0, 1.0) == pytest.approx(0.75)
        assert mor_weight(np.array([-math.log(3)]), one, 1.0, 1.0) == pytest.approx(0.25)
        # The weight reads y <x, beta> / sigma^2: log 3 again.
        assert mor_weight(np.array([math.log(3)]), 2.0 * one, 0.5, 1.0) == pytest.approx(0.75)

    def test_grad_zero_beta_single_pair(self):
        x = np.array([[0.7, -1.2]])
        y = np.array([3.0])
        got = truncated_grad(ModelSpec("mor", 2, 1.0), np.zeros(2), MorBatch(x, y), math.inf)
        np.testing.assert_allclose(got, y[0] * x[0], rtol=1e-15)

    def test_grad_frozen_value(self):
        got = truncated_grad(
            ModelSpec("mor", 1, 1.0), np.array([1.0]), MorBatch(np.array([[1.0]]), np.array([2.0])),
            math.inf
        )
        assert got[0] == pytest.approx(2.5231883119115293, rel=1e-12)

    def test_truncated_equals_raw_when_T_large(self):
        # Bitwise within one row block only, as for gmm.
        rng = np.random.default_rng(6)
        batch = MorBatch(rng.standard_normal((25, 3)), rng.standard_normal(25))
        beta = rng.standard_normal(3)
        T = 50.0
        spec = ModelSpec("mor", 3, 0.5)
        np.testing.assert_array_equal(
            truncated_grad(spec, beta, batch, T), truncated_grad(spec, beta, batch, math.inf)
        )

    def test_truncated_frozen_value(self):
        got = truncated_grad(
            ModelSpec("mor", 1, 1.0), np.array([1.0]), MorBatch(np.array([[3.0]]), np.array([2.0])),
            1.0
        )
        assert got[0] == pytest.approx(0.9950547536867307, rel=1e-12)

    def test_sensitivity(self):
        spec = _spec("mor")
        assert sensitivity(spec, 2.0, 0.5, 8, 4000) == pytest.approx(0.016, rel=1e-12)
        assert sensitivity(spec, 2.0, 0.0, 8, 4000) == 0.0

    def test_sensitivity_bounds_adjacent_steps(self):
        rng = np.random.default_rng(7)
        eta, T, N0, n0 = 0.5, 0.9, 4, 25
        spec = ModelSpec("mor", 3, 1.0)
        for trial in range(50):
            beta = rng.standard_normal(3)
            bound = sensitivity(spec, T, eta, N0, N0 * n0)
            x = rng.standard_normal((n0, 3))
            y = rng.standard_normal(n0)
            x2, y2 = x.copy(), y.copy()
            i = rng.integers(n0)
            x2[i] = rng.standard_normal(3) * 10.0 ** rng.integers(0, 6)
            y2[i] = rng.standard_normal() * 10.0 ** rng.integers(0, 6)
            diff = eta * np.abs(
                truncated_grad(spec, beta, MorBatch(x, y), T)
                - truncated_grad(spec, beta, MorBatch(x2, y2), T)
            )
            assert diff.max() <= bound * (1 + 1e-9)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: the gmm and mor weights lack their factor 2, and mor's row "
    "weight lacks its (2w - 1); the change that lands item 1 removes this marker"))
@pytest.mark.parametrize("kind", ["gmm", "mor"])
def test_one_record_gradient_is_the_em_surrogate_direction(kind):
    """``raw_grad`` on one record is sigma^2 times the gradient of its EM surrogate Q.

    With z = +/-1 equiprobable and p = P(z = +1 | record, beta), the surrogate
    is Q(b) = E_z[log f(record, z; b)], the expectation under that posterior:

    - gmm: Q(b) = -(p ||y - b||^2 + (1 - p) ||y + b||^2) / (2 sigma^2), whose
      gradient at b = beta times sigma^2 is p (y - beta) - (1 - p) (y + beta)
      = (2p - 1) y - beta;
    - mor: Q(b) = -(p (y - <x, b>)^2 + (1 - p) (y + <x, b>)^2) / (2 sigma^2),
      whose gradient at b = beta times sigma^2 is
      x (p (y - <x, beta>) - (1 - p) (y + <x, beta>)) = x ((2p - 1) y - <x, beta>).

    p = exp(l+ - logaddexp(l+, l-)) comes from the component log-densities
    l+- = -||y -+ beta||^2 / (2 sigma^2) for gmm and -(y -+ <x, beta>)^2 / (2 sigma^2)
    for mor, their shared constants cancelling.  Each record is kept only
    where expit(a) and expit(2 a) differ by more than 0.01, a the exponent
    today's weight reads, so every record checked fails under that weight.
    """
    rng = np.random.default_rng(15)
    d, checked = 4, 0
    while checked < 50:
        sigma = rng.uniform(0.5, 2.0)
        beta = rng.standard_normal(d)
        x = rng.standard_normal(d)
        y = rng.standard_normal(d) if kind == "gmm" else rng.standard_normal() * 2.0
        mean = beta if kind == "gmm" else x @ beta
        a = (y @ beta if kind == "gmm" else y * mean) / sigma**2
        if abs(models.expit(2.0 * a) - models.expit(a)) <= 0.01:
            continue
        log_plus = -np.sum((y - mean) ** 2) / (2.0 * sigma**2)
        log_minus = -np.sum((y + mean) ** 2) / (2.0 * sigma**2)
        p = np.exp(log_plus - np.logaddexp(log_plus, log_minus))
        if kind == "gmm":
            expected = (2.0 * p - 1.0) * y - beta
            got = raw_grad(ModelSpec("gmm", d, sigma), beta, GmmBatch(y[None, :]))
        else:
            expected = x * ((2.0 * p - 1.0) * y - mean)
            got = raw_grad(ModelSpec("mor", d, sigma), beta, MorBatch(x[None, :], np.array([y])))
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12 * np.abs(expected).max())
        checked += 1


class TestRmcOps:
    # The fill-in m is checked on the test reference that the curvature test
    # below and criterion 02 build on; the gradient itself never forms m.
    def test_mbeta_fully_observed(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((10, 4))
        batch = RmcBatch(x, np.ones((10, 4)), rng.standard_normal(10))
        for _ in range(3):
            beta = rng.standard_normal(4)
            np.testing.assert_array_equal(rmc_fill_in(beta, batch, 0.7), x)

    def test_mbeta_fully_missing_frozen(self):
        batch = RmcBatch(np.array([[0.0]]), np.array([[0.0]]), np.array([5.0]))
        got = rmc_fill_in(np.array([2.0]), batch, 1.0)
        assert got[0, 0] == pytest.approx(2.0, rel=1e-15)

    def test_mbeta_zero_beta(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 3))
        z = (rng.random((6, 3)) > 0.4).astype(float)
        batch = RmcBatch(z * x, z, rng.standard_normal(6))
        np.testing.assert_array_equal(rmc_fill_in(np.zeros(3), batch, 1.0), batch.x_obs)

    def test_grad_fully_observed_is_least_squares(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((1, 3))
        y = rng.standard_normal(1)
        beta = rng.standard_normal(3)
        batch = RmcBatch(x, np.ones((1, 3)), y)
        expected = y[0] * x[0] - x[0] * (x[0] @ beta)
        np.testing.assert_allclose(
            truncated_grad(ModelSpec("rmc", 3, 0.9), beta, batch, math.inf), expected, rtol=1e-12
        )

    def test_grad_frozen_value(self):
        batch = RmcBatch(np.array([[0.0]]), np.array([[0.0]]), np.array([5.0]))
        got = truncated_grad(ModelSpec("rmc", 1, 1.0), np.array([2.0]), batch, math.inf)
        assert got[0] == pytest.approx(8.0, rel=1e-12)

    def test_truncated_frozen_value(self):
        # One missing coordinate, beta = 2 > T = 1.5: m = n = c beta = 2 and
        # m^T beta = n^T beta = 4, so the step is
        # 1.5 * 1.5 - clamp(2) - 1.5 * 1.5 + 1.5 * 1.5 = 2.25 - 1.5.
        batch = RmcBatch(np.array([[0.0]]), np.array([[0.0]]), np.array([5.0]))
        got = truncated_grad(ModelSpec("rmc", 1, 1.0), np.array([2.0]), batch, 1.5)
        assert got[0] == pytest.approx(0.75, rel=1e-12)

    def test_truncated_equals_raw_when_T_large(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((20, 3))
        z = (rng.random((20, 3)) > 0.3).astype(float)
        batch = RmcBatch(z * x, z, rng.standard_normal(20))
        beta = rng.standard_normal(3) * 0.5
        spec = ModelSpec("rmc", 3, 0.8)
        np.testing.assert_array_equal(
            truncated_grad(spec, beta, batch, 100.0),
            truncated_grad(spec, beta, batch, math.inf),
        )

    def test_truncated_equals_raw_when_T_large_across_blocks(self):
        # TAIL_N rows at d = 200 are three row blocks and a one-row tail.  No
        # clamp binds at T = 100, so every block folds as at T = inf.
        rng = np.random.default_rng(14)
        true_beta = 0.5 * rng.standard_normal(200)
        spec = ModelSpec("rmc", 200, 0.8, true_beta, missing_prob=0.3)
        batch = generate(spec, TAIL_N, NoiseOracle(1014))
        beta = true_beta + 0.2 * rng.standard_normal(200)
        np.testing.assert_array_equal(
            truncated_grad(spec, beta, batch, 100.0),
            truncated_grad(spec, beta, batch, math.inf),
        )

    def test_truncated_zero_beta_reduces_to_clamped_products(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((15, 3)) * 3
        z = (rng.random((15, 3)) > 0.3).astype(float)
        y = rng.standard_normal(15) * 3
        batch = RmcBatch(z * x, z, y)
        T = 1.0
        expected = np.mean(np.clip(y, -T, T)[:, None] * np.clip(batch.x_obs, -T, T), axis=0)
        got = truncated_grad(ModelSpec("rmc", 3, 1.0), np.zeros(3), batch, T)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_grad_matches_materialized_curvature(self):
        # The rank-structured product must agree with the explicit K matrix.
        rng = np.random.default_rng(13)
        for _ in range(5):
            d = int(rng.integers(2, 8))
            n = int(rng.integers(3, 12))
            x = rng.standard_normal((n, d))
            z = (rng.random((n, d)) > 0.4).astype(float)
            y = rng.standard_normal(n)
            beta = rng.standard_normal(d)
            batch = RmcBatch(z * x, z, y)
            m = rmc_fill_in(beta, batch, 1.1)
            total = np.zeros(d)
            for i in range(n):
                miss = 1.0 - z[i]
                nn = miss * m[i]
                K = np.diag(miss) + np.outer(m[i], m[i]) - np.outer(nn, nn)
                total += y[i] * m[i] - K @ beta
            got = truncated_grad(ModelSpec("rmc", d, 1.1), beta, batch, math.inf)
            np.testing.assert_allclose(got, total / n, rtol=1e-10)

    def test_sensitivity(self):
        # 0.5 * (6 * 2^2 + 2) * 8 / 4000: the clamped -(1 - z) * beta term adds T.
        spec = _spec("rmc")
        assert sensitivity(spec, 2.0, 0.5, 8, 4000) == pytest.approx(0.026, rel=1e-12)
        assert sensitivity(spec, 2.0, 0.0, 8, 4000) == 0.0


@pytest.mark.parametrize("name, value", [
    ("eta", math.nan), ("eta", math.inf), ("eta", -0.5), ("eta", True),
    ("N0", True), ("N0", 2.5), ("N0", 0),
    ("n", 2.5), ("n", True), ("n", 0),
])
def test_sensitivity_rejects_bad_eta_N0_n(name, value):
    args = {"eta": 0.5, "N0": 2, "n": 4000, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be"):
        sensitivity(_spec("rmc"), 2.0, args["eta"], args["N0"], args["n"])


BAD_NUMBERS = pytest.mark.parametrize("value", [True, "2", math.nan], ids=["bool", "str", "nan"])


@BAD_NUMBERS
def test_sensitivity_rejects_a_T_that_is_not_a_number(value):
    with pytest.raises(ValueError, match="^T must be a positive finite number"):
        sensitivity(_spec("gmm"), value, 0.5, 5, 100)


def _batches():
    rng = np.random.default_rng(16)
    x, y, z = rng.standard_normal((6, 2)), rng.standard_normal(6), rng.random((6, 2)) > 0.3
    return {"gmm": GmmBatch(x), "mor": MorBatch(x, y), "rmc": RmcBatch(z * x, z, y)}


# sigma is checked by ModelSpec alone (TestModelSpec::test_invalid).
@BAD_NUMBERS
@pytest.mark.parametrize("name", ["T"])
@pytest.mark.parametrize("kind", ["gmm", "mor", "rmc"])
def test_gradients_reject_a_sigma_or_T_that_is_not_a_number(kind, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a positive number"):
        truncated_grad(ModelSpec(kind, 2, 0.5), np.ones(2), _batches()[kind], value)


class TestSharedProperties:
    def test_gradients_permutation_invariant(self):
        rng = np.random.default_rng(14)
        perm = rng.permutation(18)
        beta = rng.standard_normal(3)

        y = rng.standard_normal((18, 3))
        spec = ModelSpec("gmm", 3, 0.7)
        a = truncated_grad(spec, beta, GmmBatch(y), math.inf)
        b = truncated_grad(spec, beta, GmmBatch(y[perm]), math.inf)
        np.testing.assert_allclose(a, b, atol=1e-12)

        x, yy = rng.standard_normal((18, 3)), rng.standard_normal(18)
        spec = ModelSpec("mor", 3, 0.7)
        a = truncated_grad(spec, beta, MorBatch(x, yy), math.inf)
        b = truncated_grad(spec, beta, MorBatch(x[perm], yy[perm]), math.inf)
        np.testing.assert_allclose(a, b, atol=1e-12)

        z = (rng.random((18, 3)) > 0.3).astype(float)
        spec = ModelSpec("rmc", 3, 0.7)
        a = truncated_grad(spec, beta, RmcBatch(z * x, z, yy), math.inf)
        b = truncated_grad(spec, beta, RmcBatch((z * x)[perm], z[perm], yy[perm]), math.inf)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_empty_batches_rejected(self):
        empty_y = np.zeros((0, 2))
        with pytest.raises(ValueError):
            truncated_grad(ModelSpec("gmm", 2, 1.0), np.zeros(2), GmmBatch(empty_y), math.inf)
        with pytest.raises(ValueError):
            truncated_grad(ModelSpec("mor", 2, 1.0), np.zeros(2), MorBatch(empty_y, np.zeros(0)),
                           math.inf)
        with pytest.raises(ValueError):
            truncated_grad(ModelSpec("rmc", 2, 1.0), np.zeros(2),
                           RmcBatch(empty_y, empty_y, np.zeros(0)), math.inf)

    def test_batch_slicing(self):
        rng = np.random.default_rng(15)
        batch = MorBatch(rng.standard_normal((10, 2)), rng.standard_normal(10))
        part = batch[2:5]
        assert len(part) == 3
        np.testing.assert_array_equal(part.x, batch.x[2:5])


KINDS = ("gmm", "mor", "rmc")
README = Path(__file__).resolve().parent.parent / "README.md"


class TestOneTable:
    # models._MODELS is the only list of the model kinds; every kind check reads it.
    def test_model_spec_lists_the_table_kinds(self):
        assert tuple(models._MODELS) == KINDS
        expected = f"model kind must be one of {tuple(models._MODELS)}, got 'xyz'"
        assert expected == "model kind must be one of ('gmm', 'mor', 'rmc'), got 'xyz'"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            ModelSpec("xyz", 2, 1.0)

    def test_readme_constants_are_the_table(self):
        rows = re.findall(r"^\s*\| `(\w+)` \| \((\d+), (\d+), (\d+)\) \|",
                          README.read_text(encoding="utf-8"), flags=re.M)
        assert {kind: tuple(map(int, cpb)) for kind, *cpb in rows} == {
            kind: (m.c, m.p, m.b) for kind, m in models._MODELS.items()}
