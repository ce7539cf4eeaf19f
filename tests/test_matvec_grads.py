"""The transposed-product gradients and the in-place rmc generator against their references.

Each truncated gradient is a per-row weight times clamp(X, T), averaged over
rows.  gmm and mor compute that average as the transposed matrix-vector
product clamp(X, T)^T r instead of forming the (n, d) product and calling
``np.mean(..., axis=0)``; ``models.clamped_rowsum`` forms it one clamped row
block at a time and adds the per-block sums in order, as the rmc gradient
does, so at a finite T it equals the einsum over the whole clamped design to
rounding, not bit for bit.  rmc sums a closed form over row blocks of
``mechanisms.BLOCK_VALUES`` values: it never forms the fill-ins m and n,
and it relies on ``x_obs = z * x`` (x_obs is zero wherever z is zero), which
every batch here is drawn to satisfy.  The gradient references are the
row-mean forms verbatim, with the models' own mixing weights and the rmc
fill-in m from ``references``; mor and rmc factor the row weight out of their terms, so the
model and its reference agree to rounding, not bit for bit.
The rmc generator builds its arrays in place, drawing the mask a row block
at a time into a boolean array, and must reproduce the one-draw mask product
below bit for bit; that reference forms y through the models'
single-threaded ``matvec``, so the bitwise check compares the in-place
buffers, not two matrix-vector kernels.
"""

import math

import numpy as np
import pytest

from helpers import bits, traced_peak_bytes
from references import rmc_coefficients, rmc_fill_in

from dpem.mechanisms import BLOCK_VALUES, NoiseOracle
from dpem.models import (
    ModelSpec,
    RmcBatch,
    generate,
    truncated_grad,
)
from dpem.models import clamp, clamped_rowsum, expit, matvec

SIGMA = 0.5
# Three of rmc's row blocks at d = 200 plus a one-row tail.
TAIL_N = 3 * (BLOCK_VALUES // 200) + 1


def reference_gmm_grad(beta, batch, sigma, T):
    beta = np.asarray(beta, dtype=float)
    w = expit(matvec(batch.y, beta) / sigma**2)
    return np.mean((2.0 * w - 1.0)[:, None] * clamp(batch.y, T), axis=0) - beta


def reference_mor_grad(beta, batch, sigma, T):
    beta = np.asarray(beta, dtype=float)
    w = expit(batch.y * matvec(batch.x, beta) / sigma**2)
    cy = clamp(batch.y, T)
    cx = clamp(batch.x, T)
    cproj = clamp(batch.x @ beta, T)
    terms = (2.0 * w * cy)[:, None] * cx - cx * cproj[:, None]
    return np.mean(terms, axis=0)


def reference_rmc_grad(beta, batch, sigma, T):
    beta = np.asarray(beta, dtype=float)
    missing = 1.0 - batch.z
    m = rmc_fill_in(beta, batch, sigma)
    nn = missing * m
    cy = clamp(batch.y, T)
    cm = clamp(m, T)
    cnn = clamp(nn, T)
    cmb = clamp(m @ beta, T)
    cnnb = clamp(nn @ beta, T)
    terms = cy[:, None] * cm - cm * cmb[:, None] + cnn * cnnb[:, None] - missing * clamp(beta, T)
    return np.mean(terms, axis=0)


def reference_generate_rmc(spec, n, oracle):
    x = np.atleast_2d(oracle.standard_normal((n, spec.d)))
    e = spec.sigma * np.atleast_1d(oracle.standard_normal(n))
    y = matvec(x, spec.true_beta) + e
    u = np.atleast_2d(oracle.uniform_centered((n, spec.d)))
    z = u + 0.5 >= spec.missing_prob
    return RmcBatch(z * x, z, y)


REFERENCES = {"gmm": reference_gmm_grad, "mor": reference_mor_grad, "rmc": reference_rmc_grad}


def make_case(kind, n, d, seed, missing_prob=0.3):
    """The model's spec, an estimate away from the truth and a batch drawn from the model.

    ``missing_prob`` applies to rmc only.
    """
    rng = np.random.default_rng(seed)
    true_beta = rng.standard_normal(d)
    spec = ModelSpec(kind, d, SIGMA, true_beta,
                     missing_prob=missing_prob if kind == "rmc" else 0.0)
    batch = generate(spec, n, NoiseOracle(seed))
    return spec, true_beta + 0.5 * rng.standard_normal(d), batch


def sparse_rmc_case(n, d, s, seed):
    """An s-sparse truth and an estimate near it on the same support, at 30% missingness."""
    rng = np.random.default_rng(seed)
    true_beta = np.zeros(d)
    support = rng.choice(d, s, replace=False)
    true_beta[support] = rng.standard_normal(s)
    spec = ModelSpec("rmc", d, SIGMA, true_beta, missing_prob=0.3)
    batch = generate(spec, n, NoiseOracle(seed))
    beta = true_beta.copy()
    beta[support] += 0.2 * rng.standard_normal(s)
    return spec, beta, batch


def runaway_rmc_case(n, d, seed):
    """An estimate near the truth but for one coordinate run away to 40, at 10% missingness."""
    spec, beta, batch = make_case("rmc", n, d, seed, missing_prob=0.1)
    beta[0] = 40.0
    return spec, beta, batch


class TestGradientsMatchRowMeans:
    # n = 1 and d = 1 are the degenerate shapes of the transposed product;
    # TAIL_N rows end rmc's blocked sum on a one-row block.  rmc also runs with
    # every coordinate observed and with 90% missing.
    @pytest.mark.parametrize("n, d", [(1, 1), (1, 6), (9, 1), (257, 33), (2000, 50),
                                      (TAIL_N, 200)])
    @pytest.mark.parametrize("T", [1.0, math.inf])
    @pytest.mark.parametrize("kind, missing_prob", [
        pytest.param("gmm", None, id="gmm"),
        pytest.param("mor", None, id="mor"),
        pytest.param("rmc", 0.3, id="rmc"),
        pytest.param("rmc", 0.0, id="rmc_p0"),
        pytest.param("rmc", 0.9, id="rmc_p0.9"),
    ])
    def test_agree_to_rounding(self, kind, missing_prob, T, n, d):
        spec, beta, batch = make_case(kind, n, d, seed=100 * n + d, missing_prob=missing_prob)
        expected = REFERENCES[kind](beta, batch, SIGMA, T)
        got = truncated_grad(spec, beta, batch, T)
        assert got.shape == (d,)
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.parametrize("kind", ["gmm", "mor", "rmc"])
    def test_clamping_is_exercised(self, kind):
        # At T = 1 the largest case clamps some entries, so the finite-T
        # comparison above is not the T = inf one in disguise.
        spec, beta, batch = make_case(kind, 2000, 50, seed=100 * 2000 + 50)
        moved = truncated_grad(spec, beta, batch, 1.0) - truncated_grad(spec, beta, batch, math.inf)
        assert np.max(np.abs(moved)) > 1e-3


class TestRmcSaturatingRows:
    # The rmc gradient clamps c_i * beta on every row of a block that holds a
    # saturating row, one with |c_i| ||beta||_inf > T, and only on beta's
    # support; every row of any other block enters its rank-one sum.  Each
    # case checks that it reaches the split it names.
    @pytest.mark.parametrize("n, d, s", [(2000, 50, 5), (TAIL_N, 200, 10)])
    def test_sparse_beta_saturates_some_rows_on_its_support(self, n, d, s):
        spec, beta, batch = sparse_rmc_case(n, d, s, seed=n + d)
        T = 1.0
        c = rmc_coefficients(beta, batch, SIGMA)
        saturating = np.abs(c) * np.max(np.abs(beta)) > T
        binds = (np.abs(np.multiply.outer(c, beta)) > T) & ~batch.z
        assert 0.1 < saturating.mean() < 0.9
        assert 0 < binds.any(axis=1).mean() < saturating.mean()
        assert (beta == 0).sum() == d - s and not binds[:, beta == 0].any()
        expected = reference_rmc_grad(beta, batch, SIGMA, T)
        got = truncated_grad(spec, beta, batch, T)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("n, d, s", [(2000, 50, 5), (TAIL_N, 200, 10)])
    def test_one_gradient_mixes_clamped_and_rank_one_blocks(self, n, d, s):
        # T halves the row blocks' largest |c_i| ||beta||_inf, so some blocks
        # hold a saturating row and the others hold none.
        spec, beta, batch = sparse_rmc_case(n, d, s, seed=n + d)
        scaled = np.abs(rmc_coefficients(beta, batch, SIGMA)) * np.max(np.abs(beta))
        step = BLOCK_VALUES // d
        block_max = np.array([scaled[lo:lo + step].max() for lo in range(0, n, step)])
        T = float(np.median(block_max))
        assert 0 < np.mean(block_max > T) < 1
        assert (np.abs(np.multiply.outer(rmc_coefficients(beta, batch, SIGMA), beta)) > T).any()
        expected = reference_rmc_grad(beta, batch, SIGMA, T)
        got = truncated_grad(spec, beta, batch, T)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("n, d", [(2000, 50), (TAIL_N, 200)])
    @pytest.mark.parametrize("T", [1.0, 3.0])
    def test_runaway_beta_saturates_nearly_every_row(self, T, n, d):
        spec, beta, batch = runaway_rmc_case(n, d, seed=n + d)
        assert np.max(np.abs(beta)) == 40.0
        c = rmc_coefficients(beta, batch, SIGMA)
        assert np.mean(np.abs(c) * 40.0 > T) > 0.85
        expected = reference_rmc_grad(beta, batch, SIGMA, T)
        got = truncated_grad(spec, beta, batch, T)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * np.max(np.abs(expected)))


class TestRmcInPlace:
    # TAIL_N rows end the blocked mask draw on a one-row block.
    @pytest.mark.parametrize("p, n, d", [
        *[(p, n, d) for p in (0.0, 0.1, 0.5) for n, d in [(1, 1), (7, 3), (300, 40)]],
        (0.0, TAIL_N, 200), (0.9, TAIL_N, 200),
    ])
    def test_generate_bitwise_equal_to_mask_product(self, p, n, d):
        beta = np.linspace(-1.0, 1.0, d)
        spec = ModelSpec("rmc", d, 0.7, beta, missing_prob=p)
        fast_oracle, ref_oracle = NoiseOracle(31 + n), NoiseOracle(31 + n)
        got = generate(spec, n, fast_oracle)
        expected = reference_generate_rmc(spec, n, ref_oracle)
        assert got.z.dtype == bool
        # Masked negative covariates are -0.0 in both forms.
        for name in ("x_obs", "z", "y"):
            np.testing.assert_array_equal(bits(getattr(got, name)), bits(getattr(expected, name)))
        np.testing.assert_array_equal(bits(fast_oracle.uniform_centered(5)),
                                      bits(ref_oracle.uniform_centered(5)))


def clamped_rowsum_reference(a, T, r):
    return np.einsum("ij,i->j", clamp(a, T), r)


def blockwise_reference(a, T, r):
    """Each C-ordered block of ``max(1, BLOCK_VALUES // d)`` rows, its einsum added in order to zeros."""
    n, d = a.shape
    step = max(1, BLOCK_VALUES // d)
    total = np.zeros(d)
    for lo in range(0, n, step):
        block = np.ascontiguousarray(clamp(a[lo:lo + step], T))
        total = total + np.einsum("ij,i->j", block, r[lo:lo + step])
    return total


def wide_range_case(n, d, seed):
    """Rows whose entries span many magnitudes, so any change of summation order shows."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d)) * np.exp(3.0 * rng.standard_normal((n, d)))
    return a, rng.standard_normal(n) * np.exp(rng.standard_normal(n))


class TestClampedRowsum:
    STEP = BLOCK_VALUES // 200  # rows per block at d = 200

    @pytest.mark.parametrize("n, d, order", [
        pytest.param(100, 50, "C", id="one_block"),
        pytest.param(3 * STEP, 200, "C", id="exact_multiple"),
        pytest.param(TAIL_N, 200, "C", id="ragged_tail"),
        pytest.param(3, BLOCK_VALUES + 5, "C", id="row_per_block"),
        pytest.param(1, 200, "C", id="one_row"),
        pytest.param(7000, 100, "C", id="many_blocks"),
        pytest.param(70000, 1, "C", id="one_column"),
        pytest.param(3 * STEP, 200, "F", id="column_major"),
    ])
    @pytest.mark.parametrize("T", [0.5, 1.0, math.inf])
    def test_bitwise_equal_to_whole_batch_einsum(self, n, d, order, T):
        # At T = inf, bitwise the whole-batch einsum.  At a finite T, bitwise
        # the per-block sums added in order, and within the rounding bound of
        # the whole-batch einsum.  Summed in any order, the n products
        # x_i = r_i * clamp(a_ij, T) lie within gamma_n * sum_i |x_i| of the
        # exact sum, with gamma_n = n u / (1 - n u) and u = eps / 2: each term
        # passes through at most n - 1 additions and one product (Higham,
        # Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 4.2).
        # Two orders so differ by at most 2 gamma_n sum_i |x_i|, which is
        # n * eps * sum_i |x_i| to a relative n u < 1e-11 at these n.
        a, r = wide_range_case(n, d, seed=n + d)
        a = np.asarray(a, order=order)
        got = clamped_rowsum(a, T, r)
        assert got.shape == (d,)
        whole = clamped_rowsum_reference(a, T, r)
        if math.isinf(T):
            np.testing.assert_array_equal(bits(got), bits(whole))
            return
        np.testing.assert_array_equal(bits(got), bits(blockwise_reference(a, T, r)))
        bound = n * np.finfo(float).eps * np.einsum("ij,i->j", np.abs(clamp(a, T)), np.abs(r))
        assert np.all(np.abs(got - whole) <= bound)

    def test_bits_do_not_depend_on_memory_layout(self):
        a, r = wide_range_case(3 * self.STEP, 200, seed=981)
        wide = np.zeros((a.shape[0], 2 * a.shape[1]))
        wide[:, ::2] = a
        strided = wide[:, ::2]
        assert a.flags.c_contiguous and not (strided.flags.c_contiguous
                                             or strided.flags.f_contiguous)
        expected = bits(clamped_rowsum(a, 1.0, r))
        for layout in (np.asfortranarray(a), strided):
            np.testing.assert_array_equal(bits(clamped_rowsum(layout, 1.0, r)), expected)

    def test_infinite_T_copies_nothing(self):
        a, r = wide_range_case(20000, 50, seed=11)
        peak, got = traced_peak_bytes(lambda: clamped_rowsum(a, math.inf, r))
        assert peak < 0.01 * a.nbytes
        np.testing.assert_array_equal(bits(got), bits(np.einsum("ij,i->j", a, r)))


class TestAllocationBounds:
    D = 200

    # Each id names the model and the gradient measured.
    @pytest.mark.parametrize("kind", ["gmm", "mor"],
                             ids=["gmm-gmm_truncated_grad", "mor-mor_truncated_grad"])
    @pytest.mark.parametrize("T", [1.0, math.inf])
    def test_gmm_and_mor_gradient(self, kind, T):
        spec, beta, batch = make_case(kind, 20000, self.D, seed=3)
        peak, _ = traced_peak_bytes(lambda: truncated_grad(spec, beta, batch, T))
        # One reused row block of the clamped design and the per-row vectors;
        # no (n, d) temporary at any T.
        design = batch.y if kind == "gmm" else batch.x
        assert peak < 0.1 * design.nbytes

    @pytest.mark.parametrize("T", [1.0, math.inf])
    def test_rmc_gradient(self, T):
        # An estimate near the truth, and one run away to 40, whose rows
        # nearly all saturate at T = 1 and take the clamped path.
        for spec, beta, batch in (make_case("rmc", 20000, self.D, seed=4),
                                  runaway_rmc_case(20000, self.D, seed=4)):
            peak, _ = traced_peak_bytes(lambda: truncated_grad(spec, beta, batch, T))
            # Two reused row-block buffers, which also hold the clamped
            # fill-in, and the per-row vectors; no (n, d) temporary at any T.
            assert peak < 0.1 * batch.x_obs.nbytes

    def test_generate_rmc(self):
        spec = ModelSpec("rmc", self.D, SIGMA, np.ones(self.D), missing_prob=0.1)
        peak, batch = traced_peak_bytes(lambda: generate(spec, 20000, NoiseOracle(5)))
        # The returned x_obs, its one-byte mask z and a row block of uniforms;
        # a float mask drawn in one (n, d) piece peaked at 2x.
        assert peak < 1.25 * batch.x_obs.nbytes


@pytest.mark.parametrize("T", [1.0, 3.0, math.inf])
def test_rmc_gradient_same_for_bool_and_float_mask(T):
    # A dense estimate, and a 10-sparse one whose fill-in is clamped on its
    # support only.
    for spec, beta, batch in (make_case("rmc", TAIL_N, 200, seed=6),
                              sparse_rmc_case(TAIL_N, 200, 10, seed=6)):
        as_float = RmcBatch(batch.x_obs, batch.z.astype(float), batch.y)
        assert batch.z.dtype == bool
        np.testing.assert_array_equal(bits(truncated_grad(spec, beta, batch, T)),
                                      bits(truncated_grad(spec, beta, as_float, T)))
