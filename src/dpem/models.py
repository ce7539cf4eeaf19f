"""Model-specific ingredients for the private EM engines.

Each model is one table entry: its data generator, its truncated gradient
(``T = inf`` gives the raw sample gradient), and the constants ``(c, p, b)``
of the certified ell-infinity sensitivity ``eta (c T^p + b T) N0 / n`` of the
eta-scaled gradient step, one number per run.  That table, ``_MODELS``, is the
only list of the model kinds.  Both privatizers are calibrated from that one
number (:meth:`dpem.em_engine.EmConfig.step_scale`).  Only rmc has ``b = 1``:
its ``-(1 - z) * clamp(beta)`` term moves with one record's missingness mask.

The three models:

- gmm, the Gaussian mixture model: y = z * beta + e with z = +/-1
  equiprobable and e ~ N(0, sigma^2 I_d).
- mor, the mixture of regression: y = z * <x, beta> + e with x ~ N(0, I_d),
  z = +/-1 equiprobable, and e ~ N(0, sigma^2).
- rmc, regression with missing covariates: y = <x, beta> + e with
  x ~ N(0, I_d), e ~ N(0, sigma^2); each coordinate of x is observed
  independently with probability 1 - p (z_ij = 1 when observed) and
  x_obs = z * x.  The mask z is a boolean array, one byte per entry;
  ``_generate_rmc`` draws its uniforms a row block of about ``BLOCK_VALUES``
  values at a time, which consumes the oracle exactly as one (n, d) draw
  does, so no (n, d) float temporary backs the mask.

Batches are stored struct-of-arrays: a batch of n samples holds (n, d) and
(n,) arrays rather than n per-sample objects, so the gradient operations
stay vectorized.  Slicing a batch returns a batch of the same kind.

Both matrix-vector directions are single-threaded numpy passes: the row
products ``X beta`` behind the weights, fill-ins and generators go through
:func:`matvec`.  The gmm and mor gradients average their rows as
``clamp(X, T)^T r / n`` through :func:`clamped_rowsum`, and the rmc gradient
sums the same kind of products over its closed form, which never forms the
(n, d) fill-in and holds because ``x_obs = z * x`` (see
:func:`_rmc_truncated_grad`).  All three take one row block at a time, add
the per-block sums in order, and never copy the whole batch.
The threaded BLAS gemv behind ``X @ beta`` and ``X.T @ r`` stalled for
milliseconds per call, and its summation order, hence the gradients' bytes,
followed the BLAS thread count.  The table's dispatchers (:func:`generate`,
:func:`raw_grad`, :func:`truncated_grad`, :func:`sensitivity`) are the only
public way into a model, and each checks its inputs where they come in; the
per-model functions behind them are private.  A :class:`LazySample` is a
sample read front to back, each read drawn fresh: the private drivers read it
one batch at a time, the non-private baseline whole, in one draw.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from .mechanisms import BLOCK_VALUES, NoiseOracle, require, whole

__all__ = [
    "ModelSpec",
    "GmmBatch",
    "MorBatch",
    "RmcBatch",
    "generate",
    "LazySample",
    "raw_grad",
    "truncated_grad",
    "sensitivity",
]


def clamp(a, T: float, out=None):
    """Coordinate-wise projection onto [-T, T]; T = inf returns ``a`` itself, uncopied.

    A finite T writes into ``out`` when given; T = inf leaves ``out`` untouched,
    so callers use the return value.
    """
    return a if math.isinf(T) else np.clip(a, -T, T, out=out)


def clamped_rowsum(a, T: float, r):
    """The weighted row sum ``clamp(a, T)^T r`` of an (n, d) ``a``, holding one row block.

    At a finite T, each block of ``max(1, BLOCK_VALUES // d)`` rows is clipped
    into one reused C-ordered buffer, and its ``np.einsum("ij,i->j", ...)`` is
    added in order to a total that starts at zero, so the bits do not depend
    on ``a``'s memory layout.  T = inf is one einsum over ``a``, uncopied.
    """
    if math.isinf(T):
        return np.einsum("ij,i->j", a, r)
    n, d = a.shape
    step = max(1, BLOCK_VALUES // d)
    buf = np.empty((min(step, n), d))
    total = np.zeros(d)
    for lo in range(0, n, step):
        block = clamp(a[lo:lo + step], T, out=buf[:min(step, n - lo)])
        total += np.einsum("ij,i->j", block, r[lo:lo + step])
    return total


def expit(x):
    """Logistic function 1 / (1 + exp(-x)); exp overflow far left of 0 gives exactly 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def matvec(a, b):
    """``a @ b`` for a (d,) vector b and an (n, d) stack or one (d,) row, in one thread.

    Unlike BLAS gemv, its summation order does not follow the BLAS thread count.
    """
    return np.einsum("...j,j->...", a, b)


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Which latent-variable model, its dimension, and its noise level.

    ``true_beta`` is only consulted by the data generators; estimation code
    never reads it.  ``missing_prob`` is the per-coordinate missingness
    probability and applies to the rmc model only.  A spec holds an array,
    so it compares and hashes by identity.
    """

    kind: str
    d: int
    sigma: float
    true_beta: np.ndarray | None = None
    missing_prob: float = 0.0

    def __post_init__(self):
        if self.kind not in _MODELS:
            raise ValueError(f"model kind must be one of {tuple(_MODELS)}, got {self.kind!r}")
        object.__setattr__(self, "d", whole("d", self.d))
        require("sigma", self.sigma, "a positive finite number", lambda v: 0 < v < math.inf)
        require("missing_prob", self.missing_prob, "a number in [0, 1)", lambda p: 0 <= p < 1)
        if self.true_beta is not None:
            beta = np.asarray(self.true_beta, dtype=float)
            if beta.shape != (self.d,):
                raise ValueError(f"true_beta must have shape ({self.d},), got {beta.shape}")
            if not np.all(np.isfinite(beta)):
                raise ValueError("true_beta must have finite coordinates")
            object.__setattr__(self, "true_beta", beta)


class _Batch:
    # Every batch kind holds its responses in ``y``, one row per sample, and
    # only per-sample arrays in its fields.
    def __len__(self) -> int:
        return self.y.shape[0]

    def __getitem__(self, key):
        if not isinstance(key, slice):
            raise TypeError("batches support slice indexing only")
        return type(self)(*(getattr(self, f.name)[key] for f in fields(self)))


@dataclass(frozen=True)
class GmmBatch(_Batch):
    """Gaussian-mixture observations: y has shape (n, d)."""

    y: np.ndarray


@dataclass(frozen=True)
class MorBatch(_Batch):
    """Mixture-of-regression pairs: covariates x (n, d), responses y (n,)."""

    x: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class RmcBatch(_Batch):
    """Missing-covariate triples: x_obs is zero wherever z is zero.

    ``x_obs`` (n, d) holds the observed covariates, ``z`` (n, d) the boolean
    observation mask (True where observed), ``y`` (n,) the responses.
    """

    x_obs: np.ndarray
    z: np.ndarray
    y: np.ndarray


def _generate_gmm(spec: ModelSpec, n: int, oracle: NoiseOracle) -> GmmBatch:
    """Draw n i.i.d. observations y_i = z_i * beta + e_i."""
    u = oracle.uniform_centered(n)
    positive = (u >= 0.0)[:, None]  # z_i = +1
    # Built in place in the one (n, d) output: e + beta equals beta + e and
    # e - beta equals (-beta) + e bitwise, so this is z * beta + e exactly.
    y = oracle.standard_normal((n, spec.d))
    y *= spec.sigma
    np.add(y, spec.true_beta, out=y, where=positive)
    np.subtract(y, spec.true_beta, out=y, where=~positive)
    return GmmBatch(y)


def _gmm_truncated_grad(beta, batch: GmmBatch, sigma: float, T: float) -> np.ndarray:
    """Truncated gradient (1/n) sum_i (2 w(y_i) - 1) clamp_T(y_i) - beta.

    The weight uses the untruncated observation; only y_i is clamped.  The row
    average is clamp_T(Y)^T (2 w - 1) / n, summed by ``clamped_rowsum`` one row
    block of clamp_T(Y) at a time.  T = inf is the raw sample gradient
    (1/n) sum_i (2 w(y_i) - 1) y_i - beta, unclamped and uncopied.
    """
    w = expit(matvec(batch.y, beta) / sigma**2)
    return clamped_rowsum(batch.y, T, 2.0 * w - 1.0) / len(batch) - beta


def _generate_mor(spec: ModelSpec, n: int, oracle: NoiseOracle) -> MorBatch:
    """Draw n i.i.d. pairs (x_i, y_i) with y_i = z_i <x_i, beta> + e_i."""
    x = oracle.standard_normal((n, spec.d))
    u = oracle.uniform_centered(n)
    z = np.where(u >= 0.0, 1.0, -1.0)
    e = spec.sigma * oracle.standard_normal(n)
    y = z * matvec(x, spec.true_beta)
    y += e
    return MorBatch(x, y)


def _mor_truncated_grad(beta, batch: MorBatch, sigma: float, T: float) -> np.ndarray:
    """Truncated gradient with y_i, x_i, and x_i^T beta clamped separately.

    (1/n) sum_i [2 w_i clamp(y_i) clamp(x_i) - clamp(x_i) clamp(x_i^T beta)]
    with the mixing weight w_i = 1 / (1 + exp(-y_i <x_i, beta> / sigma^2)) of
    the untruncated (x_i, y_i); X beta is formed once for both.  The row
    average is clamp(X)^T (2 w clamp(y) - clamp(X beta)) / n, summed by
    ``clamped_rowsum`` one row block of clamp(X) at a time.  T = inf is the raw
    sample gradient (1/n) sum_i [2 w_i y_i x_i - x_i (x_i^T beta)], with X
    uncopied.
    """
    xb = matvec(batch.x, beta)
    w = expit(batch.y * xb / sigma**2)
    r = 2.0 * w * clamp(batch.y, T) - clamp(xb, T)
    return clamped_rowsum(batch.x, T, r) / len(batch)


def _generate_rmc(spec: ModelSpec, n: int, oracle: NoiseOracle) -> RmcBatch:
    """Draw n i.i.d. triples (x_obs, z, y) under coordinate-wise missingness."""
    x = oracle.standard_normal((n, spec.d))
    e = spec.sigma * oracle.standard_normal(n)
    y = matvec(x, spec.true_beta) + e
    z = np.empty((n, spec.d), dtype=bool)
    step = max(1, BLOCK_VALUES // spec.d)
    u_buf = np.empty((min(step, n), spec.d))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        u = oracle.uniform_centered((hi - lo, spec.d), out=u_buf[:hi - lo])
        u += 0.5
        mask = np.greater_equal(u, spec.missing_prob, out=z[lo:hi])
        x[lo:hi] *= mask
    return RmcBatch(x, z, y)


# The rmc gradient relies on the identity x_obs = z * x, the ``RmcBatch``
# contract that x_obs is zero wherever z is zero; it is not checked at run
# time, and ``_generate_rmc`` is the only builder of an ``RmcBatch`` in the
# package.  With u_i = 1 - z_i, q_i = u_i^T (beta * beta) and
# c_i = (y_i - x_obs_i^T beta) / (sigma^2 + q_i), the conditional-mean fill-in
# of the missing covariates is m_i = x_obs_i + c_i u_i * beta, and
# n_i = u_i * m_i = c_i u_i * beta.  The two terms of m_i have disjoint
# supports, so clamp(m_i) = clamp(x_obs_i) + u_i * clamp(c_i beta),
# m_i^T beta = x_obs_i^T beta + c_i q_i and n_i^T beta = c_i q_i.  The
# gradient sums that closed form over row blocks of about ``BLOCK_VALUES``
# values and never forms an (n, d) temporary.
#
# The fill-in term sum_i w_i u_i * clamp(c_i beta), with row weight
# w_i = r_i + clamp(c_i q_i), is a rank-one product wherever the clamp cannot
# bind: there it is beta * (U^T (w * c)), U the rows u_i.  It can bind only on
# the saturating rows I = {i : |c_i| ||beta||_inf > T}, none at T = inf.
# Rounding is monotone, so off I every entry has
# fl(|c_i beta_j|) = fl(|c_i| |beta_j|) <= fl(|c_i| ||beta||_inf) <= T and its
# clamp is the identity.  A block with no saturating row, found from its
# largest |c_i|, puts every row in the rank-one sum; a block with one clamps
# every row's fill-in, over beta's nonzero columns only, since a zero beta_j
# adds exactly 0 there.  No row is in both, so no term cancels however far
# c_i beta_j runs past T.  The unclamped -sum_i u_i * beta folds into the same
# product, which is beta * (U^T (w * c * [no row of the block saturates] - 1)),
# so at T = inf a block reads its (rows, d) arrays five times and forms no
# product of c and beta.  The gradient's term is -sum_i u_i * clamp(beta), so
# the columns O = {j : |beta_j| > T}, none at T = inf, add back
# (beta_j - clamp(beta_j)) sum_i u_ij, from their own per-block column sums.
def _rmc_truncated_grad(beta, batch: RmcBatch, sigma: float, T: float) -> np.ndarray:
    """Truncated gradient with y, m, m^T beta, n, and n^T beta clamped.

    (1/n) sum_i [clamp(y_i) clamp(m_i) - diag(1-z_i) clamp(beta)
                 - clamp(m_i) clamp(m_i^T beta) + clamp(n_i) clamp(n_i^T beta)];
    one record's z moves the diag(1-z) clamp(beta) term by at most T / n, so
    the certified sensitivity is eta (6 T^2 + T) N0 / n.
    T = inf is the raw sample gradient (1/n) sum_i [y_i m_i - K_i beta] with
    K_i = diag(1-z_i) + m_i m_i^T - n_i n_i^T.  Neither K_i nor the fill-ins
    m and n are formed: in the notation of the comment above, with
    r_i = clamp(y_i) - clamp(x_obs_i^T beta + c_i q_i) and
    w_i = r_i + clamp(c_i q_i), the terms sum to
    sum_i [clamp(x_obs_i) r_i + w_i u_i * clamp(c_i beta) - u_i * clamp(beta)].
    In a block where no row saturates the last two are the rank-one
    beta * (U^T (w * c - 1)); in one where a row does, the block adds
    sum_i w_i u_i * clamp(c_i beta) on beta's support and -beta * (U^T 1).
    Both are accumulated a row block at a time, and the columns where
    |beta_j| > T then add (beta_j - clamp(beta_j)) (U^T 1)_j.  ``z`` may be
    the boolean mask ``_generate_rmc`` returns or the same mask as 0/1 floats.
    """
    n, d = batch.x_obs.shape
    beta_sq = beta * beta
    beta_inf = np.abs(beta).max()
    # beta's nonzero columns; a slice when that is all of them, so that the
    # clamped fill-in's mask is a view, not a gather.
    support = np.flatnonzero(beta)
    if support.size == d:
        support = slice(None)
    beta_supp = beta[support]
    over = np.flatnonzero(np.abs(beta) > T)
    missing_over = np.zeros(over.size)
    clamped = np.zeros(d)
    rank_one = np.zeros(d)
    step = max(1, BLOCK_VALUES // d)
    # Two block buffers, reused: a fresh (step, d) array per block costs more
    # in page faults than the arithmetic on it.
    missing_buf = np.empty((min(step, n), d))
    x_buf = np.empty_like(missing_buf)
    for lo in range(0, n, step):
        block = batch[lo:lo + step]
        missing = np.logical_not(block.z, out=missing_buf[:len(block)])
        x_beta = matvec(block.x_obs, beta)
        q = matvec(missing, beta_sq)
        c = (block.y - x_beta) / (sigma**2 + q)
        cq = c * q
        r = clamp(block.y, T) - clamp(x_beta + cq, T)
        clamped += np.einsum("ij,i->j", clamp(block.x_obs, T, out=x_buf[:len(block)]), r)
        r += clamp(cq, T)
        if np.abs(c).max() * beta_inf > T:
            # A row saturates: every row's fill-in is clamped, in x_buf, which
            # the einsum above is done with.
            fill = np.multiply.outer(c, beta_supp, out=x_buf[:len(block), :beta_supp.size])
            fill = clamp(fill, T, out=fill)
            fill *= missing[:, support]
            clamped[support] += np.einsum("ij,i->j", fill, r)
            rank_one -= missing.sum(axis=0)
        else:
            rank_one += np.einsum("ij,i->j", missing, r * c - 1.0)
        if over.size:
            missing_over += missing[:, over].sum(axis=0)
    g = clamped + beta * rank_one
    g[over] += (beta[over] - clamp(beta[over], T)) * missing_over
    return g / n


_Model = namedtuple("_Model", ["generate", "truncated_grad", "c", "p", "b"])
_MODELS = {
    "gmm": _Model(_generate_gmm, _gmm_truncated_grad, 2.0, 1, 0.0),
    "mor": _Model(_generate_mor, _mor_truncated_grad, 4.0, 2, 0.0),
    "rmc": _Model(_generate_rmc, _rmc_truncated_grad, 6.0, 2, 1.0),
}


def generate(spec: ModelSpec, n: int, oracle: NoiseOracle):
    """Draw an n-sample batch from ``spec``'s model; ``spec`` must carry a ``true_beta``."""
    if spec.true_beta is None:
        raise ValueError("spec.true_beta is required to generate data")
    return _MODELS[spec.kind].generate(spec, whole("n", n), oracle)


class LazySample:
    """An n-sample draw that generates its rows only when they are read.

    ``len()`` is n.  It is read front to back: each read must be a slice with
    step 1 that starts where the last ended (the first at 0) and holds at
    least one row once clipped to n; any other key raises.  Each read draws a
    fresh batch from ``oracle`` through :func:`generate` and keeps no
    reference to it, so rows never read are never drawn.  Reads of other
    lengths order the stream differently, so they give other rows.
    """

    def __init__(self, spec: ModelSpec, n: int, oracle: NoiseOracle):
        self.spec = spec
        self._n = whole("n", n)
        self._oracle = oracle
        self._next = 0

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, key):
        if not isinstance(key, slice):
            raise TypeError("a LazySample supports slice indexing only")
        lo, hi, step = key.indices(self._n)
        if lo != self._next or hi <= lo or step != 1:
            raise ValueError(f"a LazySample is read once, front to back: the next read must "
                             f"start at {self._next} and hold a row, got [{lo}:{hi}:{step}]")
        batch = generate(self.spec, hi - lo, self._oracle)
        self._next = hi
        return batch


def raw_grad(spec: ModelSpec, beta, batch) -> np.ndarray:
    """Untruncated sample gradient for ``spec``'s model: the table gradient at T = inf."""
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    return _MODELS[spec.kind].truncated_grad(np.asarray(beta, dtype=float), batch, spec.sigma,
                                             math.inf)


def truncated_grad(spec: ModelSpec, beta, batch, T: float) -> np.ndarray:
    """Truncated sample gradient for T > 0; T = inf is exactly :func:`raw_grad`."""
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    require("T", T, "a positive number", lambda v: v > 0)
    return _MODELS[spec.kind].truncated_grad(np.asarray(beta, dtype=float), batch, spec.sigma, T)


def sensitivity(spec: ModelSpec, T: float, eta: float, N0: int, n: int) -> float:
    """Certified ell-infinity sensitivity eta (c T^p + b T) N0 / n of one step.

    The step is the eta-scaled truncated gradient, from any iterate:
    2 eta T N0 / n for gmm, 4 eta T^2 N0 / n for mor and
    eta (6 T^2 + T) N0 / n for rmc.
    """
    model = _MODELS[spec.kind]
    require("T", T, "a positive finite number", lambda v: 0 < v < math.inf)
    require("eta", eta, "a finite number >= 0", lambda v: 0 <= v < math.inf)
    N0, n = whole("N0", N0), whole("n", n)
    return (model.c * eta * T**model.p + model.b * eta * T) * N0 / n
