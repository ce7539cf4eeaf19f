"""Regression with missing covariates: generator, fill-in vector, truncated gradient.

Model: y = <x, beta> + e with x ~ N(0, I_d), e ~ N(0, sigma^2); each
coordinate of x is observed independently with probability 1 - p
(z_ij = 1 when observed) and x_obs = z * x.

The gradient relies on that last identity, the ``RmcBatch`` contract that
x_obs is zero wherever z is zero; it is not checked at run time, and
``generate_rmc`` is the only builder of an ``RmcBatch`` in the package.  With
u_i = 1 - z_i, q_i = u_i^T (beta * beta) and
c_i = (y_i - x_obs_i^T beta) / (sigma^2 + q_i), the fill-in is
m_i = x_obs_i + c_i u_i * beta and n_i = u_i * m_i = c_i u_i * beta.  The two
terms of m_i have disjoint supports, so clamp(m_i) = clamp(x_obs_i) +
u_i * clamp(c_i beta), m_i^T beta = x_obs_i^T beta + c_i q_i and
n_i^T beta = c_i q_i.  The gradient sums that closed form over row blocks of
about ``_BLOCK_VALUES`` values and never forms an (n, d) temporary.
"""

from __future__ import annotations

import numpy as np

from ..mechanisms import NoiseOracle
from .types import ModelSpec, RmcBatch, clamp, matvec

__all__ = [
    "generate_rmc",
    "rmc_mbeta",
    "rmc_truncated_grad",
    "rmc_truncated_grad_clamped_part",
]

# Values per row block (512 KiB of float64): the gradient's blocks and the
# fill-in's squares stay cache-sized.
_BLOCK_VALUES = 1 << 16


def generate_rmc(spec: ModelSpec, n: int, oracle: NoiseOracle) -> RmcBatch:
    """Draw n i.i.d. triples (x_obs, z, y) under coordinate-wise missingness."""
    if spec.kind != "rmc":
        raise ValueError(f"spec.kind must be 'rmc', got {spec.kind!r}")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if spec.true_beta is None:
        raise ValueError("spec.true_beta is required to generate data")
    x = np.atleast_2d(oracle.standard_normal((n, spec.d)))
    e = spec.sigma * np.atleast_1d(oracle.standard_normal(n))
    y = matvec(x, spec.true_beta) + e
    z = np.atleast_2d(oracle.uniform_centered((n, spec.d)))
    z += 0.5
    np.greater_equal(z, spec.missing_prob, out=z)
    x *= z
    return RmcBatch(x, z, y)


def rmc_mbeta(beta, batch: RmcBatch, sigma: float) -> np.ndarray:
    """Conditional-mean fill-in of the missing covariates, one row per sample.

    m = x_obs + (y - <beta, x_obs>) / (sigma^2 + ||(1-z)*beta||^2) * (1-z)*beta.
    The denominator is at least sigma^2 > 0.  The gradient does not call this:
    it works from the closed form in the module docstring.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    beta = np.asarray(beta, dtype=float)
    # m is formed in the buffer of (1 - z) * beta.
    m = 1.0 - batch.z
    m *= beta
    # sigma^2 + ||m_i||^2 with the squares formed a row block at a time, not as
    # one (n, d) temporary; each row's pairwise sum is the same in any block.
    denom = np.empty(len(m))
    step = max(1, _BLOCK_VALUES // m.shape[1])
    for lo in range(0, len(m), step):
        np.sum(m[lo:lo + step] ** 2, axis=1, out=denom[lo:lo + step])
    denom += sigma**2
    m *= ((batch.y - matvec(batch.x_obs, beta)) / denom)[:, None]
    m += batch.x_obs
    return m


def _grad_terms(beta, batch, sigma, T):
    # The gradient's clamped part and its unclamped term beta * mean(1 - z), both
    # summed a row block at a time.  In the module docstring's notation, with
    # r_i = clamp(y_i) - clamp(x_obs_i^T beta + c_i q_i), the clamped part is
    #   (1/n) sum_i [clamp(x_obs_i) r_i + (r_i + clamp(c_i q_i)) u_i * clamp(c_i beta)].
    # At T = inf clamp is the identity and this is the raw gradient.
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    beta = np.asarray(beta, dtype=float)
    n, d = batch.x_obs.shape
    beta_sq = beta * beta
    clamped = np.zeros(d)
    missing_count = np.zeros(d)
    step = max(1, _BLOCK_VALUES // d)
    # Two block buffers, reused: a fresh (step, d) array per block costs more
    # in page faults than the arithmetic on it.
    missing_buf = np.empty((min(step, n), d))
    fill_buf = np.empty_like(missing_buf)
    for lo in range(0, n, step):
        block = batch[lo:lo + step]
        missing = np.subtract(1.0, block.z, out=missing_buf[:len(block)])
        fill = fill_buf[:len(block)]
        missing_count += missing.sum(axis=0)
        x_beta = matvec(block.x_obs, beta)
        q = matvec(missing, beta_sq)
        c = (block.y - x_beta) / (sigma**2 + q)
        cq = c * q
        r = clamp(block.y, T) - clamp(x_beta + cq, T)
        clamped += np.einsum("ij,i->j", clamp(block.x_obs, T, out=fill), r)
        r += clamp(cq, T)
        fill = clamp(np.multiply.outer(c, beta, out=fill), T, out=fill)
        clamped += np.einsum("ij,i->j", np.multiply(missing, fill, out=fill), r)
    return clamped / n, beta * (missing_count / n)


def rmc_truncated_grad(beta, batch: RmcBatch, sigma: float, T: float) -> np.ndarray:
    """Truncated gradient with y, m, m^T beta, n, and n^T beta clamped.

    (1/n) sum_i [clamp(y_i) clamp(m_i) - diag(1-z_i) beta
                 - clamp(m_i) clamp(m_i^T beta) + clamp(n_i) clamp(n_i^T beta)];
    the diag(1-z) beta term is left unclamped.  T = inf is the raw sample
    gradient (1/n) sum_i [y_i m_i - K_i beta] with
    K_i = diag(1-z_i) + m_i m_i^T - n_i n_i^T.  Neither K_i nor the fill-ins
    m and n are formed: each row block's sum comes from the closed form in the
    module docstring, which holds because x_obs is zero wherever z is zero.
    """
    clamped, unclamped = _grad_terms(beta, batch, sigma, T)
    return clamped - unclamped


def rmc_truncated_grad_clamped_part(beta, batch: RmcBatch, sigma: float, T: float) -> np.ndarray:
    """The three clamped terms of the truncated gradient, diag(1-z) beta excluded.

    This is the portion whose one-record sensitivity the 6 eta T^2 N0 / n
    constant certifies.  The excluded term is not covered: z is data, and one
    record's z moves it by up to |beta_j| N0 / n per coordinate, so the full
    eta-scaled step changes by up to eta (6 T^2 + ||beta||_inf) N0 / n.
    """
    return _grad_terms(beta, batch, sigma, T)[0]
