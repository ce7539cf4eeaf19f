"""Regression with missing covariates: generator, fill-in vector, truncated gradient.

Model: y = <x, beta> + e with x ~ N(0, I_d), e ~ N(0, sigma^2); each
coordinate of x is observed independently with probability 1 - p
(z_ij = 1 when observed) and x_obs = z * x.
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

# Values per row block of the fill-in's squares (1 MB of float64).
_BLOCK_VALUES = 1 << 17


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


def _missing_and_mbeta(beta, batch: RmcBatch, sigma: float):
    # 1 - z and the fill-in m, which is formed in the buffer of (1 - z) * beta.
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    missing = 1.0 - batch.z
    m = missing * beta
    # sigma^2 + ||m_i||^2 with the squares formed a row block at a time, not as
    # one (n, d) temporary; each row's pairwise sum is the same in any block.
    denom = np.empty(len(m))
    step = max(1, _BLOCK_VALUES // m.shape[1])
    for lo in range(0, len(m), step):
        np.sum(m[lo:lo + step] ** 2, axis=1, out=denom[lo:lo + step])
    denom += sigma**2
    m *= ((batch.y - matvec(batch.x_obs, beta)) / denom)[:, None]
    m += batch.x_obs
    return missing, m


def rmc_mbeta(beta, batch: RmcBatch, sigma: float) -> np.ndarray:
    """Conditional-mean fill-in of the missing covariates, one row per sample.

    m = x_obs + (y - <beta, x_obs>) / (sigma^2 + ||(1-z)*beta||^2) * (1-z)*beta.
    The denominator is at least sigma^2 > 0.
    """
    return _missing_and_mbeta(np.asarray(beta, dtype=float), batch, sigma)[1]


def _grad_terms(beta, batch, sigma, T):
    # The gradient's clamped part and its unclamped term beta * mean(1 - z); n_i = (1-z_i) m_i.
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    beta = np.asarray(beta, dtype=float)
    missing, m = _missing_and_mbeta(beta, batch, sigma)
    unclamped = beta * np.mean(missing, axis=0)
    nn = np.multiply(missing, m, out=missing)
    clamped = np.einsum("ij,i->j", clamp(m, T), clamp(batch.y, T) - clamp(matvec(m, beta), T))
    clamped += np.einsum("ij,i->j", clamp(nn, T), clamp(matvec(nn, beta), T))
    return clamped / len(batch), unclamped


def rmc_truncated_grad(beta, batch: RmcBatch, sigma: float, T: float) -> np.ndarray:
    """Truncated gradient with y, m, m^T beta, n, and n^T beta clamped.

    (1/n) sum_i [clamp(y_i) clamp(m_i) - diag(1-z_i) beta
                 - clamp(m_i) clamp(m_i^T beta) + clamp(n_i) clamp(n_i^T beta)];
    the diag(1-z) beta term is left unclamped.  The row average is two transposed
    products, (clamp(M)^T (clamp(y) - clamp(M beta)) + clamp(N)^T clamp(N beta)) / n.
    T = inf is the raw sample gradient (1/n) sum_i [y_i m_i - K_i beta] with
    K_i = diag(1-z_i) + m_i m_i^T - n_i n_i^T, which is never materialized;
    K_i beta is computed from its rank-structured form.
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
