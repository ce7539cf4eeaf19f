"""Regression with missing covariates: generator, fill-in vector, truncated gradient.

Model: y = <x, beta> + e with x ~ N(0, I_d), e ~ N(0, sigma^2); each
coordinate of x is observed independently with probability 1 - p
(z_ij = 1 when observed) and x_obs = z * x.
"""

from __future__ import annotations

import numpy as np

from ..mechanisms import NoiseOracle
from .types import ModelSpec, RmcBatch, clamp

__all__ = [
    "generate_rmc",
    "rmc_mbeta",
    "rmc_truncated_grad",
    "rmc_truncated_grad_clamped_part",
]


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
    y = x @ spec.true_beta + e
    u = np.atleast_2d(oracle.uniform_centered((n, spec.d)))
    z = (u + 0.5 >= spec.missing_prob).astype(float)
    return RmcBatch(z * x, z, y)


def rmc_mbeta(beta, batch: RmcBatch, sigma: float) -> np.ndarray:
    """Conditional-mean fill-in of the missing covariates, one row per sample.

    m = x_obs + (y - <beta, x_obs>) / (sigma^2 + ||(1-z)*beta||^2) * (1-z)*beta.
    The denominator is at least sigma^2 > 0.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    beta = np.asarray(beta, dtype=float)
    missing = 1.0 - batch.z
    masked_beta = missing * beta
    denom = sigma**2 + np.sum(masked_beta**2, axis=1)
    coef = (batch.y - batch.x_obs @ beta) / denom
    return batch.x_obs + coef[:, None] * masked_beta


def _grad_terms(beta, batch, sigma, T):
    # Shared term assembly; T = inf means no clamping.  The four terms are
    # y*m, diag(1-z)*beta, m*(m^T beta), and the missing-coordinate correction
    # n*(n^T beta) with n = (1-z)*m.
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    beta = np.asarray(beta, dtype=float)
    missing = 1.0 - batch.z
    m = rmc_mbeta(beta, batch, sigma)
    nn = missing * m
    cy = clamp(batch.y, T)
    cm = clamp(m, T)
    cnn = clamp(nn, T)
    cmb = clamp(m @ beta, T)
    cnnb = clamp(nn @ beta, T)
    clamped_part = cy[:, None] * cm - cm * cmb[:, None] + cnn * cnnb[:, None]
    diag_part = missing * beta
    return clamped_part, diag_part


def rmc_truncated_grad(beta, batch: RmcBatch, sigma: float, T: float) -> np.ndarray:
    """Truncated gradient with y, m, m^T beta, n, and n^T beta clamped.

    (1/n) sum_i [clamp(y_i) clamp(m_i) - diag(1-z_i) beta
                 - clamp(m_i) clamp(m_i^T beta) + clamp(n_i) clamp(n_i^T beta)];
    the diag(1-z) beta term is left unclamped.  T = inf is the raw sample
    gradient (1/n) sum_i [y_i m_i - K_i beta] with
    K_i = diag(1-z_i) + m_i m_i^T - n_i n_i^T, which is never materialized;
    K_i beta is computed from its rank-structured form.
    """
    clamped_part, diag_part = _grad_terms(beta, batch, sigma, T)
    return np.mean(clamped_part - diag_part, axis=0)


def rmc_truncated_grad_clamped_part(beta, batch: RmcBatch, sigma: float, T: float) -> np.ndarray:
    """The three clamped terms of the truncated gradient, diag(1-z) beta excluded.

    This is the portion whose one-record sensitivity the 6 eta T^2 N0 / n
    constant certifies.  The excluded term is not covered: z is data, and one
    record's z moves it by up to |beta_j| N0 / n per coordinate, so the full
    eta-scaled step changes by up to eta (6 T^2 + ||beta||_inf) N0 / n.
    """
    clamped_part, _ = _grad_terms(beta, batch, sigma, T)
    return np.mean(clamped_part, axis=0)
