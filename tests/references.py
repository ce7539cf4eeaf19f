"""Brute-force references that the tests check the package against.

Each is coded apart from the kernels it checks.  The surrogate objectives
compute their own mixing weights and rmc fill-in in plain numpy, with the
rmc curvature matrix K_i materialized, so criterion 02's finite differences
share no arithmetic with the gradients.  The noiseless hard-thresholding EM
has its own batching arithmetic, selects by full sort and builds its own
iterate array; none of them imports a private name of the package.
"""

import numpy as np

from dpem import models
from dpem.mechanisms import exact_top_k


def logistic(t):
    """1 / (1 + exp(-t)) as (1 + tanh(t / 2)) / 2, which cannot overflow."""
    return 0.5 * (1.0 + np.tanh(0.5 * t))


def rmc_fill_in(beta, batch, sigma):
    """Conditional-mean fill-in of the missing covariates, one row per sample.

    m = x_obs + (y - <beta, x_obs>) / (sigma^2 + ||(1-z)*beta||^2) * (1-z)*beta.
    """
    beta = np.asarray(beta, dtype=float)
    masked_beta = (1.0 - batch.z) * beta
    coef = (batch.y - batch.x_obs @ beta) / (sigma**2 + np.sum(masked_beta**2, axis=1))
    return batch.x_obs + coef[:, None] * masked_beta


def q_value(kind, beta_prime, beta, batch, sigma):
    """Explicit surrogate objective Q_n(beta_prime; beta) for one model.

    For gmm this is the weighted two-component quadratic
        -(1/2n) sum_i [w_i ||y_i - b'||^2 + (1 - w_i) ||y_i + b'||^2].
    For mor it is the quadratic whose gradient in the first argument is the
    model's update direction,
        (1/n) sum_i [2 w_i y_i <x_i, b'> - <x_i, b'>^2 / 2].
    For rmc the fill-in quadratic is evaluated with the full curvature
    matrix K_i materialized, giving an arithmetic path independent of the
    rank-structured gradient.
    """
    beta_prime = np.asarray(beta_prime, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if kind == "gmm":
        w = logistic(batch.y @ beta / sigma**2)
        sq_minus = np.sum((batch.y - beta_prime) ** 2, axis=1)
        sq_plus = np.sum((batch.y + beta_prime) ** 2, axis=1)
        return float(np.mean(-0.5 * (w * sq_minus + (1.0 - w) * sq_plus)))
    if kind == "mor":
        w = logistic(batch.y * (batch.x @ beta) / sigma**2)
        proj = batch.x @ beta_prime
        return float(np.mean(2.0 * w * batch.y * proj - 0.5 * proj**2))
    if kind == "rmc":
        m = rmc_fill_in(beta, batch, sigma)
        missing = 1.0 - batch.z
        nn = missing * m
        total = 0.0
        for i in range(len(batch)):
            K = np.diag(missing[i]) + np.outer(m[i], m[i]) - np.outer(nn[i], nn[i])
            total += batch.y[i] * (beta_prime @ m[i]) - 0.5 * beta_prime @ K @ beta_prime
        return float(total / len(batch))
    raise ValueError(f"unknown model kind {kind!r}")


def finite_diff_grad(kind, beta, batch, sigma, h=1e-5):
    """Central-difference gradient of Q_n in its first argument at beta.

    [q(beta + h e_j) - q(beta - h e_j)] / (2h) per coordinate; h defaults to
    1e-5, which is appropriate on unit-scale problems.
    """
    if not h > 0:
        raise ValueError(f"h must be positive, got {h}")
    beta = np.asarray(beta, dtype=float)
    grad = np.empty_like(beta)
    for j in range(beta.size):
        step = np.zeros_like(beta)
        step[j] = h
        q_plus = q_value(kind, beta + step, beta, batch, sigma)
        q_minus = q_value(kind, beta - step, beta, batch, sigma)
        grad[j] = (q_plus - q_minus) / (2.0 * h)
    return grad


def ht_gradient_em(spec, batch, config, beta0):
    """Noiseless hard-thresholding gradient EM with sample splitting.

    The exact reference for the high-dimensional engine: one untruncated
    gradient step per disjoint batch followed by exact top-k projection.
    Returns the (N0 + 1, d) iterates, row t after t iterations.  Batching
    arithmetic, selection and the iterate array are coded here independently
    of the engine.
    """
    if config.s_hat is None:
        raise ValueError("ht_gradient_em requires s_hat >= 1")
    n = len(batch)
    if config.N0 > n:
        raise ValueError(f"N0 must not exceed the sample size ({config.N0} > {n})")
    size = n // config.N0
    betas = np.empty((config.N0 + 1, spec.d))
    betas[0] = beta0
    for t in range(config.N0):
        g = models.raw_grad(spec, betas[t], batch[t * size:t * size + size])
        betas[t + 1] = exact_top_k(betas[t] + config.eta * g, config.s_hat).values
    return betas
