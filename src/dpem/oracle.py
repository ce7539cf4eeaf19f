"""Brute-force references for the tests, and the non-private baseline.

Shared with the engine: the ``beta0`` input check, the trajectory record and
the :class:`SparseSelection` result type.  Coded independently: top-k
selection by full sort instead of peeling, the reference EM loops with their
own batching arithmetic, and explicit surrogate objectives whose gradients
are checked by finite differences.  Outside the tests, the harness uses
``nonprivate_em`` (the command line's baseline) and ``exact_top_k`` (sparse
starting points).
"""

from __future__ import annotations

import numpy as np

from . import models
from .em_engine import EmConfig, Trajectory, _as_beta, _record
from .mechanisms import SparseSelection

__all__ = [
    "exact_top_k",
    "q_value",
    "finite_diff_grad",
    "nonprivate_em",
    "ht_gradient_em",
]


def exact_top_k(v, s: int) -> SparseSelection:
    """The s coordinates of largest magnitude, by full stable sort.

    Ties go to the lowest index.  Values are kept on the selected support
    and zeroed elsewhere.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"v must be one-dimensional, got shape {v.shape}")
    if not 1 <= s:
        raise ValueError(f"s must be at least 1, got {s}")
    if s > v.size:
        raise ValueError(f"s must not exceed the dimension d ({s} > {v.size})")
    order = np.argsort(-np.abs(v), kind="stable")[:s]
    values = np.zeros_like(v)
    values[order] = v[order]
    return SparseSelection(support=order, values=values)


def q_value(kind: str, beta_prime, beta, batch, sigma: float) -> float:
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
        w = models.gmm_weight(beta, batch.y, sigma)
        sq_minus = np.sum((batch.y - beta_prime) ** 2, axis=1)
        sq_plus = np.sum((batch.y + beta_prime) ** 2, axis=1)
        return float(np.mean(-0.5 * (w * sq_minus + (1.0 - w) * sq_plus)))
    if kind == "mor":
        w = models.mor_weight(beta, batch.x, batch.y, sigma)
        proj = batch.x @ beta_prime
        return float(np.mean(2.0 * w * batch.y * proj - 0.5 * proj**2))
    if kind == "rmc":
        m = models.rmc_mbeta(beta, batch, sigma)
        missing = 1.0 - batch.z
        nn = missing * m
        total = 0.0
        for i in range(len(batch)):
            K = np.diag(missing[i]) + np.outer(m[i], m[i]) - np.outer(nn[i], nn[i])
            total += batch.y[i] * (beta_prime @ m[i]) - 0.5 * beta_prime @ K @ beta_prime
        return float(total / len(batch))
    raise ValueError(f"unknown model kind {kind!r}")


def finite_diff_grad(kind: str, beta, batch, sigma: float, h: float = 1e-5) -> np.ndarray:
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


def nonprivate_em(
    spec: models.ModelSpec,
    batch,
    config: EmConfig,
    beta0,
    true_beta=None,
) -> Trajectory:
    """Standard non-private gradient EM: full data, no truncation, no noise.

    beta <- beta + eta * grad, repeated N0 times on the whole batch.  This is
    the baseline the private runs are compared against.
    """
    beta = _as_beta(beta0, spec.d)
    if len(batch) < 1:
        raise ValueError("batch must be nonempty")
    betas = [beta]
    for _ in range(config.N0):
        beta = beta + config.eta * models.raw_grad(spec, beta, batch)
        betas.append(beta)
    return _record(betas, true_beta, [(0, len(batch))] * config.N0)


def ht_gradient_em(
    spec: models.ModelSpec,
    batch,
    config: EmConfig,
    beta0,
    true_beta=None,
) -> Trajectory:
    """Noiseless hard-thresholding gradient EM with sample splitting.

    The exact reference for the high-dimensional engine: one untruncated
    gradient step per disjoint batch followed by exact top-k projection.
    Batching arithmetic and selection are coded here independently of the
    engine.
    """
    if config.s_hat is None:
        raise ValueError("ht_gradient_em requires s_hat >= 1")
    beta = _as_beta(beta0, spec.d)
    n = len(batch)
    if config.N0 > n:
        raise ValueError(f"N0 must not exceed the sample size ({config.N0} > {n})")
    size = n // config.N0
    bounds = [(t * size, t * size + size) for t in range(config.N0)]
    betas = [beta]
    for lo, hi in bounds:
        g = models.raw_grad(spec, beta, batch[lo:hi])
        beta = exact_top_k(beta + config.eta * g, config.s_hat).values
        betas.append(beta)
    return _record(betas, true_beta, bounds)
