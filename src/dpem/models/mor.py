"""Mixture of regression: generator, mixing weight, truncated gradient.

Model: y = z * <x, beta> + e with x ~ N(0, I_d), z = +/-1 equiprobable, and
e ~ N(0, sigma^2).
"""

from __future__ import annotations

import numpy as np

from ..mechanisms import NoiseOracle
from .types import ModelSpec, MorBatch, clamp, expit, matvec

__all__ = ["generate_mor", "mor_weight", "mor_truncated_grad"]


def generate_mor(spec: ModelSpec, n: int, oracle: NoiseOracle) -> MorBatch:
    """Draw n i.i.d. pairs (x_i, y_i) with y_i = z_i <x_i, beta> + e_i."""
    if spec.kind != "mor":
        raise ValueError(f"spec.kind must be 'mor', got {spec.kind!r}")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if spec.true_beta is None:
        raise ValueError("spec.true_beta is required to generate data")
    x = np.atleast_2d(oracle.standard_normal((n, spec.d)))
    u = np.atleast_1d(oracle.uniform_centered(n))
    z = np.where(u >= 0.0, 1.0, -1.0)
    e = spec.sigma * np.atleast_1d(oracle.standard_normal(n))
    return MorBatch(x, z * matvec(x, spec.true_beta) + e)


def _weight(inner, y, sigma: float):
    # The mixing weight from the row products inner = <x, beta>.
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return expit(np.asarray(y, dtype=float) * inner / sigma**2)


def mor_weight(beta, x, y, sigma: float):
    """Mixing weight 1 / (1 + exp(-y <beta, x> / sigma^2))."""
    return _weight(matvec(np.asarray(x, dtype=float), np.asarray(beta, dtype=float)), y, sigma)


def mor_truncated_grad(beta, batch: MorBatch, sigma: float, T: float) -> np.ndarray:
    """Truncated gradient with y_i, x_i, and x_i^T beta clamped separately.

    (1/n) sum_i [2 w_i clamp(y_i) clamp(x_i) - clamp(x_i) clamp(x_i^T beta)];
    the weight w_i uses the untruncated (x_i, y_i), and X beta is formed once for
    both.  The row average is one transposed product,
    clamp(X)^T (2 w clamp(y) - clamp(X beta)) / n.  T = inf is the raw sample
    gradient (1/n) sum_i [2 w_i y_i x_i - x_i (x_i^T beta)].
    """
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    beta = np.asarray(beta, dtype=float)
    xb = matvec(batch.x, beta)
    r = 2.0 * _weight(xb, batch.y, sigma) * clamp(batch.y, T) - clamp(xb, T)
    return np.einsum("ij,i->j", clamp(batch.x, T), r) / len(batch)
