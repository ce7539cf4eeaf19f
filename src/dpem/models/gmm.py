"""Gaussian mixture model: generator, mixing weight, truncated gradient.

Model: y = z * beta + e with z = +/-1 equiprobable and e ~ N(0, sigma^2 I_d).
"""

from __future__ import annotations

import numpy as np

from ..mechanisms import NoiseOracle
from .types import GmmBatch, ModelSpec, clamp, expit, matvec

__all__ = ["generate_gmm", "gmm_weight", "gmm_truncated_grad"]


def generate_gmm(spec: ModelSpec, n: int, oracle: NoiseOracle) -> GmmBatch:
    """Draw n i.i.d. observations y_i = z_i * beta + e_i."""
    if spec.kind != "gmm":
        raise ValueError(f"spec.kind must be 'gmm', got {spec.kind!r}")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if spec.true_beta is None:
        raise ValueError("spec.true_beta is required to generate data")
    u = np.atleast_1d(oracle.uniform_centered(n))
    positive = (u >= 0.0)[:, None]  # z_i = +1
    # Built in place in the one (n, d) output: e + beta equals beta + e and
    # e - beta equals (-beta) + e bitwise, so this is z * beta + e exactly.
    y = oracle.standard_normal((n, spec.d))
    y *= spec.sigma
    np.add(y, spec.true_beta, out=y, where=positive)
    np.subtract(y, spec.true_beta, out=y, where=~positive)
    return GmmBatch(y)


def gmm_weight(beta, y, sigma: float):
    """Mixing weight 1 / (1 + exp(-<beta, y> / sigma^2)).

    Accepts a single observation (d,) or a stack (n, d); returns a scalar or
    an (n,) array accordingly.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    inner = matvec(np.asarray(y, dtype=float), np.asarray(beta, dtype=float))
    return expit(inner / sigma**2)


def gmm_truncated_grad(beta, batch: GmmBatch, sigma: float, T: float) -> np.ndarray:
    """Truncated gradient (1/n) sum_i (2 w(y_i) - 1) clamp_T(y_i) - beta.

    The weight uses the untruncated observation; only y_i is clamped.  The row
    average is one transposed product, clamp_T(Y)^T (2 w - 1) / n.  T = inf is
    the raw sample gradient (1/n) sum_i (2 w(y_i) - 1) y_i - beta, unclamped.
    """
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    beta = np.asarray(beta, dtype=float)
    w = gmm_weight(beta, batch.y, sigma)
    return np.einsum("ij,i->j", clamp(batch.y, T), 2.0 * w - 1.0) / len(batch) - beta
