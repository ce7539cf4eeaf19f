"""Mixture of regression: generator, truncated gradient.

Model: y = z * <x, beta> + e with x ~ N(0, I_d), z = +/-1 equiprobable, and
e ~ N(0, sigma^2).
"""

from __future__ import annotations

import numpy as np

from ..mechanisms import NoiseOracle
from .types import (ModelSpec, MorBatch, check_generate, check_grad, clamp, clamped_rowsum,
                    expit, matvec)

__all__ = ["generate_mor", "mor_truncated_grad"]


def generate_mor(spec: ModelSpec, n: int, oracle: NoiseOracle,
                 out: MorBatch | None = None) -> MorBatch:
    """Draw n i.i.d. pairs (x_i, y_i) with y_i = z_i <x_i, beta> + e_i.

    Written into ``out``'s arrays when given.
    """
    n = check_generate(spec, "mor", n, out)
    x = oracle.standard_normal((n, spec.d), out=None if out is None else out.x)
    u = np.atleast_1d(oracle.uniform_centered(n))
    z = np.where(u >= 0.0, 1.0, -1.0)
    e = spec.sigma * np.atleast_1d(oracle.standard_normal(n))
    y = np.multiply(z, matvec(x, spec.true_beta), out=None if out is None else out.y)
    y += e
    return MorBatch(x, y)


def mor_truncated_grad(beta, batch: MorBatch, sigma: float, T: float) -> np.ndarray:
    """Truncated gradient with y_i, x_i, and x_i^T beta clamped separately.

    (1/n) sum_i [2 w_i clamp(y_i) clamp(x_i) - clamp(x_i) clamp(x_i^T beta)]
    with the mixing weight w_i = 1 / (1 + exp(-y_i <x_i, beta> / sigma^2)) of
    the untruncated (x_i, y_i); X beta is formed once for both.  The row
    average is clamp(X)^T (2 w clamp(y) - clamp(X beta)) / n, summed by
    ``clamped_rowsum`` one row block of clamp(X) at a time.  T = inf is the raw
    sample gradient (1/n) sum_i [2 w_i y_i x_i - x_i (x_i^T beta)], with X
    uncopied.
    """
    check_grad(batch, sigma, T)
    beta = np.asarray(beta, dtype=float)
    xb = matvec(batch.x, beta)
    w = expit(batch.y * xb / sigma**2)
    r = 2.0 * w * clamp(batch.y, T) - clamp(xb, T)
    return clamped_rowsum(batch.x, T, r) / len(batch)
