"""Gaussian mixture model: generator, mixing weight, truncated gradient.

Model: y = z * beta + e with z = +/-1 equiprobable and e ~ N(0, sigma^2 I_d).
"""

from __future__ import annotations

import numpy as np

from ..mechanisms import NoiseOracle
from .types import (GmmBatch, ModelSpec, check_generate, check_grad, clamped_rowsum, expit,
                    matvec)

__all__ = ["generate_gmm", "gmm_weight", "gmm_truncated_grad"]


def generate_gmm(spec: ModelSpec, n: int, oracle: NoiseOracle,
                 out: GmmBatch | None = None) -> GmmBatch:
    """Draw n i.i.d. observations y_i = z_i * beta + e_i.

    Written into ``out``'s arrays when given.
    """
    n = check_generate(spec, "gmm", n, out)
    u = np.atleast_1d(oracle.uniform_centered(n))
    positive = (u >= 0.0)[:, None]  # z_i = +1
    # Built in place in the one (n, d) output: e + beta equals beta + e and
    # e - beta equals (-beta) + e bitwise, so this is z * beta + e exactly.
    y = oracle.standard_normal((n, spec.d), out=None if out is None else out.y)
    y *= spec.sigma
    np.add(y, spec.true_beta, out=y, where=positive)
    np.subtract(y, spec.true_beta, out=y, where=~positive)
    return GmmBatch(y)


def gmm_weight(beta, y, sigma: float):
    """Mixing weight 1 / (1 + exp(-<beta, y> / sigma^2)), for sigma > 0.

    Accepts a single observation (d,) or a stack (n, d); returns a scalar or
    an (n,) array accordingly.
    """
    inner = matvec(np.asarray(y, dtype=float), np.asarray(beta, dtype=float))
    return expit(inner / sigma**2)


def gmm_truncated_grad(beta, batch: GmmBatch, sigma: float, T: float) -> np.ndarray:
    """Truncated gradient (1/n) sum_i (2 w(y_i) - 1) clamp_T(y_i) - beta.

    The weight uses the untruncated observation; only y_i is clamped.  The row
    average is clamp_T(Y)^T (2 w - 1) / n, summed by ``clamped_rowsum`` one row
    block of clamp_T(Y) at a time.  T = inf is the raw sample gradient
    (1/n) sum_i (2 w(y_i) - 1) y_i - beta, unclamped and uncopied.
    """
    check_grad(batch, sigma, T)
    beta = np.asarray(beta, dtype=float)
    w = gmm_weight(beta, batch.y, sigma)
    return clamped_rowsum(batch.y, T, 2.0 * w - 1.0) / len(batch) - beta
