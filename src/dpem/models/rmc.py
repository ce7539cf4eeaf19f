"""Regression with missing covariates: generator, truncated gradient.

Model: y = <x, beta> + e with x ~ N(0, I_d), e ~ N(0, sigma^2); each
coordinate of x is observed independently with probability 1 - p
(z_ij = 1 when observed) and x_obs = z * x.  The mask z is a boolean array,
one byte per entry; ``generate_rmc`` draws its uniforms a row block of about
``BLOCK_VALUES`` values at a time, which consumes the oracle exactly as one
(n, d) draw does, so no (n, d) float temporary backs the mask.

The gradient relies on that last identity, the ``RmcBatch`` contract that
x_obs is zero wherever z is zero; it is not checked at run time, and
``generate_rmc`` is the only builder of an ``RmcBatch`` in the package.  With
u_i = 1 - z_i, q_i = u_i^T (beta * beta) and
c_i = (y_i - x_obs_i^T beta) / (sigma^2 + q_i), the conditional-mean fill-in
of the missing covariates is m_i = x_obs_i + c_i u_i * beta, and
n_i = u_i * m_i = c_i u_i * beta.  The two terms of m_i have disjoint
supports, so clamp(m_i) = clamp(x_obs_i) + u_i * clamp(c_i beta),
m_i^T beta = x_obs_i^T beta + c_i q_i and n_i^T beta = c_i q_i.  The
gradient sums that closed form over row blocks of about ``BLOCK_VALUES``
values and never forms an (n, d) temporary.
"""

from __future__ import annotations

import numpy as np

from ..mechanisms import BLOCK_VALUES, NoiseOracle
from .types import ModelSpec, RmcBatch, check_generate, check_grad, clamp, matvec

__all__ = ["generate_rmc", "rmc_truncated_grad"]


def generate_rmc(spec: ModelSpec, n: int, oracle: NoiseOracle,
                 out: RmcBatch | None = None) -> RmcBatch:
    """Draw n i.i.d. triples (x_obs, z, y) under coordinate-wise missingness.

    Written into ``out``'s arrays when given.
    """
    n = check_generate(spec, "rmc", n, out)
    x = oracle.standard_normal((n, spec.d), out=None if out is None else out.x_obs)
    e = spec.sigma * np.atleast_1d(oracle.standard_normal(n))
    y = np.add(matvec(x, spec.true_beta), e, out=None if out is None else out.y)
    z = np.empty((n, spec.d), dtype=bool) if out is None else out.z
    step = max(1, BLOCK_VALUES // spec.d)
    u_buf = np.empty((min(step, n), spec.d))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        u = oracle.uniform_centered((hi - lo, spec.d), out=u_buf[:hi - lo])
        u += 0.5
        mask = np.greater_equal(u, spec.missing_prob, out=z[lo:hi])
        x[lo:hi] *= mask
    return RmcBatch(x, z, y)


def rmc_truncated_grad(beta, batch: RmcBatch, sigma: float, T: float) -> np.ndarray:
    """Truncated gradient with y, m, m^T beta, n, and n^T beta clamped.

    (1/n) sum_i [clamp(y_i) clamp(m_i) - diag(1-z_i) beta
                 - clamp(m_i) clamp(m_i^T beta) + clamp(n_i) clamp(n_i^T beta)];
    the diag(1-z) beta term is left unclamped, so one record's z moves it by
    up to |beta_j| / n, and the certified sensitivity carries ||beta||_inf.
    T = inf is the raw sample gradient (1/n) sum_i [y_i m_i - K_i beta] with
    K_i = diag(1-z_i) + m_i m_i^T - n_i n_i^T.  Neither K_i nor the fill-ins
    m and n are formed: in the module docstring's notation, with
    r_i = clamp(y_i) - clamp(x_obs_i^T beta + c_i q_i), the clamped terms sum
    to sum_i [clamp(x_obs_i) r_i + (r_i + clamp(c_i q_i)) u_i * clamp(c_i beta)],
    accumulated a row block at a time with sum_i u_i.  ``z`` may be the
    boolean mask ``generate_rmc`` returns or the same mask as 0/1 floats.
    """
    check_grad(batch, sigma, T)
    beta = np.asarray(beta, dtype=float)
    n, d = batch.x_obs.shape
    beta_sq = beta * beta
    clamped = np.zeros(d)
    missing_count = np.zeros(d)
    step = max(1, BLOCK_VALUES // d)
    # Two block buffers, reused: a fresh (step, d) array per block costs more
    # in page faults than the arithmetic on it.
    missing_buf = np.empty((min(step, n), d))
    fill_buf = np.empty_like(missing_buf)
    for lo in range(0, n, step):
        block = batch[lo:lo + step]
        missing = np.logical_not(block.z, out=missing_buf[:len(block)])
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
    return clamped / n - beta * (missing_count / n)
