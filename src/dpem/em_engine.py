"""The two private EM drivers, one loop, and the non-private baseline.

Both private drivers split the sample into one batch per iteration and take a
truncated gradient step on it; the baseline reads it whole, once.  Every driver
reads its sample front to back, so the sample may draw its rows as they are read.
The loop calibrates once per run, by :meth:`EmConfig.step_scale`; the drivers
differ only in the release drawing at that scale (noisy hard thresholding or
Gaussian noise).  Disjoint batches mean each record influences exactly one
iteration, so the whole run inherits the per-iteration guarantee.
Every driver returns its (N0 + 1, d) array of iterates, row t the iterate
after t iterations; none reads the true parameter, which only the harness's
:func:`~dpem.harness.estimation_errors` scores them against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .mechanisms import (NoiseOracle, PrivacyBudget, gaussian_noise_std, noisy_hard_threshold,
                         noisy_ht_scale, require, sample_gaussian, whole)

__all__ = [
    "EmConfig",
    "run_high_dim",
    "run_low_dim",
    "nonprivate_em",
]


@dataclass(frozen=True)
class EmConfig:
    """Step size, truncation level, iteration count, budget, and sparsity.

    Every run carries a :class:`~dpem.mechanisms.PrivacyBudget`; noise is
    off only at ``budget.epsilon = inf``.  ``T = inf`` is a sentinel meaning
    "no truncation"; it has no certified sensitivity, so it is legal only at
    ``epsilon = inf``.  ``s_hat`` selects the regime and its calibration:
    :func:`run_high_dim` requires it, :func:`run_low_dim` refuses it.
    """

    eta: float
    T: float
    N0: int
    budget: PrivacyBudget
    s_hat: int | None = None

    def __post_init__(self):
        require("eta", self.eta, "a finite nonnegative number", lambda v: 0 <= v < math.inf)
        require("T", self.T, "a positive number", lambda v: v > 0)
        object.__setattr__(self, "N0", whole("N0", self.N0))
        if not isinstance(self.budget, PrivacyBudget):
            raise ValueError(f"budget must be a PrivacyBudget, got {self.budget!r}")
        if self.s_hat is not None:
            object.__setattr__(self, "s_hat", whole("s_hat", self.s_hat))
        if math.isinf(self.T) and math.isfinite(self.budget.epsilon):
            raise ValueError("T = inf (no truncation) is legal only with epsilon = inf")

    def step_scale(self, spec: models.ModelSpec, n: int) -> float:
        """Noise scale of every step of a run on n samples; 0.0 at T = inf.

        :func:`noisy_ht_scale` if ``s_hat`` is set, else :func:`gaussian_noise_std`,
        of lam = :func:`models.sensitivity` at ``N0 * (n // N0)`` samples.  A
        scale that overflows a draw raises a ``ValueError`` naming epsilon.
        """
        if math.isinf(self.T):
            return 0.0
        lam = models.sensitivity(spec, self.T, self.eta, self.N0, self.N0 * (n // self.N0))
        try:
            if self.s_hat is not None:
                return noisy_ht_scale(lam, self.s_hat, self.budget)
            return gaussian_noise_std(lam, spec.d, self.budget)
        except ValueError as exc:
            raise ValueError(
                f"the noise at epsilon = {self.budget.epsilon!r} overflows: {exc}") from exc


def _start(spec, batch, config, beta0) -> np.ndarray:
    # A run's checks, made before any batch is read: beta0 has shape (d,) and
    # finite coordinates, and the batch holds at least one row per iteration.
    beta0 = np.asarray(beta0, dtype=float)
    if beta0.shape != (spec.d,):
        raise ValueError(f"beta0 must have shape ({spec.d},), got {beta0.shape}")
    if not np.all(np.isfinite(beta0)):
        raise ValueError("beta0 must have finite coordinates")
    if config.N0 > len(batch):
        raise ValueError(f"batch must be nonempty and hold at least N0 = {config.N0} rows, "
                         f"got {len(batch)}")
    return beta0.copy()


def _run(spec, batch, config, beta0, release) -> np.ndarray:
    # The one EM loop.  Iteration t reads batch[t m : t m + m], m = n // N0:
    # disjoint batches of the size the sensitivity constants assume, the
    # n mod N0 trailing rows left unread.  ``release(v, scale)`` maps
    # v = beta + eta * f_T(grad) to the released iterate, drawing at the run's
    # one scale, config.step_scale.
    beta = _start(spec, batch, config, beta0)
    n = len(batch)
    m = n // config.N0
    scale = config.step_scale(spec, n)

    betas = [beta]
    for lo in range(0, config.N0 * m, m):
        g = models.truncated_grad(spec, beta, batch[lo:lo + m], config.T)
        beta = release(beta + config.eta * g, scale)
        betas.append(beta)
    return np.vstack(betas)


def nonprivate_em(
    spec: models.ModelSpec,
    batch,
    config: EmConfig,
    beta0,
) -> np.ndarray:
    """Standard non-private gradient EM: full data, no truncation, no noise.

    beta <- beta + eta * grad, repeated N0 times on the whole batch.  This is
    the baseline the private runs are compared against.  Once its inputs are
    checked, it reads the batch once, whole, as ``batch[0:len(batch)]``.
    """
    beta = _start(spec, batch, config, beta0)
    batch = batch[0:len(batch)]
    betas = [beta]
    for _ in range(config.N0):
        beta = beta + config.eta * models.raw_grad(spec, beta, batch)
        betas.append(beta)
    return np.vstack(betas)


def run_high_dim(
    spec: models.ModelSpec,
    batch,
    config: EmConfig,
    beta0,
    oracle: NoiseOracle,
) -> np.ndarray:
    """High-dimensional private EM: split, truncated step, noisy thresholding.

    Per iteration t on batch t only:
        beta_half = beta + eta * f_T(grad)        (truncated gradient step)
        beta      = NoisyHT(beta_half, s_hat, EmConfig.step_scale)
    Every iterate from t = 1 on satisfies ||beta||_0 <= s_hat.
    """
    if config.s_hat is None:
        raise ValueError("run_high_dim requires s_hat >= 1")
    nnz = int(np.count_nonzero(beta0))
    if nnz > config.s_hat:
        raise ValueError(f"beta0 must have at most s_hat = {config.s_hat} nonzeros, got {nnz}")

    return _run(spec, batch, config, beta0, lambda v, scale:
                noisy_hard_threshold(v, config.s_hat, scale, oracle).values)


def run_low_dim(
    spec: models.ModelSpec,
    batch,
    config: EmConfig,
    beta0,
    oracle: NoiseOracle,
) -> np.ndarray:
    """Low-dimensional private EM: truncated gradient step plus Gaussian noise.

    Per iteration t on batch t only:
        beta = beta + eta * f_T(grad) + W_t,  W_t ~ N(0, sigma_W^2 I_d)
    with sigma_W from :meth:`EmConfig.step_scale`, so ``s_hat`` is refused.
    """
    if config.s_hat is not None:
        raise ValueError(f"run_low_dim takes no s_hat (got {config.s_hat}): it selects peeling")
    return _run(spec, batch, config, beta0, lambda v, scale:
                v + sample_gaussian(scale, oracle, spec.d))
