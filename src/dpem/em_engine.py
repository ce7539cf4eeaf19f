"""The two private EM drivers, one loop.

Both drivers split the sample into one batch per iteration and take a
truncated gradient step on it; they differ only in how the step is
privatized.  The high-dimensional driver re-sparsifies it through noisy hard
thresholding; the low-dimensional driver perturbs it with calibrated
Gaussian noise.  Disjoint batches mean each record influences exactly one
iteration, so the whole run inherits the per-iteration privacy guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .mechanisms import (NoiseOracle, PrivacyBudget, gaussian_noise_std, noisy_hard_threshold,
                         require, whole)

__all__ = [
    "EmConfig",
    "Trajectory",
    "split_batches",
    "run_high_dim",
    "run_low_dim",
]


@dataclass(frozen=True)
class EmConfig:
    """Step size, truncation level, iteration count, sparsity, and budget.

    ``T = inf`` is a sentinel meaning "no truncation"; it has no certified
    sensitivity, so it is legal only with a silent noise oracle.  ``s_hat``
    is read by :func:`run_high_dim` only, which requires it.  ``budget`` may
    be omitted only when ``T = inf``, for non-private reference runs.
    """

    eta: float
    T: float
    N0: int
    s_hat: int | None = None
    budget: PrivacyBudget | None = None

    def __post_init__(self):
        require("eta", self.eta, "a finite nonnegative number", lambda v: 0 <= v < math.inf)
        require("T", self.T, "a positive number", lambda v: v > 0)
        object.__setattr__(self, "N0", whole("N0", self.N0))
        if self.s_hat is not None:
            object.__setattr__(self, "s_hat", whole("s_hat", self.s_hat))


@dataclass(frozen=True)
class Trajectory:
    """Recorded iterates of one EM run.

    ``betas`` has shape (N0 + 1, d), row t being the iterate after t
    iterations.  ``errors`` and ``errors_signfree`` hold the plain and
    sign-ambiguity-corrected ell-2 distances to the true parameter and are
    None when no true parameter was supplied.  ``batch_bounds`` lists the
    half-open index ranges consumed per iteration.
    """

    betas: np.ndarray
    errors: np.ndarray | None
    errors_signfree: np.ndarray | None
    batch_bounds: list[tuple[int, int]]

    @property
    def final_beta(self) -> np.ndarray:
        return self.betas[-1]

    @property
    def final_error(self) -> float:
        if self.errors is None:
            raise ValueError("trajectory was recorded without a true parameter")
        return float(self.errors[-1])


def split_batches(n: int, N0: int) -> list[tuple[int, int]]:
    """N0 disjoint contiguous ranges of equal size floor(n / N0), in order.

    The trailing n mod N0 samples are left unused so every batch has the
    size the sensitivity constants assume.
    """
    if n < 1 or N0 < 1:
        raise ValueError("n and N0 must be positive integers")
    if N0 > n:
        raise ValueError(f"N0 must not exceed n ({N0} > {n})")
    size = n // N0
    return [(i * size, (i + 1) * size) for i in range(N0)]


def _as_beta(beta0, d: int) -> np.ndarray:
    beta0 = np.asarray(beta0, dtype=float)
    if beta0.shape != (d,):
        raise ValueError(f"beta0 must have shape ({d},), got {beta0.shape}")
    if not np.all(np.isfinite(beta0)):
        raise ValueError("beta0 must have finite coordinates")
    return beta0.copy()


def _distances(beta, true_beta):
    plain = float(np.linalg.norm(beta - true_beta))
    flipped = float(np.linalg.norm(beta + true_beta))
    return plain, min(plain, flipped)


def _record(betas, true_beta, bounds):
    betas = np.vstack(betas)
    if true_beta is None:
        return Trajectory(betas, None, None, bounds)
    true_beta = np.asarray(true_beta, dtype=float)
    pairs = [_distances(b, true_beta) for b in betas]
    errs = np.array([p[0] for p in pairs])
    errs_sf = np.array([p[1] for p in pairs])
    return Trajectory(betas, errs, errs_sf, bounds)


def _run(spec, batch, config, beta0, oracle, true_beta, privatize) -> Trajectory:
    # The one EM loop.  ``privatize(v, lam)`` maps v = beta + eta * f_T(grad)
    # to the released iterate, where lam is the certified ell-infinity
    # sensitivity of v; T = inf certifies nothing and runs noiseless (lam = 0).
    beta = _as_beta(beta0, spec.d)
    if math.isinf(config.T) and not oracle.silent:
        raise ValueError("T = inf (no truncation) is legal only with a silent noise oracle")
    n = len(batch)
    bounds = split_batches(n, config.N0)
    lam = 0.0 if math.isinf(config.T) else models.sensitivity(
        spec.kind, config.T, config.eta, config.N0, config.N0 * (n // config.N0))

    betas = [beta]
    for lo, hi in bounds:
        g = models.truncated_grad(spec, beta, batch[lo:hi], config.T)
        beta = privatize(beta + config.eta * g, lam)
        betas.append(beta)
    return _record(betas, true_beta, bounds)


def run_high_dim(
    spec: models.ModelSpec,
    batch,
    config: EmConfig,
    beta0,
    oracle: NoiseOracle,
    true_beta=None,
) -> Trajectory:
    """High-dimensional private EM: split, truncated step, noisy thresholding.

    Per iteration t on batch t only:
        beta_half = beta + eta * f_T(grad)        (truncated gradient step)
        beta      = NoisyHT(beta_half, s_hat, sensitivity, budget)
    Every iterate from t = 1 on satisfies ||beta||_0 <= s_hat.
    """
    if config.s_hat is None:
        raise ValueError("run_high_dim requires s_hat >= 1")
    nnz = int(np.count_nonzero(beta0))
    if nnz > config.s_hat:
        raise ValueError(f"beta0 must have at most s_hat = {config.s_hat} nonzeros, got {nnz}")

    return _run(spec, batch, config, beta0, oracle, true_beta, lambda v, lam:
                noisy_hard_threshold(v, config.s_hat, lam, config.budget, oracle).values)


def run_low_dim(
    spec: models.ModelSpec,
    batch,
    config: EmConfig,
    beta0,
    oracle: NoiseOracle,
    true_beta=None,
) -> Trajectory:
    """Low-dimensional private EM: truncated gradient step plus Gaussian noise.

    Per iteration t on batch t only:
        beta = beta + eta * f_T(grad) + W_t,  W_t ~ N(0, sigma_W^2 I_d)
    with sigma_W from :func:`~dpem.mechanisms.gaussian_noise_std` at the
    certified sensitivity of the step.
    """
    return _run(spec, batch, config, beta0, oracle, true_beta, lambda v, lam:
                v + gaussian_noise_std(lam, spec.d, config.budget) * oracle.standard_normal(spec.d))
