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
from .mechanisms import NoiseOracle, PrivacyBudget, noisy_hard_threshold, require, whole

__all__ = [
    "EmConfig",
    "Trajectory",
    "split_batches",
    "run_high_dim",
    "run_low_dim",
    "gaussian_noise_variance",
    "gaussian_noise_std",
    "fit_geometric_decay",
]


@dataclass(frozen=True)
class EmConfig:
    """Step size, truncation level, iteration count, sparsity, and budget.

    ``T = inf`` is a sentinel meaning "no truncation"; privacy calibration
    rejects it, so it is legal only with a silent noise oracle.  ``s_hat``
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


def _run(regime, spec, batch, config, beta0, oracle, true_beta, privatizer) -> Trajectory:
    # The one EM loop.  ``privatizer(n_used)`` returns the per-iteration
    # step mapping beta + eta * f_T(grad) to the released iterate.
    beta = _as_beta(beta0, spec.d)
    if math.isinf(config.T):
        if not oracle.silent:
            raise ValueError("T = inf (no truncation) is legal only with a silent noise oracle")
    elif config.budget is None:
        raise ValueError(f"run_{regime} requires a privacy budget when T is finite")
    n = len(batch)
    bounds = split_batches(n, config.N0)
    step = privatizer(config.N0 * (n // config.N0))

    betas = [beta]
    for lo, hi in bounds:
        g = models.truncated_grad(spec, beta, batch[lo:hi], config.T)
        beta = step(beta + config.eta * g)
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

    def privatizer(n_used):
        lam = 0.0 if math.isinf(config.T) else models.sensitivity(
            spec.kind, config.T, config.eta, config.N0, n_used)
        return lambda v: noisy_hard_threshold(v, config.s_hat, lam, config.budget, oracle).values

    return _run("high_dim", spec, batch, config, beta0, oracle, true_beta, privatizer)


def gaussian_noise_variance(
    kind: str,
    eta: float,
    T: float,
    N0: int,
    n_used: int,
    d: int,
    budget: PrivacyBudget,
) -> float:
    """Per-coordinate Gaussian variance for the low-dimensional engine.

    2 eta^2 d Delta^2 N0^2 ln(1.25/delta) / (n_used^2 epsilon^2), with the
    model's ell-2 sensitivity factor Delta in {2T, 4T^2, 6T^2}.
    """
    if not (T > 0 and math.isfinite(T)):
        raise ValueError(f"T must be positive and finite, got {T}")
    delta_f = models.noise_multiplier(kind, T)
    return (
        2.0
        * eta**2
        * d
        * delta_f**2
        * N0**2
        * math.log(1.25 / budget.delta)
        / (n_used**2 * budget.epsilon**2)
    )


def gaussian_noise_std(kind, eta, T, N0, n_used, d, budget) -> float:
    return math.sqrt(gaussian_noise_variance(kind, eta, T, N0, n_used, d, budget))


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
    with sigma_W^2 from :func:`gaussian_noise_variance`.
    """

    def privatizer(n_used):
        std = 0.0 if math.isinf(config.T) else gaussian_noise_std(
            spec.kind, config.eta, config.T, config.N0, n_used, spec.d, config.budget)
        return lambda v: v + std * np.atleast_1d(oracle.standard_normal(spec.d))

    return _run("low_dim", spec, batch, config, beta0, oracle, true_beta, privatizer)


def fit_geometric_decay(errors) -> tuple[float, float]:
    """Least-squares fit of error_t ~ kappa * error_{t-1} + floor, t >= 1.

    Diagnostic for the geometric decay of the optimization error; returns
    (kappa, floor).
    """
    errors = np.asarray(errors, dtype=float)
    if errors.size < 3:
        raise ValueError("need at least three recorded errors to fit a decay rate")
    prev = errors[:-1]
    curr = errors[1:]
    design = np.column_stack([prev, np.ones_like(prev)])
    (kappa, floor), *_ = np.linalg.lstsq(design, curr, rcond=None)
    return float(kappa), float(floor)
