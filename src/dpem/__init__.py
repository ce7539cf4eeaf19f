"""Differentially private EM estimation for latent-variable models.

Sparse high-dimensional estimation runs through noisy iterative hard
thresholding; the classic low-dimensional setting runs through the Gaussian
mechanism.  Three models are built in: the symmetric two-component Gaussian
mixture, mixture of regression, and regression with missing covariates.

The top-level package holds the names the README and the demos use; the
rest lives in the submodules (``dpem.em_engine``, the drivers and the
non-private baseline; ``dpem.mechanisms``, the noise and the sparse
selections; ``dpem.models``, ``dpem.harness`` and ``dpem.cli``).
"""

from .em_engine import EmConfig, nonprivate_em, run_high_dim, run_low_dim
from .mechanisms import (
    NoiseOracle,
    PrivacyBudget,
    derive_seed,
    exact_top_k,
    noisy_hard_threshold,
    noisy_ht_scale,
    sample_gaussian,
    sample_laplace,
)
from .models import ModelSpec, generate

__all__ = [
    "EmConfig",
    "ModelSpec",
    "NoiseOracle",
    "PrivacyBudget",
    "derive_seed",
    "exact_top_k",
    "generate",
    "noisy_hard_threshold",
    "noisy_ht_scale",
    "nonprivate_em",
    "run_high_dim",
    "run_low_dim",
    "sample_gaussian",
    "sample_laplace",
]

__version__ = "0.1.0"
