"""Model-specific ingredients for the private EM engines.

Each model is one table entry: its data generator, its truncated gradient
(``T = inf`` gives the raw sample gradient), and the constant pair
``(c, p)`` of the certified ell-infinity sensitivity ``c eta T^p N0 / n`` of
the eta-scaled gradient step.  Both privatizers are calibrated from that one
number (see :mod:`dpem.mechanisms`).  The ``kind``-dispatching helpers below
are what the engines call; the per-model functions remain directly
importable.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from ..mechanisms import NoiseOracle
from .gmm import generate_gmm, gmm_truncated_grad, gmm_weight
from .mor import generate_mor, mor_truncated_grad, mor_weight
from .rmc import generate_rmc, rmc_mbeta, rmc_truncated_grad, rmc_truncated_grad_clamped_part
from .types import GmmBatch, ModelSpec, MorBatch, RmcBatch

__all__ = [
    "ModelSpec",
    "GmmBatch",
    "MorBatch",
    "RmcBatch",
    "generate",
    "raw_grad",
    "truncated_grad",
    "sensitivity",
    "generate_gmm",
    "gmm_weight",
    "gmm_truncated_grad",
    "generate_mor",
    "mor_weight",
    "mor_truncated_grad",
    "generate_rmc",
    "rmc_mbeta",
    "rmc_truncated_grad",
    "rmc_truncated_grad_clamped_part",
]


_Model = namedtuple("_Model", ["generate", "truncated_grad", "c", "p"])
_MODELS = {
    "gmm": _Model(generate_gmm, gmm_truncated_grad, 2.0, 1),
    "mor": _Model(generate_mor, mor_truncated_grad, 4.0, 2),
    "rmc": _Model(generate_rmc, rmc_truncated_grad, 6.0, 2),
}


def generate(spec: ModelSpec, n: int, oracle: NoiseOracle):
    """Draw an n-sample batch from ``spec``'s generative model."""
    return _MODELS[spec.kind].generate(spec, n, oracle)


def raw_grad(spec: ModelSpec, beta, batch) -> np.ndarray:
    """Untruncated sample gradient for ``spec``'s model: the table gradient at T = inf."""
    return _MODELS[spec.kind].truncated_grad(beta, batch, spec.sigma, math.inf)


def truncated_grad(spec: ModelSpec, beta, batch, T: float) -> np.ndarray:
    """Truncated sample gradient; T = inf is exactly :func:`raw_grad`."""
    return _MODELS[spec.kind].truncated_grad(beta, batch, spec.sigma, T)


def sensitivity(kind: str, T: float, eta: float, N0: int, n: int) -> float:
    """Certified ell-infinity sensitivity c eta T^p N0 / n of the eta-scaled truncated step.

    2 eta T N0 / n for gmm, 4 eta T^2 N0 / n for mor, 6 eta T^2 N0 / n for rmc.
    """
    if kind not in _MODELS:
        raise ValueError(f"unknown model kind {kind!r}")
    model = _MODELS[kind]
    if not (T > 0 and math.isfinite(T)):
        raise ValueError(f"T must be positive and finite, got {T}")
    if eta < 0:
        raise ValueError(f"eta must be nonnegative, got {eta}")
    if N0 < 1 or n < 1:
        raise ValueError("N0 and n must be positive integers")
    return model.c * eta * T**model.p * N0 / n

