"""Exact top-k selection and the non-private EM baseline.

The harness uses ``exact_top_k`` for sparse starting points and
``nonprivate_em`` for the command line's baseline.  ``exact_top_k`` selects
by full sort, independently of the peeling in :mod:`dpem.mechanisms`, so the
tests also use it as the reference for noisy hard thresholding at
``epsilon = inf``.  The remaining references (surrogate objectives, finite
differences, noiseless hard-thresholding EM) live with the tests.
"""

from __future__ import annotations

import numpy as np

from . import models
from .em_engine import EmConfig, Trajectory, _as_beta, _record
from .mechanisms import SparseSelection, whole

__all__ = ["exact_top_k", "nonprivate_em"]


def exact_top_k(v, s: int) -> SparseSelection:
    """The s coordinates of largest magnitude, by full stable sort.

    Ties go to the lowest index.  Values are kept on the selected support
    and zeroed elsewhere.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"v must be one-dimensional, got shape {v.shape}")
    s = whole("s", s)
    if s > v.size:
        raise ValueError(f"s must not exceed the dimension d ({s} > {v.size})")
    order = np.argsort(-np.abs(v), kind="stable")[:s]
    values = np.zeros_like(v)
    values[order] = v[order]
    return SparseSelection(support=order, values=values)


def nonprivate_em(
    spec: models.ModelSpec,
    batch,
    config: EmConfig,
    beta0,
    true_beta=None,
) -> Trajectory:
    """Standard non-private gradient EM: full data, no truncation, no noise.

    beta <- beta + eta * grad, repeated N0 times on the whole batch.  This is
    the baseline the private runs are compared against.
    """
    beta = _as_beta(beta0, spec.d)
    betas = [beta]
    for _ in range(config.N0):
        beta = beta + config.eta * models.raw_grad(spec, beta, batch)
        betas.append(beta)
    return _record(betas, true_beta, [(0, len(batch))] * config.N0)
