"""Model-specific ingredients for the private EM engines.

Each model is one table entry: its data generator, its truncated gradient
(``T = inf`` gives the raw sample gradient), and the constants ``(c, p, b)``
of the certified ell-infinity sensitivity ``eta (c T^p + b ||beta||_inf) N0 / n``
of the eta-scaled gradient step taken from the iterate ``beta``.  Both
privatizers are calibrated from that one number (:meth:`dpem.em_engine.EmConfig.step_scale`).
Only rmc has ``b = 1``: its unclamped ``-(1 - z) * beta`` term moves with one
record's missingness mask.  Both matrix-vector directions are
single-threaded numpy passes: the row products ``X beta`` behind the weights,
fill-ins and generators go through ``types.matvec``, and the gmm and mor
gradients average their rows as the transposed product
``np.einsum("ij,i->j", clamp(X, T), r) / n``, which ``types.clamped_rowsum``
sums one clamped row block at a time, bit for bit, never copying the whole
batch.  The rmc gradient sums the same kind of products over row blocks of
its closed form, which never forms the (n, d) fill-in and holds because
``x_obs = z * x`` (see :mod:`dpem.models.rmc`).
The threaded BLAS gemv behind ``X @ beta`` and ``X.T @ r`` stalled for
milliseconds per call, and its summation order, hence the gradients' bytes,
followed the BLAS thread count.  The ``kind``-dispatching
helpers below are what the engines call; the per-model functions remain
directly importable.  A :class:`LazySample` hands the private drivers their
sample one batch at a time, drawn into one reused batch.  The generators'
and the gradients' input checks are written once, in :mod:`dpem.models.types`.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from ..mechanisms import NoiseOracle, require, whole
from .gmm import generate_gmm, gmm_truncated_grad, gmm_weight
from .mor import generate_mor, mor_truncated_grad
from .rmc import generate_rmc, rmc_truncated_grad
from .types import GmmBatch, ModelSpec, MorBatch, RmcBatch

__all__ = [
    "ModelSpec",
    "GmmBatch",
    "MorBatch",
    "RmcBatch",
    "generate",
    "LazySample",
    "raw_grad",
    "truncated_grad",
    "sensitivity",
    "generate_gmm",
    "gmm_weight",
    "gmm_truncated_grad",
    "generate_mor",
    "mor_truncated_grad",
    "generate_rmc",
    "rmc_truncated_grad",
]


_Model = namedtuple("_Model", ["generate", "truncated_grad", "c", "p", "b"])
_MODELS = {
    "gmm": _Model(generate_gmm, gmm_truncated_grad, 2.0, 1, 0.0),
    "mor": _Model(generate_mor, mor_truncated_grad, 4.0, 2, 0.0),
    "rmc": _Model(generate_rmc, rmc_truncated_grad, 6.0, 2, 1.0),
}


def generate(spec: ModelSpec, n: int, oracle: NoiseOracle, out=None):
    """Draw an n-sample batch from ``spec``'s model, into ``out``'s arrays when given."""
    return _MODELS[spec.kind].generate(spec, n, oracle, out)


class LazySample:
    """An n-sample draw that generates each batch only when it is read.

    ``len()`` is n, and the only legal slices are ``[0:b]``, ``[b:2b]``, ...
    (b = ``batch_size``), each read once, in order, as the private drivers
    read their batches; any other slice raises ``ValueError``.  Each read
    draws b rows from ``oracle`` through :func:`generate` into one batch,
    allocated at the first read and overwritten by every later one.  The
    n mod b trailing rows are never drawn.  Successive b-row draws order the
    stream differently from one n-row draw, so the rows differ from it.
    """

    def __init__(self, spec: ModelSpec, n: int, batch_size: int, oracle: NoiseOracle):
        self.spec = spec
        self._n = whole("n", n)
        self._size = whole("batch_size", batch_size)
        if self._size > self._n:
            raise ValueError(f"batch_size must not exceed n ({self._size} > {self._n})")
        self._oracle = oracle
        self._next = 0
        self._batch = None

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, key):
        if not isinstance(key, slice):
            raise TypeError("a LazySample supports slice indexing only")
        lo, hi, step = key.indices(self._n)
        if (lo, hi, step) != (self._next, self._next + self._size, 1):
            raise ValueError(f"a LazySample is read once, in order, {self._size} rows at a time: "
                             f"expected [{self._next}:{self._next + self._size}], got [{lo}:{hi}]")
        self._batch = generate(self.spec, self._size, self._oracle, out=self._batch)
        self._next = hi
        return self._batch


def raw_grad(spec: ModelSpec, beta, batch) -> np.ndarray:
    """Untruncated sample gradient for ``spec``'s model: the table gradient at T = inf."""
    return _MODELS[spec.kind].truncated_grad(beta, batch, spec.sigma, math.inf)


def truncated_grad(spec: ModelSpec, beta, batch, T: float) -> np.ndarray:
    """Truncated sample gradient; T = inf is exactly :func:`raw_grad`."""
    return _MODELS[spec.kind].truncated_grad(beta, batch, spec.sigma, T)


def sensitivity(kind: str, T: float, eta: float, N0: int, n: int, beta) -> float:
    """Certified ell-infinity sensitivity eta (c T^p + b ||beta||_inf) N0 / n of one step.

    The step is the eta-scaled truncated gradient taken from the iterate
    ``beta``: 2 eta T N0 / n for gmm, 4 eta T^2 N0 / n for mor and
    eta (6 T^2 + ||beta||_inf) N0 / n for rmc.  gmm and mor have b = 0, so
    their value does not depend on ``beta``.
    """
    if kind not in _MODELS:
        raise ValueError(f"unknown model kind {kind!r}")
    model = _MODELS[kind]
    require("T", T, "a positive finite number", lambda v: 0 < v < math.inf)
    require("eta", eta, "a finite number >= 0", lambda v: 0 <= v < math.inf)
    N0, n = whole("N0", N0), whole("n", n)
    beta_inf = float(np.max(np.abs(beta)))
    return (model.c * eta * T**model.p + model.b * eta * beta_inf) * N0 / n
