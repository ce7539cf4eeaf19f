"""Shared model types: the model descriptor, per-model sample batches, truncation.

Batches are stored struct-of-arrays: a batch of n samples holds (n, d) and
(n,) arrays rather than n per-sample objects, so the gradient operations
stay vectorized.  Slicing a batch returns a batch of the same kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ..mechanisms import BLOCK_VALUES, require, whole

__all__ = ["ModelSpec", "GmmBatch", "MorBatch", "RmcBatch", "clamp", "clamped_rowsum", "expit",
           "matvec"]

MODEL_KINDS = ("gmm", "mor", "rmc")


def clamp(a, T: float, out=None):
    """Coordinate-wise projection onto [-T, T]; T = inf returns ``a`` itself, uncopied.

    A finite T writes into ``out`` when given; T = inf leaves ``out`` untouched,
    so callers use the return value.
    """
    return a if math.isinf(T) else np.clip(a, -T, T, out=out)


def clamped_rowsum(a, T: float, r):
    """``np.einsum("ij,i->j", clamp(a, T), r)`` bitwise, holding one row block of ``clamp(a, T)``.

    For a finite T and a C-ordered (n, d) ``a`` with d > 1, the rows are
    split into even blocks of at most ``BLOCK_VALUES`` values (one row when d
    is larger), each clipped into rows 1..k of one reused buffer whose row 0
    carries the running sum with weight 1.0; one einsum over the buffer gives
    the next running sum.  numpy's ``"ij,i->j"`` einsum adds the rows of such
    an array strictly in order, so the carried sum is the whole-batch sum to
    the last bit, for one block too; adding per-block sums would round
    differently.  Otherwise it is the whole-batch einsum itself: at T = inf
    nothing is copied, and layouts whose einsum does not add in row order
    (d = 1 or not C-ordered) keep their own summation order.
    """
    n, d = a.shape
    if math.isinf(T) or d == 1 or not a.flags.c_contiguous:
        return np.einsum("ij,i->j", clamp(a, T), r)
    blocks = -(-n // max(1, BLOCK_VALUES // d))
    step = -(-n // blocks)
    buf = np.empty((step + 1, d))
    weights = np.empty(step + 1)
    buf[0], weights[0] = 0.0, 1.0
    for lo in range(0, n, step):
        k = min(step, n - lo)
        clamp(a[lo:lo + k], T, out=buf[1:k + 1])
        weights[1:k + 1] = r[lo:lo + k]
        total = np.einsum("ij,i->j", buf[:k + 1], weights[:k + 1])
        buf[0] = total
    return total


def expit(x):
    """Logistic function 1 / (1 + exp(-x)); exp overflow far left of 0 gives exactly 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def matvec(a, b):
    """``a @ b`` for a (d,) vector b and an (n, d) stack or one (d,) row, in one thread.

    Unlike BLAS gemv, its summation order does not follow the BLAS thread count.
    """
    return np.einsum("...j,j->...", a, b)


def check_generate(spec, kind: str, n, out=None) -> int:
    """The generators' preconditions: a ``kind`` spec with a ``true_beta``; returns n as an int >= 1.

    ``out``, when given, must be an n-sample batch of the spec's kind, whose
    arrays the generator overwrites (numpy refuses arrays of another shape).
    """
    if spec.kind != kind:
        raise ValueError(f"spec.kind must be {kind!r}, got {spec.kind!r}")
    if spec.true_beta is None:
        raise ValueError("spec.true_beta is required to generate data")
    n = whole("n", n)
    if out is not None and (type(out) is not BATCH_TYPES[kind] or len(out) != n):
        raise ValueError(f"out must be a {BATCH_TYPES[kind].__name__} of {n} samples")
    return n


def check_grad(batch, sigma: float, T: float) -> None:
    """The truncated gradients' preconditions: a nonempty batch, sigma > 0 and T > 0."""
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    require("sigma", sigma, "a positive number", lambda v: v > 0)
    require("T", T, "a positive number", lambda v: v > 0)


@dataclass(frozen=True)
class ModelSpec:
    """Which latent-variable model, its dimension, and its noise level.

    ``true_beta`` is only consulted by the data generators; estimation code
    never reads it.  ``missing_prob`` is the per-coordinate missingness
    probability and applies to the rmc model only.
    """

    kind: str
    d: int
    sigma: float
    true_beta: np.ndarray | None = None
    missing_prob: float = 0.0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"model kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "d", whole("d", self.d))
        require("sigma", self.sigma, "a positive finite number", lambda v: 0 < v < math.inf)
        require("missing_prob", self.missing_prob, "a number in [0, 1)", lambda p: 0 <= p < 1)
        if self.true_beta is not None:
            beta = np.asarray(self.true_beta, dtype=float)
            if beta.shape != (self.d,):
                raise ValueError(f"true_beta must have shape ({self.d},), got {beta.shape}")
            if not np.all(np.isfinite(beta)):
                raise ValueError("true_beta must have finite coordinates")
            object.__setattr__(self, "true_beta", beta)


class _Batch:
    # Every batch kind holds its responses in ``y``, one row per sample, and
    # only per-sample arrays in its fields.
    def __len__(self) -> int:
        return self.y.shape[0]

    def __getitem__(self, key):
        if not isinstance(key, slice):
            raise TypeError("batches support slice indexing only")
        return type(self)(*(getattr(self, f.name)[key] for f in fields(self)))


@dataclass(frozen=True)
class GmmBatch(_Batch):
    """Gaussian-mixture observations: y has shape (n, d)."""

    y: np.ndarray


@dataclass(frozen=True)
class MorBatch(_Batch):
    """Mixture-of-regression pairs: covariates x (n, d), responses y (n,)."""

    x: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class RmcBatch(_Batch):
    """Missing-covariate triples: x_obs is zero wherever z is zero.

    ``x_obs`` (n, d) holds the observed covariates, ``z`` (n, d) the boolean
    observation mask (True where observed), ``y`` (n,) the responses.
    """

    x_obs: np.ndarray
    z: np.ndarray
    y: np.ndarray


BATCH_TYPES = {"gmm": GmmBatch, "mor": MorBatch, "rmc": RmcBatch}
