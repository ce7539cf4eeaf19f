"""Noise samplers and sparse selection, private and exact.

The noisy hard-thresholding (peeling) routine here is the privacy-critical
primitive: it selects ``s`` coordinates of a vector by noisy magnitude and
releases noisy values on the selected support; exact top-k is its noiseless
reference, with the same input contract.  All randomness flows through a
seeded :class:`NoiseOracle`, which has no off switch: a run is noiseless only
when its calibrated scale is exactly zero (``epsilon = inf``, or zero
sensitivity), and it then runs the same code as a private one.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PrivacyBudget",
    "NoiseOracle",
    "require",
    "whole",
    "SparseSelection",
    "derive_seed",
    "sample_laplace",
    "sample_gaussian",
    "noisy_ht_scale",
    "gaussian_noise_std",
    "noisy_hard_threshold",
    "exact_top_k",
]

# Largest magnitude a centered-uniform draw may take before the Laplace
# inverse CDF would hit log(0).
_UNIFORM_CAP = float(np.nextafter(0.5, 0.0))

# Largest magnitude of a unit Laplace draw: -log1p(-2 * _UNIFORM_CAP) = 53 ln 2,
# about 36.7.
_LAPLACE_UNIT_MAX = -math.log1p(-2.0 * _UNIFORM_CAP)

# Values per row block (512 KiB of float64), max(1, BLOCK_VALUES // d) rows, of
# the rmc mask draw and the three gradients (models.clamped_rowsum for gmm and
# mor), which add their per-block sums in order: enough rows to amortize the
# per-call NumPy overhead at moderate d, small enough that a block stays
# cache-sized.
BLOCK_VALUES = 1 << 16


def derive_seed(*parts) -> int:
    """Stable 64-bit seed derived from a tuple of ints/floats/strings.

    Used to give every (experiment, sweep value, repetition) cell its own
    independent random stream without coordination.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "big")


def require(name: str, value, what: str, ok) -> None:
    """Raise ``ValueError`` unless ``value`` is a real number with ``ok(value)`` true.

    Bools and strings are never numbers here, and NaN fails every ordered
    ``ok``.  The message reads "<name> must be <what>, got <value>".
    """
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool) and ok(value)):
        raise ValueError(f"{name} must be {what}, got {value!r}")


def whole(name: str, value) -> int:
    """``value`` as an int if it is a whole number >= 1 (``2.0`` counts, ``True`` does not)."""
    require(name, value, "a positive integer",
            lambda v: math.isfinite(v) and v == int(v) and v >= 1)
    return int(value)


@dataclass(frozen=True)
class PrivacyBudget:
    """An (epsilon, delta) pair governing all noise calibration.

    ``epsilon = inf`` is the one noiseless budget: under it every noise
    scale is exactly zero, whatever the oracle.
    """

    epsilon: float
    delta: float

    def __post_init__(self):
        require("epsilon", self.epsilon, "a positive number", lambda e: e > 0)
        require("delta", self.delta, "a number in (0, 1)", lambda d: 0 < d < 1)


class NoiseOracle:
    """Seeded random stream.

    An identical seed and call sequence reproduce the identical stream.

    An oracle is single-owner: concurrent runs must each construct their own
    from a seed of :func:`derive_seed`.

    The stream is a flat sequence of values: one draw of shape ``(k, d)``
    consumes and returns exactly what ``k`` successive draws of shape ``d``
    would, row by row.  Callers may therefore draw a block of rows at once
    without changing any result.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)

    def standard_normal(self, size=None):
        """One (or ``size``) standard normal draw."""
        return self._rng.standard_normal(size)

    def uniform_centered(self, size=None, out=None):
        """Uniform draw on [-1/2, 1/2), written into ``out`` when given."""
        u = self._rng.random(size, out=out)
        u -= 0.5
        return u

    def __repr__(self) -> str:
        return f"NoiseOracle(seed={self.seed})"


@dataclass(frozen=True)
class SparseSelection:
    """Output of a sparse selection: ordered support plus a dense vector.

    ``values`` is zero everywhere off ``support``; ``support`` preserves
    selection order.
    """

    support: np.ndarray
    values: np.ndarray


def _laplace_from_uniform(scale: float, u):
    # Inverse CDF: u in (-1/2, 1/2) -> -scale * sign(u) * log(1 - 2|u|),
    # evaluated as copysign(scale * log1p(-2 min(|u|, cap)), u), which is
    # bitwise the same for every u the oracle draws, signed zeros included.
    # Exact, portable, no rejection loop; u = 0 maps to exactly 0.
    r = np.abs(u)
    r = np.minimum(r, _UNIFORM_CAP)
    r = np.multiply(r, -2.0)
    r = np.log1p(r)
    r = np.multiply(r, scale)
    return np.copysign(r, u)


def _noise_scale(name: str, scale: float) -> float:
    # Every unit Laplace draw is at most _LAPLACE_UNIT_MAX in magnitude, so a
    # scale whose product with it is finite releases only finite values.  For
    # a Gaussian std_dev the same bound is about 36.7 standard deviations.
    require(name, scale, "a finite nonnegative number whose product with 53 ln 2 is finite",
            lambda b: 0 <= b and math.isfinite(float(b) * _LAPLACE_UNIT_MAX))
    return scale


def sample_laplace(scale: float, oracle: NoiseOracle, size=None):
    """Zero-mean Laplace draw(s) with scale b >= 0 (b = 0 gives exact zeros).

    Density (1/2b) exp(-|x|/b).  A scale so large that a draw could overflow
    to +-inf is refused.  An inverse CDF on floating-point values is
    open to Mironov's low-order-bits attack (CCS 2012); snapping, its fix, is
    not implemented, and adopting it is an open decision.
    """
    _noise_scale("scale", scale)
    return _laplace_from_uniform(scale, oracle.uniform_centered(size))


def sample_gaussian(std_dev: float, oracle: NoiseOracle, size=None):
    """Zero-mean Gaussian draw(s) with std_dev >= 0 (0 gives exact zeros).

    std_dev is refused as :func:`sample_laplace` refuses a scale, whatever the
    draw, and a draw that still overflowed to +-inf raises ``ValueError``.
    """
    _noise_scale("std_dev", std_dev)
    with np.errstate(over="ignore"):
        draw = std_dev * oracle.standard_normal(size)
    if not np.all(np.isfinite(draw)):
        raise ValueError(f"std_dev = {std_dev!r} gave a Gaussian draw that overflows to +-inf")
    return draw


def noisy_ht_scale(lam: float, s: int, budget: PrivacyBudget) -> float:
    """Scale b of :func:`noisy_hard_threshold` at an (epsilon, delta) budget.

    Equals lam * 2 * sqrt(3 * s * ln(1/delta)) / epsilon, where ``lam`` is
    the caller-certified ell-infinity sensitivity of the input vector; each
    selection round is then (2 * lam / b)-DP (README, "Peeling").
    Natural logarithm throughout.  The scale is exactly +0.0 at ``lam = 0``
    or ``epsilon = inf``.  A scale whose Laplace draws could overflow (a tiny
    epsilon) is refused, as :func:`sample_laplace` refuses it.
    """
    s = whole("s", s)
    require("lam", lam, "a finite nonnegative number", lambda v: 0 <= v < math.inf)
    return _noise_scale(
        "scale", lam * 2.0 * math.sqrt(3.0 * s * math.log(1.0 / budget.delta)) / budget.epsilon)


def gaussian_noise_std(lam: float, d: int, budget: PrivacyBudget) -> float:
    """Per-coordinate Gaussian standard deviation sigma_W of the low-dimensional step.

    Equals lam * sqrt(2 * d * ln(1.25/delta)) / epsilon: the Gaussian
    mechanism (Dwork & Roth 2014, Thm A.1) at ell-2 sensitivity sqrt(d) * lam,
    where ``lam`` is the caller-certified ell-infinity sensitivity of the
    d-vector.  Exactly +0.0 at ``lam = 0`` or ``epsilon = inf``.  A tiny
    epsilon's standard deviation is refused by the check on the Laplace
    scales: its product with 53 ln 2 must be finite.
    """
    d = whole("d", d)
    require("lam", lam, "a finite nonnegative number", lambda v: 0 <= v < math.inf)
    return _noise_scale(
        "std_dev", lam * math.sqrt(2.0 * d * math.log(1.25 / budget.delta)) / budget.epsilon)


def _selection_input(v, s):
    # (v as floats, |v|, s) once v and s pass the checks both selections share.
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"v must be one-dimensional, got shape {v.shape}")
    s = whole("s", s)
    if s > v.size:
        raise ValueError(f"s must not exceed the dimension d ({s} > {v.size})")
    magnitudes = np.abs(v)
    if not math.isfinite(magnitudes.max()):  # NaN propagates through max
        raise ValueError("v must have finite coordinates")
    return v, magnitudes, s


def noisy_hard_threshold(v, s: int, scale: float, oracle: NoiseOracle) -> SparseSelection:
    """Private sparse selection by exponential-mechanism peeling, at the scale it is handed.

    Runs ``s`` rounds; round ``i`` appends an unselected index ``j`` with
    probability proportional to ``exp(|v_j| / scale)``.  The selected
    coordinates of ``v`` are then released with i.i.d. Laplace noise at
    ``scale``.  :func:`noisy_ht_scale` calibrates ``scale``; 0.0 gives exact
    top-s, ties to the lowest index, whatever the oracle draws.

    The rounds are sampled at once by the Gumbel-top-k trick: coordinate
    ``j`` scores ``|v_j| - scale * log(-log u_j)``, ``|v_j|`` plus a
    Gumbel(0, scale) draw, with ``u_j`` uniform on [0, 1), and the support is
    the ``s`` highest scores in decreasing order (ties: lowest index).  A draw
    ``u_j = 0`` scores -inf.  A call consumes exactly ``d + s`` uniforms from
    the oracle, ``d`` for the scores and ``s`` for the release, and holds
    O(d) memory.

    The output support has cardinality exactly ``s``; off-support
    coordinates are exactly zero.  ``s > d`` is rejected; ``s == d`` selects
    every coordinate; a non-finite coordinate of ``v`` is rejected.  A scale
    whose draws could overflow is rejected, as :func:`sample_laplace`
    rejects it.  The running time depends on ``v`` and the noise only through
    the partition and the ties at the ``s``-th score; the privacy guarantee
    covers released values only, not timing.
    """
    v, magnitudes, s = _selection_input(v, s)
    _noise_scale("scale", scale)

    u = oracle.uniform_centered(v.size)
    u += 0.5  # exact: uniform on [0, 1)
    if scale > 0:
        with np.errstate(divide="ignore"):  # u = 0: log(-log u) = inf, a score of -inf
            scores = magnitudes - scale * np.log(-np.log(u))
    else:  # 0 * log(-log 0) would be NaN
        scores = magnitudes
    kth = np.partition(scores, v.size - s)[v.size - s]
    candidates = np.flatnonzero(scores >= kth)
    support = candidates[np.argsort(-scores[candidates], kind="stable")[:s]]

    values = np.zeros_like(v)
    values[support] = v[support] + sample_laplace(scale, oracle, s)
    return SparseSelection(support=support, values=values)


def exact_top_k(v, s: int) -> SparseSelection:
    """The s coordinates of largest magnitude, by full stable sort.

    Ties go to the lowest index.  Values are kept on the selected support
    and zeroed elsewhere.  It shares no selection code with the peeling in
    :func:`noisy_hard_threshold`, so the tests use it as the reference for
    noisy hard thresholding at ``epsilon = inf``; the harness uses it for
    sparse starting points.
    """
    v, magnitudes, s = _selection_input(v, s)
    order = np.argsort(-magnitudes, kind="stable")[:s]
    values = np.zeros_like(v)
    values[order] = v[order]
    return SparseSelection(support=order, values=values)
