"""Noise samplers and private sparse selection.

The noisy hard-thresholding (peeling) routine here is the privacy-critical
primitive: it selects ``s`` coordinates of a vector by noisy magnitude and
releases noisy values on the selected support.  All randomness flows through
a :class:`NoiseOracle`, whose ``silent`` mode turns every draw into an exact
zero so algorithms can be compared bit-for-bit against noiseless references.
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
]

# Largest magnitude a centered-uniform draw may take before the Laplace
# inverse CDF would hit log(0).
_UNIFORM_CAP = float(np.nextafter(0.5, 0.0))

# Values per block of selection noise in noisy_hard_threshold (512 KiB of
# float64): enough rows to amortize the per-call NumPy overhead at moderate d,
# small enough that a block stays cache-sized.
_BLOCK_VALUES = 1 << 16


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

    ``epsilon = inf`` is allowed: it is the non-private sentinel, under which
    every noise scale is exactly zero, whatever the oracle.
    """

    epsilon: float
    delta: float

    def __post_init__(self):
        require("epsilon", self.epsilon, "a positive number", lambda e: e > 0)
        require("delta", self.delta, "a number in (0, 1)", lambda d: 0 < d < 1)


class NoiseOracle:
    """Seeded random stream with a test-only silent mode.

    Identical ``(seed, mode)`` and call sequence reproduce the identical
    stream.  In ``silent`` mode every draw is exactly ``0.0``; the mode
    exists so noiseless oracle-equivalence tests can run through the same
    code path as production, and is never the default.

    An oracle is single-owner: concurrent runs must each construct their own
    from a seed of :func:`derive_seed`.

    The stream is a flat sequence of values: one draw of shape ``(k, d)``
    consumes and returns exactly what ``k`` successive draws of shape ``d``
    would, row by row.  Callers may therefore draw a block of rows at once
    without changing any result.
    """

    def __init__(self, seed: int, mode: str = "live"):
        if mode not in ("live", "silent"):
            raise ValueError(f"mode must be 'live' or 'silent', got {mode!r}")
        self.seed = int(seed)
        self.mode = mode
        self._rng = np.random.default_rng(self.seed)

    @property
    def silent(self) -> bool:
        return self.mode == "silent"

    def standard_normal(self, size=None):
        """One (or ``size``) standard normal draw; zeros when silent."""
        if self.silent:
            return 0.0 if size is None else np.zeros(size)
        return self._rng.standard_normal(size)

    def uniform_centered(self, size=None):
        """Uniform draw on [-1/2, 1/2); zeros when silent."""
        if self.silent:
            return 0.0 if size is None else np.zeros(size)
        return self._rng.random(size) - 0.5

    def __repr__(self) -> str:
        return f"NoiseOracle(seed={self.seed}, mode={self.mode!r})"


@dataclass(frozen=True)
class SparseSelection:
    """Output of a sparse selection: ordered support plus a dense vector.

    ``values`` is zero everywhere off ``support``; ``support`` preserves
    selection order.
    """

    support: np.ndarray
    values: np.ndarray


def _laplace_from_uniform(scale: float, u, out=None):
    # Inverse CDF: u in (-1/2, 1/2) -> -scale * sign(u) * log(1 - 2|u|),
    # evaluated as copysign(scale * log1p(-2 min(|u|, cap)), u), which is
    # bitwise the same for every u the oracle draws, signed zeros included.
    # Exact, portable, no rejection loop; u = 0 maps to exactly 0.  With
    # ``out`` (an array that does not alias ``u``) every step runs in place.
    r = np.abs(u, out=out)
    r = np.minimum(r, _UNIFORM_CAP, out=out)
    r = np.multiply(r, -2.0, out=out)
    r = np.log1p(r, out=out)
    r = np.multiply(r, scale, out=out)
    return np.copysign(r, u, out=out)


def sample_laplace(scale: float, oracle: NoiseOracle, size=None):
    """Zero-mean Laplace draw(s) with the given scale parameter b.

    Density (1/2b) exp(-|x|/b).  Silent oracles yield exact zeros.
    """
    if not (scale > 0 and math.isfinite(scale)):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    return _laplace_from_uniform(scale, oracle.uniform_centered(size))


def sample_gaussian(std_dev: float, oracle: NoiseOracle, size=None):
    """Zero-mean Gaussian draw(s) with the given standard deviation."""
    if not (std_dev > 0 and math.isfinite(std_dev)):
        raise ValueError(f"std_dev must be positive and finite, got {std_dev}")
    return std_dev * oracle.standard_normal(size)


def _needs_noise(lam: float, budget: PrivacyBudget | None) -> bool:
    # The one calibration guard: ``lam`` is finite and >= 0; lam = 0 needs no
    # noise and no budget; lam > 0 needs a budget.
    if lam < 0 or not math.isfinite(lam):
        raise ValueError(f"lam must be a finite nonnegative real, got {lam}")
    if lam == 0:
        return False
    if budget is None:
        raise ValueError(f"lam = {lam} > 0 requires a privacy budget")
    return True


def noisy_ht_scale(lam: float, s: int, budget: PrivacyBudget | None) -> float:
    """Per-round Laplace scale used by :func:`noisy_hard_threshold`.

    Equals lam * 2 * sqrt(3 * s * ln(1/delta)) / epsilon, where ``lam`` is
    the caller-certified ell-infinity sensitivity of the input vector.
    Natural logarithm throughout.  ``lam = 0`` gives scale 0 without reading
    the budget, so a noiseless run may pass ``budget=None``; ``lam > 0``
    requires a budget.
    """
    if s < 1:
        raise ValueError(f"s must be a positive integer, got {s}")
    if not _needs_noise(lam, budget):
        return 0.0
    return lam * 2.0 * math.sqrt(3.0 * s * math.log(1.0 / budget.delta)) / budget.epsilon


def gaussian_noise_std(lam: float, d: int, budget: PrivacyBudget | None) -> float:
    """Per-coordinate Gaussian standard deviation sigma_W of the low-dimensional step.

    Equals lam * sqrt(2 * d * ln(1.25/delta)) / epsilon: the Gaussian
    mechanism (Dwork & Roth 2014, Thm A.1) at ell-2 sensitivity sqrt(d) * lam,
    where ``lam`` is the caller-certified ell-infinity sensitivity of the
    d-vector.  Same budget rule as :func:`noisy_ht_scale`.
    """
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")
    if not _needs_noise(lam, budget):
        return 0.0
    return lam * math.sqrt(2.0 * d * math.log(1.25 / budget.delta)) / budget.epsilon


def noisy_hard_threshold(
    v,
    s: int,
    lam: float,
    budget: PrivacyBudget | None,
    oracle: NoiseOracle,
) -> SparseSelection:
    """Private sparse selection by noisy peeling.

    Runs ``s`` rounds; round ``i`` draws a fresh d-vector of i.i.d. Laplace
    noise at scale :func:`noisy_ht_scale` and appends the unselected index
    maximizing ``|v_j| + w_ij`` to the support (ties: lowest index).  A final
    Laplace d-vector is added to ``v`` before restricting to the support.

    The output support has cardinality exactly ``s``; off-support
    coordinates are exactly zero.  ``s > d`` is rejected; ``s == d`` selects
    every coordinate.

    The rounds' noise is drawn ``max(1, min(s, B // d))`` rows at a time
    (``B`` = ``_BLOCK_VALUES``), one oracle draw per block, and transformed
    into a score buffer allocated once per call, so memory stays
    O(max(B, d)) rather than O(s * d).  Because a ``(k, d)``
    draw is the same stream as ``k`` draws of size ``d``, the oracle is
    consumed exactly as by one draw per round: ``(s + 1) * d`` uniforms per
    call, the final release included, of which only the ``s`` on the support
    are transformed.  Output and the oracle's later draws are bitwise those
    of the round-by-round loop.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"v must be one-dimensional, got shape {v.shape}")
    d = v.size
    if not 1 <= s:
        raise ValueError(f"s must be at least 1, got {s}")
    if s > d:
        raise ValueError(f"s must not exceed the dimension d ({s} > {d})")
    scale = noisy_ht_scale(lam, s, budget)

    magnitudes = np.abs(v)
    support = np.empty(s, dtype=int)
    k = max(1, min(s, _BLOCK_VALUES // d))
    scores = np.empty((k, d))
    for start in range(0, s, k):
        rows = min(k, s - start)
        u = oracle.uniform_centered((rows, d))
        block = _laplace_from_uniform(scale, u, out=scores[:rows])
        block += magnitudes
        block[:, support[:start]] = -np.inf
        for i, row in enumerate(block):
            j = int(np.argmax(row))  # argmax takes the lowest index on ties
            support[start + i] = j
            block[i + 1:, j] = -np.inf

    u_final = oracle.uniform_centered(d)
    values = np.zeros(d)
    values[support] = v[support] + _laplace_from_uniform(scale, u_final[support])
    return SparseSelection(support=support, values=values)
