"""Noise primitives walkthrough: calibrated samplers and private top-k.

Shows the Laplace/Gaussian samplers hitting their textbook moments, then
runs noisy hard thresholding on the same vector: once at epsilon = inf,
where every noise scale is exactly zero (exact top-k), and then at a finite
epsilon (private selection + noisy release).
"""

import math

import numpy as np

from dpem import (
    NoiseOracle,
    PrivacyBudget,
    exact_top_k,
    noisy_hard_threshold,
    noisy_ht_scale,
    sample_gaussian,
    sample_laplace,
)

oracle = NoiseOracle(seed=12345)

# Laplace(b) has variance 2 b^2; Gaussian(sigma) has variance sigma^2.
b, sigma = 0.8, 1.3
lap = sample_laplace(b, oracle, size=200_000)
gau = sample_gaussian(sigma, oracle, size=200_000)
print(f"laplace  var: {lap.var():.4f}  (theory {2 * b * b:.4f})")
print(f"gaussian var: {gau.var():.4f}  (theory {sigma * sigma:.4f})")

# A vector with two dominant coordinates, to be reduced to its best 3.
v = np.array([0.1, -2.4, 0.3, 1.9, -0.2, 0.05, 0.7, -0.6])
budget = PrivacyBudget(epsilon=1.0, delta=1e-4)
lam = 0.05  # caller-certified l-infinity sensitivity of v

# Peeling draws at the scale b it is handed: each round picks an unpicked j
# with probability proportional to exp(|v_j| / b), and the picked values are
# released with Laplace(b) noise.  noisy_ht_scale calibrates b from lam and
# the budget.
exact_scale = noisy_ht_scale(lam, 3, PrivacyBudget(math.inf, 1e-4))
scale = noisy_ht_scale(lam, 3, budget)
print(f"\npeeling scale b: {exact_scale} at epsilon = inf, {scale:.4f} at epsilon = 1")

exact = noisy_hard_threshold(v, 3, exact_scale, NoiseOracle(0))
print(f"epsilon = inf    : support {exact.support}, values {exact.values}")
print(f"exact top-k      : support {exact_top_k(v, 3).support}  (identical)")

for seed in (1, 2, 3):
    live = noisy_hard_threshold(v, 3, scale, NoiseOracle(seed))
    print(f"live (seed {seed})    : support {live.support}, "
          f"values {np.round(live.values, 3)}")
