"""One private high-dimensional run on a sparse Gaussian mixture.

Generates y_i = z_i * beta + noise with a 10-sparse beta in 200 dimensions
(sample size and budget chosen so the private run visibly recovers the
support at this dimension),
runs the private estimator (per-iteration batch + truncated step + noisy
hard thresholding), and prints its error trajectory next to the non-private
gradient-EM baseline on the same data.
"""

import math

import numpy as np

from dpem import (
    EmConfig,
    ModelSpec,
    NoiseOracle,
    PrivacyBudget,
    exact_top_k,
    generate_gmm,
    nonprivate_em,
    run_high_dim,
)

d, n, s_star, sigma = 200, 20000, 10, 0.5
epsilon, delta = 2.0, 1.0 / (2 * n)

beta_star = np.zeros(d)
beta_star[:s_star] = 1.0 / math.sqrt(s_star)

spec = ModelSpec("gmm", d, sigma, beta_star)
data = generate_gmm(spec, n, NoiseOracle(7))

# Default parameter rules: N0 ~ ln n iterations, truncation ~ sigma sqrt(ln n).
N0 = max(5, math.ceil(math.log(n)))
T = 2.0 * sigma * math.sqrt(math.log(N0 * (n // N0)))

# Start near the truth, thresholded back to s_star nonzeros.
direction = NoiseOracle(8).standard_normal(d)
beta0 = exact_top_k(beta_star + 0.125 * direction / np.linalg.norm(direction), s_star).values

config = EmConfig(eta=0.5, T=T, N0=N0, s_hat=s_star,
                  budget=PrivacyBudget(epsilon, delta))
private = run_high_dim(spec, data, config, beta0, NoiseOracle(9), true_beta=beta_star)

baseline = nonprivate_em(spec, data, config, beta0, true_beta=beta_star)

print(f"private (eps={epsilon}) vs non-private gradient EM, d={d}, n={n}")
print(f"{'iter':>4}  {'private err':>12}  {'baseline err':>12}")
for t in range(N0 + 1):
    print(f"{t:>4}  {private.errors[t]:>12.4f}  {baseline.errors[t]:>12.4f}")
print(f"\nfinal support recovered (private): "
      f"{np.intersect1d(np.flatnonzero(private.final_beta), np.arange(s_star)).size}/{s_star}")
