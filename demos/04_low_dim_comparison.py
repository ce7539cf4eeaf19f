"""Low-dimensional engine: the cost of privacy shrinks as n grows.

In the classic regime the private update perturbs each truncated gradient
step with calibrated Gaussian noise.  This script sweeps the sample size
and prints the private error next to the non-private baseline, showing the
gap closing.
"""

import math

import numpy as np

from dpem import (
    EmConfig,
    ModelSpec,
    NoiseOracle,
    PrivacyBudget,
    derive_seed,
    gaussian_noise_std,
    generate_gmm,
    nonprivate_em,
    run_low_dim,
)
from dpem.models import sensitivity

d, sigma, epsilon = 10, 0.5, 0.5
beta_star = np.ones(d) / math.sqrt(d)
spec = ModelSpec("gmm", d, sigma, beta_star)

print(f"{'n':>6}  {'noise std/coord':>15}  {'private err':>11}  {'baseline err':>12}")
for n in (5000, 10000, 20000):
    N0 = max(5, math.ceil(math.log(n)))
    n_used = N0 * (n // N0)
    T = 2.0 * sigma * math.sqrt(math.log(n_used))
    budget = PrivacyBudget(epsilon, 1.0 / (2 * n))
    # gmm's sensitivity does not depend on the iterate it is taken at.
    noise_std = gaussian_noise_std(sensitivity("gmm", T, 0.5, N0, n_used, np.zeros(d)), d, budget)

    private_errs, baseline_errs = [], []
    for rep in range(10):
        data = generate_gmm(spec, n, NoiseOracle(derive_seed("lowdim-demo", n, rep)))
        direction = NoiseOracle(derive_seed("lowdim-init", n, rep)).standard_normal(d)
        beta0 = beta_star + 0.125 * direction / np.linalg.norm(direction)
        config = EmConfig(eta=0.5, T=T, N0=N0, budget=budget)
        traj = run_low_dim(spec, data, config, beta0,
                           NoiseOracle(derive_seed("lowdim-noise", n, rep)),
                           true_beta=beta_star)
        private_errs.append(traj.final_error)
        ref = nonprivate_em(spec, data, config, beta0, true_beta=beta_star)
        baseline_errs.append(ref.final_error)
    print(f"{n:>6}  {noise_std:>15.4f}  {np.mean(private_errs):>11.4f}  "
          f"{np.mean(baseline_errs):>12.4f}")
