"""One private high-dimensional run on a sparse Gaussian mixture.

Generates y_i = z_i * beta + noise with a 10-sparse beta in 200 dimensions
(sample size and budget chosen so the private run visibly recovers the
support at this dimension),
runs the private estimator (per-iteration batch + truncated step + noisy
hard thresholding), and prints its error trajectory next to the non-private
gradient-EM baseline on the same data.  The model and estimator settings
come from the experiment config's rules, as ``dpem run`` resolves them.
"""

import numpy as np

from dpem import NoiseOracle, generate_gmm, nonprivate_em, run_high_dim
from dpem.harness import default_beta0, estimation_errors, parse_experiment_config

[(n, spec, config)] = parse_experiment_config({
    "model": "gmm", "regime": "high_dim",
    "sweep": {"name": "n", "values": [20000]},
    "fixed": {"d": 200, "s_star": 10, "epsilon": 2.0, "sigma": 0.5, "eta": 0.5},
    "master_seed": 0,
}).cells.values()
data = generate_gmm(spec, n, NoiseOracle(7))

# Start near the truth, thresholded back to s_hat nonzeros.
beta0 = default_beta0(spec.true_beta, config.s_hat, NoiseOracle(8))

private = run_high_dim(spec, data, config, beta0, NoiseOracle(9))
private_errs, _ = estimation_errors(private, spec.true_beta)
baseline_errs, _ = estimation_errors(nonprivate_em(spec, data, config, beta0), spec.true_beta)

print(f"private (eps={config.budget.epsilon}) vs non-private gradient EM, d={spec.d}, n={n}")
print(f"{'iter':>4}  {'private err':>12}  {'baseline err':>12}")
for t in range(config.N0 + 1):
    print(f"{t:>4}  {private_errs[t]:>12.4f}  {baseline_errs[t]:>12.4f}")
print(f"\nfinal support recovered (private): "
      f"{np.count_nonzero(private[-1][spec.true_beta != 0])}/{config.s_hat}")
