"""Low-dimensional engine: the cost of privacy shrinks as n grows.

In the classic regime the private update perturbs each truncated gradient
step with calibrated Gaussian noise.  This script sweeps the sample size
and prints the private error next to the non-private baseline, showing the
gap closing.  Each sample size's model and estimator settings come from the
experiment config's rules, as ``dpem run`` resolves them.
"""

import numpy as np

from dpem import NoiseOracle, derive_seed, generate_gmm, nonprivate_em, run_low_dim
from dpem.harness import parse_experiment_config

cells = parse_experiment_config({
    "model": "gmm", "regime": "low_dim",
    "sweep": {"name": "n", "values": [5000, 10000, 20000]},
    "fixed": {"d": 10, "s_star": 10, "epsilon": 0.5, "sigma": 0.5, "eta": 0.5},
    "master_seed": 0,
}).cells

print(f"{'n':>6}  {'noise std/coord':>15}  {'private err':>11}  {'baseline err':>12}")
for n, spec, config in cells.values():
    beta_star = spec.true_beta
    # gmm's sensitivity, hence its noise scale, does not depend on the iterate.
    noise_std = config.step_scale(spec, n, np.zeros(spec.d))

    private_errs, baseline_errs = [], []
    for rep in range(10):
        data = generate_gmm(spec, n, NoiseOracle(derive_seed("lowdim-demo", n, rep)))
        direction = NoiseOracle(derive_seed("lowdim-init", n, rep)).standard_normal(spec.d)
        beta0 = beta_star + 0.125 * direction / np.linalg.norm(direction)
        traj = run_low_dim(spec, data, config, beta0,
                           NoiseOracle(derive_seed("lowdim-noise", n, rep)),
                           true_beta=beta_star)
        private_errs.append(traj.final_error)
        ref = nonprivate_em(spec, data, config, beta0, true_beta=beta_star)
        baseline_errs.append(ref.final_error)
    print(f"{n:>6}  {noise_std:>15.4f}  {np.mean(private_errs):>11.4f}  "
          f"{np.mean(baseline_errs):>12.4f}")
