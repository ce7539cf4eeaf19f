"""Low-dimensional engine: the cost of privacy shrinks as n grows.

In the classic regime the private update perturbs each truncated gradient
step with calibrated Gaussian noise.  This script sweeps the sample size
and prints the private error next to the non-private baseline, showing the
gap closing.  Each sample size's model and estimator settings come from the
experiment config's rules, as ``dpem run`` resolves them.
"""

import numpy as np

from dpem import NoiseOracle, derive_seed, generate, nonprivate_em, run_low_dim
from dpem.harness import default_beta0, estimation_errors, parse_experiment_config

cells = parse_experiment_config({
    "model": "gmm", "regime": "low_dim",
    "sweep": {"name": "n", "values": [5000, 10000, 20000]},
    "fixed": {"d": 10, "s_star": 10, "epsilon": 0.5, "sigma": 0.5, "eta": 0.5},
    "master_seed": 0,
}).cells

print(f"{'n':>6}  {'noise std/coord':>15}  {'private err':>11}  {'baseline err':>12}")
for n, spec, config in cells.values():
    # Every step of a run draws at this one scale.
    noise_std = config.step_scale(spec, n)

    private_errs, baseline_errs = [], []
    for rep in range(10):
        data = generate(spec, n, NoiseOracle(derive_seed("lowdim-demo", n, rep)))
        init = NoiseOracle(derive_seed("lowdim-init", n, rep))
        beta0 = default_beta0(spec.true_beta, config.s_hat, init)  # near the truth, dense
        private = run_low_dim(spec, data, config, beta0,
                              NoiseOracle(derive_seed("lowdim-noise", n, rep)))
        private_errs.append(estimation_errors(private, spec.true_beta)[0][-1])
        baseline = nonprivate_em(spec, data, config, beta0)
        baseline_errs.append(estimation_errors(baseline, spec.true_beta)[0][-1])
    print(f"{n:>6}  {noise_std:>15.4f}  {np.mean(private_errs):>11.4f}  "
          f"{np.mean(baseline_errs):>12.4f}")
