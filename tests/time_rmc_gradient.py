"""In-process timings of the rmc truncated gradient in its three regimes.

The rmc gradient sums its fill-in term as one rank-one product and clamps
``c_i * beta`` only in the row blocks that hold a row with
|c_i| ||beta||_inf > T.  Its ``-(1 - z) * clamp(beta, T)`` term adds a
per-block column sum only for the columns where |beta_j| > T.  No benchmark
workload separates its regimes, so this times each one on one sample of
n rows at d = 200 and 10% missingness (the baseline-rmc workload's), drawn
around a 10-sparse truth:

- ``T = inf``: the raw gradient of every ``dpem baseline``, near the truth;
- ``sparse``: T = 1 with a 10-sparse estimate near the truth, where some
  rows saturate on the support and the clamp of beta binds on the 4 support
  entries above 1;
- ``runaway``: T = 3 with one coordinate of the estimate run away to 40, as
  private iterates do at small epsilon, where most rows saturate and the
  clamp of beta binds on that coordinate.

Prints the numpy version, then per regime the share of saturating rows and
the median of ``--reps`` timings of ``models.truncated_grad`` after one
untimed call.

    PYTHONPATH=src python tests/time_rmc_gradient.py [--n 20000] [--reps 11]

pytest does not collect this file: its name does not match ``test_*.py``.
"""

import argparse
import math
import time

import numpy as np

from references import rmc_coefficients

from dpem.mechanisms import NoiseOracle
from dpem.models import ModelSpec, generate, truncated_grad

D, S, SIGMA = 200, 10, 0.5


def regimes(rng):
    """(name, beta, T) of each regime, around a 10-sparse truth."""
    true_beta = np.zeros(D)
    true_beta[:S] = 1.0
    near = true_beta + 0.05 * rng.standard_normal(D)
    sparse = true_beta.copy()
    sparse[:S] += 0.2 * rng.standard_normal(S)
    runaway = near.copy()
    runaway[0] = 40.0
    return true_beta, [("T = inf", near, math.inf), ("sparse", sparse, 1.0),
                       ("runaway", runaway, 3.0)]


def saturating_share(beta, batch, T):
    c = rmc_coefficients(beta, batch, SIGMA)
    return float(np.mean(np.abs(c) * np.max(np.abs(beta)) > T))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=20000, help="rows in the sample")
    parser.add_argument("--reps", type=int, default=11, help="timed calls per regime")
    args = parser.parse_args()
    true_beta, cases = regimes(np.random.default_rng(1))
    spec = ModelSpec("rmc", D, SIGMA, true_beta, missing_prob=0.1)
    batch = generate(spec, args.n, NoiseOracle(1))
    print(f"numpy {np.__version__}, n = {args.n}, d = {D}, median of {args.reps} calls")
    print("| regime | T | max abs beta | saturating rows | median ms |")
    print("|---|---|---|---|---|")
    for name, beta, T in cases:
        truncated_grad(spec, beta, batch, T)  # untimed: the first call faults its buffers in
        times = []
        for _ in range(args.reps):
            start = time.perf_counter()
            truncated_grad(spec, beta, batch, T)
            times.append(time.perf_counter() - start)
        print(f"| {name} | {T:g} | {np.max(np.abs(beta)):.3g} "
              f"| {saturating_share(beta, batch, T):.3f} | {1e3 * np.median(times):.2f} |",
              flush=True)


if __name__ == "__main__":
    main()
