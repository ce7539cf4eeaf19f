"""In-process timings of the rmc truncated gradient in its block paths.

The rmc gradient sums its fill-in term as one rank-one product in each row
block where no clamp can bind, and clamps ``c_i * beta`` in every row of the
other blocks.  A block folds when ||beta||_inf <= T and no row in it has
|c_i| ||beta||_inf > T; at T = inf every block folds.  No benchmark workload
separates the paths, so this times four regimes, each on a sample of n rows
at d = 200 and 10% missingness (the baseline-rmc workload's), drawn around
its own 10-sparse truth:

- ``T = inf``: the raw gradient of every ``dpem baseline``, near the truth;
- ``fold``: T = 2 sigma sqrt(ln n), the harness's T_rule at its default 2,
  with a 10-sparse estimate near the harness's truth 1/sqrt(10) on its
  support, where every block folds at a finite T;
- ``sparse``: T = 1 with a 10-sparse estimate near a truth of ones, where
  the clamp of beta binds on the support entries above 1, so every block
  clamps;
- ``runaway``: T = 3 with one coordinate of the estimate run away to 40, as
  private iterates do at small epsilon, where most rows saturate and every
  block clamps.

Prints the numpy version, then per regime the share of saturating rows, the
share of row blocks that fold, and the median of ``--reps`` timings of
``models.truncated_grad`` after one untimed call.

    PYTHONPATH=src python tests/time_rmc_gradient.py [--n 20000] [--reps 11]

pytest does not collect this file: its name does not match ``test_*.py``.
"""

import argparse
import math
import time

import numpy as np

from references import rmc_coefficients

from dpem.harness import default_beta_star
from dpem.mechanisms import BLOCK_VALUES, NoiseOracle
from dpem.models import ModelSpec, generate, truncated_grad

D, S, SIGMA = 200, 10, 0.5


def regimes(rng, n):
    """(name, truth, beta, T) of each regime; the sample is drawn around the truth."""
    ones = np.zeros(D)
    ones[:S] = 1.0
    near = ones + 0.05 * rng.standard_normal(D)
    sparse = ones.copy()
    sparse[:S] += 0.2 * rng.standard_normal(S)
    runaway = near.copy()
    runaway[0] = 40.0
    harness_truth = default_beta_star(D, S)
    fold = harness_truth.copy()
    fold[:S] += 0.2 / math.sqrt(S) * rng.standard_normal(S)
    return [("T = inf", ones, near, math.inf),
            ("fold", harness_truth, fold, 2.0 * SIGMA * math.sqrt(math.log(n))),
            ("sparse", ones, sparse, 1.0), ("runaway", ones, runaway, 3.0)]


def shares(beta, batch, T):
    """The shares of saturating rows and of row blocks that fold."""
    beta_inf = np.max(np.abs(beta))
    saturates = np.abs(rmc_coefficients(beta, batch, SIGMA)) * beta_inf > T
    step = BLOCK_VALUES // D
    folds = [beta_inf <= T and not saturates[lo:lo + step].any()
             for lo in range(0, len(batch), step)]
    return float(np.mean(saturates)), float(np.mean(folds))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=20000, help="rows in the sample")
    parser.add_argument("--reps", type=int, default=11, help="timed calls per regime")
    args = parser.parse_args()
    cases = regimes(np.random.default_rng(1), args.n)
    print(f"numpy {np.__version__}, n = {args.n}, d = {D}, median of {args.reps} calls")
    print("| regime | T | max abs beta | saturating rows | folded blocks | median ms |")
    print("|---|---|---|---|---|---|")
    for name, true_beta, beta, T in cases:
        spec = ModelSpec("rmc", D, SIGMA, true_beta, missing_prob=0.1)
        batch = generate(spec, args.n, NoiseOracle(1))
        truncated_grad(spec, beta, batch, T)  # untimed: the first call faults its buffers in
        times = []
        for _ in range(args.reps):
            start = time.perf_counter()
            truncated_grad(spec, beta, batch, T)
            times.append(time.perf_counter() - start)
        saturating, folded = shares(beta, batch, T)
        print(f"| {name} | {T:.3g} | {np.max(np.abs(beta)):.3g} | {saturating:.3f} "
              f"| {folded:.3f} | {1e3 * np.median(times):.2f} |", flush=True)


if __name__ == "__main__":
    main()
