"""Final errors under exponential-mechanism peeling against Laplace peeling.

Runs each config below once per master seed with the shipped selection,
``mechanisms.noisy_hard_threshold``, and once with ``em_engine``'s global
``noisy_hard_threshold`` swapped for ``references.laplace_peeling``, the
paper's round-by-round Laplace peeling, at the same calibrated scale.  Both
read the same samples and start from the same points, so only the selection
and release noise differ.  Prints, per config and sweep value, the median
final l2 error of each over every seed and repetition, and their ratio
(exponential / Laplace).

    PYTHONPATH=src python tests/compare_selection.py [--seeds 20] [--jobs 2]

pytest does not collect this file: its name does not match ``test_*.py``.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from references import laplace_peeling

from dpem import em_engine
from dpem.harness import parse_experiment_config, run_experiment

ROOT = Path(__file__).resolve().parent.parent


def shipped(name):
    return json.loads((ROOT / "configs" / f"{name}.json").read_text(encoding="utf-8"))


def informative(model):
    """A high_dim config at n = 80000, where the private estimate carries signal."""
    return {
        "model": model, "regime": "high_dim",
        "sweep": {"name": "epsilon", "values": [2, 8]},
        "fixed": {"n": 80000, "d": 200, "s_star": 10, "sigma": 0.5, "eta": 0.5, "reps": 5},
    }


CONFIGS = {
    # The peeling-sparse benchmark workload's config (perfbench/workloads.py).
    "peeling-sparse": {
        "model": "gmm", "regime": "high_dim",
        "sweep": {"name": "s_star", "values": [100, 200, 400]},
        "fixed": {"n": 500, "d": 5000, "epsilon": 0.5, "sigma": 0.5, "eta": 0.5, "reps": 4},
    },
    "gmm_n_sweep": shipped("gmm_n_sweep"),
    "mor_epsilon_sweep": shipped("mor_epsilon_sweep"),
    "gmm-informative": informative("gmm"),
    "mor-informative": informative("mor"),
}


def final_errors(raw, seeds, jobs):
    """sweep value -> final errors of every (seed, rep) cell."""
    finals = {}
    for seed in seeds:
        config = parse_experiment_config({**raw, "master_seed": seed})
        for value, errs in run_experiment(config, jobs=jobs).per_rep_final().items():
            finals.setdefault(value, []).extend(errs.tolist())
    return finals


def compare(raw, seeds, jobs):
    """[(sweep value, median exponential, median Laplace, ratio)] for one config."""
    exponential = final_errors(raw, seeds, jobs)
    shipped_selection = em_engine.noisy_hard_threshold
    em_engine.noisy_hard_threshold = laplace_peeling
    try:
        laplace = final_errors(raw, seeds, jobs)
    finally:
        em_engine.noisy_hard_threshold = shipped_selection
    rows = []
    for value in exponential:
        a, b = float(np.median(exponential[value])), float(np.median(laplace[value]))
        rows.append((value, a, b, a / b))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=20, help="master seeds 1..SEEDS")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    seeds = range(1, args.seeds + 1)
    print("| config | sweep value | median error, exponential | median error, Laplace | ratio |")
    print("|---|---|---|---|---|")
    worst = 0.0
    for name, raw in CONFIGS.items():
        for value, a, b, ratio in compare(raw, seeds, args.jobs):
            worst = max(worst, ratio)
            print(f"| {name} | {raw['sweep']['name']} = {value:g} | {a:.4g} | {b:.4g} "
                  f"| {ratio:.3f} |", flush=True)
    print(f"largest ratio: {worst:.3f}")


if __name__ == "__main__":
    main()
