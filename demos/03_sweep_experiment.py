"""Config-driven sweep: privacy budget vs estimation error, CSV included.

Builds the same experiment the CLI would run from a JSON config, executes it
in-process, prints the mean error per epsilon, and writes the per-repetition
CSV to the current directory.
"""

from dpem.harness import parse_experiment_config, run_experiment, write_results

config = parse_experiment_config({
    "model": "gmm",
    "regime": "high_dim",
    "sweep": {"name": "epsilon", "values": [0.3, 0.5, 0.8]},
    "fixed": {
        "n": 4000, "d": 200, "s_star": 10, "epsilon": 0.5,
        "sigma": 0.5, "eta": 0.5, "reps": 10,
    },
    "master_seed": 20260809,
})

result = run_experiment(config, jobs=4)

print("mean final estimation error by epsilon (10 repetitions):")
for value, mean in sorted(result.mean_final_error().items()):
    finals = result.per_rep_final()[value]
    print(f"  epsilon = {value:<4g} ->  {mean:.3f}  (rep std {finals.std(ddof=1):.3f})")

out = "sweep_results.csv"
write_results(result, out)
print(f"\nper-repetition trajectories written to {out}")
