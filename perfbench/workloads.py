"""The four benchmark workloads: their inputs, CLI invocations and output checks.

Every workload is a fixed list of ``dpem`` CLI invocations (one "pass").  The
inputs are written by the benchmark from its seed: experiment configs are
frozen copies kept here, so a later edit to ``configs/`` does not silently
change what the benchmark measures, and the classification CSV is generated.
The seed reaches the program through the CLI's ``--seed`` flag.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

# The documented CSV headers (README, "Command line").
EXPERIMENT_HEADER = "sweep_param,sweep_value,rep,iteration,error_l2,error_l2_signfree"
CLASSIFICATION_HEADER = "s_hat,epsilon,rep,misclassification_rate"

# configs/gmm_n_sweep.json, configs/mor_epsilon_sweep.json and
# configs/gmm_low_dim_n_sweep.json as shipped when the benchmark was defined.
SHIPPED = {
    "gmm_n_sweep": {
        "model": "gmm", "regime": "high_dim",
        "sweep": {"name": "n", "values": [4000, 5000, 6000]},
        "fixed": {"n": 4000, "d": 200, "s_star": 10, "epsilon": 0.5, "sigma": 0.5,
                  "eta": 0.5, "reps": 20, "delta_rule": "half_n", "T_rule": 2.0,
                  "N0_rule": 1.0, "s_hat_rule": "equal"},
        "master_seed": 20260809,
    },
    "mor_epsilon_sweep": {
        "model": "mor", "regime": "high_dim",
        "sweep": {"name": "epsilon", "values": [0.4, 0.6, 0.8]},
        "fixed": {"n": 5000, "d": 200, "s_star": 10, "epsilon": 0.6, "sigma": 0.5,
                  "eta": 0.5, "reps": 20},
        "master_seed": 20260809,
    },
    "gmm_low_dim_n_sweep": {
        "model": "gmm", "regime": "low_dim",
        "sweep": {"name": "n", "values": [5000, 10000, 15000]},
        "fixed": {"n": 5000, "d": 10, "s_star": 10, "epsilon": 0.5, "sigma": 0.5,
                  "eta": 0.5, "reps": 20},
        "master_seed": 20260809,
    },
}

# Privatizer-bound: peeling draws (s+1)*d Laplace values per iteration, so a
# wide d with a large swept s puts noisy hard thresholding on top.
PEELING = {
    "model": "gmm", "regime": "high_dim",
    "sweep": {"name": "s_star", "values": [100, 200, 400]},
    "fixed": {"n": 500, "d": 5000, "epsilon": 0.5, "sigma": 0.5, "eta": 0.5, "reps": 4},
    "master_seed": 1,
}

# Non-private baseline: N0 full-sample gradients per cell and no privatizer.
BASELINE_RMC = {
    "model": "rmc", "regime": "high_dim",
    "sweep": {"name": "n", "values": [5000, 10000, 20000]},
    "fixed": {"d": 200, "s_star": 10, "epsilon": 0.5, "sigma": 0.5, "eta": 0.5,
              "reps": 1, "missing_prob": 0.1},
    "master_seed": 1,
}

# configs/classify.json as shipped when the benchmark was defined.
CLASSIFY = {"s_hat": 10, "epsilon": 0.5, "delta_rule": "half_n", "eta": 0.5, "iters": 1,
            "T": 0.5, "sigma_fit": 0.5, "reps": 50, "master_seed": 99}
CLASSIFY_ROWS, CLASSIFY_DIM, CLASSIFY_SIGNAL = 10000, 100, 10


@dataclass(frozen=True)
class Invocation:
    """One ``dpem`` CLI call of a pass; ``args`` lack --out, --jobs and --seed."""

    label: str
    args: tuple
    kind: str  # "experiment" or "classification"
    cells: int
    rows: int


def experiment_cells(cfg: dict) -> int:
    return len(cfg["sweep"]["values"]) * cfg["fixed"]["reps"]


def experiment_rows(cfg: dict) -> int:
    """cells x (N0 + 1), with N0 = max(5, ceil(N0_rule * ln n)) per sweep value."""
    sweep, fixed = cfg["sweep"], cfg["fixed"]
    total = 0
    for value in sweep["values"]:
        n = value if sweep["name"] == "n" else fixed["n"]
        n0 = max(5, math.ceil(fixed.get("N0_rule", 1.0) * math.log(n)))
        total += fixed["reps"] * (n0 + 1)
    return total


def _experiment(workdir: Path, label: str, command: str, cfg: dict) -> Invocation:
    path = workdir / f"{label}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return Invocation(label, (command, "--config", str(path)), "experiment",
                      experiment_cells(cfg), experiment_rows(cfg))


def write_two_class_csv(path: Path, seed: int) -> None:
    """Two balanced-in-expectation classes whose means differ on a few features."""
    import numpy as np

    rng = np.random.default_rng(seed)
    positive = rng.random(CLASSIFY_ROWS) < 0.5
    x = rng.standard_normal((CLASSIFY_ROWS, CLASSIFY_DIM))
    x[:, :CLASSIFY_SIGNAL] += np.where(positive, 0.6, -0.6)[:, None]
    lines = ["label," + ",".join(f"x{j}" for j in range(CLASSIFY_DIM))]
    for label, row in zip(np.where(positive, "pos", "neg"), x.tolist()):
        lines.append(label + "," + ",".join(f"{v:.6f}" for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _shipped(workdir, seed):
    return [_experiment(workdir, label, "run", cfg) for label, cfg in SHIPPED.items()]


def _peeling(workdir, seed):
    return [_experiment(workdir, "peeling", "run", PEELING)]


def _baseline(workdir, seed):
    return [_experiment(workdir, "baseline_rmc", "baseline", BASELINE_RMC)]


def _classify(workdir, seed):
    cfg_path, data_path = workdir / "classify.json", workdir / "classify_data.csv"
    cfg_path.write_text(json.dumps(CLASSIFY), encoding="utf-8")
    write_two_class_csv(data_path, seed)
    reps = CLASSIFY["reps"]
    return [Invocation("classify", ("classify", "--config", str(cfg_path), "--data", str(data_path)),
                       "classification", reps, reps)]


WORKLOADS = {
    "shipped-sweeps": _shipped,
    "peeling-sparse": _peeling,
    "baseline-rmc": _baseline,
    "classify-csv": _classify,
}


def check_output(inv: Invocation, path: Path) -> tuple[str | None, str | None]:
    """(sha256 of the output, problem or None) for one finished invocation."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        return None, f"{inv.label}: no output ({exc})"
    digest = hashlib.sha256(data).hexdigest()
    lines = data.decode("utf-8", errors="replace").split("\n")
    if lines[-1] != "":
        return digest, f"{inv.label}: output does not end with a newline"
    header, rows = lines[0], lines[1:-1]
    expected = EXPERIMENT_HEADER if inv.kind == "experiment" else CLASSIFICATION_HEADER
    if header != expected:
        return digest, f"{inv.label}: header {header!r} != {expected!r}"
    if len(rows) != inv.rows:
        return digest, f"{inv.label}: {len(rows)} rows, expected {inv.rows}"
    for row in rows:
        fields = row.split(",")
        try:
            values = [float(v) for v in fields[-2:]] if inv.kind == "experiment" else [float(fields[-1])]
        except ValueError:
            return digest, f"{inv.label}: unparsable row {row!r}"
        if not all(math.isfinite(v) for v in values):
            return digest, f"{inv.label}: non-finite error in row {row!r}"
        if inv.kind == "classification" and not 0.0 <= values[0] <= 1.0:
            return digest, f"{inv.label}: rate outside [0, 1] in row {row!r}"
    return digest, None
