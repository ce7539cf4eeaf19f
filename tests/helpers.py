"""Shared test fixtures: synthetic data, config dicts, result readers, bit and memory probes."""

import csv
import math
import tracemalloc

import numpy as np

from dpem.mechanisms import NoiseOracle, derive_seed


def make_gmm_class_data(seed=2026, d=30, n=400, s_star=10, sigma=0.5, signal=1.25):
    """Two-class Gaussian data y = z * beta + e with labels z.

    beta follows the package convention (first s_star coordinates equal), with
    total magnitude ``signal``; returns (features, string labels).
    """
    beta_star = np.zeros(d)
    beta_star[:s_star] = signal / math.sqrt(s_star)
    oracle = NoiseOracle(derive_seed(seed, "class-testbed"))
    u = oracle.uniform_centered(n)
    z = np.where(u >= 0.0, 1.0, -1.0)
    e = sigma * oracle.standard_normal((n, d))
    features = z[:, None] * beta_star + e
    labels = np.where(z > 0, "pos", "neg")
    return features, labels


def experiment_config_dict(**overrides):
    """A small, fast, valid experiment config; override freely."""
    cfg = {
        "model": "gmm",
        "regime": "high_dim",
        "sweep": {"name": "n", "values": [400, 600]},
        "fixed": {
            "n": 400,
            "d": 25,
            "s_star": 4,
            "epsilon": 0.5,
            "sigma": 0.5,
            "eta": 0.5,
            "reps": 2,
        },
        "master_seed": 321,
    }
    for key, value in overrides.items():
        if key in ("sweep", "fixed"):
            cfg[key] = value
        elif key in cfg["fixed"] or key in ("delta_rule", "delta", "T_rule", "N0_rule",
                                            "s_hat_rule", "missing_prob", "reps"):
            cfg["fixed"][key] = value
        else:
            cfg[key] = value
    return cfg


def small_config_dict(model, regime):
    """A small config for any model and regime: d = 8 = s_star in low_dim, rmc with missingness."""
    cfg = experiment_config_dict(model=model, regime=regime)
    if regime == "low_dim":
        cfg["fixed"].update(d=8, s_star=8)
    if model == "rmc":
        cfg["fixed"]["missing_prob"] = 0.1
    return cfg


def write_class_csv(path, features, labels, label_name="label"):
    lines = [",".join([f"f{j}" for j in range(features.shape[1])] + [label_name])]
    for row, lab in zip(features, labels):
        lines.append(",".join(f"{v:.17g}" for v in row) + f",{lab}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_results_csv(path) -> tuple[list[str], list[list]]:
    """Parse a results CSV back into (header, typed rows)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = []
        for row in reader:
            typed = []
            for name, value in zip(header, row):
                if name in ("rep", "iteration", "s_hat"):
                    typed.append(int(value))
                elif name == "sweep_param":
                    typed.append(value)
                else:
                    typed.append(float(value))
            rows.append(typed)
    return header, rows


def fit_geometric_decay(errors) -> tuple[float, float]:
    """Least-squares fit of error_t ~ kappa * error_{t-1} + floor, t >= 1.

    Diagnostic for the geometric decay of the optimization error; returns
    (kappa, floor).
    """
    errors = np.asarray(errors, dtype=float)
    if errors.size < 3:
        raise ValueError("need at least three recorded errors to fit a decay rate")
    prev = errors[:-1]
    curr = errors[1:]
    design = np.column_stack([prev, np.ones_like(prev)])
    (kappa, floor), *_ = np.linalg.lstsq(design, curr, rcond=None)
    return float(kappa), float(floor)


def bits(a):
    """Raw IEEE-754 bit patterns, so that -0.0 and +0.0 compare unequal."""
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def traced_peak_bytes(fn):
    """Peak bytes allocated while ``fn`` runs (NumPy reports to tracemalloc)."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return peak, result


class SliceRecorder:
    """A batch that logs the rows ``(lo, hi)`` of each slice read from it, then returns the slice."""

    def __init__(self, batch):
        self.batch, self.reads = batch, []

    def __len__(self):
        return len(self.batch)

    def __getitem__(self, key):
        lo, hi, _ = key.indices(len(self.batch))
        self.reads.append((lo, hi))
        return self.batch[key]
