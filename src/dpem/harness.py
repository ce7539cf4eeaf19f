"""Config-driven experiment runner and the real-data classification pipeline.

An experiment sweeps exactly one parameter (n, s_star, epsilon, or d) of one
model, repeats each cell with independently derived seeds, records the
per-iteration estimation errors, and writes them as CSV.  The classification
pipeline fits the high-dimensional private estimator on two-class feature
data and scores held-out misclassification.

Results are reproducible byte-for-byte: every (sweep value, repetition) cell
derives its own random streams from the master seed, so the execution
schedule never matters.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import models
from .em_engine import EmConfig, run_high_dim, run_low_dim
from .mechanisms import NoiseOracle, PrivacyBudget, derive_seed
from .models import GmmBatch, ModelSpec
from .oracle import exact_top_k, nonprivate_em

__all__ = [
    "ConfigError",
    "DataError",
    "SweepSpec",
    "FixedParams",
    "ExperimentConfig",
    "AggregateResult",
    "ClassificationParams",
    "ClassificationReport",
    "load_experiment_config",
    "parse_experiment_config",
    "load_classification_config",
    "parse_classification_config",
    "load_classification_csv",
    "run_experiment",
    "run_classification",
    "write_results",
    "read_results_csv",
    "default_beta_star",
    "default_beta0",
]

SWEEPABLE = ("n", "s_star", "epsilon", "d")

EXPERIMENT_CSV_HEADER = ["sweep_param", "sweep_value", "rep", "iteration", "error_l2", "error_l2_signfree"]
CLASSIFICATION_CSV_HEADER = ["s_hat", "epsilon", "rep", "misclassification_rate"]


class ConfigError(ValueError):
    """A configuration file or parameter set failed validation."""


class DataError(ValueError):
    """An input data file could not be parsed."""


def _whole(name: str, value) -> int:
    """``value`` as an int if it is a whole number >= 1; bools are rejected."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral) or (math.isfinite(value) and value == int(value)):
            if value >= 1:
                return int(value)
    raise ConfigError(f"{name} must be a positive integer, got {value!r}")


def _positive_finite(name: str, value) -> None:
    """Reject ``value`` unless it is a real number in (0, inf); bools are rejected."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and value > 0 and math.isfinite(value)):
        raise ConfigError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class SweepSpec:
    name: str
    values: tuple

    def __post_init__(self):
        if self.name not in SWEEPABLE:
            raise ConfigError(f"sweep.name must be one of {SWEEPABLE}, got {self.name!r}")
        object.__setattr__(self, "values", tuple(self.values))
        if self.name in ("n", "d", "s_star"):
            # Validated, not converted: the value as written seeds each cell.
            for value in self.values:
                _whole(f"sweep value of {self.name}", value)


@dataclass(frozen=True)
class FixedParams:
    """Non-swept experiment parameters and the rules deriving the rest.

    delta_rule 'half_n' sets delta = 1/(2n); 'explicit' takes ``delta`` as
    given.  T_rule is the multiplier c_T in T = c_T * sigma * sqrt(ln n_used)
    and N0_rule the multiplier c_N in N0 = max(5, ceil(c_N * ln n)).
    s_hat_rule is either 'equal' (s_hat = s_star) or an integer.
    """

    n: int | None = None
    d: int | None = None
    s_star: int | None = None
    epsilon: float | None = None
    sigma: float = 0.5
    eta: float = 0.5
    reps: int = 1
    delta_rule: str = "half_n"
    delta: float | None = None
    T_rule: float = 2.0
    N0_rule: float = 1.0
    s_hat_rule: object = "equal"
    missing_prob: float = 0.1

    def __post_init__(self):
        if self.delta_rule not in ("half_n", "explicit"):
            raise ConfigError(f"delta_rule must be 'half_n' or 'explicit', got {self.delta_rule!r}")
        if self.delta_rule == "explicit" and (self.delta is None or not 0 < self.delta < 1):
            raise ConfigError("delta_rule 'explicit' requires delta in (0, 1)")
        for name in ("n", "d", "s_star"):
            if getattr(self, name) is not None:
                _whole(name, getattr(self, name))
        object.__setattr__(self, "reps", _whole("reps", self.reps))
        _positive_finite("sigma", self.sigma)
        if not (self.eta >= 0 and math.isfinite(self.eta)):
            raise ConfigError(f"eta must be finite and nonnegative, got {self.eta}")
        _positive_finite("T_rule", self.T_rule)
        _positive_finite("N0_rule", self.N0_rule)
        if self.s_hat_rule != "equal":
            object.__setattr__(self, "s_hat_rule", _whole("s_hat_rule", self.s_hat_rule))
        if not 0 <= self.missing_prob < 1:
            raise ConfigError(f"missing_prob must lie in [0, 1), got {self.missing_prob}")


@dataclass(frozen=True)
class ExperimentConfig:
    model: str
    regime: str
    sweep: SweepSpec
    fixed: FixedParams
    master_seed: int

    def __post_init__(self):
        if self.model not in ("gmm", "mor", "rmc"):
            raise ConfigError(f"model must be one of gmm/mor/rmc, got {self.model!r}")
        if self.regime not in ("high_dim", "low_dim"):
            raise ConfigError(f"regime must be 'high_dim' or 'low_dim', got {self.regime!r}")
        for name in SWEEPABLE:
            if name == self.sweep.name:
                continue
            if getattr(self.fixed, name) is None:
                raise ConfigError(f"fixed.{name} is required when sweeping {self.sweep.name}")
        # Per-cell seeds must be pairwise distinct, or repetitions would share noise.
        seeds = {
            derive_seed(self.master_seed, self.sweep.name, value, rep)
            for value in self.sweep.values
            for rep in range(self.fixed.reps)
        }
        if len(seeds) != len(self.sweep.values) * self.fixed.reps:
            raise ConfigError("seed derivation collided; change master_seed")


def _take_keys(mapping, allowed, context):
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {context}: {sorted(unknown)}")


def parse_experiment_config(raw: dict) -> ExperimentConfig:
    """Build and validate an :class:`ExperimentConfig` from a plain dict."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _take_keys(raw, ["model", "regime", "sweep", "fixed", "master_seed"], "config")
    for key in ("model", "regime", "sweep", "fixed", "master_seed"):
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")
    sweep_raw = raw["sweep"]
    if not isinstance(sweep_raw, dict):
        raise ConfigError("sweep must be an object with keys 'name' and 'values'")
    _take_keys(sweep_raw, ["name", "values"], "sweep")
    if "name" not in sweep_raw or "values" not in sweep_raw:
        raise ConfigError("sweep requires keys 'name' and 'values'")
    if not isinstance(sweep_raw["values"], list):
        raise ConfigError("sweep.values must be a list")
    sweep = SweepSpec(sweep_raw["name"], sweep_raw["values"])

    fixed_raw = raw["fixed"]
    if not isinstance(fixed_raw, dict):
        raise ConfigError("fixed must be an object")
    allowed = [
        "n", "d", "s_star", "epsilon", "sigma", "eta", "reps",
        "delta_rule", "delta", "T_rule", "N0_rule", "s_hat_rule", "missing_prob",
    ]
    _take_keys(fixed_raw, allowed, "fixed")
    fixed = FixedParams(**fixed_raw)

    if not isinstance(raw["master_seed"], int):
        raise ConfigError("master_seed must be an integer")
    return ExperimentConfig(raw["model"], raw["regime"], sweep, fixed, raw["master_seed"])


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def load_experiment_config(path) -> ExperimentConfig:
    return parse_experiment_config(_load_json(path))


@dataclass(frozen=True)
class _RunParams:
    n: int
    d: int
    s_star: int
    epsilon: float
    delta: float
    sigma: float
    eta: float
    T: float
    N0: int
    n_used: int
    s_hat: int


def _resolve(config: ExperimentConfig, sweep_value) -> _RunParams:
    values = {name: getattr(config.fixed, name) for name in SWEEPABLE}
    values[config.sweep.name] = sweep_value
    n = int(values["n"])
    d = int(values["d"])
    s_star = int(values["s_star"])
    epsilon = float(values["epsilon"])
    if s_star > d:
        raise ConfigError(f"s_star must not exceed d ({s_star} > {d})")
    if not epsilon > 0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    delta = 1.0 / (2.0 * n) if config.fixed.delta_rule == "half_n" else config.fixed.delta
    N0 = max(5, math.ceil(config.fixed.N0_rule * math.log(n)))
    if N0 > n:
        raise ConfigError(f"derived N0 = {N0} exceeds n = {n}")
    n_used = N0 * (n // N0)
    T = config.fixed.T_rule * config.fixed.sigma * math.sqrt(math.log(n_used))
    s_hat = s_star if config.fixed.s_hat_rule == "equal" else int(config.fixed.s_hat_rule)
    if s_hat > d:
        raise ConfigError(f"s_hat must not exceed d ({s_hat} > {d})")
    return _RunParams(n, d, s_star, epsilon, delta, config.fixed.sigma,
                      config.fixed.eta, T, N0, n_used, s_hat)


def default_beta_star(d: int, s_star: int) -> np.ndarray:
    """Unit vector with the first s_star coordinates equal to 1/sqrt(s_star)."""
    beta = np.zeros(d)
    beta[:s_star] = 1.0 / math.sqrt(s_star)
    return beta


def default_beta0(beta_star, s_hat: int | None, oracle: NoiseOracle) -> np.ndarray:
    """True parameter plus a uniform-on-sphere perturbation of radius ||beta*||/8.

    Hard-thresholded to s_hat nonzeros when s_hat is given (high-dimensional
    runs); left dense otherwise.
    """
    beta_star = np.asarray(beta_star, dtype=float)
    direction = np.atleast_1d(oracle.standard_normal(beta_star.size))
    norm = np.linalg.norm(direction)
    if norm == 0.0:  # silent oracle: no perturbation
        beta0 = beta_star.copy()
    else:
        radius = np.linalg.norm(beta_star) / 8.0
        beta0 = beta_star + radius * direction / norm
    if s_hat is not None:
        beta0 = exact_top_k(beta0, s_hat).values
    return beta0


@dataclass
class AggregateResult:
    """Per-iteration errors for every (sweep value, repetition) cell.

    ``rows`` hold (sweep_value, rep, iteration, error_l2, error_l2_signfree)
    ordered by sweep value (config order), then rep, then iteration.
    """

    sweep_name: str
    sweep_values: tuple
    reps: int
    rows: list = field(default_factory=list)

    def iteration_stats(self) -> dict:
        """(sweep_value, iteration) -> (mean error, std, rep count).

        Sample standard deviation (ddof = 1); zero for a single repetition.
        """
        cells: dict = {}
        for value, _, iteration, err, _ in self.rows:
            cells.setdefault((value, iteration), []).append(err)
        out = {}
        for key, errs in cells.items():
            arr = np.asarray(errs)
            std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
            out[key] = (float(arr.mean()), std, int(arr.size))
        return out

    def per_rep_final(self) -> dict:
        """sweep_value -> final-iteration error of every repetition, rep order."""
        last_iter: dict = {}
        for value, rep, iteration, err, _ in self.rows:
            key = (value, rep)
            if key not in last_iter or iteration > last_iter[key][0]:
                last_iter[key] = (iteration, err)
        out: dict = {}
        for value in self.sweep_values:
            out[float(value)] = np.array(
                [last_iter[(float(value), rep)][1] for rep in range(self.reps)]
            )
        return out

    def mean_final_error(self) -> dict:
        return {value: float(errs.mean()) for value, errs in self.per_rep_final().items()}


def _run_cell(config: ExperimentConfig, sweep_value, rep: int, silent_noise: bool, engine: str):
    params = _resolve(config, sweep_value)
    cell_seed = derive_seed(config.master_seed, config.sweep.name, sweep_value, rep)
    data_oracle = NoiseOracle(derive_seed(cell_seed, "data"))
    init_oracle = NoiseOracle(derive_seed(cell_seed, "init"))
    noise_oracle = NoiseOracle(
        derive_seed(cell_seed, "noise"), mode="silent" if silent_noise else "live"
    )

    beta_star = default_beta_star(params.d, params.s_star)
    spec = ModelSpec(config.model, params.d, params.sigma, beta_star, config.fixed.missing_prob)
    batch = models.generate(spec, params.n, data_oracle)

    s_hat = params.s_hat if config.regime == "high_dim" else None
    beta0 = default_beta0(beta_star, s_hat, init_oracle)
    if engine == "nonprivate":
        em_config = EmConfig(eta=params.eta, T=math.inf, N0=params.N0, regime="low_dim")
        return nonprivate_em(spec, batch, em_config, beta0, true_beta=beta_star)

    em_config = EmConfig(eta=params.eta, T=params.T, N0=params.N0, s_hat=s_hat,
                         budget=PrivacyBudget(params.epsilon, params.delta), regime=config.regime)
    run = run_high_dim if config.regime == "high_dim" else run_low_dim
    return run(spec, batch, em_config, beta0, noise_oracle, true_beta=beta_star)


def _fan_out(fn, items, jobs: int) -> list:
    """``[fn(item) for item in items]``, on up to ``jobs`` threads when jobs > 1."""
    if jobs > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def run_experiment(
    config: ExperimentConfig,
    silent_noise: bool = False,
    jobs: int = 1,
    engine: str = "private",
) -> AggregateResult:
    """Run the configured sweep and collect per-iteration errors.

    ``engine`` is 'private' (the DP EM drivers) or 'nonprivate' (the plain
    gradient-EM baseline under the same data and seeds).  ``silent_noise``
    swaps the mechanism noise stream for exact zeros; it does not touch the
    data generators.  Repetitions may run concurrently (``jobs``); the output
    is schedule-independent.
    """
    if engine not in ("private", "nonprivate"):
        raise ConfigError(f"engine must be 'private' or 'nonprivate', got {engine!r}")
    cells = [(value, rep) for value in config.sweep.values for rep in range(config.fixed.reps)]

    def one(cell):
        value, rep = cell
        try:
            return _run_cell(config, value, rep, silent_noise, engine)
        except ConfigError:
            raise
        except Exception as exc:
            raise RuntimeError(
                f"run failed at {config.sweep.name}={value!r}, rep={rep}: {exc}"
            ) from exc

    trajectories = _fan_out(one, cells, jobs)

    result = AggregateResult(config.sweep.name, tuple(config.sweep.values), config.fixed.reps)
    for (value, rep), traj in zip(cells, trajectories):
        for t in range(traj.betas.shape[0]):
            result.rows.append(
                (float(value), rep, t, float(traj.errors[t]), float(traj.errors_signfree[t]))
            )
    return result


# ---------------------------------------------------------------------------
# Classification pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationParams:
    """Estimator parameters for the two-class pipeline.

    ``delta = None`` applies the 1/(2 n_train) rule after the split.  ``T``
    is the truncation level on the standardized features, ``iters`` the
    iteration count of the private fit, and ``sigma_fit`` the noise scale
    assumed by the mixture weights.  At the small sample sizes this pipeline
    targets, each extra iteration both shrinks the per-iteration batch and
    grows the mechanism noise, so a single sharp-weighted iteration is the
    default; the defaults were calibrated once on the synthetic benchmark
    (see README) and frozen.
    """

    s_hat: int
    epsilon: float
    delta: float | None = None
    eta: float = 0.5
    iters: int = 1
    T: float = 0.5
    sigma_fit: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "s_hat", _whole("s_hat", self.s_hat))
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if self.delta is not None and not 0 < self.delta < 1:
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")
        if not (self.eta >= 0 and math.isfinite(self.eta)):
            raise ConfigError(f"eta must be finite and nonnegative, got {self.eta}")
        object.__setattr__(self, "iters", _whole("iters", self.iters))
        _positive_finite("T", self.T)
        _positive_finite("sigma_fit", self.sigma_fit)


@dataclass(frozen=True)
class ClassificationReport:
    """Mean misclassification rate, its standard error, and per-rep rates."""

    misclassification_rate: float
    std_error: float
    reps: int
    params: tuple  # (s_hat, epsilon, delta)
    per_rep_rates: tuple


def parse_classification_config(raw: dict) -> tuple[ClassificationParams, int, int]:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    allowed = ["s_hat", "epsilon", "delta_rule", "delta", "eta", "iters", "T",
               "sigma_fit", "reps", "master_seed"]
    _take_keys(raw, allowed, "config")
    for key in ("s_hat", "epsilon", "reps", "master_seed"):
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")
    delta_rule = raw.get("delta_rule", "half_n")
    if delta_rule not in ("half_n", "explicit"):
        raise ConfigError(f"delta_rule must be 'half_n' or 'explicit', got {delta_rule!r}")
    delta = raw.get("delta") if delta_rule == "explicit" else None
    if delta_rule == "explicit" and delta is None:
        raise ConfigError("delta_rule 'explicit' requires delta")
    kwargs = {}
    for key in ("eta", "iters", "T", "sigma_fit"):
        if key in raw:
            kwargs[key] = raw[key]
    params = ClassificationParams(
        s_hat=raw["s_hat"], epsilon=float(raw["epsilon"]), delta=delta, **kwargs
    )
    reps = _whole("reps", raw["reps"])
    if not isinstance(raw["master_seed"], int):
        raise ConfigError("master_seed must be an integer")
    return params, reps, raw["master_seed"]


def load_classification_config(path) -> tuple[ClassificationParams, int, int]:
    return parse_classification_config(_load_json(path))


def load_classification_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a headered CSV with one ``label`` column and numeric features."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: file is empty") from None
            if "label" not in header:
                raise DataError(f"{path}: missing required column 'label'")
            label_idx = header.index("label")
            features, labels = [], []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
                labels.append(row[label_idx])
                try:
                    features.append([float(v) for i, v in enumerate(row) if i != label_idx])
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: non-numeric feature value ({exc})") from None
    except OSError as exc:
        raise DataError(f"cannot read data file {path}: {exc}") from exc
    if not features:
        raise DataError(f"{path}: no data rows")
    return np.asarray(features, dtype=float), np.asarray(labels)


def _classify_once(X, z, params: ClassificationParams, rep: int, master_seed: int,
                   silent_noise: bool) -> float:
    rng = np.random.default_rng(derive_seed(master_seed, "classify", rep))
    silent = silent_noise or math.isinf(params.epsilon)
    noise_oracle = NoiseOracle(derive_seed(master_seed, "classify-noise", rep),
                               mode="silent" if silent else "live")

    # Standardize each attribute, balance the classes by random drop, then
    # center the balanced set.
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    Xs = (X - mu) / sd

    idx_pos = np.flatnonzero(z > 0)
    idx_neg = np.flatnonzero(z < 0)
    keep = min(idx_pos.size, idx_neg.size)
    idx_pos = rng.permutation(idx_pos)[:keep]
    idx_neg = rng.permutation(idx_neg)[:keep]
    idx = np.concatenate([idx_pos, idx_neg])
    Xb = Xs[idx]
    zb = z[idx]
    Xb = Xb - Xb.mean(axis=0)

    perm = rng.permutation(idx.size)
    n_train = int(0.7 * idx.size)
    train, test = perm[:n_train], perm[n_train:]

    d = Xb.shape[1]
    delta = params.delta if params.delta is not None else 1.0 / (2.0 * n_train)
    budget = PrivacyBudget(params.epsilon, delta)
    config = EmConfig(eta=params.eta, T=params.T, N0=params.iters,
                      s_hat=params.s_hat, budget=budget, regime="high_dim")
    spec = ModelSpec("gmm", d, sigma=params.sigma_fit)
    # The all-coordinates 1/sqrt(d) start, thresholded to s_hat nonzeros
    # (ties resolve to the lowest indices) to satisfy the engine's sparsity
    # precondition.
    beta0 = exact_top_k(np.full(d, 1.0 / math.sqrt(d)), params.s_hat).values
    traj = run_high_dim(spec, GmmBatch(Xb[train]), config, beta0, noise_oracle)
    beta_hat = traj.final_beta

    # Classify by l2 closeness to +beta_hat vs -beta_hat, i.e. by the sign of
    # the inner product; orient the sign by training-set majority agreement.
    pred_train = np.where(Xb[train] @ beta_hat >= 0.0, 1.0, -1.0)
    orientation = 1.0 if np.mean(pred_train == zb[train]) >= 0.5 else -1.0
    pred_test = orientation * np.where(Xb[test] @ beta_hat >= 0.0, 1.0, -1.0)
    return float(np.mean(pred_test != zb[test]))


def run_classification(
    features,
    labels,
    params: ClassificationParams,
    reps: int,
    master_seed: int,
    silent_noise: bool = False,
    jobs: int = 1,
) -> ClassificationReport:
    """Repeated balanced-split classification with the private GMM estimator.

    Per repetition: standardize attributes, balance the two classes by
    random drop, subtract the overall mean, split 70/30, fit beta through
    the high-dimensional private EM, and classify test points by l2
    closeness to +/-beta.  ``epsilon = inf`` is the non-private sentinel and
    routes mechanism noise through a silent oracle.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise ConfigError(f"features must be a 2-D matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise DataError("features contain non-finite values")
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if classes.size != 2:
        raise ConfigError(f"expected exactly two classes, got {classes.size}")
    if reps < 1:
        raise ConfigError(f"reps must be at least 1, got {reps}")
    z = np.where(labels == classes[0], 1.0, -1.0)

    def one(rep):
        return _classify_once(X, z, params, rep, master_seed, silent_noise)

    rates = _fan_out(one, range(reps), jobs)

    arr = np.asarray(rates)
    std_error = float(arr.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    n_train_hint = int(0.7 * 2 * min(np.sum(z > 0), np.sum(z < 0)))
    delta = params.delta if params.delta is not None else 1.0 / (2.0 * n_train_hint)
    return ClassificationReport(
        misclassification_rate=float(arr.mean()),
        std_error=std_error,
        reps=reps,
        params=(params.s_hat, params.epsilon, delta),
        per_rep_rates=tuple(arr.tolist()),
    )


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{float(x):.10e}"


def write_results(result, path) -> None:
    """Write an AggregateResult or ClassificationReport as CSV (LF, UTF-8).

    Overwrites idempotently.  Numeric fields use %.10e so re-runs are
    byte-comparable.
    """
    if isinstance(result, AggregateResult):
        lines = [",".join(EXPERIMENT_CSV_HEADER)]
        for value, rep, iteration, err, err_sf in result.rows:
            lines.append(
                f"{result.sweep_name},{_fmt(value)},{rep},{iteration},{_fmt(err)},{_fmt(err_sf)}"
            )
    elif isinstance(result, ClassificationReport):
        s_hat, epsilon, _ = result.params
        lines = [",".join(CLASSIFICATION_CSV_HEADER)]
        for rep, rate in enumerate(result.per_rep_rates):
            lines.append(f"{s_hat},{_fmt(epsilon)},{rep},{_fmt(rate)}")
    else:
        raise TypeError(f"cannot serialize result of type {type(result).__name__}")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"failed to write results to {path}: {exc}") from exc


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
