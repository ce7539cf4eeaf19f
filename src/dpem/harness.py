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
from array import array
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import models
from .em_engine import EmConfig, nonprivate_em, run_high_dim, run_low_dim
from .mechanisms import NoiseOracle, PrivacyBudget, derive_seed, exact_top_k, require, whole
from .models import GmmBatch, ModelSpec
from .models.types import matvec

__all__ = [
    "ConfigError",
    "DataError",
    "SweepSpec",
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
    "default_beta_star",
    "default_beta0",
    "estimation_errors",
]

SWEEPABLE = ("n", "s_star", "epsilon", "d")

EXPERIMENT_CSV_HEADER = ["sweep_param", "sweep_value", "rep", "iteration", "error_l2", "error_l2_signfree"]
CLASSIFICATION_CSV_HEADER = ["s_hat", "epsilon", "rep", "misclassification_rate"]


class ConfigError(ValueError):
    """A configuration file or parameter set failed validation."""


class DataError(ValueError):
    """An input data file could not be parsed."""


@contextmanager
def _config_errors(prefix: str = ""):
    """Re-raise a library type's ``ValueError`` (or an overflow) as a ConfigError."""
    try:
        yield
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _positive_finite(name: str, value) -> None:
    require(name, value, "a positive finite number", lambda v: 0 < v < math.inf)


# Config-only checks, shared by the experiment and the classification config.
# Every model, privacy and estimator value is checked by the library type that
# owns it (ModelSpec, PrivacyBudget, EmConfig) when the config is loaded.


def _keys(raw, where: str, required, optional=()) -> dict:
    """``raw`` itself, if it is an object holding every required key and no unknown one."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(raw) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    for key in required:
        if key not in raw:
            raise ConfigError(f"{where}.{key} is required")
    return raw


def _check_noise_scale(spec: ModelSpec, n: int, config: EmConfig) -> None:
    """Refuse, before any run, a budget whose smallest step scale (at beta = 0) overflows a draw."""
    try:
        config.step_scale(spec, n, np.zeros(spec.d))
    except ValueError as exc:
        raise ValueError(
            f"the noise at epsilon = {config.budget.epsilon!r} overflows: {exc}") from exc


def _check_delta_rule(rule, delta) -> None:
    if rule not in ("half_n", "explicit"):
        raise ConfigError(f"delta_rule must be 'half_n' or 'explicit', got {rule!r}")
    if (delta is not None) != (rule == "explicit"):
        raise ConfigError("delta must be given when, and only when, delta_rule is 'explicit'")


def _check_seed(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"master_seed must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class SweepSpec:
    name: str
    values: tuple


# The optional ``fixed`` keys.  Rules: delta = 1/(2n) ('half_n') or ``delta`` ('explicit'),
# N0 = max(5, ceil(N0_rule ln n)), T = T_rule sigma sqrt(ln n_used), and s_hat = s_star
# ('equal') or s_hat_rule.
_DEFAULTS = {"sigma": 0.5, "eta": 0.5, "reps": 1, "delta_rule": "half_n", "delta": None,
             "T_rule": 2.0, "N0_rule": 1.0, "s_hat_rule": "equal", "missing_prob": 0.1}


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep, resolved: ``cells`` maps each sweep value to its ``(n, ModelSpec, EmConfig)``.

    :func:`parse_experiment_config` builds it.  The cells do not depend on
    the seed, so ``dataclasses.replace(config, master_seed=...)`` reuses
    them and checks only the new seed.
    """

    sweep: SweepSpec
    reps: int
    master_seed: int
    cells: dict = field(repr=False, compare=False)

    def __post_init__(self):
        _check_seed(self.master_seed)
        # Per-cell seeds must be pairwise distinct, or repetitions would share noise.
        seeds = {
            derive_seed(self.master_seed, self.sweep.name, value, rep)
            for value in self.sweep.values
            for rep in range(self.reps)
        }
        if len(seeds) != len(self.sweep.values) * self.reps:
            raise ConfigError("seed derivation collided; change master_seed")


def _resolve_cell(model: str, high_dim: bool, p: dict):
    """One cell's ``(n, ModelSpec, EmConfig)`` from its ``fixed`` values, the swept one included."""
    n, d, s_star = (whole(name, p[name]) for name in ("n", "d", "s_star"))
    if s_star > d:
        raise ValueError(f"s_star must not exceed d ({s_star} > {d})")
    s_hat = s_star if p["s_hat_rule"] == "equal" else p["s_hat_rule"]
    if s_hat > d:
        raise ValueError(f"s_hat must not exceed d ({s_hat} > {d})")
    N0 = max(5, math.ceil(p["N0_rule"] * math.log(n)))
    if N0 > n:
        raise ValueError(f"derived N0 = {N0} exceeds n = {n}")
    spec = ModelSpec(model, d, p["sigma"], default_beta_star(d, s_star), p["missing_prob"])
    T = p["T_rule"] * spec.sigma * math.sqrt(math.log(N0 * (n // N0)))
    if math.isinf(T):
        raise ValueError(f"derived T overflows (T_rule = {p['T_rule']}, sigma = {spec.sigma})")
    delta = 1.0 / (2.0 * n) if p["delta_rule"] == "half_n" else p["delta"]
    em_config = EmConfig(p["eta"], T, N0, PrivacyBudget(p["epsilon"], delta),
                         s_hat if high_dim else None)
    _check_noise_scale(spec, n, em_config)
    return n, spec, em_config


def parse_experiment_config(raw: dict) -> ExperimentConfig:
    """Check a plain-dict config and resolve every sweep value into its cell, once.

    A bad value fails here, before any cell runs, as a ConfigError; one
    found in a cell names its sweep value.
    """
    _keys(raw, "config", ("model", "regime", "sweep", "fixed", "master_seed"))
    sweep_raw = _keys(raw["sweep"], "sweep", ("name", "values"))
    name, values = sweep_raw["name"], sweep_raw["values"]
    if not isinstance(values, list):
        raise ConfigError("sweep.values must be a list")
    if name not in SWEEPABLE:
        raise ConfigError(f"sweep.name must be one of {SWEEPABLE}, got {name!r}")
    if not values:
        raise ConfigError("sweep.values must not be empty")
    required = [key for key in SWEEPABLE if key != name]
    p = {**_DEFAULTS, **_keys(raw["fixed"], "fixed", required, [*SWEEPABLE, *_DEFAULTS])}
    _check_delta_rule(p["delta_rule"], p["delta"])
    with _config_errors():
        reps = whole("reps", p["reps"])
        _positive_finite("T_rule", p["T_rule"])
        _positive_finite("N0_rule", p["N0_rule"])
        if p["s_hat_rule"] != "equal":
            p["s_hat_rule"] = whole("s_hat_rule", p["s_hat_rule"])
    if raw["regime"] not in ("high_dim", "low_dim"):
        raise ConfigError(f"regime must be 'high_dim' or 'low_dim', got {raw['regime']!r}")
    _check_seed(raw["master_seed"])
    cells = {}
    for value in values:
        with _config_errors(f"sweep value {name}={value!r}: "):
            cells[value] = _resolve_cell(raw["model"], raw["regime"] == "high_dim",
                                         {**p, name: value})
    if len(cells) != len(values):
        raise ConfigError(f"sweep.values must be distinct, got {values}")
    return ExperimentConfig(SweepSpec(name, tuple(values)), reps, raw["master_seed"], cells)


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


def default_beta_star(d: int, s_star: int) -> np.ndarray:
    """Unit vector with the first s_star coordinates equal to 1/sqrt(s_star)."""
    beta = np.zeros(d)
    beta[:s_star] = 1.0 / math.sqrt(s_star)
    return beta


def default_beta0(beta_star, s_hat: int | None, oracle: NoiseOracle) -> np.ndarray:
    """True parameter plus a uniform-on-sphere perturbation of radius ||beta*||/8.

    Hard-thresholded to s_hat nonzeros when s_hat is given (high-dimensional
    runs); left dense otherwise.  Reading beta* puts this start outside the
    (epsilon, delta) guarantee: it is a simulation device, not a private one.
    """
    beta_star = np.asarray(beta_star, dtype=float)
    direction = np.atleast_1d(oracle.standard_normal(beta_star.size))
    radius = np.linalg.norm(beta_star) / 8.0
    beta0 = beta_star + radius * direction / np.linalg.norm(direction)
    if s_hat is not None:
        beta0 = exact_top_k(beta0, s_hat).values
    return beta0


def estimation_errors(betas, true_beta) -> tuple[np.ndarray, np.ndarray]:
    """Plain and sign-free ell-2 distances from each row of ``betas`` to ``true_beta``.

    The sign-free error is min(||b - beta*||, ||b + beta*||), since gmm and
    mor identify beta* only up to sign.
    """
    true_beta = np.asarray(true_beta, dtype=float)
    plain = np.array([np.linalg.norm(b - true_beta) for b in betas])
    flipped = np.array([np.linalg.norm(b + true_beta) for b in betas])
    return plain, np.minimum(plain, flipped)


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

    def per_rep_final(self) -> dict:
        """sweep_value -> final-iteration error of every repetition, rep order."""
        # Each cell's rows run in iteration order, so its last row is its final one.
        final = {(value, rep): err for value, rep, _, err, _ in self.rows}
        return {float(value): np.array([final[(float(value), rep)] for rep in range(self.reps)])
                for value in self.sweep_values}

    def mean_final_error(self) -> dict:
        return {value: float(errs.mean()) for value, errs in self.per_rep_final().items()}


def _run_cell(config: ExperimentConfig, sweep_value, rep: int, engine: str):
    """One cell's :func:`estimation_errors`, per iteration."""
    n, spec, em_config = config.cells[sweep_value]
    cell_seed = derive_seed(config.master_seed, config.sweep.name, sweep_value, rep)
    data_oracle = NoiseOracle(derive_seed(cell_seed, "data"))
    init_oracle = NoiseOracle(derive_seed(cell_seed, "init"))
    beta0 = default_beta0(spec.true_beta, em_config.s_hat, init_oracle)
    if engine == "nonprivate":
        betas = nonprivate_em(spec, models.generate(spec, n, data_oracle), em_config, beta0)
    else:
        # The private drivers read each of their N0 batches once, in order:
        # draw each just before its iteration, into one reused batch.
        sample = models.LazySample(spec, n, n // em_config.N0, data_oracle)
        run = run_low_dim if em_config.s_hat is None else run_high_dim
        betas = run(spec, sample, em_config, beta0, NoiseOracle(derive_seed(cell_seed, "noise")))
    return estimation_errors(betas, spec.true_beta)


def _fan_out(fn, items, jobs: int) -> list:
    """``[fn(item) for item in items]``, on up to ``jobs`` (a positive integer) threads."""
    with _config_errors():
        jobs = whole("jobs", jobs)
    if jobs > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def run_experiment(
    config: ExperimentConfig,
    jobs: int = 1,
    engine: str = "private",
) -> AggregateResult:
    """Run the configured sweep and collect per-iteration errors.

    ``engine`` is 'private' (the DP EM drivers) or 'nonprivate' (the plain
    gradient-EM baseline, from the same cell seeds).  The baseline draws one
    full n-sample batch; a private run draws its sample one batch of
    n // N0 rows at a time, just before each iteration, so the same cell
    seed gives the two engines different rows.  Only an epsilon of
    ``inf`` makes the mechanism noise exactly zero.  Repetitions may run
    concurrently on ``jobs`` threads (a positive integer, as for the CLI's
    ``--jobs``); the output is schedule-independent.
    """
    if engine not in ("private", "nonprivate"):
        raise ConfigError(f"engine must be 'private' or 'nonprivate', got {engine!r}")
    cells = [(value, rep) for value in config.sweep.values for rep in range(config.reps)]

    def one(cell):
        value, rep = cell
        try:
            return _run_cell(config, value, rep, engine)
        except Exception as exc:
            raise RuntimeError(
                f"run failed at {config.sweep.name}={value!r}, rep={rep}: {exc}"
            ) from exc

    scored = _fan_out(one, cells, jobs)

    result = AggregateResult(config.sweep.name, tuple(config.sweep.values), config.reps)
    for (value, rep), (errors, signfree) in zip(cells, scored):
        for t, (err, err_sf) in enumerate(zip(errors, signfree)):
            result.rows.append((float(value), rep, t, float(err), float(err_sf)))
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
        # epsilon, delta, eta and T > 0 are checked by the EmConfig built here,
        # at a stand-in training size whose 1/(2 n_train) is a valid delta.
        with _config_errors():
            object.__setattr__(self, "s_hat", whole("s_hat", self.s_hat))
            object.__setattr__(self, "iters", whole("iters", self.iters))
            require("T", self.T, "a finite number", math.isfinite)
            _positive_finite("sigma_fit", self.sigma_fit)
            self.em_config(1)

    def em_config(self, n_train: int) -> EmConfig:
        """The private fit's config for a training set of ``n_train`` rows."""
        delta = self.delta if self.delta is not None else 1.0 / (2.0 * n_train)
        return EmConfig(eta=self.eta, T=self.T, N0=self.iters, s_hat=self.s_hat,
                        budget=PrivacyBudget(self.epsilon, delta))


@dataclass(frozen=True)
class ClassificationReport:
    """Mean misclassification rate, its standard error and per-rep rates, at s_hat and epsilon."""

    misclassification_rate: float
    std_error: float
    reps: int
    s_hat: int
    epsilon: float
    per_rep_rates: tuple


def parse_classification_config(raw: dict) -> tuple[ClassificationParams, int, int]:
    _keys(raw, "config", ("s_hat", "epsilon", "reps", "master_seed"),
          ("delta_rule", "delta", "eta", "iters", "T", "sigma_fit"))
    _check_delta_rule(raw.get("delta_rule", "half_n"), raw.get("delta"))
    params = ClassificationParams(**{key: value for key, value in raw.items()
                                     if key not in ("delta_rule", "reps", "master_seed")})
    with _config_errors():
        reps = whole("reps", raw["reps"])
    return params, reps, _check_seed(raw["master_seed"])


def load_classification_config(path) -> tuple[ClassificationParams, int, int]:
    return parse_classification_config(_load_json(path))


def load_classification_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a headered CSV with one ``label`` column and numeric features.

    The features are parsed into one flat float64 buffer, which the returned
    (rows, columns - 1) matrix views without a copy.
    """
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports put first.
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: file is empty") from None
            if "label" not in header:
                raise DataError(f"{path}: missing required column 'label'")
            label_idx = header.index("label")
            values, labels = array("d"), []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
                labels.append(row.pop(label_idx))
                try:
                    values.extend(map(float, row))
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: non-numeric feature value ({exc})") from None
    except OSError as exc:
        raise DataError(f"cannot read data file {path}: {exc}") from exc
    if not labels:
        raise DataError(f"{path}: no data rows")
    features = np.frombuffer(values, dtype=float).reshape(len(labels), len(header) - 1)
    return features, np.asarray(labels)


def _classify_once(Xs, z, spec: ModelSpec, config: EmConfig, beta0, n_train: int,
                   rep: int, master_seed: int) -> float:
    rng = np.random.default_rng(derive_seed(master_seed, "classify", rep))
    noise_oracle = NoiseOracle(derive_seed(master_seed, "classify-noise", rep))

    # Balance the standardized classes by random drop, then center the
    # balanced set in place: fancy indexing already made it a copy.
    idx_pos = np.flatnonzero(z > 0)
    idx_neg = np.flatnonzero(z < 0)
    keep = min(idx_pos.size, idx_neg.size)
    idx_pos = rng.permutation(idx_pos)[:keep]
    idx_neg = rng.permutation(idx_neg)[:keep]
    idx = np.concatenate([idx_pos, idx_neg])
    Xb = Xs[idx]
    zb = z[idx]
    Xb -= Xb.mean(axis=0)

    perm = rng.permutation(idx.size)
    train, test = perm[:n_train], perm[n_train:]

    X_train = Xb[train]
    beta_hat = run_high_dim(spec, GmmBatch(X_train), config, beta0, noise_oracle)[-1]

    # Classify by l2 closeness to +beta_hat vs -beta_hat, i.e. by the sign of
    # the inner product; orient the sign by training-set majority agreement.
    pred_train = np.where(matvec(X_train, beta_hat) >= 0.0, 1.0, -1.0)
    orientation = 1.0 if np.mean(pred_train == zb[train]) >= 0.5 else -1.0
    pred_test = orientation * np.where(matvec(Xb[test], beta_hat) >= 0.0, 1.0, -1.0)
    return float(np.mean(pred_test != zb[test]))


def run_classification(
    features,
    labels,
    params: ClassificationParams,
    reps: int,
    master_seed: int,
    jobs: int = 1,
) -> ClassificationReport:
    """Repeated balanced-split classification with the private GMM estimator.

    The attributes are standardized once, over all rows.  Per repetition:
    balance the two classes by random drop, subtract the overall mean, split
    70/30, fit beta through the high-dimensional private EM, and classify
    test points by l2 closeness to +/-beta.  The split and the 1/(2 n_train)
    delta rule share one training size.  ``epsilon = inf`` is the only
    setting that makes the mechanism noise exactly zero.  ``reps`` and
    ``jobs`` (threads) must be positive integers, as in the CLI.

    Only the private fit is under the (epsilon, delta) guarantee: not the
    standardization (over all rows, test rows included), the centering of the
    balanced set, or the sign orientation from the training labels.
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
    with _config_errors():
        reps = whole("reps", reps)
    if params.s_hat > X.shape[1]:
        raise ConfigError(f"s_hat must not exceed the feature count ({params.s_hat} > {X.shape[1]})")
    z = np.where(labels == classes[0], 1.0, -1.0)
    # Every repetition balances to 2 * (minority count) rows and trains on 70%.
    n_train = int(0.7 * 2 * min(np.sum(z > 0), np.sum(z < 0)))
    if params.iters > n_train:
        raise ConfigError(f"iters must not exceed the training size ({params.iters} > {n_train})")
    config = params.em_config(n_train)
    d = X.shape[1]
    spec = ModelSpec("gmm", d, params.sigma_fit)
    with _config_errors():
        _check_noise_scale(spec, n_train, config)
    # The all-coordinates 1/sqrt(d) start, thresholded to s_hat nonzeros
    # (ties resolve to the lowest indices) to satisfy the engine's sparsity
    # precondition.
    beta0 = exact_top_k(np.full(d, 1.0 / math.sqrt(d)), params.s_hat).values
    sd = X.std(axis=0)
    Xs = X - X.mean(axis=0)
    Xs /= np.where(sd == 0.0, 1.0, sd)

    def one(rep):
        return _classify_once(Xs, z, spec, config, beta0, n_train, rep, master_seed)

    rates = _fan_out(one, range(reps), jobs)

    arr = np.asarray(rates)
    std_error = float(arr.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return ClassificationReport(
        misclassification_rate=float(arr.mean()),
        std_error=std_error,
        reps=reps,
        s_hat=params.s_hat,
        epsilon=float(params.epsilon),
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
        lines = [",".join(CLASSIFICATION_CSV_HEADER)]
        for rep, rate in enumerate(result.per_rep_rates):
            lines.append(f"{result.s_hat},{_fmt(result.epsilon)},{rep},{_fmt(rate)}")
    else:
        raise TypeError(f"cannot serialize result of type {type(result).__name__}")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"failed to write results to {path}: {exc}") from exc

