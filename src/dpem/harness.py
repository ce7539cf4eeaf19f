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
import itertools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import models
from .em_engine import EmConfig, nonprivate_em, run_high_dim, run_low_dim
from .mechanisms import (BLOCK_VALUES, NoiseOracle, PrivacyBudget, derive_seed, exact_top_k,
                         require, whole)
from .models import GmmBatch, ModelSpec, matvec

__all__ = [
    "ConfigError",
    "DataError",
    "SweepSpec",
    "ExperimentConfig",
    "AggregateResult",
    "ClassificationConfig",
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


def _check_delta_rule(rule, delta) -> None:
    if rule not in ("half_n", "explicit"):
        raise ConfigError(f"delta_rule must be 'half_n' or 'explicit', got {rule!r}")
    if (delta is not None) != (rule == "explicit"):
        raise ConfigError("delta must be given when, and only when, delta_rule is 'explicit'")


def _check_seed(value) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"master_seed must be an integer, got {value!r}")


@dataclass(frozen=True)
class SweepSpec:
    name: str
    values: tuple


# The optional ``fixed`` keys.  Rules: delta = 1/(2n) ('half_n') or ``delta`` ('explicit'),
# N0 = max(5, ceil(N0_rule ln n)), T = T_rule sigma sqrt(ln n_used), and s_hat = s_star
# ('equal') or s_hat_rule, high_dim only; missing_prob is rmc's only (0.0 for gmm and mor).
_DEFAULTS = {"sigma": 0.5, "eta": 0.5, "reps": 1, "delta_rule": "half_n", "delta": None,
             "T_rule": 2.0, "N0_rule": 1.0, "s_hat_rule": "equal", "missing_prob": 0.1}


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep, resolved: ``cells`` maps each sweep value to its ``(n, ModelSpec, EmConfig)``.

    :func:`parse_experiment_config` builds it.  The cells depend on neither
    the seed nor ``reps``, so ``dataclasses.replace(config, master_seed=...)``
    or ``replace(config, reps=...)`` reuses them and checks the new value.
    ``==`` compares the cells too, and each cell's ``ModelSpec`` by identity,
    so a config equals its ``replace`` copies but not a second parse.
    """

    sweep: SweepSpec
    reps: int
    master_seed: int
    cells: dict = field(repr=False, hash=False)

    def __post_init__(self):
        with _config_errors():
            object.__setattr__(self, "reps", whole("reps", self.reps))
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
    s_hat = None
    if high_dim:
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
    em_config = EmConfig(p["eta"], T, N0, PrivacyBudget(p["epsilon"], delta), s_hat)
    # Its value is unused: the call refuses, before any run, a budget whose
    # step scale overflows a draw.
    em_config.step_scale(spec, n)
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
    if raw["regime"] not in ("high_dim", "low_dim"):
        raise ConfigError(f"regime must be 'high_dim' or 'low_dim', got {raw['regime']!r}")
    high_dim = raw["regime"] == "high_dim"
    if p["s_hat_rule"] != "equal" and not high_dim:
        raise ConfigError("s_hat_rule applies only to regime 'high_dim'")
    if raw["model"] != "rmc":
        if "missing_prob" in raw["fixed"]:
            raise ConfigError("missing_prob applies only to model 'rmc'")
        p["missing_prob"] = 0.0
    with _config_errors():
        _positive_finite("T_rule", p["T_rule"])
        _positive_finite("N0_rule", p["N0_rule"])
        if p["s_hat_rule"] != "equal":
            p["s_hat_rule"] = whole("s_hat_rule", p["s_hat_rule"])
    cells = {}
    for value in values:
        with _config_errors(f"sweep value {name}={value!r}: "):
            cells[value] = _resolve_cell(raw["model"], high_dim, {**p, name: value})
    if len(cells) != len(values):
        raise ConfigError(f"sweep.values must be distinct, got {values}")
    return ExperimentConfig(SweepSpec(name, tuple(values)), p["reps"], raw["master_seed"], cells)


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
    direction = oracle.standard_normal(beta_star.size)
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


@dataclass(frozen=True)
class AggregateResult:
    """Per-iteration errors for every (sweep value, repetition) cell of ``config``.

    ``rows`` hold (sweep_value, rep, iteration, error_l2, error_l2_signfree)
    ordered by sweep value (config order), then rep, then iteration.
    """

    config: ExperimentConfig
    rows: list

    def per_rep_final(self) -> dict:
        """sweep_value -> final-iteration error of every repetition, rep order."""
        # Each cell's rows run in iteration order, so its last row is its final one.
        final = {(value, rep): err for value, rep, _, err, _ in self.rows}
        return {float(value): np.array([final[(float(value), rep)]
                                        for rep in range(self.config.reps)])
                for value in self.config.sweep.values}

    def mean_final_error(self) -> dict:
        return {value: float(errs.mean()) for value, errs in self.per_rep_final().items()}


def _run_cell(config: ExperimentConfig, sweep_value, rep: int, engine: str):
    """One cell's :func:`estimation_errors`, per iteration."""
    n, spec, em_config = config.cells[sweep_value]
    cell_seed = derive_seed(config.master_seed, config.sweep.name, sweep_value, rep)
    data_oracle = NoiseOracle(derive_seed(cell_seed, "data"))
    init_oracle = NoiseOracle(derive_seed(cell_seed, "init"))
    beta0 = default_beta0(spec.true_beta, em_config.s_hat, init_oracle)
    # Every driver reads its sample front to back, so each read is drawn just before it is used.
    sample = models.LazySample(spec, n, data_oracle)
    if engine == "nonprivate":
        betas = nonprivate_em(spec, sample, em_config, beta0)
    else:
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
    gradient-EM baseline, from the same cell seeds).  Each cell draws its
    sample through one :class:`~dpem.models.LazySample`: a private run reads
    it one batch at a time, just before each iteration, and the baseline
    reads it whole, in one draw.  Successive batch draws order the stream
    differently from one n-row draw, so the same cell seed gives the two
    engines different rows.  Only an epsilon of ``inf`` makes the mechanism
    noise exactly zero.  Repetitions may run concurrently on ``jobs``
    threads (a positive integer, as for the CLI's ``--jobs``); the output is
    schedule-independent.
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
    return AggregateResult(config, [
        (float(value), rep, t, float(err), float(err_sf))
        for (value, rep), (errors, signfree) in zip(cells, scored)
        for t, (err, err_sf) in enumerate(zip(errors, signfree))
    ])


# ---------------------------------------------------------------------------
# Classification pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationConfig:
    """One two-class pipeline run: its estimator parameters, repetitions and seed.

    ``delta = None`` applies the 1/(2 n_train) rule after the split.  ``T``
    is the truncation level on the standardized features, ``iters`` the
    iteration count of the private fit, and ``sigma_fit`` the noise scale
    assumed by the mixture weights.  At the small sample sizes this pipeline
    targets, each extra iteration both shrinks the per-iteration batch and
    grows the mechanism noise, so a single sharp-weighted iteration is the
    default; the defaults were calibrated once on the synthetic benchmark
    (see README) and frozen.  ``dataclasses.replace(config, master_seed=...)``
    checks the new seed, as every field is checked here.
    """

    s_hat: int
    epsilon: float
    reps: int
    master_seed: int
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
            object.__setattr__(self, "reps", whole("reps", self.reps))
        _check_seed(self.master_seed)

    def em_config(self, n_train: int) -> EmConfig:
        """The private fit's config for a training set of ``n_train`` rows."""
        delta = self.delta if self.delta is not None else 1.0 / (2.0 * n_train)
        return EmConfig(eta=self.eta, T=self.T, N0=self.iters, s_hat=self.s_hat,
                        budget=PrivacyBudget(self.epsilon, delta))


@dataclass(frozen=True)
class ClassificationReport:
    """Misclassification mean, standard error, per-rep rates, and the fit's EmConfig at n_train."""

    misclassification_rate: float
    std_error: float
    per_rep_rates: tuple
    config: EmConfig


def parse_classification_config(raw: dict) -> ClassificationConfig:
    _keys(raw, "config", ("s_hat", "epsilon", "reps", "master_seed"),
          ("delta_rule", "delta", "eta", "iters", "T", "sigma_fit"))
    _check_delta_rule(raw.get("delta_rule", "half_n"), raw.get("delta"))
    return ClassificationConfig(**{key: value for key, value in raw.items() if key != "delta_rule"})


def load_classification_config(path) -> ClassificationConfig:
    return parse_classification_config(_load_json(path))


def load_classification_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a headered CSV with one ``label`` column and numeric features.

    The header goes through ``csv``, blank lines before it skipped; every data
    row goes through one ``np.loadtxt`` call into one float64 table, and the
    features come back as a view of it without the label column, so they may
    be strided.  Numbers are spelled as numpy's C parser takes them, padded
    with any characters ``str.isspace()`` accepts; ``float()``-only spellings
    (``1_000.5``, non-ASCII digits) are refused, and a data field has no
    128 KiB limit.  Every fault is a ``DataError`` that starts with the path.
    A row's carries numpy's message, less its advice to pass ``usecols``
    (classify has no such option); it counts the data rows that are not
    blank, not file lines: "could not convert ... at row N, column M" counts
    rows from 0 and columns from 1, "the number of columns changed ... at
    row N" counts rows from 1.  A byte that is not UTF-8 is named with its
    file line, the header being line 1.
    """
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports put first.
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            header = next(filter(None, csv.reader(fh)), None)
            if header is None:
                raise ValueError("file is empty")
            if "label" not in header:
                raise ValueError("missing required column 'label'")
            if header.count("label") > 1:
                raise ValueError("more than one 'label' column")
            label_idx = header.index("label")
            # loadtxt warns when it gets no rows, so a file without one stops here.
            lines = itertools.dropwhile(lambda line: not line.strip("\r\n"), fh)
            first = next(lines, None)
            if first is None:
                raise ValueError("no data rows")
            labels = []

            def label(field):
                labels.append(field)
                return 0.0

            # Every column is parsed, so loadtxt checks each row's field count.
            table = np.loadtxt(itertools.chain([first], lines), delimiter=",", quotechar='"',
                               comments=None, ndmin=2, converters={label_idx: label})
        width = len(header)
        if table.shape[1] != width:
            raise ValueError(f"expected {width} fields, got {table.shape[1]}")
    except UnicodeDecodeError as exc:
        # The decoder reads ahead of the csv reader, so decode the raw file again.
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as bad:
            head = raw[:bad.start]
            line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
            raise DataError(f"{path}:{line}: not UTF-8 text "
                            f"(byte {raw[bad.start]:#04x}: {bad.reason})") from None
        raise DataError(f"{path}: {exc}") from None
    except (ValueError, csv.Error) as exc:
        raise DataError(f"{path}: {str(exc).partition('; use `usecols`')[0]}") from None
    except OSError as exc:
        raise DataError(f"cannot read data file {path}: {exc}") from exc
    # A label first or last leaves no gap.
    if label_idx == 0:
        return table[:, 1:], np.asarray(labels)
    if label_idx == width - 1:
        return table[:, :-1], np.asarray(labels)
    # Close a middle label column's gap from its narrower side, so at most half
    # the table moves, and a row block at a time, so numpy's temporary for the
    # overlapping copy is one block, not half the table.
    if 2 * label_idx < width - 1:
        src, dst, keep = slice(0, label_idx), slice(1, label_idx + 1), slice(1, None)
    else:
        src, dst, keep = slice(label_idx + 1, None), slice(label_idx, -1), slice(None, -1)
    step = max(1, BLOCK_VALUES // width)
    for lo in range(0, len(table), step):
        table[lo:lo + step, dst] = table[lo:lo + step, src]
    return table[:, keep], np.asarray(labels)


def _classify_once(Xs, z, spec: ModelSpec, config: EmConfig, beta0, n_train: int,
                   rep: int, master_seed: int) -> float:
    rng = np.random.default_rng(derive_seed(master_seed, "classify", rep))
    noise_oracle = NoiseOracle(derive_seed(master_seed, "classify-noise", rep))

    # Balance the standardized classes by random drop and split 70/30.  Each
    # split is gathered from Xs and centered in place with the balanced mean.
    # The gathers are clip-mode takes, which run without the GIL held; the
    # indices are in range by construction, so clipping moves none of them.
    idx_pos = np.flatnonzero(z > 0)
    idx_neg = np.flatnonzero(z < 0)
    keep = min(idx_pos.size, idx_neg.size)
    idx_pos = rng.permutation(idx_pos)[:keep]
    idx_neg = rng.permutation(idx_neg)[:keep]
    idx = np.concatenate([idx_pos, idx_neg])
    center = Xs.take(idx, axis=0, mode="clip").mean(axis=0)

    perm = rng.permutation(idx.size)
    train, test = idx[perm[:n_train]], idx[perm[n_train:]]

    X_train = Xs.take(train, axis=0, mode="clip")
    X_train -= center
    beta_hat = run_high_dim(spec, GmmBatch(X_train), config, beta0, noise_oracle)[-1]

    # Classify by l2 closeness to +beta_hat vs -beta_hat, i.e. by the sign of
    # the inner product; orient the sign by training-set majority agreement.
    pred_train = np.where(matvec(X_train, beta_hat) >= 0.0, 1.0, -1.0)
    orientation = 1.0 if np.mean(pred_train == z[train]) >= 0.5 else -1.0
    del X_train
    X_test = Xs.take(test, axis=0, mode="clip")
    X_test -= center
    pred_test = orientation * np.where(matvec(X_test, beta_hat) >= 0.0, 1.0, -1.0)
    return float(np.mean(pred_test != z[test]))


def run_classification(
    features,
    labels,
    config: ClassificationConfig,
    jobs: int = 1,
) -> ClassificationReport:
    """Repeated balanced-split classification with the private GMM estimator.

    The attributes are standardized once, over all rows.  Per repetition:
    balance the two classes by random drop, split 70/30, gather each split
    from the standardized rows and center it with the balanced rows' mean
    (the test split only after the training split is released), fit beta
    through the high-dimensional private EM, and classify test points by l2
    closeness to +/-beta.  The split and the 1/(2 n_train) delta rule share
    one training size.  ``epsilon = inf`` is the only setting that makes the
    mechanism noise exactly zero.  ``jobs`` (threads) must be a positive
    integer, as in the CLI.

    Only the private fit is under the (epsilon, delta) guarantee: not the
    standardization (over all rows, test rows included), the centering with
    the balanced rows' mean, the sign orientation from the training labels,
    or n_train = floor(0.7 * 2 * min(class counts)), which sets the fit's n
    in the sensitivity and, under the 1/(2 n_train) rule, its delta.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise ConfigError(f"features must be a 2-D matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise DataError("features contain non-finite values")
    labels = np.asarray(labels)
    if labels.shape != (X.shape[0],):
        raise DataError(f"labels must be 1-D with one entry per row ({X.shape[0]}), "
                        f"got shape {labels.shape}")
    classes = np.unique(labels)
    if classes.size != 2:
        raise ConfigError(f"expected exactly two classes, got {classes.size}")
    if config.s_hat > X.shape[1]:
        raise ConfigError(f"s_hat must not exceed the feature count ({config.s_hat} > {X.shape[1]})")
    z = np.where(labels == classes[0], 1.0, -1.0)
    # Every repetition balances to 2 * (minority count) rows and trains on 70%.
    n_train = 14 * int(min(np.sum(z > 0), np.sum(z < 0))) // 10
    if config.iters > n_train:
        raise ConfigError(f"iters must not exceed the training size ({config.iters} > {n_train})")
    em_config = config.em_config(n_train)
    d = X.shape[1]
    spec = ModelSpec("gmm", d, config.sigma_fit)
    with _config_errors():
        # Its value is unused: the call refuses, before any repetition, a
        # budget whose step scale overflows a draw.
        em_config.step_scale(spec, n_train)
    # The all-coordinates 1/sqrt(d) start, thresholded to s_hat nonzeros
    # (ties resolve to the lowest indices) to satisfy the engine's sparsity
    # precondition.
    beta0 = exact_top_k(np.full(d, 1.0 / math.sqrt(d)), config.s_hat).values
    sd = X.std(axis=0)
    Xs = X - X.mean(axis=0)
    Xs /= np.where(sd == 0.0, 1.0, sd)

    def one(rep):
        return _classify_once(Xs, z, spec, em_config, beta0, n_train, rep, config.master_seed)

    rates = np.asarray(_fan_out(one, range(config.reps), jobs))
    std_error = float(rates.std(ddof=1) / math.sqrt(rates.size)) if rates.size > 1 else 0.0
    return ClassificationReport(float(rates.mean()), std_error, tuple(rates.tolist()), em_config)


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
        name = result.config.sweep.name
        lines = [",".join(EXPERIMENT_CSV_HEADER)]
        lines += [f"{name},{_fmt(value)},{rep},{iteration},{_fmt(err)},{_fmt(err_sf)}"
                  for value, rep, iteration, err, err_sf in result.rows]
    elif isinstance(result, ClassificationReport):
        cell = f"{result.config.s_hat},{_fmt(result.config.budget.epsilon)}"
        lines = [",".join(CLASSIFICATION_CSV_HEADER)]
        lines += [f"{cell},{rep},{_fmt(rate)}" for rep, rate in enumerate(result.per_rep_rates)]
    else:
        raise TypeError(f"cannot serialize result of type {type(result).__name__}")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"failed to write results to {path}: {exc}") from exc

