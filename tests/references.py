"""Brute-force references that the tests check the package against.

Each is coded apart from the kernels it checks.  The surrogate objectives
compute their own mixing weights and rmc fill-in in plain numpy, with the
rmc curvature matrix K_i materialized, so criterion 02's finite differences
share no arithmetic with the gradients.  The noiseless hard-thresholding EM
has its own batching arithmetic, selects by full sort and builds its own
iterate array.  The classification repetition centers a copy of the balanced
rows and gathers both splits from it, where the harness gathers each split
straight from the standardized matrix.  The classification CSV is read
through ``csv`` and ``float()``, where the loader uses numpy's C parser.
Laplace peeling, the paper's noisy hard thresholding, and
exponential-mechanism peeling run their rounds one at a time, and the law of
the latter is enumerated round by round.  None of them imports a private
name of the package.
"""

import csv
import itertools

import numpy as np

from dpem import models
from dpem.em_engine import run_high_dim
from dpem.mechanisms import NoiseOracle, SparseSelection, derive_seed, exact_top_k
from dpem.models import matvec


def logistic(t):
    """1 / (1 + exp(-t)) as (1 + tanh(t / 2)) / 2, which cannot overflow."""
    return 0.5 * (1.0 + np.tanh(0.5 * t))


def rmc_coefficients(beta, batch, sigma):
    """c = (y - <beta, x_obs>) / (sigma^2 + ||(1-z)*beta||^2), one per sample."""
    beta = np.asarray(beta, dtype=float)
    masked_beta = (1.0 - batch.z) * beta
    return (batch.y - batch.x_obs @ beta) / (sigma**2 + np.sum(masked_beta**2, axis=1))


def rmc_fill_in(beta, batch, sigma):
    """Conditional-mean fill-in of the missing covariates, one row per sample.

    m = x_obs + c * (1-z)*beta, with c from :func:`rmc_coefficients`.
    """
    beta = np.asarray(beta, dtype=float)
    return batch.x_obs + rmc_coefficients(beta, batch, sigma)[:, None] * ((1.0 - batch.z) * beta)


def q_value(kind, beta_prime, beta, batch, sigma):
    """Explicit surrogate objective Q_n(beta_prime; beta) for one model.

    For gmm this is the weighted two-component quadratic
        -(1/2n) sum_i [w_i ||y_i - b'||^2 + (1 - w_i) ||y_i + b'||^2].
    For mor it is the quadratic whose gradient in the first argument is the
    model's update direction,
        (1/n) sum_i [2 w_i y_i <x_i, b'> - <x_i, b'>^2 / 2].
    For rmc the fill-in quadratic is evaluated with the full curvature
    matrix K_i materialized, giving an arithmetic path independent of the
    rank-structured gradient.
    """
    beta_prime = np.asarray(beta_prime, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if kind == "gmm":
        w = logistic(batch.y @ beta / sigma**2)
        sq_minus = np.sum((batch.y - beta_prime) ** 2, axis=1)
        sq_plus = np.sum((batch.y + beta_prime) ** 2, axis=1)
        return float(np.mean(-0.5 * (w * sq_minus + (1.0 - w) * sq_plus)))
    if kind == "mor":
        w = logistic(batch.y * (batch.x @ beta) / sigma**2)
        proj = batch.x @ beta_prime
        return float(np.mean(2.0 * w * batch.y * proj - 0.5 * proj**2))
    if kind == "rmc":
        m = rmc_fill_in(beta, batch, sigma)
        missing = 1.0 - batch.z
        nn = missing * m
        total = 0.0
        for i in range(len(batch)):
            K = np.diag(missing[i]) + np.outer(m[i], m[i]) - np.outer(nn[i], nn[i])
            total += batch.y[i] * (beta_prime @ m[i]) - 0.5 * beta_prime @ K @ beta_prime
        return float(total / len(batch))
    raise ValueError(f"unknown model kind {kind!r}")


def finite_diff_grad(kind, beta, batch, sigma, h=1e-5):
    """Central-difference gradient of Q_n in its first argument at beta.

    [q(beta + h e_j) - q(beta - h e_j)] / (2h) per coordinate; h defaults to
    1e-5, which is appropriate on unit-scale problems.
    """
    if not h > 0:
        raise ValueError(f"h must be positive, got {h}")
    beta = np.asarray(beta, dtype=float)
    grad = np.empty_like(beta)
    for j in range(beta.size):
        step = np.zeros_like(beta)
        step[j] = h
        q_plus = q_value(kind, beta + step, beta, batch, sigma)
        q_minus = q_value(kind, beta - step, beta, batch, sigma)
        grad[j] = (q_plus - q_minus) / (2.0 * h)
    return grad


def ht_gradient_em(spec, batch, config, beta0):
    """Noiseless hard-thresholding gradient EM with sample splitting.

    The exact reference for the high-dimensional engine: one untruncated
    gradient step per disjoint batch followed by exact top-k projection.
    Returns the (N0 + 1, d) iterates, row t after t iterations.  Batching
    arithmetic, selection and the iterate array are coded here independently
    of the engine.
    """
    if config.s_hat is None:
        raise ValueError("ht_gradient_em requires s_hat >= 1")
    n = len(batch)
    if config.N0 > n:
        raise ValueError(f"N0 must not exceed the sample size ({config.N0} > {n})")
    size = n // config.N0
    betas = np.empty((config.N0 + 1, spec.d))
    betas[0] = beta0
    for t in range(config.N0):
        g = models.raw_grad(spec, betas[t], batch[t * size:t * size + size])
        betas[t + 1] = exact_top_k(betas[t] + config.eta * g, config.s_hat).values
    return betas


def balanced_copy_classify_once(Xs, z, spec, config, beta0, n_train, rep, master_seed):
    """One classification repetition through a centered balanced copy of the rows.

    A stand-in for ``harness._classify_once`` with its signature: it copies the
    balanced rows ``Xs[idx]``, centers the copy in place, and gathers the
    training and test rows from it.  Same seeds, draw order and arithmetic, so
    the rate must equal the harness's bit for bit.
    """
    rng = np.random.default_rng(derive_seed(master_seed, "classify", rep))
    noise_oracle = NoiseOracle(derive_seed(master_seed, "classify-noise", rep))
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
    beta_hat = run_high_dim(spec, models.GmmBatch(X_train), config, beta0, noise_oracle)[-1]
    pred_train = np.where(matvec(X_train, beta_hat) >= 0.0, 1.0, -1.0)
    orientation = 1.0 if np.mean(pred_train == zb[train]) >= 0.5 else -1.0
    pred_test = orientation * np.where(matvec(Xb[test], beta_hat) >= 0.0, 1.0, -1.0)
    return float(np.mean(pred_test != zb[test]))


def read_classification_csv(path):
    """Features and labels of a headered CSV through ``csv`` and ``float()``.

    Blank rows are skipped, every other row must have the header's field
    count, and the header exactly one ``label`` column.  A refused file raises
    ``ValueError`` or ``csv.Error``; the messages are not the loader's.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        header, *rows = list(filter(None, csv.reader(fh))) or [[]]
    if header.count("label") != 1 or not rows or any(len(row) != len(header) for row in rows):
        raise ValueError(path)
    label_idx = header.index("label")
    labels = [row.pop(label_idx) for row in rows]
    features = np.array([[float(v) for v in row] for row in rows], dtype=float)
    return features.reshape(len(rows), len(header) - 1), np.asarray(labels)


# Largest magnitude of a centered-uniform draw that keeps log(1 - 2|u|) finite.
UNIFORM_CAP = float(np.nextafter(0.5, 0.0))


def laplace_from_uniform(scale, u):
    """Laplace inverse CDF -scale * sign(u) * log(1 - 2|u|), |u| capped below 1/2."""
    a = np.minimum(np.abs(u), UNIFORM_CAP)
    return -scale * np.sign(u) * np.log1p(-2.0 * a)


def laplace_peeling(v, s, scale, oracle):
    """Laplace report-noisy-max peeling, the paper's noisy hard thresholding.

    Round ``i`` draws a fresh d-vector of Laplace noise at ``scale`` and
    appends the unselected index maximizing ``|v_j| + w_ij`` (ties: lowest
    index).  A final Laplace d-vector is added to ``v`` on the support.  The
    oracle gives ``(s + 1) * d`` uniforms.  It takes the arguments of
    ``mechanisms.noisy_hard_threshold`` and returns the same type, so it can
    stand in for it.
    """
    v = np.asarray(v, dtype=float)
    d = v.size
    magnitudes = np.abs(v)
    support = np.empty(s, dtype=int)
    available = np.ones(d, dtype=bool)
    for i in range(s):
        w = laplace_from_uniform(scale, oracle.uniform_centered(d))
        scores = np.where(available, magnitudes + w, -np.inf)
        j = int(np.argmax(scores))
        support[i] = j
        available[j] = False
    w_final = laplace_from_uniform(scale, oracle.uniform_centered(d))
    values = np.zeros(d)
    values[support] = v[support] + w_final[support]
    return SparseSelection(support=support, values=values)


def gumbel_peeling(v, s, scale, oracle):
    """Exponential-mechanism peeling, round by round on one Gumbel draw per coordinate.

    Draws ``d`` uniforms ``u`` on [0, 1) and scores coordinate ``j`` as
    ``|v_j| - scale * log(-log u_j)``: ``|v_j|`` alone at scale 0, and -inf
    where ``u_j = 0``.  Round ``i`` appends the unselected index of highest
    score (ties: lowest index).  ``s`` Laplace draws at ``scale`` are then
    added to ``v`` on the support.  The oracle gives ``d + s`` uniforms.
    """
    v = np.asarray(v, dtype=float)
    u = oracle.uniform_centered(v.size) + 0.5
    if scale > 0:
        with np.errstate(divide="ignore"):
            scores = np.abs(v) - scale * np.log(-np.log(u))
    else:
        scores = np.abs(v)
    support = np.empty(s, dtype=int)
    available = np.ones(v.size, dtype=bool)
    for i in range(s):
        left = np.flatnonzero(available)
        j = int(left[np.argmax(scores[left])])
        support[i] = j
        available[j] = False
    values = np.zeros(v.size)
    values[support] = v[support] + laplace_from_uniform(scale, oracle.uniform_centered(s))
    return SparseSelection(support=support, values=values)


def exponential_peeling_law(v, s, scale):
    """Probability of each ordered support under ``s`` sequential exponential-mechanism rounds.

    Round ``i`` picks an unselected ``j`` with probability
    ``exp(|v_j| / scale) / sum over unselected k of exp(|v_k| / scale)``.
    Returns ``{(j_1, ..., j_s): probability}`` over every ordered s-tuple of
    distinct indices, enumerated round by round; small d only.
    """
    weights = np.exp((np.abs(v) - np.abs(v).max()) / scale)
    law = {}
    for picks in itertools.permutations(range(len(weights)), s):
        p, left = 1.0, float(weights.sum())
        for j in picks:
            p *= weights[j] / left
            left -= weights[j]
        law[picks] = p
    return law
