"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is frozen here; the statistical thresholds were
validated over 20 seeds before being frozen (see README).
"""

import json
import math

import numpy as np
import pytest

from helpers import experiment_config_dict, make_gmm_class_data
from references import finite_diff_grad, ht_gradient_em

from dpem.cli import main
from dpem.em_engine import EmConfig, nonprivate_em, run_high_dim
from dpem.harness import (
    ClassificationConfig,
    parse_experiment_config,
    run_classification,
    run_experiment,
)
from dpem.mechanisms import (
    NoiseOracle,
    PrivacyBudget,
    derive_seed,
    exact_top_k,
    gaussian_noise_std,
    noisy_hard_threshold,
    noisy_ht_scale,
    sample_gaussian,
)
from dpem.models import (
    GmmBatch,
    ModelSpec,
    MorBatch,
    RmcBatch,
    generate,
    raw_grad,
    sensitivity,
    truncated_grad,
)

KINDS = ("gmm", "mor", "rmc")


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def random_instance(rng, kind):
    d = int(rng.integers(5, 21))
    n = int(rng.integers(60, 501))
    s_star = int(rng.integers(1, min(d, 6) + 1))
    s_hat = int(rng.integers(s_star, min(d, s_star + 3) + 1))
    beta_star = np.zeros(d)
    support = rng.choice(d, size=s_star, replace=False)
    beta_star[support] = rng.uniform(0.5, 1.5, size=s_star) * rng.choice([-1.0, 1.0], s_star)
    spec = ModelSpec(kind, d, float(rng.uniform(0.3, 1.5)), beta_star,
                     missing_prob=float(rng.uniform(0.0, 0.4)))
    data = generate(spec, n, NoiseOracle(int(rng.integers(1 << 31))))
    beta0 = exact_top_k(
        beta_star + 0.1 * rng.standard_normal(d), s_hat
    ).values
    config = EmConfig(
        eta=float(rng.choice([0.3, 0.5, 1.0])),
        T=math.inf,
        N0=int(rng.integers(2, 7)),
        s_hat=s_hat,
        budget=PrivacyBudget(math.inf, 1e-3),
    )
    return spec, data, config, beta0, beta_star


def test_criterion_01_oracle_equivalence():
    """epsilon = inf + inactive truncation reproduces exact HT gradient EM."""
    rng = np.random.default_rng(derive_seed("acceptance", 1))
    worst = 0.0
    for i in range(50):
        kind = KINDS[i % 3]
        spec, data, config, beta0, beta_star = random_instance(rng, kind)
        betas = run_high_dim(spec, data, config, beta0, NoiseOracle(i))
        ref = ht_gradient_em(spec, data, config, beta0)
        worst = max(worst, float(np.abs(betas - ref).max()))
    report(1, "oracle-equivalence", worst <= 1e-12, f"max coord diff {worst:.3e}")


def test_criterion_02_gradient_correctness():
    """Analytic gradients match central finite differences of Q_n."""
    rng = np.random.default_rng(derive_seed("acceptance", 2))
    worst = 0.0
    for i in range(100):
        kind = KINDS[i % 3]
        d = int(rng.integers(2, 11))
        n = int(rng.integers(5, 51))
        sigma = float(rng.choice([0.5, 1.0, 2.0]))
        beta_star = rng.standard_normal(d) * 0.7
        spec = ModelSpec(kind, d, sigma, beta_star, missing_prob=float(rng.uniform(0, 0.4)))
        batch = generate(spec, n, NoiseOracle(int(rng.integers(1 << 31))))
        beta = rng.standard_normal(d) * 0.8
        grad = raw_grad(spec, beta, batch)
        fd = finite_diff_grad(kind, beta, batch, sigma, h=1e-5)
        rel = float(np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12))
        worst = max(worst, rel)
    report(2, "gradient-correctness", worst < 1e-5, f"max rel err {worst:.3e}")


def _adversarial_replacement(rng, kind, d, T):
    # Push records to the clamp boundaries and far beyond them.
    scale = 10.0 ** int(rng.integers(0, 7))
    style = rng.integers(3)
    if style == 0:
        x = rng.standard_normal(d) * scale
        y = float(rng.standard_normal() * scale)
    elif style == 1:
        x = rng.choice([-T, T, -T * (1 + 1e-9), 0.0], size=d)
        y = float(rng.choice([-T, T, scale]))
    else:
        x = np.zeros(d)
        y = float(rng.standard_normal() * scale)
    if kind == "gmm":
        return x
    if kind == "mor":
        return x, y
    z = (rng.random(d) > rng.uniform(0, 0.8)).astype(float)
    return z * x, z, y


def test_criterion_03_sensitivity_certification():
    """1000 adversarial adjacent pairs per model never exceed the certified lambda.

    Each pair takes one full step from the same iterate beta; the bound is
    lambda = eta (c T^p + b T) N0 / n, whatever the iterate.
    """
    rng = np.random.default_rng(derive_seed("acceptance", 3))
    n0, N0 = 25, 4
    n = n0 * N0
    results = {}
    witnesses = {}
    for kind in KINDS:
        worst_ratio, witness = 0.0, None
        for trial in range(1000):
            d = int(rng.integers(2, 9))
            T = float(rng.uniform(0.5, 2.0))
            eta = float(rng.choice([0.5, 1.0]))
            sigma = float(rng.uniform(0.4, 1.5))
            beta = rng.standard_normal(d) * rng.uniform(0.2, 2.0)
            i = int(rng.integers(n0))
            spec = ModelSpec(kind, d, sigma)
            bound = sensitivity(spec, T, eta, N0, n)
            if kind == "gmm":
                y = rng.standard_normal((n0, d)) * rng.uniform(0.5, 3.0)
                y2 = y.copy()
                y2[i] = _adversarial_replacement(rng, "gmm", d, T)
                g1 = truncated_grad(spec, beta, GmmBatch(y), T)
                g2 = truncated_grad(spec, beta, GmmBatch(y2), T)
                pair = (y[i], y2[i])
            elif kind == "mor":
                x = rng.standard_normal((n0, d))
                y = rng.standard_normal(n0)
                x2, y2 = x.copy(), y.copy()
                x2[i], y2[i] = _adversarial_replacement(rng, "mor", d, T)
                g1 = truncated_grad(spec, beta, MorBatch(x, y), T)
                g2 = truncated_grad(spec, beta, MorBatch(x2, y2), T)
                pair = ((x[i], y[i]), (x2[i], y2[i]))
            else:
                # The full step, its diag(1-z) clamp(beta) term included.
                x = rng.standard_normal((n0, d))
                z = (rng.random((n0, d)) > 0.3).astype(float)
                y = rng.standard_normal(n0)
                xo2, z2, y2 = (z * x).copy(), z.copy(), y.copy()
                xo2[i], z2[i], y2[i] = _adversarial_replacement(rng, "rmc", d, T)
                g1 = truncated_grad(spec, beta, RmcBatch(z * x, z, y), T)
                g2 = truncated_grad(spec, beta, RmcBatch(xo2, z2, y2), T)
                pair = ((z[i] * x[i], z[i], y[i]), (xo2[i], z2[i], y2[i]))
            dist = eta * float(np.abs(g1 - g2).max())
            ratio = dist / bound
            if ratio > worst_ratio:
                worst_ratio, witness = ratio, pair
        results[kind] = worst_ratio
        witnesses[kind] = witness
    ok = all(r <= 1.0 + 1e-9 for r in results.values())
    detail = ", ".join(f"{k} worst ratio {v:.4f}" for k, v in results.items())
    if not ok:
        detail += f"; witnessing pairs: {witnesses}"
    report(3, "sensitivity-certification", ok, detail)


def test_rmc_full_step_sound_bound():
    """The full rmc step obeys lambda = eta (6T^2 + T) N0 / n, z flips included.

    One record's z moves the -(1 - z) * clamp(beta) term by up to T N0 / n,
    so the 6 eta T^2 N0 / n that covers the other clamped terms alone is not
    enough; this test flips whole z rows at ||beta||_inf up to 20, gates
    lambda, and prints the worst ratio to 6 eta T^2 N0 / n too.
    """
    rng = np.random.default_rng(derive_seed("acceptance", "3-rmc-full-step"))
    n0, N0 = 25, 4
    n = n0 * N0
    worst_certified, worst_clamped_only = 0.0, 0.0
    for trial in range(1000):
        d = int(rng.integers(2, 9))
        T = float(rng.uniform(0.5, 2.0))
        eta = float(rng.choice([0.5, 1.0]))
        sigma = float(rng.uniform(0.4, 1.5))
        beta = rng.standard_normal(d) * rng.uniform(0.2, 20.0)
        i = int(rng.integers(n0))
        x = rng.standard_normal((n0, d))
        z = (rng.random((n0, d)) > 0.3).astype(float)
        y = rng.standard_normal(n0)
        xo2, z2, y2 = (z * x).copy(), z.copy(), y.copy()
        xo2[i], z2[i], y2[i] = _adversarial_replacement(rng, "rmc", d, T)
        if trial % 2:  # flip every coordinate's observation flag
            z2[i] = 1.0 - z[i]
            xo2[i] *= z2[i]
        spec = ModelSpec("rmc", d, sigma)
        g1 = truncated_grad(spec, beta, RmcBatch(z * x, z, y), T)
        g2 = truncated_grad(spec, beta, RmcBatch(xo2, z2, y2), T)
        dist = eta * float(np.abs(g1 - g2).max())
        worst_certified = max(worst_certified, dist / sensitivity(spec, T, eta, N0, n))
        worst_clamped_only = max(worst_clamped_only, dist / (6.0 * eta * T**2 * N0 / n))
    print(f"\nrmc full step: worst ratio {worst_certified:.4f} to lambda, "
          f"{worst_clamped_only:.4f} to 6 eta T^2 N0 / n")
    assert worst_certified <= 1.0 + 1e-9


def test_rmc_full_step_readme_witness():
    """README's witness: one z flip moves the full step by exactly T / n0, within lambda.

    All-zero, fully observed records, beta = (20, 0), T = eta = sigma = 1,
    n0 = 25, N0 = 4; the neighbour hides the first coordinate of one record.
    The fill-in terms do not move, and -(1 - z) * clamp(beta) moves by
    clamp(20) / 25 = 0.04, not the unclamped 20 / 25.
    """
    n0, N0, T, eta, sigma = 25, 4, 1.0, 1.0, 1.0
    beta = np.array([20.0, 0.0])
    z = np.ones((n0, 2))
    z2 = z.copy()
    z2[0, 0] = 0.0
    zeros = np.zeros((n0, 2))
    spec = ModelSpec("rmc", 2, sigma)
    g1 = truncated_grad(spec, beta, RmcBatch(zeros, z, np.zeros(n0)), T)
    g2 = truncated_grad(spec, beta, RmcBatch(zeros, z2, np.zeros(n0)), T)
    dist = eta * float(np.abs(g1 - g2).max())
    lam = sensitivity(spec, T, eta, N0, n0 * N0)
    assert dist == pytest.approx(0.04, rel=1e-12)
    assert lam == pytest.approx(0.28, rel=1e-12)
    assert dist <= lam


def test_criterion_04_noisy_ht_contract():
    """Output at epsilon = inf equals exact top-k (d <= 12, all s); scale formula audit."""
    nonprivate = PrivacyBudget(math.inf, 1e-4)
    oracle = NoiseOracle(0)
    rng = np.random.default_rng(derive_seed("acceptance", 4))
    selection_ok = True
    for d in range(1, 13):
        vectors = [
            rng.standard_normal(d),
            rng.integers(-2, 3, size=d).astype(float),
            np.ones(d),
            np.zeros(d),
            np.repeat(rng.standard_normal((d + 1) // 2), 2)[:d],
        ]
        for v in vectors:
            for s in range(1, d + 1):
                sel = noisy_hard_threshold(v, s, noisy_ht_scale(0.1, s, nonprivate), oracle)
                ref = exact_top_k(v, s)
                if not (np.array_equal(sel.support, ref.support)
                        and np.array_equal(sel.values, ref.values)):
                    selection_ok = False

    scale_ok = True
    worst = 0.0
    for _ in range(200):
        lam = float(rng.uniform(0, 0.5))
        s = int(rng.integers(1, 40))
        eps = float(rng.uniform(0.05, 2.0))
        delta = float(rng.uniform(1e-9, 0.3))
        expected = lam * (2.0 / eps) * math.sqrt(3.0 * s * (-math.log(delta)))
        got = noisy_ht_scale(lam, s, PrivacyBudget(eps, delta))
        rel = abs(got - expected) / max(expected, 1e-300)
        worst = max(worst, rel)
        if rel > 1e-12:
            scale_ok = False
    report(4, "noisy-ht-contract", selection_ok and scale_ok,
           f"selection {'ok' if selection_ok else 'BAD'}, scale rel err {worst:.2e}")


def test_criterion_05_noise_calibration():
    """Low-dim Gaussian variance: formula audit plus Monte-Carlo match."""
    eta, T, N0, n_used, d = 0.5, 1.8, 7, 3500, 12
    budget = PrivacyBudget(0.6, 1e-4)
    factors = {"gmm": 2 * T, "mor": 4 * T**2, "rmc": 6 * T**2 + T}
    audit_ok = True
    for kind, factor in factors.items():
        expected = (2.0 * eta**2 * d * N0**2 / (n_used**2 * budget.epsilon**2)
                    * factor**2 * math.log(1.25 / budget.delta))
        lam = sensitivity(ModelSpec(kind, d, 1.0), T, eta, N0, n_used)
        got = gaussian_noise_std(lam, d, budget) ** 2
        if abs(got - expected) / expected > 1e-12:
            audit_ok = False

    lam = sensitivity(ModelSpec("mor", d, 1.0), T, eta, N0, n_used)
    std = gaussian_noise_std(lam, d, budget)
    draws = sample_gaussian(std, NoiseOracle(505), size=100_000)
    mc_err = abs(draws.var() / std**2 - 1.0)
    report(5, "noise-calibration", audit_ok and mc_err < 0.05,
           f"audit {'ok' if audit_ok else 'BAD'}, MC var rel err {mc_err:.4f}")


def _trend_config(model, sweep_name, values, fixed):
    raw = {
        "model": model,
        "regime": "high_dim",
        "sweep": {"name": sweep_name, "values": values},
        "fixed": fixed,
        "master_seed": derive_seed("acceptance-trends", model, sweep_name),
    }
    return parse_experiment_config(raw)


def _strictly_monotone(means, values, increasing):
    ordered = [means[float(v)] for v in values]
    pairs = zip(ordered, ordered[1:])
    return all(b > a for a, b in pairs) if increasing else all(b < a for a, b in pairs)


def test_criterion_06_gmm_trends():
    """Desk-scale sweeps reproduce the qualitative orderings in n, s*, eps."""
    fixed = {"n": 4000, "d": 200, "s_star": 10, "epsilon": 0.5,
             "sigma": 0.5, "eta": 0.5, "reps": 20}
    results = {}
    cfg = _trend_config("gmm", "n", [4000, 5000, 6000], fixed)
    results["n"] = run_experiment(cfg, jobs=4).mean_final_error()
    cfg = _trend_config("gmm", "s_star", [5, 10, 15], fixed)
    results["s_star"] = run_experiment(cfg, jobs=4).mean_final_error()
    cfg = _trend_config("gmm", "epsilon", [0.3, 0.5, 0.8], fixed)
    results["epsilon"] = run_experiment(cfg, jobs=4).mean_final_error()

    ok_n = _strictly_monotone(results["n"], [4000, 5000, 6000], increasing=False)
    ok_s = _strictly_monotone(results["s_star"], [5, 10, 15], increasing=True)
    ok_e = _strictly_monotone(results["epsilon"], [0.3, 0.5, 0.8], increasing=False)
    detail = "; ".join(
        f"{name}: " + " ".join(f"{v:g}->{m:.3f}" for v, m in sorted(res.items()))
        for name, res in results.items()
    )
    report(6, "gmm-trend-reproduction", ok_n and ok_s and ok_e, detail)


def test_criterion_07_mor_trends():
    """Mixture-of-regression sweeps show the same three orderings."""
    fixed = {"n": 5000, "d": 200, "s_star": 10, "epsilon": 0.6,
             "sigma": 0.5, "eta": 0.5, "reps": 20}
    results = {}
    cfg = _trend_config("mor", "n", [4000, 5000, 6000], fixed)
    results["n"] = run_experiment(cfg, jobs=4).mean_final_error()
    cfg = _trend_config("mor", "s_star", [5, 10, 15], fixed)
    results["s_star"] = run_experiment(cfg, jobs=4).mean_final_error()
    cfg = _trend_config("mor", "epsilon", [0.4, 0.6, 0.8], fixed)
    results["epsilon"] = run_experiment(cfg, jobs=4).mean_final_error()

    ok_n = _strictly_monotone(results["n"], [4000, 5000, 6000], increasing=False)
    ok_s = _strictly_monotone(results["s_star"], [5, 10, 15], increasing=True)
    ok_e = _strictly_monotone(results["epsilon"], [0.4, 0.6, 0.8], increasing=False)
    detail = "; ".join(
        f"{name}: " + " ".join(f"{v:g}->{m:.3f}" for v, m in sorted(res.items()))
        for name, res in results.items()
    )
    report(7, "mor-trend-reproduction", ok_n and ok_s and ok_e, detail)


def test_criterion_08_statistical_recovery():
    """Non-private gradient EM recovers beta* within 3 sqrt(d/n), >= 18/20 seeds."""
    d, n, sigma = 10, 5000, 0.5
    threshold = 3 * math.sqrt(d / n)
    beta_star = np.ones(d) / math.sqrt(d)
    spec = ModelSpec("gmm", d, sigma, beta_star)
    config = EmConfig(eta=0.5, T=math.inf, N0=9, budget=PrivacyBudget(math.inf, 1e-3))
    passes, errors = 0, []
    for seed in range(20):
        data = generate(spec, n, NoiseOracle(derive_seed("acc8", "data", seed)))
        direction = NoiseOracle(derive_seed("acc8", "init", seed)).standard_normal(d)
        beta0 = beta_star + (np.linalg.norm(beta_star) / 8) * direction / np.linalg.norm(direction)
        error = float(np.linalg.norm(nonprivate_em(spec, data, config, beta0)[-1] - beta_star))
        errors.append(error)
        passes += error <= threshold
    report(8, "statistical-recovery", passes >= 18,
           f"{passes}/20 within {threshold:.4f}, max err {max(errors):.4f}")


def test_criterion_09_classification_analog():
    """Private classification: rate <= 0.12 at eps=0.5 and ordered in eps."""
    X, labels = make_gmm_class_data(seed=2026, d=30, n=400, s_star=10, sigma=0.5,
                                    signal=1.25)
    configs = {eps: ClassificationConfig(s_hat=10, epsilon=eps, reps=50, master_seed=99)
               for eps in (0.5, 0.2, math.inf)}
    rates = {
        eps: run_classification(X, labels, config, jobs=4)
        .misclassification_rate
        for eps, config in configs.items()
    }
    ok = (rates[0.5] <= 0.12
          and rates[0.5] >= rates[math.inf]
          and rates[0.2] >= rates[0.5])
    report(9, "classification-analog", ok,
           f"eps0.5={rates[0.5]:.4f} eps0.2={rates[0.2]:.4f} nonprivate={rates[math.inf]:.4f}")


def test_criterion_10_reproducibility(tmp_path):
    """Two cmd_run invocations with the same config are byte-identical."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(experiment_config_dict()), encoding="utf-8")
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    code1 = main(["run", "--config", str(cfg_path), "--out", str(out1)])
    code2 = main(["run", "--config", str(cfg_path), "--out", str(out2), "--jobs", "4"])
    identical = out1.read_bytes() == out2.read_bytes()
    report(10, "reproducibility", code1 == 0 and code2 == 0 and identical,
           f"exit codes ({code1}, {code2}), byte-identical={identical}")
