import math
from pathlib import Path

import numpy as np
import pytest

from helpers import experiment_config_dict, make_gmm_class_data, read_results_csv, write_class_csv

from dpem import harness
from dpem.em_engine import run_high_dim
from dpem.harness import (
    AggregateResult,
    ClassificationParams,
    ConfigError,
    DataError,
    default_beta0,
    default_beta_star,
    load_classification_config,
    load_classification_csv,
    load_experiment_config,
    parse_classification_config,
    parse_experiment_config,
    run_classification,
    run_experiment,
    write_results,
)
from dpem.mechanisms import NoiseOracle, PrivacyBudget, derive_seed

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


class TestConfigParsing:
    def test_valid_round_trip(self):
        cfg = parse_experiment_config(experiment_config_dict())
        assert cfg.sweep.name == "n"
        assert cfg.fixed.reps == 2
        assert cfg.fixed.delta_rule == "half_n"

    def test_unknown_top_level_key(self):
        raw = experiment_config_dict()
        raw["extra"] = 1
        with pytest.raises(ConfigError, match="extra"):
            parse_experiment_config(raw)

    def test_unknown_fixed_key(self):
        raw = experiment_config_dict()
        raw["fixed"]["bogus"] = 1
        with pytest.raises(ConfigError, match="bogus"):
            parse_experiment_config(raw)

    def test_two_sweep_names_rejected(self):
        raw = experiment_config_dict()
        raw["sweep"] = {"name": "n", "values": [100], "name2": "d"}
        with pytest.raises(ConfigError, match="sweep"):
            parse_experiment_config(raw)

    def test_unsweepable_parameter(self):
        raw = experiment_config_dict()
        raw["sweep"] = {"name": "sigma", "values": [0.5]}
        with pytest.raises(ConfigError, match="sweep.name"):
            parse_experiment_config(raw)

    def test_missing_fixed_parameter(self):
        raw = experiment_config_dict()
        del raw["fixed"]["d"]
        with pytest.raises(ConfigError, match="fixed.d"):
            parse_experiment_config(raw)

    def test_explicit_delta_required(self):
        raw = experiment_config_dict(delta_rule="explicit")
        with pytest.raises(ConfigError, match="delta"):
            parse_experiment_config(raw)

    def test_reps_positive(self):
        raw = experiment_config_dict(reps=0)
        with pytest.raises(ConfigError):
            parse_experiment_config(raw)

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_non_finite_eta_rejected(self, eta):
        with pytest.raises(ConfigError, match="eta"):
            parse_experiment_config(experiment_config_dict(eta=eta))
        with pytest.raises(ConfigError, match="eta"):
            ClassificationParams(s_hat=2, epsilon=0.5, eta=eta)

    def test_cells_resolved_at_load(self):
        cfg = parse_experiment_config(experiment_config_dict())
        assert list(cfg.cells) == [400, 600]
        n, spec, em_config = cfg.cells[400]
        assert (n, spec.kind, spec.d) == (400, "gmm", 25)
        np.testing.assert_array_equal(spec.true_beta, default_beta_star(25, 4))
        assert (em_config.N0, em_config.s_hat) == (6, 4)
        assert em_config.budget == PrivacyBudget(0.5, 1.0 / 800)
        assert em_config.T == 2.0 * 0.5 * math.sqrt(math.log(6 * (400 // 6)))

    def test_low_dim_cells_have_no_s_hat(self):
        cfg = parse_experiment_config(experiment_config_dict(regime="low_dim"))
        assert all(em_config.s_hat is None for _, _, em_config in cfg.cells.values())

    def test_per_rep_seeds_distinct(self):
        cfg = parse_experiment_config(experiment_config_dict(reps=50))
        seeds = [
            derive_seed(cfg.master_seed, cfg.sweep.name, v, r)
            for v in cfg.sweep.values
            for r in range(cfg.fixed.reps)
        ]
        assert len(set(seeds)) == len(seeds)


class TestShippedConfigs:
    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_loads(self, path):
        if path.name.startswith("classify"):
            load_classification_config(path)
        else:
            load_experiment_config(path)

    def test_all_found(self):
        assert CONFIGS


class TestDefaults:
    def test_beta_star_convention(self):
        beta = default_beta_star(6, 4)
        np.testing.assert_allclose(beta[:4], 0.5)
        assert np.all(beta[4:] == 0)
        assert np.linalg.norm(beta) == pytest.approx(1.0)

    def test_beta0_within_half_radius(self):
        beta_star = default_beta_star(20, 5)
        beta0 = default_beta0(beta_star, None, NoiseOracle(3))
        # Perturbation radius ||beta*||/8 is within the R/2 = ||beta*||/8 bound.
        assert np.linalg.norm(beta0 - beta_star) <= np.linalg.norm(beta_star) / 8 + 1e-12

    def test_beta0_thresholded(self):
        beta_star = default_beta_star(20, 5)
        beta0 = default_beta0(beta_star, 5, NoiseOracle(3))
        assert np.count_nonzero(beta0) <= 5


class TestRunExperiment:
    def test_deterministic_and_schedule_independent(self):
        cfg = parse_experiment_config(experiment_config_dict())
        a = run_experiment(cfg, jobs=1)
        b = run_experiment(cfg, jobs=4)
        assert a.rows == b.rows

    def test_inf_epsilon_single_rep_deterministic(self):
        cfg = parse_experiment_config(experiment_config_dict(reps=1, epsilon=math.inf))
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.rows == b.rows

    def test_row_count_contract(self):
        cfg = parse_experiment_config(experiment_config_dict())
        result = run_experiment(cfg)
        # One row per iterate: reps * (N0 + 1) rows per sweep value, with
        # N0 = max(5, ceil(ln n)).
        expected = sum(
            cfg.fixed.reps * (max(5, math.ceil(math.log(n))) + 1)
            for n in cfg.sweep.values
        )
        assert len(result.rows) == expected

    def test_nonprivate_beats_private(self):
        cfg = parse_experiment_config(experiment_config_dict(reps=3))
        private = run_experiment(cfg).mean_final_error()
        baseline = run_experiment(cfg, engine="nonprivate").mean_final_error()
        for value in private:
            assert baseline[value] <= private[value]

    def test_engine_error_carries_context(self):
        raw = experiment_config_dict()
        raw["sweep"] = {"name": "n", "values": [4]}  # below the N0 floor of 5
        cfg_err = None
        try:
            run_experiment(parse_experiment_config(raw))
        except (ConfigError, RuntimeError) as exc:
            cfg_err = str(exc)
        assert cfg_err is not None

    def test_low_dim_regime_runs(self):
        raw = experiment_config_dict(regime="low_dim")
        raw["fixed"]["d"] = 8
        raw["fixed"]["s_star"] = 8
        result = run_experiment(parse_experiment_config(raw))
        assert result.mean_final_error()


class TestWriteResults:
    def test_round_trip(self, tmp_path):
        cfg = parse_experiment_config(experiment_config_dict())
        result = run_experiment(cfg)
        out = tmp_path / "res.csv"
        write_results(result, out)
        header, rows = read_results_csv(out)
        assert header == ["sweep_param", "sweep_value", "rep", "iteration",
                          "error_l2", "error_l2_signfree"]
        assert len(rows) == len(result.rows)
        for parsed, orig in zip(rows, result.rows):
            assert parsed[0] == "n"
            assert parsed[1] == pytest.approx(orig[0], rel=1e-9)
            assert parsed[2:4] == [orig[1], orig[2]]
            assert parsed[4] == pytest.approx(orig[3], rel=1e-9)
            assert parsed[5] == pytest.approx(orig[4], rel=1e-9)

    def test_idempotent_overwrite(self, tmp_path):
        cfg = parse_experiment_config(experiment_config_dict())
        result = run_experiment(cfg)
        out = tmp_path / "res.csv"
        write_results(result, out)
        first = out.read_bytes()
        write_results(result, out)
        assert out.read_bytes() == first

    def test_empty_sweep_header_only(self, tmp_path):
        empty = AggregateResult("n", (), 1, [])
        out = tmp_path / "empty.csv"
        write_results(empty, out)
        assert out.read_text() == "sweep_param,sweep_value,rep,iteration,error_l2,error_l2_signfree\n"

    def test_row_count_two_values_three_iterations(self, tmp_path):
        rows = [
            (float(v), 0, t, 0.5, 0.5)
            for v in (100, 200)
            for t in range(3)
        ]
        result = AggregateResult("n", (100, 200), 1, rows)
        out = tmp_path / "six.csv"
        write_results(result, out)
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 6

    def test_io_error_names_path(self, tmp_path):
        result = AggregateResult("n", (), 1, [])
        bad = tmp_path / "nope" / "res.csv"
        with pytest.raises(OSError, match="nope"):
            write_results(result, bad)

    def test_unknown_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            write_results({"not": "a result"}, tmp_path / "x.csv")


class TestClassificationIO:
    def test_load_round_trip(self, tmp_path):
        X, labels = make_gmm_class_data(n=40)
        path = tmp_path / "data.csv"
        write_class_csv(path, X, labels)
        got_X, got_labels = load_classification_csv(path)
        np.testing.assert_allclose(got_X, X, rtol=1e-15)
        assert list(got_labels) == list(labels)

    def test_missing_label_column(self, tmp_path):
        X, labels = make_gmm_class_data(n=10)
        path = tmp_path / "data.csv"
        write_class_csv(path, X, labels, label_name="target")
        with pytest.raises(DataError, match="label"):
            load_classification_csv(path)

    def test_non_numeric_feature(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f0,label\nx,pos\n", encoding="utf-8")
        with pytest.raises(DataError, match="non-numeric"):
            load_classification_csv(path)

    def test_parse_config_defaults(self):
        params, reps, seed = parse_classification_config(
            {"s_hat": 10, "epsilon": 0.5, "reps": 5, "master_seed": 3}
        )
        assert params == ClassificationParams(s_hat=10, epsilon=0.5)
        assert (reps, seed) == (5, 3)

    def test_parse_config_rejects_unknown(self):
        with pytest.raises(ConfigError, match="mystery"):
            parse_classification_config(
                {"s_hat": 1, "epsilon": 0.5, "reps": 1, "master_seed": 0, "mystery": 1}
            )


class TestRunClassification:
    def test_perfectly_separated_nonprivate_is_exact(self):
        X, labels = make_gmm_class_data(sigma=1e-9, n=200, signal=2.0)
        params = ClassificationParams(s_hat=10, epsilon=math.inf)
        report = run_classification(X, labels, params, reps=5, master_seed=1)
        assert report.misclassification_rate == 0.0

    def test_permuted_labels_are_chance(self):
        X, labels = make_gmm_class_data(n=400)
        rng = np.random.default_rng(8)
        shuffled = labels.copy()
        rng.shuffle(shuffled)
        params = ClassificationParams(s_hat=10, epsilon=math.inf)
        report = run_classification(X, shuffled, params, reps=20, master_seed=2)
        assert 0.4 <= report.misclassification_rate <= 0.6

    def test_three_classes_rejected(self):
        X, labels = make_gmm_class_data(n=30)
        labels = labels.copy()
        labels[0] = "third"
        with pytest.raises(ConfigError, match="two classes"):
            run_classification(X, labels, ClassificationParams(s_hat=2, epsilon=0.5), 1, 0)

    def test_inf_epsilon_live_equals_silent_oracle(self, monkeypatch):
        # epsilon = inf zeroes a live oracle's noise exactly, so swapping in a
        # silent oracle changes no fit and no rate.
        X, labels = make_gmm_class_data(n=200)
        params = ClassificationParams(s_hat=5, epsilon=math.inf, iters=3)

        def run(mode):
            fits = []

            def recorded(spec, batch, config, beta0, oracle, true_beta=None):
                oracle = NoiseOracle(oracle.seed, mode) if mode == "silent" else oracle
                fits.append(run_high_dim(spec, batch, config, beta0, oracle, true_beta))
                return fits[-1]

            monkeypatch.setattr(harness, "run_high_dim", recorded)
            report = run_classification(X, labels, params, reps=4, master_seed=5)
            return report, [fit.betas.tobytes() for fit in fits]

        live, live_betas = run("live")
        silent, silent_betas = run("silent")
        assert len(live_betas) == 4
        assert live_betas == silent_betas
        assert live.per_rep_rates == silent.per_rep_rates

    def test_deterministic(self):
        X, labels = make_gmm_class_data(n=100)
        params = ClassificationParams(s_hat=5, epsilon=0.5)
        a = run_classification(X, labels, params, reps=4, master_seed=7)
        b = run_classification(X, labels, params, reps=4, master_seed=7, jobs=4)
        assert a.per_rep_rates == b.per_rep_rates

    def test_report_csv(self, tmp_path):
        X, labels = make_gmm_class_data(n=100)
        report = run_classification(
            X, labels, ClassificationParams(s_hat=5, epsilon=0.5), reps=3, master_seed=7
        )
        out = tmp_path / "cls.csv"
        write_results(report, out)
        header, rows = read_results_csv(out)
        assert header == ["s_hat", "epsilon", "rep", "misclassification_rate"]
        assert len(rows) == 3
        assert rows[0][0] == 5
        got_mean = float(np.mean([r[3] for r in rows]))
        assert got_mean == pytest.approx(report.misclassification_rate, rel=1e-9)
