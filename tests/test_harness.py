import csv
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    experiment_config_dict,
    make_gmm_class_data,
    read_results_csv,
    small_config_dict,
    traced_peak_bytes,
    write_class_csv,
)

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
README = Path(__file__).resolve().parent.parent / "README.md"


class TestConfigParsing:
    def test_valid_round_trip(self):
        cfg = parse_experiment_config(experiment_config_dict())
        assert cfg.sweep.name == "n"
        assert cfg.reps == 2

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
            for r in range(cfg.reps)
        ]
        assert len(set(seeds)) == len(seeds)

    def test_seed_override_reuses_the_cells(self):
        # The CLI's --seed replaces master_seed on the parsed config; the
        # cells do not depend on the seed, so they are kept, not re-resolved.
        raw = experiment_config_dict()
        cfg = parse_experiment_config(raw)
        overridden = replace(cfg, master_seed=77)
        assert overridden.cells is cfg.cells
        rows = run_experiment(overridden).rows
        assert rows == run_experiment(parse_experiment_config({**raw, "master_seed": 77})).rows
        assert rows != run_experiment(cfg).rows
        with pytest.raises(ConfigError, match="^master_seed must be an integer"):
            replace(cfg, master_seed=True)

    def test_readme_schema_example(self):
        # README's schema block, comments stripped, loads and names every key
        # the parser accepts in ``fixed`` (``delta`` goes with delta_rule 'explicit').
        block = re.search(r"```jsonc\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S).group(1)
        raw = json.loads(re.sub(r"//[^\n]*", "", block))
        assert list(parse_experiment_config(raw).cells) == [4000, 5000, 6000]
        assert set(raw["fixed"]) | {"delta"} == set(harness.SWEEPABLE) | set(harness._DEFAULTS)


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


class TestAggregateResult:
    def test_per_rep_final_reads_each_cells_last_row(self):
        # 2 values x 2 reps x 3 iterations; each cell's final error (iteration
        # 2) differs from every other row's.
        result = AggregateResult("n", (400, 600), 2)
        for i, value in enumerate((400, 600)):
            for rep in range(2):
                for t in range(3):
                    err = 100.0 * i + 10.0 * rep + t
                    result.rows.append((float(value), rep, t, err, -err))
        finals = result.per_rep_final()
        assert list(finals) == [400.0, 600.0]
        np.testing.assert_array_equal(finals[400.0], [2.0, 12.0])
        np.testing.assert_array_equal(finals[600.0], [102.0, 112.0])
        assert result.mean_final_error() == {400.0: 7.0, 600.0: 107.0}


class TestRunExperiment:
    @pytest.mark.parametrize("engine", ["private", "nonprivate"])
    @pytest.mark.parametrize("regime", ["high_dim", "low_dim"])
    @pytest.mark.parametrize("model", ["gmm", "mor", "rmc"])
    def test_deterministic_and_schedule_independent(self, model, regime, engine):
        # The rows must not depend on how many cells run at once, for any
        # model, regime or engine.
        cfg = parse_experiment_config(small_config_dict(model, regime))
        a = run_experiment(cfg, jobs=1, engine=engine)
        b = run_experiment(cfg, jobs=4, engine=engine)
        assert a.rows == b.rows

    @pytest.mark.parametrize("jobs", [0, -3, 2.5, True])
    def test_jobs_must_be_a_positive_integer(self, jobs):
        # The library rejects what the CLI's --jobs rejects, before a cell runs.
        cfg = parse_experiment_config(experiment_config_dict())
        with pytest.raises(ConfigError, match="^jobs must be a positive integer"):
            run_experiment(cfg, jobs=jobs)

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
            cfg.reps * (max(5, math.ceil(math.log(n))) + 1)
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

    def test_byte_order_mark_is_ignored(self, tmp_path):
        # Spreadsheet exports start with a UTF-8 byte-order mark; it must not
        # rename the first column, here ``label``.
        X, labels = make_gmm_class_data(n=40)
        path = tmp_path / "data.csv"
        write_class_csv(path, X, labels)
        rows = [line.rsplit(",", 1) for line in path.read_text(encoding="utf-8").splitlines()]
        label_first = "".join(f"{label},{features}\n" for features, label in rows)
        path.write_text(label_first, encoding="utf-8")
        plain_X, plain_labels = load_classification_csv(path)
        path.write_text(label_first, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbflabel,")
        got_X, got_labels = load_classification_csv(path)
        np.testing.assert_array_equal(got_X, plain_X)
        np.testing.assert_array_equal(got_labels, plain_labels)

    def test_spreadsheet_export_loads(self, tmp_path):
        # Spreadsheet "CSV UTF-8" exports pair the byte-order mark with CRLF
        # line ends.
        X, labels = make_gmm_class_data(n=40)
        path = tmp_path / "data.csv"
        write_class_csv(path, X, labels)
        plain_X, plain_labels = load_classification_csv(path)
        text = path.read_text(encoding="utf-8")
        path.write_bytes(text.replace("\n", "\r\n").encode("utf-8-sig"))
        assert path.read_bytes().startswith(b"\xef\xbb\xbf") and b"\r\n" in path.read_bytes()
        got_X, got_labels = load_classification_csv(path)
        np.testing.assert_array_equal(got_X, plain_X)
        np.testing.assert_array_equal(got_labels, plain_labels)

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

    @staticmethod
    def list_of_floats(path):
        # The loader's former parse: one list of Python floats per row.
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            label_idx = next(reader).index("label")
            return np.asarray([[float(v) for i, v in enumerate(row) if i != label_idx]
                               for row in reader if row], dtype=float)

    def test_values_bitwise_equal_to_list_of_floats(self, tmp_path):
        values = ["-0.0", "0.0", "1e-3", "2.5E+10", "-7.25e-300", "5e-324", "2.2250738585072009e-308",
                  "1.7976931348623157e308", "  3.5", "-.5", "1_000.5"]
        rows = [f"{values[(i + j) % len(values)]},{values[(i * j) % len(values)]},{'ab'[i % 2]}"
                for i, j in zip(range(22), range(3, 25))]
        path = tmp_path / "data.csv"
        path.write_bytes(("f0,f1,label\r\n" + "\r\n".join(rows) + "\r\n").encode("utf-8-sig"))
        got_X, got_labels = load_classification_csv(path)
        expected = self.list_of_floats(path)
        assert got_X.shape == (22, 2)
        np.testing.assert_array_equal(got_X.view(np.uint64), expected.view(np.uint64))
        assert list(got_labels) == ["ab"[i % 2] for i in range(22)]

    def test_label_only_file_has_no_feature_columns(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("label\npos\nneg\npos\n", encoding="utf-8")
        got_X, got_labels = load_classification_csv(path)
        assert got_X.shape == (3, 0) and got_X.dtype == np.float64
        assert list(got_labels) == ["pos", "neg", "pos"]

    @pytest.mark.parametrize("body, message", [
        ("1,2,pos\n3,neg\n", r"data\.csv:3: expected 3 fields, got 2"),
        ("1,2,pos\n\n3,x,neg\n", r"data\.csv:4: non-numeric feature value \(could not convert"),
    ])
    def test_row_errors_carry_line_numbers(self, tmp_path, body, message):
        path = tmp_path / "data.csv"
        path.write_text("f0,f1,label\n" + body, encoding="utf-8")
        with pytest.raises(DataError, match=message):
            load_classification_csv(path)

    def test_load_peak_memory_is_near_the_matrix(self, tmp_path):
        X, labels = make_gmm_class_data(n=2000, d=50)
        path = tmp_path / "data.csv"
        write_class_csv(path, X, labels)
        peak, (got_X, _) = traced_peak_bytes(lambda: load_classification_csv(path))
        # One flat float64 buffer grown in place; lists of Python floats
        # peaked at 5.5x the matrix.
        assert peak < 2 * got_X.nbytes
        np.testing.assert_array_equal(got_X, X)

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

    @pytest.mark.parametrize("name, value", [
        ("jobs", 0), ("jobs", -3), ("jobs", 2.5), ("jobs", True),
        ("reps", 0), ("reps", 2.5), ("reps", True),
    ])
    def test_jobs_and_reps_must_be_positive_integers(self, name, value):
        X, labels = make_gmm_class_data(n=100)
        counts = {"reps": 2, "jobs": 1, name: value}
        with pytest.raises(ConfigError, match=f"^{name} must be a positive integer"):
            run_classification(X, labels, ClassificationParams(s_hat=5, epsilon=0.5),
                               master_seed=7, **counts)

    def test_overflowing_noise_scale_is_refused(self):
        # epsilon = 1e-310 overflows the one iteration's Laplace scale to inf;
        # the fit must fail, not score a release of +-inf values.
        X, labels = make_gmm_class_data(n=100)
        with pytest.raises(ValueError, match="scale"):
            run_classification(X, labels, ClassificationParams(s_hat=5, epsilon=1e-310),
                               reps=1, master_seed=7)

    def test_inf_epsilon_fit_does_not_depend_on_the_oracle(self, monkeypatch):
        # epsilon = inf zeroes a live oracle's noise exactly, so swapping in an
        # oracle with another seed changes no fit and no rate.
        X, labels = make_gmm_class_data(n=200)
        params = ClassificationParams(s_hat=5, epsilon=math.inf, iters=3)

        def run(seed_shift):
            fits = []

            def recorded(spec, batch, config, beta0, oracle):
                oracle = NoiseOracle(oracle.seed + seed_shift)
                fits.append(run_high_dim(spec, batch, config, beta0, oracle))
                return fits[-1]

            monkeypatch.setattr(harness, "run_high_dim", recorded)
            report = run_classification(X, labels, params, reps=4, master_seed=5)
            return report, [fit.tobytes() for fit in fits]

        base, base_betas = run(0)
        shifted, shifted_betas = run(1)
        assert len(base_betas) == 4
        assert base_betas == shifted_betas
        assert base.per_rep_rates == shifted.per_rep_rates

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
