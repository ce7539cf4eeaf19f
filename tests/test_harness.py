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
import references

from dpem import harness
from dpem.em_engine import run_high_dim
from dpem.harness import (
    AggregateResult,
    ClassificationConfig,
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
            ClassificationConfig(s_hat=2, epsilon=0.5, reps=1, master_seed=0, eta=eta)

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

    @pytest.mark.parametrize("s_hat_rule", [3, 12])
    def test_s_hat_rule_is_refused_in_low_dim(self, s_hat_rule):
        raw = experiment_config_dict(regime="low_dim", d=10, s_hat_rule=s_hat_rule)
        with pytest.raises(ConfigError, match="^s_hat_rule applies only to regime 'high_dim'$"):
            parse_experiment_config(raw)
        raw["fixed"]["s_hat_rule"] = "equal"
        assert parse_experiment_config(raw).cells[400][2].s_hat is None

    @pytest.mark.parametrize("model", ["gmm", "mor"])
    def test_missing_prob_is_refused_for_gmm_and_mor(self, model):
        raw = experiment_config_dict(model=model, missing_prob=0.3)
        with pytest.raises(ConfigError, match="^missing_prob applies only to model 'rmc'$"):
            parse_experiment_config(raw)
        del raw["fixed"]["missing_prob"]
        assert parse_experiment_config(raw).cells[400][1].missing_prob == 0.0

    def test_rmc_takes_missing_prob(self):
        raw = experiment_config_dict(model="rmc")
        assert parse_experiment_config(raw).cells[400][1].missing_prob == 0.1
        raw["fixed"]["missing_prob"] = 0.3
        assert parse_experiment_config(raw).cells[400][1].missing_prob == 0.3
        raw["fixed"]["missing_prob"] = "0.3"
        with pytest.raises(ConfigError, match="missing_prob must be a number in \\[0, 1\\)"):
            parse_experiment_config(raw)

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

    @pytest.mark.parametrize("override", [{"model": "mor"}, {"d": 30}, {"epsilon": 1.0}],
                             ids=["model", "d", "epsilon"])
    def test_configs_that_differ_in_their_cells_are_unequal(self, override):
        # The cells hold each run's model and parameters, so == reads them;
        # the hash skips the cells' dict and stays defined.
        cfg = parse_experiment_config(experiment_config_dict())
        assert parse_experiment_config(experiment_config_dict(**override)) != cfg
        same = replace(cfg, master_seed=cfg.master_seed)
        assert same == cfg and hash(same) == hash(cfg)

    def test_replace_rechecks_reps(self):
        # The config owns reps, so a replace() is checked as a parse is; a
        # whole float is stored as an int, and the cells are kept.
        cfg = parse_experiment_config(experiment_config_dict())
        for reps in (0, 2.5, True, -1):
            with pytest.raises(ConfigError, match="^reps must be a positive integer"):
                replace(cfg, reps=reps)
        three = replace(cfg, reps=3.0)
        assert type(three.reps) is int and three.reps == 3
        assert three.cells is cfg.cells

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
        config = parse_experiment_config(experiment_config_dict())
        assert (config.sweep.values, config.reps) == ((400, 600), 2)
        result = AggregateResult(config, [])
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
        empty = AggregateResult(parse_experiment_config(experiment_config_dict()), [])
        out = tmp_path / "empty.csv"
        write_results(empty, out)
        assert out.read_text() == "sweep_param,sweep_value,rep,iteration,error_l2,error_l2_signfree\n"

    def test_row_count_two_values_three_iterations(self, tmp_path):
        rows = [
            (float(v), 0, t, 0.5, 0.5)
            for v in (100, 200)
            for t in range(3)
        ]
        result = AggregateResult(parse_experiment_config(experiment_config_dict()), rows)
        out = tmp_path / "six.csv"
        write_results(result, out)
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 6

    def test_io_error_names_path(self, tmp_path):
        result = AggregateResult(parse_experiment_config(experiment_config_dict()), [])
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
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: could not convert "
                                            r"string 'x' to float64 at row 0, column 1\.$"):
            load_classification_csv(path)

    @pytest.mark.parametrize("values", [
        ["-0.0", "0.0", "1e-3", "2.5E+10", "-7.25e-300", "5e-324", "2.2250738585072009e-308",
         "1.7976931348623157e308", "  3.5", "-.5"],
        ["9007199254740993", "0.30000000000000004", "2.4703282292062327e-324",
         "2.4703282292062328e-324", "1e-400", "1e400", "-Infinity", "nan", "-nan", "+.5e-3",
         "\xa02.5\x0b", "123456789012345678901234567890", "4.9406564584124654e-324", "1E5"],
    ], ids=["plain-spellings", "numpy-spellings"])
    def test_values_bitwise_equal_to_list_of_floats(self, tmp_path, values):
        rows = [f"{values[(i + j) % len(values)]},{values[(i * j) % len(values)]},{'ab'[i % 2]}"
                for i, j in zip(range(22), range(3, 25))]
        path = tmp_path / "data.csv"
        path.write_bytes(("f0,f1,label\r\n" + "\r\n".join(rows) + "\r\n").encode("utf-8-sig"))
        got_X, got_labels = load_classification_csv(path)
        expected, _ = references.read_classification_csv(path)
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
        # numpy counts the data rows that are not blank, this one from 1 and
        # the conversion's from 0; neither is a file line.
        # numpy's advice to pass ``usecols``, which classify lacks, is dropped.
        ("1,2,pos\n3,neg\n", "the number of columns changed from 3 to 2 at row 2"),
        ("1,2,pos\n3,4,5,neg\n", "the number of columns changed from 3 to 4 at row 2"),
        ("1,2,pos\n\n3,x,neg\n", "could not convert string 'x' to float64 at row 1, column 2."),
    ], ids=["short-row", "long-row", "non-numeric"])
    def test_row_errors_carry_numpys_row_and_column(self, tmp_path, body, message):
        path = tmp_path / "data.csv"
        path.write_text("f0,f1,label\n" + body, encoding="utf-8")
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_classification_csv(path)

    @pytest.mark.parametrize("label_at", [0, 25, None], ids=["first", "middle", "last"])
    def test_load_peak_memory_is_near_the_matrix(self, tmp_path, label_at):
        X, labels = make_gmm_class_data(n=2000, d=50)
        path = tmp_path / "data.csv"
        write_class_csv(path, X, labels, label_at=label_at)
        peak, (got_X, _) = traced_peak_bytes(lambda: load_classification_csv(path))
        # One float64 table grown in place, of which a middle label moves at
        # most half; lists of Python floats peaked at 5.5x the matrix.
        assert peak < 2 * got_X.nbytes
        if label_at == 25:
            # The middle shift goes a row block at a time: one shift of the
            # whole half-table through numpy's temporary peaked at 1.68x.
            assert peak < 1.6 * got_X.nbytes
        np.testing.assert_array_equal(got_X, X)

    @pytest.mark.parametrize("label_at, spreadsheet", [(0, False), (13, False), (None, False), (0, True)],
                             ids=["first", "middle", "last", "bom-crlf"])
    def test_well_formed_files_load_bitwise(self, tmp_path, label_at, spreadsheet):
        X, labels = make_gmm_class_data(n=40)
        path = tmp_path / "data.csv"
        write_class_csv(path, X, labels, label_at=label_at)
        if spreadsheet:
            path.write_bytes(path.read_text(encoding="utf-8").replace("\n", "\r\n").encode("utf-8-sig"))
        got_X, got_labels = load_classification_csv(path)
        np.testing.assert_array_equal(got_X.view(np.uint64), X.view(np.uint64))
        assert list(got_labels) == list(labels)

    # Edge files under a header "f0,label,f1".
    EDGE_BODIES = {
        "quoted-label-with-comma": '1,"a,b",2\n3,c,4\n',
        "quoted-label-with-newlines": '1,"a\nb",2\n3,"c\n\nd",4\n',
        "doubled-quotes": '1,"a""b",2\n',
        "text-after-closing-quote": '1,"ab"c,2\n',
        "quote-inside-unquoted-label": '1,a"b,2\n',
        "label-with-spaces-and-hash": '1, a ,2\n3,#b,4\n',
        "quoted-numbers": '"1.5",a,"2"\n',
        "cr": '1,a,2\r3,b,4\r',
        "crlf": '1,a,2\r\n3,b,4\r\n',
        "mixed-line-ends": '1,a,2\r\n3,b,4\r5,c,6\n',
        "no-final-line-end": '1,a,2\n3,b,4',
        "blank-lines": '\n\r\n1,a,2\n\n3,b,4\r\r\n\n',
        "whitespace-only-line": '1,a,2\n  \n',
        "trailing-comma": '1,a,2,\n',
        "empty-field": ',a,2\n',
        "extra-field": '1,a,2,9\n',
        "short-row": '1,a\n',
        "nul-in-number": '1\x00,a,2\n',
        "nul-in-label": '1,a\x00,2\n',
        "nbsp-and-vt-around-numbers": '\xa01\xa0,a,\x0b2\x0b\n',
        "nan-and-infinity": 'nan,a,-nan\nInfinity,b,-inf\n',
        "underflow-and-rounding": '1e-400,a,9007199254740993\n',
        "underscore": '1_000.5,a,2\n',
        "arabic-indic-digit": '\u0661,a,2\n',
        "hex": '0x10,a,2\n',
    }

    # The bodies the csv + float() reference reads and the loader refuses.  The
    # other way round, the loader reads a number padded with U+001C..U+001F:
    # see test_numpy_also_strips_ascii_separators_around_a_number.
    DIFFERENCES = {
        "underscore": "float() takes digit-group underscores, numpy refuses them",
        "arabic-indic-digit": "float() takes non-ASCII digits, numpy refuses them",
    }

    @pytest.mark.parametrize("name, body", EDGE_BODIES.items(), ids=EDGE_BODIES.keys())
    def test_equals_the_python_reader_or_both_refuse(self, tmp_path, name, body):
        path = tmp_path / "data.csv"
        path.write_bytes(("f0,label,f1\n" + body).encode("utf-8"))
        try:
            expected = references.read_classification_csv(path)
        except (ValueError, csv.Error):
            expected = None
        if expected is None or name in self.DIFFERENCES:
            with pytest.raises(DataError, match=f"^{re.escape(str(path))}:"):
                load_classification_csv(path)
            assert (expected is None) != (name in self.DIFFERENCES)
            return
        got_X, got_labels = load_classification_csv(path)
        assert got_X.shape == expected[0].shape
        assert got_X.view(np.uint64).tolist() == expected[0].view(np.uint64).tolist()
        assert got_labels.tolist() == expected[1].tolist()

    def test_numpy_also_strips_ascii_separators_around_a_number(self, tmp_path):
        # A spelling numpy takes and float() refuses: the characters
        # U+001C..U+001F count as whitespace to numpy, not to float().
        path = tmp_path / "data.csv"
        path.write_text("f0,label\n\x1c1\x1f,a\n", encoding="utf-8")
        assert load_classification_csv(path)[0].tolist() == [[1.0]]
        with pytest.raises(ValueError):
            references.read_classification_csv(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["LF", "CRLF"])
    @pytest.mark.parametrize("bom", [False, True], ids=["plain", "bom"])
    def test_blank_lines_before_the_header_are_skipped(self, tmp_path, newline, bom):
        text = newline.join(["f0,label,f1", "1.5,a,2", "3,b,-0.25"]) + newline
        encoding = "utf-8-sig" if bom else "utf-8"
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode(encoding))
        plain_X, plain_labels = load_classification_csv(path)
        path.write_bytes((2 * newline + text).encode(encoding))
        got_X, got_labels = load_classification_csv(path)
        np.testing.assert_array_equal(got_X, plain_X)
        np.testing.assert_array_equal(got_labels, plain_labels)

    @pytest.mark.parametrize("text, message", [
        ("", "file is empty"),
        ("f0,label\n", "no data rows"),
        ("f0,label\n\n\r\n\n", "no data rows"),
    ], ids=["empty", "header-only", "header-and-blank-lines"])
    def test_files_without_rows_are_refused(self, tmp_path, text, message):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: {message}$"):
            load_classification_csv(path)

    @pytest.mark.parametrize("data, message", [
        (b"f0,label\n1.0,caf\xe9\n2.0,neg\n", r":2: not UTF-8 text \(byte 0xe9: invalid continuation byte\)$"),
        # A spelling float() takes and numpy does not.
        (b"f0,label\n1_000.5,pos\n2.0,neg\n",
         r": could not convert string '1_000\.5' to float64 at row 0, column 1\.$"),
    ], ids=["latin-1-byte", "float-only-spelling"])
    def test_unreadable_files_are_data_errors_naming_the_file(self, tmp_path, data, message):
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        with pytest.raises(DataError, match="^" + re.escape(str(path)) + message):
            load_classification_csv(path)

    def test_over_long_field_loads(self, tmp_path):
        # Past csv's 128 KiB field limit, which numpy's reader does not have.
        path = tmp_path / "data.csv"
        path.write_bytes(b"f0,label\n1.0,pos\n2.0," + b"n" * 140000 + b"\n")
        got_X, got_labels = load_classification_csv(path)
        assert got_X.tolist() == [[1.0], [2.0]]
        assert got_labels.tolist() == ["pos", "n" * 140000]

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_non_utf8_byte_is_named_by_its_line(self, tmp_path, newline):
        # Past the first 8 KB, where the text decoder has read ahead of the
        # csv reader, so neither one knows the line; the header is line 1.
        rows = ["f0,label"] + [f"{i}.{'0' * 300},pos" for i in range(38)] + ["1.0,caf\xe9", "2,neg"]
        path = tmp_path / "data.csv"
        path.write_bytes(newline.join(rows).encode("latin-1"))
        assert path.stat().st_size > 8192
        with pytest.raises(DataError, match="^" + re.escape(str(path)) +
                           r":40: not UTF-8 text \(byte 0xe9: invalid continuation byte\)$"):
            load_classification_csv(path)

    @pytest.mark.parametrize("text", [
        "label,f0,label\n0,1.5,0\n1,2.5,1\n0,0.5,0\n",
        "f0,label,label\n1.5,pos,pos\n2.5,neg,neg\n",
    ], ids=["numeric-labels", "text-labels"])
    def test_second_label_column_is_refused(self, tmp_path, text):
        # numpy's reader parses the numeric file, and used to load its second
        # label column as the feature column [0, 1, 0].
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError,
                           match=rf"^{re.escape(str(path))}: more than one 'label' column$"):
            load_classification_csv(path)

    @pytest.mark.parametrize("jobs, bound", [(1, 2.5), (2, 3.5)])
    def test_run_peak_memory_is_the_standardized_matrix_plus_a_gather_per_thread(self, jobs, bound):
        X, labels = make_gmm_class_data(n=10000, d=100)
        config = ClassificationConfig(s_hat=10, epsilon=0.5, reps=2, master_seed=3)
        peak, _ = traced_peak_bytes(lambda: run_classification(X, labels, config, jobs=jobs))
        # The standardized matrix, plus one row-sized gather at a time in each
        # running repetition.  Holding a centered balanced copy while the
        # splits are gathered from it reaches 3.2x (jobs=1) and 5.1x (jobs=2).
        assert peak < bound * X.nbytes

    def test_parse_config_defaults(self):
        config = parse_classification_config(
            {"s_hat": 10, "epsilon": 0.5, "reps": 5, "master_seed": 3}
        )
        assert config == ClassificationConfig(s_hat=10, epsilon=0.5, reps=5, master_seed=3)
        assert (config.reps, config.master_seed) == (5, 3)

    def test_parse_config_rejects_unknown(self):
        with pytest.raises(ConfigError, match="mystery"):
            parse_classification_config(
                {"s_hat": 1, "epsilon": 0.5, "reps": 1, "master_seed": 0, "mystery": 1}
            )


class TestRunClassification:
    def test_perfectly_separated_nonprivate_is_exact(self):
        X, labels = make_gmm_class_data(sigma=1e-9, n=200, signal=2.0)
        config = ClassificationConfig(s_hat=10, epsilon=math.inf, reps=5, master_seed=1)
        report = run_classification(X, labels, config)
        assert report.misclassification_rate == 0.0

    def test_permuted_labels_are_chance(self):
        X, labels = make_gmm_class_data(n=400)
        rng = np.random.default_rng(8)
        shuffled = labels.copy()
        rng.shuffle(shuffled)
        config = ClassificationConfig(s_hat=10, epsilon=math.inf, reps=20, master_seed=2)
        report = run_classification(X, shuffled, config)
        assert 0.4 <= report.misclassification_rate <= 0.6

    def test_three_classes_rejected(self):
        X, labels = make_gmm_class_data(n=30)
        labels = labels.copy()
        labels[0] = "third"
        with pytest.raises(ConfigError, match="two classes"):
            run_classification(X, labels,
                               ClassificationConfig(s_hat=2, epsilon=0.5, reps=1, master_seed=0))

    @pytest.mark.parametrize("shape", [(198,), (202,), (200, 1)], ids=["198", "202", "200x1"])
    def test_labels_must_be_one_per_row(self, shape):
        X, labels = make_gmm_class_data(n=200)
        labels = np.resize(labels, shape)
        config = ClassificationConfig(s_hat=5, epsilon=0.5, reps=1, master_seed=7)
        with pytest.raises(DataError, match="^labels must be 1-D with one entry per row"):
            run_classification(X, labels, config)

    @pytest.mark.parametrize("name, value", [
        ("jobs", 0), ("jobs", -3), ("jobs", 2.5), ("jobs", True),
        ("reps", 0), ("reps", 2.5), ("reps", True),
    ])
    def test_jobs_and_reps_must_be_positive_integers(self, name, value):
        # reps is checked by the config, as a replace() re-checks it; jobs by the run.
        X, labels = make_gmm_class_data(n=100)
        counts = {"reps": 2, "jobs": 1, name: value}
        config = ClassificationConfig(s_hat=5, epsilon=0.5, reps=2, master_seed=7)
        with pytest.raises(ConfigError, match=f"^{name} must be a positive integer"):
            run_classification(X, labels, replace(config, reps=counts["reps"]), jobs=counts["jobs"])

    def test_overflowing_noise_scale_is_refused(self):
        # epsilon = 1e-310 overflows the one iteration's Laplace scale to inf;
        # the fit must fail, not score a release of +-inf values.
        X, labels = make_gmm_class_data(n=100)
        with pytest.raises(ValueError, match="scale"):
            run_classification(X, labels, ClassificationConfig(s_hat=5, epsilon=1e-310,
                                                               reps=1, master_seed=7))

    def test_inf_epsilon_fit_does_not_depend_on_the_oracle(self, monkeypatch):
        # epsilon = inf zeroes a live oracle's noise exactly, so swapping in an
        # oracle with another seed changes no fit and no rate.
        X, labels = make_gmm_class_data(n=200)
        config = ClassificationConfig(s_hat=5, epsilon=math.inf, reps=4, master_seed=5, iters=3)

        def run(seed_shift):
            fits = []

            def recorded(spec, batch, config, beta0, oracle):
                oracle = NoiseOracle(oracle.seed + seed_shift)
                fits.append(run_high_dim(spec, batch, config, beta0, oracle))
                return fits[-1]

            monkeypatch.setattr(harness, "run_high_dim", recorded)
            report = run_classification(X, labels, config)
            return report, [fit.tobytes() for fit in fits]

        base, base_betas = run(0)
        shifted, shifted_betas = run(1)
        assert len(base_betas) == 4
        assert base_betas == shifted_betas
        assert base.per_rep_rates == shifted.per_rep_rates

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("case", ["imbalanced", "zero_variance_column", "one_dim", "odd_rows"])
    def test_equals_the_balanced_copy_reference(self, monkeypatch, case, jobs):
        # The harness gathers each split straight from the standardized rows;
        # the reference centers a balanced copy and gathers from it.  Same
        # draws and subtractions, so each repetition's training rows, fit and
        # rate agree bit for bit.
        d, s_star, s_hat = (1, 1, 1) if case == "one_dim" else (30, 10, 5)
        X, labels = make_gmm_class_data(n=201 if case == "odd_rows" else 200, d=d, s_star=s_star)
        if case == "imbalanced":
            keep = (labels == "pos") | (np.arange(labels.size) % 3 == 0)
            X, labels = X[keep], labels[keep]
        if case == "zero_variance_column":
            X[:, 3] = 2.5
        config = ClassificationConfig(s_hat=s_hat, epsilon=0.5, reps=3, master_seed=11)

        def run(module):
            fits = []

            def recorded(spec, batch, config, beta0, oracle):
                fits.append((batch.y.tobytes(), run_high_dim(spec, batch, config, beta0, oracle)))
                return fits[-1][1]

            monkeypatch.setattr(module, "run_high_dim", recorded)
            report = run_classification(X, labels, config, jobs=jobs)
            return report.per_rep_rates, sorted((rows, fit.tobytes()) for rows, fit in fits)

        rates, fits = run(harness)
        monkeypatch.setattr(harness, "_classify_once", references.balanced_copy_classify_once)
        ref_rates, ref_fits = run(references)
        assert len(fits) == 3
        assert fits == ref_fits
        assert rates == ref_rates

    @pytest.mark.parametrize("delta", [None, 1e-3])
    def test_report_carries_the_resolved_fit_config(self, delta):
        X, labels = make_gmm_class_data(n=100)
        n_train = 14 * min(np.sum(labels == "pos"), np.sum(labels == "neg")) // 10
        config = ClassificationConfig(s_hat=5, epsilon=0.5, reps=2, master_seed=7, delta=delta)
        report = run_classification(X, labels, config)
        assert report.config == config.em_config(n_train)
        # delta_rule 'half_n' resolves to 1/(2 n_train); an explicit delta passes through.
        expected = 1.0 / (2.0 * n_train) if delta is None else delta
        assert report.config.budget == PrivacyBudget(0.5, expected)
        assert (report.config.s_hat, report.config.N0, report.config.T) == (5, 1, 0.5)

    def test_training_size_is_the_exact_floor(self):
        # floor(0.7 * 2 * 45) = 63, where the float product 62.999... rounds down to 62.
        X, _ = make_gmm_class_data(n=105)
        labels = np.array(["pos"] * 45 + ["neg"] * 60)
        config = ClassificationConfig(s_hat=5, epsilon=0.5, reps=1, master_seed=7)
        report = run_classification(X, labels, config)
        assert report.config.budget.delta == 1.0 / 126.0

    @pytest.mark.parametrize("field, value, message", [
        ("reps", 0, "^reps must be a positive integer"),
        ("master_seed", True, "^master_seed must be an integer"),
    ])
    def test_replace_rechecks_reps_and_seed(self, field, value, message):
        config = ClassificationConfig(s_hat=5, epsilon=0.5, reps=2, master_seed=7)
        with pytest.raises(ConfigError, match=message):
            replace(config, **{field: value})

    def test_deterministic(self):
        X, labels = make_gmm_class_data(n=100)
        config = ClassificationConfig(s_hat=5, epsilon=0.5, reps=4, master_seed=7)
        a = run_classification(X, labels, config)
        b = run_classification(X, labels, config, jobs=4)
        assert a.per_rep_rates == b.per_rep_rates

    def test_report_csv(self, tmp_path):
        X, labels = make_gmm_class_data(n=100)
        report = run_classification(
            X, labels, ClassificationConfig(s_hat=5, epsilon=0.5, reps=3, master_seed=7)
        )
        out = tmp_path / "cls.csv"
        write_results(report, out)
        header, rows = read_results_csv(out)
        assert header == ["s_hat", "epsilon", "rep", "misclassification_rate"]
        assert len(rows) == 3
        assert rows[0][0] == 5
        got_mean = float(np.mean([r[3] for r in rows]))
        assert got_mean == pytest.approx(report.misclassification_rate, rel=1e-9)
