import json

import numpy as np
import pytest

from helpers import (
    experiment_config_dict,
    make_gmm_class_data,
    read_results_csv,
    small_config_dict,
    write_class_csv,
)

from dpem.cli import main


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def classify_config(tmp_path, **overrides):
    cfg = {"s_hat": 10, "epsilon": 0.5, "reps": 3, "master_seed": 11}
    cfg.update(overrides)
    return write_config(tmp_path, cfg, "classify.json")


class TestCmdRun:
    def test_success(self, tmp_path, capsys):
        cfg = write_config(tmp_path, experiment_config_dict())
        out = tmp_path / "out.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists()
        assert "mean final error by n" in capsys.readouterr().out

    def test_invalid_sweep_exits_2(self, tmp_path, capsys):
        raw = experiment_config_dict()
        raw["sweep"] = {"name": "n", "values": [400], "also": "d"}
        cfg = write_config(tmp_path, raw)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "sweep" in capsys.readouterr().err

    def test_silent_noise_flag_rejected_exits_2(self, tmp_path, capsys):
        # epsilon = Infinity is the one way to switch the noise off.
        cfg = write_config(tmp_path, experiment_config_dict(epsilon=float("inf")))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv"),
                  "--silent-noise"])
        assert exc.value.code == 2
        assert "silent-noise" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_inf_epsilon_ok(self, tmp_path):
        raw = experiment_config_dict(epsilon=float("inf"))
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0

    def test_missing_config_exits_2(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2

    def test_unwritable_output_exits_1(self, tmp_path):
        cfg = write_config(tmp_path, experiment_config_dict())
        code = main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "missing-dir" / "o.csv")])
        assert code == 1

    def test_seed_override_changes_results(self, tmp_path):
        cfg = write_config(tmp_path, experiment_config_dict())
        out1, out2, out3 = (tmp_path / f"o{i}.csv" for i in range(3))
        main(["run", "--config", str(cfg), "--out", str(out1)])
        main(["run", "--config", str(cfg), "--out", str(out2), "--seed", "999"])
        main(["run", "--config", str(cfg), "--out", str(out3), "--seed", "999"])
        assert out1.read_bytes() != out2.read_bytes()
        assert out2.read_bytes() == out3.read_bytes()

    @pytest.mark.parametrize("command", ["run", "baseline"])
    @pytest.mark.parametrize("regime", ["high_dim", "low_dim"])
    @pytest.mark.parametrize("model", ["gmm", "mor", "rmc"])
    def test_rerun_is_byte_identical(self, tmp_path, model, regime, command):
        cfg = write_config(tmp_path, small_config_dict(model, regime))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([command, "--config", str(cfg), "--out", str(out1), "--jobs", "3"]) == 0
        assert main([command, "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestCmdBaseline:
    def test_success_and_shape(self, tmp_path):
        cfg = write_config(tmp_path, experiment_config_dict())
        priv, base = tmp_path / "p.csv", tmp_path / "b.csv"
        assert main(["run", "--config", str(cfg), "--out", str(priv)]) == 0
        assert main(["baseline", "--config", str(cfg), "--out", str(base)]) == 0
        ph, prows = read_results_csv(priv)
        bh, brows = read_results_csv(base)
        assert ph == bh
        assert len(prows) == len(brows)

    def test_baseline_beats_private(self, tmp_path):
        cfg = write_config(tmp_path, experiment_config_dict(reps=3))
        priv, base = tmp_path / "p.csv", tmp_path / "b.csv"
        main(["run", "--config", str(cfg), "--out", str(priv)])
        main(["baseline", "--config", str(cfg), "--out", str(base)])

        def final_means(path):
            _, rows = read_results_csv(path)
            last = {}
            for _, value, rep, it, err, _sf in rows:
                key = (value, rep)
                if key not in last or it > last[key][0]:
                    last[key] = (it, err)
            means = {}
            for (value, _), (_, err) in last.items():
                means.setdefault(value, []).append(err)
            return {v: np.mean(e) for v, e in means.items()}

        p, b = final_means(priv), final_means(base)
        for value in p:
            assert b[value] <= p[value]

    def test_zero_step_flat_error_curve(self, tmp_path):
        cfg = write_config(tmp_path, experiment_config_dict(eta=0.0, reps=1))
        out = tmp_path / "flat.csv"
        assert main(["baseline", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_results_csv(out)
        by_cell = {}
        for _, value, rep, it, err, _sf in rows:
            by_cell.setdefault((value, rep), []).append(err)
        for errs in by_cell.values():
            assert max(errs) == min(errs)


class TestCmdClassify:
    def test_success(self, tmp_path):
        X, labels = make_gmm_class_data(n=120)
        data = tmp_path / "data.csv"
        write_class_csv(data, X, labels)
        cfg = classify_config(tmp_path)
        out = tmp_path / "cls.csv"
        code = main(["classify", "--data", str(data), "--config", str(cfg),
                     "--out", str(out)])
        assert code == 0
        header, rows = read_results_csv(out)
        assert header == ["s_hat", "epsilon", "rep", "misclassification_rate"]
        assert len(rows) == 3

    def test_three_class_labels_exit_2(self, tmp_path, capsys):
        X, labels = make_gmm_class_data(n=60)
        labels = labels.copy()
        labels[:3] = "third"
        data = tmp_path / "data.csv"
        write_class_csv(data, X, labels)
        cfg = classify_config(tmp_path)
        code = main(["classify", "--data", str(data), "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "two classes" in capsys.readouterr().err

    def test_missing_label_column_exit_1(self, tmp_path, capsys):
        X, labels = make_gmm_class_data(n=60)
        data = tmp_path / "data.csv"
        write_class_csv(data, X, labels, label_name="target")
        cfg = classify_config(tmp_path)
        code = main(["classify", "--data", str(data), "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "label" in capsys.readouterr().err

    def test_seed_override_equals_the_config_seed(self, tmp_path):
        # --seed N gives what the config gives with master_seed N, and not
        # what the config's own seed gives.
        X, labels = make_gmm_class_data(n=120)
        data = tmp_path / "data.csv"
        write_class_csv(data, X, labels)
        own, seeded = classify_config(tmp_path), write_config(
            tmp_path, {"s_hat": 10, "epsilon": 0.5, "reps": 3, "master_seed": 999}, "seeded.json")
        outs = {}
        for name, cfg, extra in [("own", own, []), ("flag", own, ["--seed", "999"]),
                                 ("config", seeded, [])]:
            outs[name] = tmp_path / f"{name}.csv"
            assert main(["classify", "--data", str(data), "--config", str(cfg),
                         "--out", str(outs[name])] + extra) == 0
        assert outs["flag"].read_bytes() == outs["config"].read_bytes()
        assert outs["flag"].read_bytes() != outs["own"].read_bytes()

    def test_malformed_feature_exit_1(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("f0,label\noops,pos\n1.0,neg\n", encoding="utf-8")
        cfg = classify_config(tmp_path)
        code = main(["classify", "--data", str(data), "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")])
        assert code == 1

    @pytest.mark.parametrize("data, message", [
        (b"f0,label\n1.0,caf\xe9\n2.0,neg\n", ":2: not UTF-8 text (byte 0xe9: invalid continuation byte)"),
        (b"f0,label\n1_000.5,pos\n2.0,neg\n",
         ": could not convert string '1_000.5' to float64 at row 0, column 1."),
        (b"label,f0,label\n0,1.5,0\n1,2.5,1\n0,0.5,0\n", ": more than one 'label' column"),
    ], ids=["latin-1-byte", "float-only-spelling", "second-label-column"])
    def test_unreadable_data_exit_1_naming_the_file(self, tmp_path, capsys, data, message):
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        code = main(["classify", "--data", str(path), "--config", str(classify_config(tmp_path)),
                     "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert capsys.readouterr().err == f"data error: {path}{message}\n"
        assert not (tmp_path / "o.csv").exists()


class TestSummaryLines:
    """The line each command prints, pinned on small configs (``--jobs 2``)."""

    @pytest.mark.parametrize("command, model, regime, expected", [
        ("run", "gmm", "high_dim", "mean final error by n: 400=2.1269e+00 600=2.4447e+00"),
        ("run", "mor", "low_dim", "mean final error by n: 400=2.6074e+01 600=1.6445e+01"),
        ("run", "rmc", "high_dim", "mean final error by n: 400=3.7942e+01 600=4.0744e+01"),
        ("baseline", "gmm", "high_dim",
         "baseline mean final error by n: 400=1.2581e-01 600=1.0262e-01"),
        ("baseline", "rmc", "low_dim",
         "baseline mean final error by n: 400=8.2256e-02 600=7.2178e-02"),
    ])
    def test_run_and_baseline(self, tmp_path, capsys, command, model, regime, expected):
        cfg = write_config(tmp_path, small_config_dict(model, regime))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o.csv"),
                     "--jobs", "2"]) == 0
        assert capsys.readouterr().out == expected + "\n"

    def test_epsilon_sweep_prints_values_with_g(self, tmp_path, capsys):
        raw = small_config_dict("gmm", "high_dim")
        raw["sweep"] = {"name": "epsilon", "values": [1, 2.5]}
        cfg = write_config(tmp_path, raw)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv"),
                     "--jobs", "2"]) == 0
        assert capsys.readouterr().out == "mean final error by epsilon: 1=4.2897e+00 2.5=1.0088e+00\n"

    @pytest.mark.parametrize("epsilon, expected", [
        (0.5, "mean=0.0169 se=0.0052 over 4 reps (s_hat=10, epsilon=0.5)"),
        # An integer epsilon prints as a float.
        (1, "mean=0.0127 se=0.0036 over 4 reps (s_hat=10, epsilon=1.0)"),
        (float("inf"), "mean=0.0127 se=0.0036 over 4 reps (s_hat=10, epsilon=inf)"),
    ])
    def test_classify(self, tmp_path, capsys, epsilon, expected):
        data = tmp_path / "data.csv"
        write_class_csv(data, *make_gmm_class_data(seed=5, n=600))
        cfg = classify_config(tmp_path, epsilon=epsilon, reps=4)
        assert main(["classify", "--data", str(data), "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv"), "--jobs", "2"]) == 0
        assert capsys.readouterr().out == f"misclassification: {expected}\n"


class TestInputImmutability:
    def test_run_and_classify_leave_inputs_untouched(self, tmp_path):
        cfg = write_config(tmp_path, experiment_config_dict())
        cfg_bytes = cfg.read_bytes()
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 0
        assert cfg.read_bytes() == cfg_bytes

        X, labels = make_gmm_class_data(n=80)
        data = tmp_path / "data.csv"
        write_class_csv(data, X, labels)
        ccfg = classify_config(tmp_path)
        data_bytes, ccfg_bytes = data.read_bytes(), ccfg.read_bytes()
        assert main(["classify", "--data", str(data), "--config", str(ccfg),
                     "--out", str(tmp_path / "c.csv")]) == 0
        assert data.read_bytes() == data_bytes
        assert ccfg.read_bytes() == ccfg_bytes


class TestRejectedInput:
    @pytest.mark.parametrize("command", ["run", "baseline", "classify"])
    @pytest.mark.parametrize("jobs", ["0", "-2", "abc", "2.5"])
    def test_jobs_below_one_exits_2(self, tmp_path, capsys, command, jobs):
        cfg = write_config(tmp_path, experiment_config_dict())
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o.csv"), "--jobs", jobs]
        if command == "classify":
            argv += ["--data", str(tmp_path / "data.csv")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not (tmp_path / "o.csv").exists()
        assert f"argument --jobs: must be a positive integer, got '{jobs}'" in capsys.readouterr().err

    @pytest.mark.parametrize("regime", ["high_dim", "low_dim"])
    @pytest.mark.parametrize("eta", [float("nan"), float("inf")])
    def test_non_finite_eta_exits_2(self, tmp_path, capsys, regime, eta):
        cfg = write_config(tmp_path, experiment_config_dict(regime=regime, eta=eta))
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "eta" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("reps", 2.5), ("reps", True), ("s_hat_rule", 2.5), ("s_hat_rule", True),
        ("d", 25.7), ("d", True), ("s_star", 4.5),
        ("sigma", float("inf")), ("T_rule", float("inf")), ("N0_rule", float("inf")),
        ("sigma", True), ("sigma", "0.5"), ("T_rule", True), ("N0_rule", True),
        ("eta", "0.5"), ("eta", True), ("epsilon", "0.5"), ("epsilon", "abc"), ("epsilon", True),
        ("missing_prob", "0.1"), ("delta", 0.1), ("master_seed", True), ("T_rule", 1.7e308),
    ])
    def test_bad_experiment_field_exits_2(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, experiment_config_dict(**{key: value}))
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, values", [
        ("n", [400, 600.5]), ("s_star", [True]),
        ("epsilon", ["0.5"]), ("epsilon", ["abc"]), ("epsilon", [True]),
    ])
    def test_bad_sweep_value_exits_2(self, tmp_path, capsys, name, values):
        raw = experiment_config_dict(sweep={"name": name, "values": values})
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "sweep value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values", [[], [400, 400], [400, 400.0]])
    def test_empty_or_repeated_sweep_values_exit_2(self, tmp_path, capsys, values):
        raw = experiment_config_dict(sweep={"name": "n", "values": values})
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "sweep.values" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "classify"])
    def test_explicit_delta_not_a_number_exits_2(self, tmp_path, capsys, command):
        argv = ["--out", str(tmp_path / "o.csv")]
        if command == "run":
            cfg = write_config(tmp_path, experiment_config_dict(delta_rule="explicit", delta="0.1"))
        else:
            X, labels = make_gmm_class_data(n=60)
            write_class_csv(tmp_path / "data.csv", X, labels)
            cfg = classify_config(tmp_path, delta_rule="explicit", delta="0.1")
            argv += ["--data", str(tmp_path / "data.csv")]
        assert main([command, "--config", str(cfg)] + argv) == 2
        assert "delta" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("key, value", [
        ("s_hat", 2.5), ("s_hat", True), ("iters", 1.5), ("iters", True),
        ("reps", 2.5), ("reps", True), ("T", float("inf")), ("sigma_fit", float("inf")),
        ("T", True), ("sigma_fit", True), ("sigma_fit", "0.5"),
        ("eta", "0.5"), ("eta", True), ("epsilon", "0.5"), ("epsilon", "abc"), ("epsilon", True),
        ("delta", 0.1), ("master_seed", True), ("s_hat", 500),
    ])
    def test_bad_classification_field_exits_2(self, tmp_path, capsys, key, value):
        X, labels = make_gmm_class_data(n=60)
        data = tmp_path / "data.csv"
        write_class_csv(data, X, labels)
        cfg = classify_config(tmp_path, **{key: value})
        out = tmp_path / "o.csv"
        assert main(["classify", "--data", str(data), "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, regime", [
        ("run", "high_dim"), ("run", "low_dim"), ("baseline", "high_dim"), ("classify", None)])
    def test_overflowing_noise_scale_exits_2(self, tmp_path, capsys, command, regime):
        # At epsilon = 1e-310 the run's certified lambda calibrates to a
        # noise scale whose draws overflow: a config error
        # before any cell runs, for the baseline too, as the config is shared.
        argv = ["--out", str(tmp_path / "o.csv")]
        if command == "classify":
            X, labels = make_gmm_class_data(n=600)
            write_class_csv(tmp_path / "data.csv", X, labels)
            cfg = classify_config(tmp_path, epsilon=1e-310)
            argv += ["--data", str(tmp_path / "data.csv")]
        else:
            cfg = write_config(tmp_path, experiment_config_dict(regime=regime, epsilon=1e-310))
        assert main([command, "--config", str(cfg)] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "epsilon = 1e-310" in err
        assert not (tmp_path / "o.csv").exists()
