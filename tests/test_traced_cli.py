"""The benchmark's span tracer still finds every layer it wraps.

``perfbench/traced_cli.py`` installs its wrappers on the names the callers
look up, without touching ``src/``.  A refactor that renames one of them, or
a lazy sample that draws its batches around the package-level
``models.generate``, would leave the per-layer benchmark blind; this test
fails first.
"""

import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

from helpers import experiment_config_dict, make_gmm_class_data, write_class_csv

import dpem.cli
import dpem.em_engine
import dpem.harness
import dpem.mechanisms
import dpem.models

TRACED_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "traced_cli.py"


@pytest.fixture
def traced_cli():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # install() rebinds names on these modules for good; put them back.
    owners = [dpem.cli, dpem.em_engine, dpem.harness, dpem.mechanisms, dpem.models,
              dpem.mechanisms.NoiseOracle]
    saved = [(owner, dict(vars(owner))) for owner in owners]
    yield module
    for owner, names in saved:
        for name, value in names.items():
            if vars(owner).get(name) is not value:
                setattr(owner, name, value)


def test_every_target_is_found_and_generate_runs_once_per_batch(tmp_path, traced_cli):
    tracer = traced_cli.Tracer()
    assert traced_cli.install(tracer) == []

    cfg = experiment_config_dict()  # n in {400, 600}, two reps each
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv"), "--jobs", "2"]
    assert dpem.cli.main(argv) == 0

    names = Counter(span[2] for span in tracer.spans)
    for name in ("models.generate.gmm", "em_engine.run_high_dim", "models.truncated_grad",
                 "mechanisms.noisy_hard_threshold", "harness.cell"):
        assert names[name] > 0, name
    # N0 = max(5, ceil(ln n)): 6 batches at n = 400 and 7 at n = 600, each
    # drawn by its own models.generate call of n // N0 rows.
    per_cell = Counter(span[6] for span in tracer.spans if span[2] == "models.generate.gmm")
    assert per_cell == {"n=400/rep0": 6, "n=400/rep1": 6, "n=600/rep0": 7, "n=600/rep1": 7}
    rows = {span[7]["n"] for span in tracer.spans
            if span[2] == "models.generate.gmm" and span[6].startswith("n=400/")}
    assert rows == {400 // 6}


def test_classify_marks_one_cell_per_repetition(tmp_path, traced_cli):
    # The per-layer classify numbers hang off harness._classify_once and its
    # ``rep`` argument; a rename of either would leave them unattributed.
    tracer = traced_cli.Tracer()
    assert traced_cli.install(tracer) == []

    X, labels = make_gmm_class_data(n=200)
    data_path, cfg_path = tmp_path / "data.csv", tmp_path / "classify.json"
    write_class_csv(data_path, X, labels)
    cfg_path.write_text(json.dumps({"s_hat": 5, "epsilon": 0.5, "reps": 3, "master_seed": 4}),
                        encoding="utf-8")
    argv = ["classify", "--config", str(cfg_path), "--data", str(data_path),
            "--out", str(tmp_path / "o.csv"), "--jobs", "2"]
    assert dpem.cli.main(argv) == 0

    cells = Counter(span[6] for span in tracer.spans if span[2] == "harness.cell")
    assert cells == {"rep0": 1, "rep1": 1, "rep2": 1}
    fits = Counter(span[6] for span in tracer.spans if span[2] == "em_engine.run_high_dim")
    assert fits == cells


def test_baseline_draws_each_cell_whole_in_one_generate(tmp_path, traced_cli):
    # The baseline reads its sample once, whole: one models.generate span of
    # n rows and one oracle.nonprivate_em span per cell.
    tracer = traced_cli.Tracer()
    assert traced_cli.install(tracer) == []

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(experiment_config_dict()), encoding="utf-8")
    argv = ["baseline", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv"),
            "--jobs", "2"]
    assert dpem.cli.main(argv) == 0

    cells = {"n=400/rep0": 400, "n=400/rep1": 400, "n=600/rep0": 600, "n=600/rep1": 600}
    draws = [span for span in tracer.spans if span[2] == "models.generate.gmm"]
    assert sorted((span[6], span[7]["n"]) for span in draws) == sorted(cells.items())
    fits = Counter(span[6] for span in tracer.spans if span[2] == "oracle.nonprivate_em")
    assert fits == dict.fromkeys(cells, 1)
