"""Every demo script and the README's python block run against the public ``dpem`` surface.

Each runs in a fresh working directory with ``src`` on PYTHONPATH; a demo
must not write into the checkout.  The public surface is exactly what the
demos and the README use, and neither a module under ``src/dpem`` nor the
tests' references import a package module's private names.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dpem
import dpem.em_engine
import dpem.mechanisms
import dpem.models

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "dpem"
DEMOS = sorted((REPO / "demos").glob("0*.py"))


def _run_with_src(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


def _readme_python_blocks() -> list[str]:
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", readme, flags=re.S)


@pytest.mark.parametrize("script", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(script, tmp_path):
    before = set(script.parent.iterdir())
    proc = _run_with_src([str(script)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert set(script.parent.iterdir()) == before


def test_readme_snippet_runs(tmp_path):
    # The library tour must keep running against the current API.
    blocks = _readme_python_blocks()
    assert blocks
    for block in blocks:
        proc = _run_with_src(["-c", block], tmp_path)
        assert proc.returncode == 0, proc.stderr


def _top_level_imports(source: str) -> set[str]:
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "dpem" and node.level == 0
            for alias in node.names}


def test_exports_are_what_demos_and_readme_import():
    # The rule in dpem/__init__.py: the top-level package holds the names the
    # README and the demos use, and no others.
    sources = [d.read_text(encoding="utf-8") for d in DEMOS]
    sources += _readme_python_blocks()
    used = set().union(*map(_top_level_imports, sources))
    assert used == set(dpem.__all__)
    assert len(dpem.__all__) == len(set(dpem.__all__))


def test_submodule_exports_are_pinned():
    # The models keep only the code that runs: a generator, a truncated
    # gradient, the kind dispatch and the lazy sample the private runs read;
    # the test references live in tests/.
    # The drivers' module also holds the baseline, and the mechanisms both
    # sparse selections, private and exact.
    assert dpem.models.__all__ == [
        "ModelSpec", "GmmBatch", "MorBatch", "RmcBatch",
        "generate", "LazySample", "raw_grad", "truncated_grad", "sensitivity",
        "generate_gmm", "gmm_weight", "gmm_truncated_grad",
        "generate_mor", "mor_truncated_grad",
        "generate_rmc", "rmc_truncated_grad",
    ]
    assert dpem.em_engine.__all__ == [
        "EmConfig", "run_high_dim", "run_low_dim", "nonprivate_em",
    ]
    assert dpem.mechanisms.__all__ == [
        "PrivacyBudget", "NoiseOracle", "require", "whole", "SparseSelection",
        "derive_seed", "sample_laplace", "sample_gaussian",
        "noisy_ht_scale", "gaussian_noise_std", "noisy_hard_threshold", "exact_top_k",
    ]


def test_no_module_imports_a_private_name_from_another():
    # Each decision (what a valid run start or selection input is) lives
    # behind the one module that owns it, and the tests' references share
    # no private code with the package they check.
    offenders = []
    for path in [*sorted(SRC.rglob("*.py")), REPO / "tests" / "references.py"]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = "." * node.level + (node.module or "")
            if node.level == 0 and module.split(".")[0] != "dpem":
                continue
            offenders += [f"{path.relative_to(REPO)}: {alias.name} from {module}"
                          for alias in node.names if alias.name.startswith("_")]
    assert offenders == []
