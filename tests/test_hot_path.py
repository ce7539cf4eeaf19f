"""The numpy-only model hot path: ``expit``, ``matvec``, no scipy, thread-free bytes.

The models take their logistic weights from a numpy ``expit`` and form every
row product X beta with the single-threaded ``matvec``, so importing dpem
loads no scipy and the gradients' bytes do not depend on how many threads
the BLAS library runs.
"""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dpem.models import expit, matvec

REPO = Path(__file__).resolve().parents[1]

# Draws one 2500 x 200 batch per model and prints the sha256 of its arrays
# and of its truncated gradients at T = 1 and T = inf.  Each batch holds
# 500000 values, about eight row blocks of ``mechanisms.BLOCK_VALUES``, so the
# pinned digest covers the gmm and mor blocked clamp-and-sum over many blocks.
HASH_GRADIENTS = """
import hashlib, math
import numpy as np
from dpem.mechanisms import NoiseOracle
from dpem.models import ModelSpec, generate, truncated_grad

h = hashlib.sha256()
rng = np.random.default_rng(8)
for kind in ("gmm", "mor", "rmc"):
    spec = ModelSpec(kind, 200, 0.5, rng.standard_normal(200) / 10,
                     missing_prob=0.3 if kind == "rmc" else 0.0)
    batch = generate(spec, 2500, NoiseOracle(9))
    for a in vars(batch).values():
        h.update(a.tobytes())
    beta = spec.true_beta + 0.05 * rng.standard_normal(200)
    for T in (1.0, math.inf):
        h.update(truncated_grad(spec, beta, batch, T).tobytes())
print(h.hexdigest())
"""
# Printed by HASH_GRADIENTS once the rmc gradient began to sum its fill-in
# term as one rank-one product, clamping c_i * beta only in the row blocks
# where T can bind.  It moved from 7d858398... with that change (the rmc
# gradients changed by about 1e-15 relative; the gmm and mor bytes did not
# move), and before that from 4f04e57e... when the gmm and mor gradients
# stopped carrying a running sum that reproduced the whole-batch einsum's
# bits.  Any other change to the blocking or the summation order moves it
# again.
GRADIENTS_DIGEST = "f8d67b9ced0aa1b310903ac4b79fc10380ffa3eb8c558622a1a1bb85c6432f87"


def run_python(code, **env_overrides):
    env = dict(os.environ, **env_overrides)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_loads_no_scipy():
    loaded = run_python("import sys, dpem.cli\n"
                        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert loaded == "[]"


def test_cli_import_loads_six_single_file_modules():
    # src/dpem is six files; a leftover models/ package would shadow models.py.
    loaded = run_python("import sys, dpem.cli\n"
                        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'dpem'))\n"
                        "print(hasattr(sys.modules['dpem.models'], '__path__'))")
    assert loaded.splitlines() == [
        "['dpem', 'dpem.cli', 'dpem.em_engine', 'dpem.harness', 'dpem.mechanisms', 'dpem.models']",
        "False",
    ]


def test_gradient_bytes_independent_of_blas_threads():
    one = run_python(HASH_GRADIENTS, OPENBLAS_NUM_THREADS="1")
    two = run_python(HASH_GRADIENTS, OPENBLAS_NUM_THREADS="2")
    assert one == two


def test_multi_block_gradient_bytes_are_pinned():
    assert run_python(HASH_GRADIENTS) == GRADIENTS_DIGEST


class TestExpit:
    def test_matches_scalar_reference(self):
        xs = np.concatenate([np.linspace(-700.0, 700.0, 2001), np.linspace(-5.0, 5.0, 1001),
                             [-1e-300, 1e-300, -1e-8, 1e-8]])
        expected = np.array([1.0 / (1.0 + math.exp(-x)) for x in xs])
        np.testing.assert_allclose(expit(xs), expected, rtol=1e-15, atol=0.0)
        for x in (-3.5, 0.25, 40.0):
            assert expit(x) == pytest.approx(1.0 / (1.0 + math.exp(-x)), rel=1e-15, abs=0.0)

    def test_exact_special_values(self):
        got = expit(np.array([0.0, -0.0, math.inf, -math.inf, math.nan]))
        assert got[0] == 0.5 and got[1] == 0.5
        assert got[2] == 1.0 and got[3] == 0.0
        assert math.isnan(got[4])

    def test_far_left_is_zero_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert expit(-1000.0) == 0.0
            np.testing.assert_array_equal(expit(np.array([-1000.0, -745.2, 1000.0])),
                                          [0.0, 0.0, 1.0])


class TestMatvec:
    @pytest.mark.parametrize("n, d", [(1, 1), (1, 7), (9, 1), (33, 5), (2500, 200)])
    def test_matches_matmul(self, n, d):
        rng = np.random.default_rng(n * 1000 + d)
        a, b = rng.standard_normal((n, d)), rng.standard_normal(d)
        got = matvec(a, b)
        assert got.shape == (n,)
        np.testing.assert_allclose(got, a @ b, rtol=1e-12, atol=1e-12 * np.abs(a).sum(axis=1).max())

    @pytest.mark.parametrize("d", [1, 4, 200])
    def test_vector_gives_scalar(self, d):
        rng = np.random.default_rng(d)
        a, b = rng.standard_normal(d), rng.standard_normal(d)
        got = matvec(a, b)
        assert np.ndim(got) == 0
        assert got == pytest.approx(a @ b, rel=1e-12, abs=1e-12 * np.abs(a * b).sum())
