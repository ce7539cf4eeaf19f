"""Pinned sha256 digests of small ``dpem run``, ``baseline`` and ``classify`` outputs.

Any change to the bytes a command writes for a fixed config and seed fails
here, so a change that moves them has to re-pin the digest and say why.  The
private ``run`` digests are those of the sample drawn one batch at a time;
the ``baseline`` digests date from before that change, which did not touch
that path.  The ``-two_blocks`` cases run at d = 200 (100 for classify),
where each gradient batch spans two row blocks of ``mechanisms.BLOCK_VALUES``
values; their low-dim and ``baseline`` digests date from before the gmm and
mor gradients began to add their per-block sums.  The high-dim ``run`` and
the ``classify`` digests are those of exponential-mechanism peeling, which
draws d + s uniforms per selection where Laplace peeling drew (s + 1) * d.
The ``run-rmc-high_dim`` digest is that of the rmc gradient whose
``-(1 - z) * beta`` term is clamped at T, which runs every step at one scale.
"""

import hashlib
import json

import pytest

from helpers import experiment_config_dict, make_gmm_class_data, small_config_dict, write_class_csv

from dpem.cli import main

CASES = {
    "run-gmm-high_dim": ("run", "gmm", "high_dim"),
    "run-mor-low_dim": ("run", "mor", "low_dim"),
    "run-rmc-high_dim": ("run", "rmc", "high_dim"),
    "baseline-gmm-high_dim": ("baseline", "gmm", "high_dim"),
    "baseline-rmc-low_dim": ("baseline", "rmc", "low_dim"),
    "classify": ("classify", None, None),
    "run-gmm-high_dim-two_blocks": ("run", "gmm", "high_dim"),
    "run-mor-low_dim-two_blocks": ("run", "mor", "low_dim"),
    "baseline-gmm-high_dim-two_blocks": ("baseline", "gmm", "high_dim"),
    "classify-two_blocks": ("classify", None, None),
}

DIGESTS = {
    "run-gmm-high_dim": "dc1f0f9b8746680faf6dd6d6868555f29335ac4ad75585469b702d3712d1365c",
    "run-mor-low_dim": "2dc3d9c3ec0a466447d21a585f426a5b7d7a1fe1b53997cffdb91a8682939f2f",
    "run-rmc-high_dim": "dc9e41fbf7816db0dabc049dda6f028c60efafb78bd7d6acf3d6e99bad1f5ea4",
    "baseline-gmm-high_dim": "ed547c9c960400e764d7765a3760a1be0c43d9bd042eed72dc8603efcf25bc46",
    "baseline-rmc-low_dim": "4ff19b46224b78591e447b318809bc796ae95ae7ee5f24d3721676f315411f79",
    "classify": "f5d22d86db3cee71d3261d58e66845e09b5d6fa5d3acfac07abedb7c2954869d",
    "run-gmm-high_dim-two_blocks":
        "294fed3e0017dca43b833a63d1654ac19422803cbd13f713b953e58387aab22e",
    "run-mor-low_dim-two_blocks":
        "e031635182dd36b847f40452846676c5d2f9b8d8e7a59c1ad70b9e4813c74640",
    "baseline-gmm-high_dim-two_blocks":
        "5b0264ffd44a74929f3a6a389c3c6f8d664653aca8c65474f9ded5c50c6cc983",
    "classify-two_blocks": "8b8c922e7e7135de610e36f077859d272c0499b2546fc6ce435d2326ef202f20",
}


def output_bytes(case, tmp_path) -> bytes:
    """The CSV that ``case``'s command writes, run with ``--jobs 2``."""
    command, model, regime = CASES[case]
    two_blocks = case.endswith("-two_blocks")
    cfg_path, out = tmp_path / "config.json", tmp_path / "out.csv"
    argv = [command, "--config", str(cfg_path), "--out", str(out), "--jobs", "2"]
    if command == "classify":
        cfg = {"s_hat": 10, "epsilon": 0.5, "reps": 4, "master_seed": 11}
        data = tmp_path / "data.csv"
        shape = {"n": 1500, "d": 100} if two_blocks else {"n": 600}
        write_class_csv(data, *make_gmm_class_data(seed=5, **shape))
        argv += ["--data", str(data)]
    elif two_blocks:
        cfg = experiment_config_dict(model=model, regime=regime, d=200, s_star=10,
                                     sweep={"name": "n", "values": [4000, 6000]}, reps=2)
    else:
        cfg = small_config_dict(model, regime)
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(argv) == 0
    return out.read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_are_pinned(tmp_path, case):
    assert hashlib.sha256(output_bytes(case, tmp_path)).hexdigest() == DIGESTS[case]
