"""The lazy sample every driver reads front to back: draws, read order, equivalence, memory."""

import gc
import math
import weakref
from dataclasses import fields

import numpy as np
import pytest

from helpers import bits, traced_peak_bytes

from dpem.em_engine import EmConfig, nonprivate_em, run_high_dim, run_low_dim
from dpem.harness import default_beta_star, parse_experiment_config, run_experiment
from dpem.mechanisms import NoiseOracle, PrivacyBudget
from dpem.models import LazySample, ModelSpec, generate

KINDS = ("gmm", "mor", "rmc")


def spec_of(kind, d=12, s_star=3):
    return ModelSpec(kind, d, 0.5, default_beta_star(d, s_star),
                     missing_prob=0.2 if kind == "rmc" else 0.0)


def concatenated(batches):
    """One batch holding the rows of ``batches`` in order."""
    return type(batches[0])(*(np.concatenate([getattr(b, f.name) for b in batches])
                              for f in fields(batches[0])))


class TestGenerateOut:
    @pytest.mark.parametrize("draw", ["uniform_centered"])
    def test_oracle_out_is_the_same_stream(self, draw):
        out = np.empty((4, 3))
        got = getattr(NoiseOracle(8), draw)((4, 3), out=out)
        assert got is out
        np.testing.assert_array_equal(bits(out), bits(getattr(NoiseOracle(8), draw)((4, 3))))


class TestReadOrder:
    def test_len_is_n_and_batches_are_read_in_order_once(self):
        sample = LazySample(spec_of("gmm"), 23, NoiseOracle(2))
        assert len(sample) == 23
        assert len(sample[0:5]) == 5
        for key, got in ((slice(0, 5), "0:5:1"), (slice(6, 9), "6:9:1"), (slice(5, 5), "5:5:1"),
                         (slice(5, 10, 2), "5:10:2"), (slice(-3, None), "20:23:1")):
            with pytest.raises(ValueError, match=r"^a LazySample is read once, front to back: "
                               rf"the next read must start at 5 and hold a row, got \[{got}\]$"):
                sample[key]
        with pytest.raises(TypeError):
            sample[5]
        # Reads may have any length; the last is clipped to n.
        assert [len(sample[5:16]), len(sample[16:17]), len(sample[17:40])] == [11, 1, 6]
        with pytest.raises(ValueError, match=r"start at 23 and hold a row, got \[23:23:1\]"):
            sample[23:30]

    def test_a_read_batch_is_not_kept(self):
        sample = LazySample(spec_of("gmm"), 23, NoiseOracle(2))
        batch = weakref.ref(sample[0:5])
        gc.collect()
        assert batch() is None
        assert len(sample[5:10]) == 5

    def test_only_the_batches_are_drawn(self):
        # Reads of 4, 11 and 3 rows consume the stream as three draws of
        # those sizes; the 5 rows never read are never drawn.
        for kind in KINDS:
            spec = spec_of(kind)
            lazy_oracle, eager_oracle = NoiseOracle(3), NoiseOracle(3)
            sample = LazySample(spec, 23, lazy_oracle)
            for lo, hi in ((0, 4), (4, 15), (15, 18)):
                got, want = sample[lo:hi], generate(spec, hi - lo, eager_oracle)
                for f in fields(want):
                    np.testing.assert_array_equal(bits(getattr(got, f.name)),
                                                  bits(getattr(want, f.name)))
            assert lazy_oracle.standard_normal() == eager_oracle.standard_normal()

    @pytest.mark.parametrize("n", [0, 2.5])
    def test_bad_sizes_are_refused(self, n):
        with pytest.raises(ValueError, match="^n must be a positive integer"):
            LazySample(spec_of("gmm"), n, NoiseOracle(1))

    @pytest.mark.parametrize("kind", KINDS)
    def test_nonprivate_em_reads_the_lazy_sample_in_one_draw(self, kind):
        spec = spec_of(kind)
        config = EmConfig(0.5, math.inf, 4, PrivacyBudget(math.inf, 1e-3))
        beta0 = np.full(spec.d, 0.1)
        lazy = nonprivate_em(spec, LazySample(spec, 40, NoiseOracle(1)), config, beta0)
        eager = nonprivate_em(spec, generate(spec, 40, NoiseOracle(1)), config, beta0)
        np.testing.assert_array_equal(bits(lazy), bits(eager))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("regime", ["high_dim", "low_dim"])
def test_private_run_equals_a_run_on_the_same_per_batch_draws(kind, regime):
    spec = spec_of(kind)
    n, N0 = 103, 5
    size = n // N0
    config = EmConfig(0.5, 1.5, N0, PrivacyBudget(0.8, 1e-3),
                      3 if regime == "high_dim" else None)
    data = NoiseOracle(17)
    batch = concatenated([generate(spec, size, data) for _ in range(N0)]
                         + [generate(spec, n % N0, data)])
    beta0 = np.zeros(spec.d)
    beta0[:3] = 0.4
    run = run_high_dim if regime == "high_dim" else run_low_dim
    lazy = run(spec, LazySample(spec, n, NoiseOracle(17)), config, beta0, NoiseOracle(5))
    eager = run(spec, batch, config, beta0, NoiseOracle(5))
    np.testing.assert_array_equal(bits(lazy), bits(eager))


def test_private_cell_holds_one_batch_not_the_sample():
    # A high-dim gmm cell at n = 6000, d = 200 reads 9 batches of 666 rows;
    # drawn one at a time, it peaks below half of the full
    # sample's n * d * 8 bytes.  The baseline, which holds the full sample,
    # peaks above it, so the probe sees the sample.
    n, d = 6000, 200
    config = parse_experiment_config({
        "model": "gmm", "regime": "high_dim", "sweep": {"name": "n", "values": [n]},
        "fixed": {"d": d, "s_star": 10, "epsilon": 0.5, "reps": 1}, "master_seed": 3})
    sample_bytes = n * d * 8
    private_peak, _ = traced_peak_bytes(lambda: run_experiment(config))
    baseline_peak, _ = traced_peak_bytes(lambda: run_experiment(config, engine="nonprivate"))
    assert private_peak < sample_bytes / 2
    assert baseline_peak > sample_bytes
