"""The lazy sample of the private runs: draws, read order, equivalence, memory."""

import math
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
    @pytest.mark.parametrize("kind", KINDS)
    def test_out_is_filled_with_the_fresh_draw(self, kind):
        spec = spec_of(kind)
        fresh = generate(spec, 37, NoiseOracle(4))
        out = generate(spec, 37, NoiseOracle(99))
        again = generate(spec, 37, NoiseOracle(4), out=out)
        for f in fields(fresh):
            got, want = getattr(again, f.name), getattr(fresh, f.name)
            assert np.shares_memory(got, getattr(out, f.name))
            np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))

    @pytest.mark.parametrize("kind", KINDS)
    def test_out_of_another_kind_or_length_is_refused(self, kind):
        spec = spec_of(kind)
        other = spec_of("mor" if kind == "gmm" else "gmm")
        with pytest.raises(ValueError, match="^out must be a"):
            generate(spec, 5, NoiseOracle(1), out=generate(spec, 6, NoiseOracle(1)))
        with pytest.raises(ValueError, match="^out must be a"):
            generate(spec, 5, NoiseOracle(1), out=generate(other, 5, NoiseOracle(1)))

    @pytest.mark.parametrize("draw", ["standard_normal", "uniform_centered"])
    def test_oracle_out_is_the_same_stream(self, draw):
        out = np.empty((4, 3))
        got = getattr(NoiseOracle(8), draw)((4, 3), out=out)
        assert got is out
        np.testing.assert_array_equal(bits(out), bits(getattr(NoiseOracle(8), draw)((4, 3))))


class TestReadOrder:
    def test_len_is_n_and_batches_are_read_in_order_once(self):
        sample = LazySample(spec_of("gmm"), 23, 5, NoiseOracle(2))
        assert len(sample) == 23
        first = sample[0:5]
        assert len(first) == 5
        with pytest.raises(ValueError, match=r"expected \[5:10\], got \[0:5\]"):
            sample[0:5]
        with pytest.raises(ValueError, match=r"expected \[5:10\], got \[10:15\]"):
            sample[10:15]
        with pytest.raises(ValueError, match=r"got \[5:9\]"):
            sample[5:9]
        with pytest.raises(ValueError):
            sample[5:10:2]
        with pytest.raises(TypeError):
            sample[5]
        second = sample[5:10]
        assert np.shares_memory(first.y, second.y)  # one batch, reused
        sample[10:15], sample[15:20]
        with pytest.raises(ValueError, match=r"got \[20:23\]"):
            sample[20:25]

    def test_only_the_batches_are_drawn(self):
        # Four reads of 5 rows consume the stream as four 5-row draws; the
        # n mod 5 = 3 trailing rows are never drawn.
        spec = spec_of("mor")
        lazy_oracle, eager_oracle = NoiseOracle(3), NoiseOracle(3)
        sample = LazySample(spec, 23, 5, lazy_oracle)
        for lo in range(0, 20, 5):
            got = sample[lo:lo + 5]
            want = generate(spec, 5, eager_oracle)
            np.testing.assert_array_equal(bits(got.x), bits(want.x))
            np.testing.assert_array_equal(bits(got.y), bits(want.y))
        assert lazy_oracle.standard_normal() == eager_oracle.standard_normal()

    @pytest.mark.parametrize("n, batch_size", [(0, 1), (5, 0), (4, 5), (5, 2.5)])
    def test_bad_sizes_are_refused(self, n, batch_size):
        with pytest.raises(ValueError):
            LazySample(spec_of("gmm"), n, batch_size, NoiseOracle(1))

    def test_nonprivate_em_refuses_the_lazy_sample(self):
        spec = spec_of("gmm")
        config = EmConfig(0.5, math.inf, 4, PrivacyBudget(math.inf, 1e-3))
        sample = LazySample(spec, 40, 10, NoiseOracle(1))
        with pytest.raises(ValueError, match="whole sample every iteration"):
            nonprivate_em(spec, sample, config, np.zeros(spec.d))


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
    lazy = run(spec, LazySample(spec, n, size, NoiseOracle(17)), config, beta0, NoiseOracle(5))
    eager = run(spec, batch, config, beta0, NoiseOracle(5))
    np.testing.assert_array_equal(bits(lazy), bits(eager))


def test_private_cell_holds_one_batch_not_the_sample():
    # A high-dim gmm cell at n = 6000, d = 200 reads 9 batches of 666 rows;
    # drawn one at a time into one buffer, it peaks below half of the full
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
