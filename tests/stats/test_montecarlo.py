"""Vectorized Monte-Carlo sampling: parity, reductions, wiring.

The sampling path flattens N samples x M Δ-points into one block-
kernel engine call; these tests pin it to the ground truth (the
per-sample scalar loop over the reference engine), exercise the
summary reductions, and assert the observability counter.
"""

import numpy as np
import pytest

from repro.core.parameters import PAPER_TABLE_I
from repro.engine import get_engine
from repro.engine.blocks import block_delays_loop
from repro.errors import ParameterError
from repro.stats import (QUANT_STEP, ParameterDistribution,
                         monte_carlo, quantize, sample_delays)
from repro.stats.montecarlo import evaluate_block
from repro.units import PS

DIST = ParameterDistribution(
    PAPER_TABLE_I, {"r1": 0.08, "r2": 0.08, "cn": 0.08, "co": 0.08})
#: Both falling branches, the SIS point, and the infinite-separation
#: limits.
DELTAS = (-30.0 * PS, 0.0, 25.0 * PS, float("inf"), float("-inf"))


class TestQuantize:
    def test_snaps_to_the_grid(self):
        values = np.array([1.23456789e-12, 7.7e-11, 3.21e-13])
        q = quantize(values)
        ratio = q / QUANT_STEP
        assert np.array_equal(ratio, np.round(ratio))
        assert np.allclose(q, values, rtol=1e-3)

    def test_infinities_pass_through(self):
        q = quantize(np.array([np.inf, -np.inf, 5e-12]))
        assert q[0] == np.inf and q[1] == -np.inf

    def test_idempotent(self):
        values = quantize(np.array([4.2e-12, 9.9e-13]))
        assert np.array_equal(quantize(values), values)


class TestBlockParity:
    """Vectorized sampling == scalar reference loop, byte-for-byte."""

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    @pytest.mark.parametrize("direction,vn_init", [
        ("falling", 0.0), ("rising", 0.0), ("rising", 0.35),
    ])
    def test_nor2_blocks_go_straight_to_the_closed_form(
            self, engine, direction, vn_init):
        """A nor2 block reaches the engine's block entry point as it
        is, without a detour through the n-input kind."""
        backend = get_engine(engine)
        block = DIST.sample_block(24, seed=5)
        grid = np.broadcast_to(np.asarray(DELTAS), (24, len(DELTAS)))
        got = evaluate_block(backend, "nor2", direction, block, grid,
                             vn_init)
        entry = getattr(backend, f"delays_{direction}_block")
        expected = (entry(block, grid) if direction == "falling"
                    else entry(block, grid, vn_init))
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("direction,vn_init", [
        ("falling", 0.0), ("rising", 0.0), ("rising", 0.35),
    ])
    def test_matches_reference_loop(self, direction, vn_init):
        fast = sample_delays(DIST, DELTAS, samples=48, seed=9,
                             direction=direction, vn_init=vn_init)
        block = DIST.sample_block(48, seed=9)
        grid = np.broadcast_to(np.asarray(DELTAS), (48, len(DELTAS)))
        slow = quantize(block_delays_loop(
            get_engine("reference"), direction, block, grid,
            vn_init))
        assert fast.shape == (48, len(DELTAS))
        assert np.array_equal(fast, slow)

    def test_wider_gates_sample(self):
        matrix = sample_delays(DIST, (0.0, 10.0 * PS), samples=16,
                               seed=1, gate="nor3")
        again = sample_delays(DIST, (0.0, 10.0 * PS), samples=16,
                              seed=1, gate="nor3")
        assert matrix.shape == (16, 2)
        assert np.isfinite(matrix).all()
        assert np.array_equal(matrix, again)


class TestSummaries:
    def test_moments_match_numpy(self):
        summary = monte_carlo(DIST, DELTAS[:3], samples=256, seed=4)
        matrix = sample_delays(DIST, DELTAS[:3], samples=256, seed=4)
        assert summary.method == "mc"
        assert summary.samples == 256
        assert np.array_equal(summary.mean, matrix.mean(axis=0))
        assert np.array_equal(summary.std, matrix.std(axis=0,
                                                      ddof=1))
        assert np.array_equal(summary.minimum, matrix.min(axis=0))
        assert np.array_equal(summary.maximum, matrix.max(axis=0))

    def test_percentiles_are_ordered(self):
        summary = monte_carlo(DIST, (0.0,), samples=128, seed=4,
                              percentiles=(5.0, 50.0, 95.0))
        column = [row[0] for row in summary.percentile_values]
        assert column == sorted(column)
        assert np.array_equal(summary.percentile_levels,
                              (5.0, 50.0, 95.0))

    def test_histograms_are_optional(self):
        plain = monte_carlo(DIST, (0.0,), samples=64, seed=4)
        assert plain.histogram_edges is None
        binned = monte_carlo(DIST, (0.0,), samples=64, seed=4,
                             bins=8)
        assert len(binned.histogram_edges[0]) == 9
        assert sum(binned.histogram_counts[0]) == 64

    def test_samples_counter_increments(self):
        from repro.stats.montecarlo import _counter
        counter = _counter("mc")
        before = counter.value
        monte_carlo(DIST, (0.0,), samples=32, seed=0)
        assert counter.value == before + 32


class TestErrors:
    def test_unknown_gate(self):
        with pytest.raises(ParameterError, match="unknown gate"):
            sample_delays(DIST, (0.0,), samples=4, gate="nand2")

    def test_bad_direction(self):
        with pytest.raises(ParameterError, match="direction"):
            sample_delays(DIST, (0.0,), samples=4,
                          direction="sideways")

    def test_bad_sample_count(self):
        with pytest.raises(ParameterError, match="at least one"):
            sample_delays(DIST, (0.0,), samples=0)

    def test_nan_delta(self):
        with pytest.raises(ParameterError, match="NaN"):
            sample_delays(DIST, (float("nan"),), samples=4)
