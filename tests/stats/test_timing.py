"""Statistical STA: yield semantics and backend-invariant bytes.

:func:`repro.stats.timing_yield` rides the array-native corner axis
of ``sweep_corners``; these tests pin the vectorized sweep to the
per-corner scalar loop byte-for-byte, and the yield fraction to its
definition.
"""

import math

import numpy as np
import pytest

from repro.api import Session
from repro.core.parameters import PAPER_TABLE_I
from repro.errors import ParameterError
from repro.obs import metrics
from repro.sta import analyze, demo_corners, sweep_corners
from repro.stats import ParameterDistribution, sample_delays, timing_yield
from repro.units import PS

DIST = ParameterDistribution(PAPER_TABLE_I,
                             {"r1": 0.1, "co": 0.08})


@pytest.fixture(scope="module")
def tree_graph():
    return Session().timing_graph("tree")


class TestParity:
    def test_vectorized_matches_scalar_loop(self, tree_graph):
        fast = timing_yield(tree_graph, DIST, samples=24, seed=17,
                            required=260.0 * PS)
        slow = timing_yield(tree_graph, DIST, samples=24, seed=17,
                            required=260.0 * PS, scalar=True)
        assert fast.worst_arrival.tobytes() \
            == slow.worst_arrival.tobytes()
        assert fast.worst_slack.tobytes() \
            == slow.worst_slack.tobytes()
        assert fast.yield_fraction == slow.yield_fraction

    def test_seed_reproducibility(self, tree_graph):
        a = timing_yield(tree_graph, DIST, samples=16, seed=2,
                         arrival_sigma=3.0 * PS)
        b = timing_yield(tree_graph, DIST, samples=16, seed=2,
                         arrival_sigma=3.0 * PS)
        assert a.worst_arrival.tobytes() == b.worst_arrival.tobytes()
        c = timing_yield(tree_graph, DIST, samples=16, seed=3,
                         arrival_sigma=3.0 * PS)
        assert a.worst_arrival.tobytes() != c.worst_arrival.tobytes()


class TestYieldSemantics:
    def test_unconstrained_yield_is_one(self, tree_graph):
        outcome = timing_yield(tree_graph, DIST, samples=12, seed=1)
        assert outcome.required is None
        assert outcome.yield_fraction == 1.0
        assert np.all(outcome.worst_slack == np.inf)

    def test_impossible_requirement_fails_every_corner(
            self, tree_graph):
        outcome = timing_yield(tree_graph, DIST, samples=12, seed=1,
                               required=0.0)
        assert outcome.yield_fraction == 0.0

    def test_generous_requirement_passes_every_corner(
            self, tree_graph):
        outcome = timing_yield(tree_graph, DIST, samples=12, seed=1,
                               required=1.0)
        assert outcome.yield_fraction == 1.0

    def test_yield_is_the_slack_fraction(self, tree_graph):
        outcome = timing_yield(tree_graph, DIST, samples=64, seed=8,
                               required=260.0 * PS)
        assert outcome.yield_fraction \
            == np.mean(outcome.worst_slack >= 0.0)

    def test_arrival_stats_are_reduced_moments(self, tree_graph):
        outcome = timing_yield(tree_graph, DIST, samples=32, seed=4)
        stats = outcome.arrival_stats()
        assert stats["mean"] \
            == pytest.approx(outcome.worst_arrival.mean())
        assert stats["min"] <= stats["mean"] <= stats["max"]
        assert stats["std"] > 0.0


class TestPerInstanceVariation:
    """Independent per-instance draws: block-sliced, deterministic."""

    def test_scalar_parity(self, tree_graph):
        fast = timing_yield(tree_graph, DIST, samples=12, seed=5,
                            per_instance=True)
        slow = timing_yield(tree_graph, DIST, samples=12, seed=5,
                            per_instance=True, scalar=True)
        assert fast.worst_arrival.tobytes() \
            == slow.worst_arrival.tobytes()

    def test_differs_from_shared_variation(self, tree_graph):
        shared = timing_yield(tree_graph, DIST, samples=16, seed=9)
        per = timing_yield(tree_graph, DIST, samples=16, seed=9,
                           per_instance=True)
        assert shared.worst_arrival.tobytes() \
            != per.worst_arrival.tobytes()

    def test_seed_reproducibility(self, tree_graph):
        a = timing_yield(tree_graph, DIST, samples=16, seed=2,
                         per_instance=True)
        b = timing_yield(tree_graph, DIST, samples=16, seed=2,
                         per_instance=True)
        assert a.worst_arrival.tobytes() == b.worst_arrival.tobytes()

    def test_identical_across_engines(self):
        """The block-slicing draw scheme fixes each instance's rows
        up front, so every delay backend sees the same parameters
        and must produce byte-identical arrivals."""
        from repro.engine import available_engines
        from repro.sta import build_timing_graph, sta_circuit

        circuit = sta_circuit("tree")
        outcomes = []
        for name in available_engines():
            graph = build_timing_graph(circuit, engine=name)
            outcomes.append(timing_yield(
                graph, DIST, samples=12, seed=11,
                per_instance=True))
        baseline = outcomes[0].worst_arrival.tobytes()
        for outcome in outcomes[1:]:
            assert outcome.worst_arrival.tobytes() == baseline

    def test_api_passthrough(self):
        from repro.api import StatsRequest

        result = Session().run(StatsRequest(
            method="yield", samples=16, seed=5, per_instance=True))
        assert "(per-instance variation)" in result.text
        shared = Session().run(StatsRequest(
            method="yield", samples=16, seed=5))
        assert "(shared variation)" in shared.text
        assert result.maximum != shared.maximum

    def test_narrows_the_worst_arrival_spread(self, tree_graph):
        """Independent draws average out across the path, so the
        per-instance worst-arrival std must sit below the fully
        correlated (shared) one for the same distribution."""
        shared = timing_yield(tree_graph, DIST, samples=256, seed=3)
        per = timing_yield(tree_graph, DIST, samples=256, seed=3,
                           per_instance=True)
        assert per.arrival_stats()["std"] \
            < shared.arrival_stats()["std"]


def _engine_calls() -> float:
    """Process-wide ``repro_engine_calls_total`` over all labels."""
    children = metrics.registry().get("repro_engine_calls_total") or {}
    return sum(counter.value for counter in children.values())


def _calls_of(function, *args, **kwargs) -> float:
    before = _engine_calls()
    function(*args, **kwargs)
    return _engine_calls() - before


class TestEngineCalls:
    """Engine calls scale with the levels, not with parameter sets."""

    def test_one_call_per_level_and_arc_kind_for_any_corner_axis(self):
        graph = Session().timing_graph("nor3_mixed")
        base = _calls_of(analyze, graph, required=250.0 * PS)
        params, arrivals = demo_corners(64, graph.inputs, seed=4)
        assert _calls_of(sweep_corners, graph, params=params,
                         arrivals=arrivals) == base
        for samples in (1, 8):
            assert _calls_of(timing_yield, graph, DIST,
                             samples=samples, seed=6,
                             required=250.0 * PS,
                             per_instance=True) == base

    @pytest.mark.parametrize("direction", ["falling", "rising"])
    def test_nor3_monte_carlo_is_one_call(self, direction):
        assert _calls_of(sample_delays, DIST, [-5.0 * PS, 0.0, 5.0 * PS],
                         samples=256, direction=direction,
                         gate="nor3") == 1


class TestErrors:
    def test_sample_count(self, tree_graph):
        with pytest.raises(ParameterError, match="at least one"):
            timing_yield(tree_graph, DIST, samples=0)

    def test_negative_jitter(self, tree_graph):
        with pytest.raises(ParameterError, match="arrival_sigma"):
            timing_yield(tree_graph, DIST, samples=4,
                         arrival_sigma=-1.0)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_non_finite_jitter(self, tree_graph, sigma):
        """inf gave a NaN mean with yield 1.0; NaN meant no jitter."""
        with pytest.raises(ParameterError, match="arrival_sigma"):
            timing_yield(tree_graph, DIST, samples=4,
                         arrival_sigma=sigma, required=260.0 * PS)

    @pytest.mark.parametrize("scalar", [False, True])
    def test_nan_requirement(self, tree_graph, scalar):
        """NaN used to fail every corner: yield 0.0."""
        with pytest.raises(ParameterError, match="NaN"):
            timing_yield(tree_graph, DIST, samples=4,
                         required=math.nan, scalar=scalar)
