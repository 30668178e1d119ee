"""Tests for repro.wire.model: reduced-order delays, exactness, scaling."""

import math

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.obs.metrics import registry
from repro.wire import (WireSegment, WireTree, reduce_tree,
                        scaled_delays, two_pole_step_crossings)
from repro.wire.coupling import (degraded_slew, effective_load,
                                 loaded_params)

LN2 = math.log(2.0)
LN9 = math.log(9.0)


def single_rc(r=1e3, c=1e-12) -> WireTree:
    return WireTree(segments=(WireSegment("n1", "root", r, c),))


def _bisect_step_response(tau1: float, tau2: float,
                          level: float) -> float:
    """Time the two-pole step response reaches *level*, by bisection."""
    def response(t):
        return 1.0 - (tau1 * math.exp(-t / tau1)
                      - tau2 * math.exp(-t / tau2)) / (tau1 - tau2)

    lo, hi = 0.0, 50.0 * tau1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if response(mid) < level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestTwoPoleCrossings:
    def test_single_pole_closed_form(self):
        # b2 = 0 collapses to t = -b1 ln(1 - theta).
        tau = 1e-12
        t10, t50, t90 = two_pole_step_crossings(
            np.array([tau]), np.array([0.0]))
        assert t50[0] == pytest.approx(tau * LN2, rel=1e-12)
        assert (t90[0] - t10[0]) == pytest.approx(tau * LN9,
                                                  rel=1e-12)

    def test_two_stage_ladder_is_exact(self):
        # A 2-stage ladder is exactly second order: the crossing of
        # the bisection must match a brute-force pole solve.
        r, c = 1e3, 1e-15
        tree = WireTree.line(segments=2, resistance=r, capacitance=c)
        timing = reduce_tree(tree, model="two_pole")
        # Poles of the ladder: tau^2 - 3RC tau + (RC)^2 = 0.
        rc = r * c
        tau1 = 0.5 * (3.0 * rc + math.sqrt(5.0) * rc)
        tau2 = 0.5 * (3.0 * rc - math.sqrt(5.0) * rc)
        assert timing.delays()[0] == pytest.approx(
            _bisect_step_response(tau1, tau2, 0.5), rel=1e-9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            two_pole_step_crossings(np.array([0.0]), np.array([0.0]))
        with pytest.raises(ParameterError):
            two_pole_step_crossings(np.array([1e-12]),
                                    np.array([0.0]),
                                    thresholds=(0.0,))

    def test_single_pole_entries_are_the_closed_form(self):
        # b2 <= 0, complex poles and coincident poles (a zero
        # discriminant: b2 = b1²/4 exactly) all take -b1 ln(1 - theta),
        # bit for bit, next to a distinct-pole entry.
        b1 = np.array([1e-12, 3e-12, 2e-12, 1.5e-12, 5e-12])
        b2 = np.array([0.0, -1e-24, 2e-24, 1.5e-12 * 1.5e-12 / 4.0,
                       4e-24])
        levels = (0.05, 0.1, 0.5, 0.9, 0.95)
        out = two_pole_step_crossings(b1, b2, thresholds=levels)
        for index, level in enumerate(levels):
            closed = -b1[:4] * np.log(1.0 - level)
            assert np.array_equal(out[index, :4], closed)
        assert out[2, 4] != -b1[4] * np.log(0.5)

    def test_shape_follows_b1(self):
        tree = WireTree.fanout(branches=4, stem=0, segments=2)
        elmore, m2 = tree.moments()
        nodes = tree.nodes[1:]
        b1 = np.array([elmore[n] for n in nodes])
        b2 = b1 * b1 - np.array([m2[n] for n in nodes])
        flat = two_pole_step_crossings(b1, b2)
        grid = two_pole_step_crossings(b1.reshape(2, 4),
                                       b2.reshape(2, 4))
        assert grid.shape == (3, 2, 4)
        assert np.array_equal(grid.reshape(3, -1), flat)
        for index in (0, 1):
            lone = two_pole_step_crossings(b1[index], b2[index])
            assert lone.shape == (3,)
            assert np.array_equal(
                lone, two_pole_step_crossings(b1[index:index + 1],
                                              b2[index:index + 1])[:, 0])

    def test_matches_scalar_bisection_on_random_trees(self):
        # The ladder test's bisection, per entry and threshold, on
        # every node of seeded random lines and fanouts.
        rng = np.random.default_rng(2024)
        b1, b2 = [], []
        for index in range(16):
            shape = dict(resistance=float(rng.uniform(100.0, 5e3)),
                         capacitance=float(rng.uniform(0.1e-15, 2e-15)),
                         load=float(rng.uniform(0.0, 3e-15)))
            if index % 2:
                tree = WireTree.line(
                    segments=int(rng.integers(2, 24)), **shape)
            else:
                tree = WireTree.fanout(
                    branches=int(rng.integers(1, 5)),
                    stem=int(rng.integers(0, 4)),
                    segments=int(rng.integers(1, 6)), **shape)
            elmore, m2 = tree.moments()
            for node in tree.nodes[1:]:
                b1.append(elmore[node])
                b2.append(elmore[node] ** 2 - m2[node])
        levels = tuple(float(level)
                       for level in np.linspace(0.05, 0.95, 10))
        out = two_pole_step_crossings(np.array(b1), np.array(b2),
                                      thresholds=levels)
        two_pole = 0
        for entry, (first, second) in enumerate(zip(b1, b2)):
            disc = first * first - 4.0 * second
            if second <= 0.0 or disc <= 0.0:
                continue
            two_pole += 1
            tau1 = 0.5 * (first + math.sqrt(disc))
            tau2 = 0.5 * (first - math.sqrt(disc))
            for index, level in enumerate(levels):
                expected = _bisect_step_response(tau1, tau2, level)
                assert out[index, entry] == pytest.approx(expected,
                                                          rel=1e-13)
        assert two_pole > 50

    def test_monotone_in_threshold(self):
        tree = WireTree.line(segments=4)
        elmore, m2 = tree.moments()
        b1 = np.array([elmore[s] for s in tree.sinks])
        b2 = b1 * b1 - np.array([m2[s] for s in tree.sinks])
        levels = (0.1, 0.3, 0.5, 0.7, 0.9)
        out = two_pole_step_crossings(b1, b2, thresholds=levels)
        assert np.all(np.diff(out[:, 0]) > 0.0)


class TestReduceTree:
    def test_single_rc_both_models(self):
        tree = single_rc(1e3, 1e-12)
        tau = 1e-9
        elmore = reduce_tree(tree, model="elmore")
        assert elmore.delays()[0] == pytest.approx(tau)
        assert elmore.slews()[0] == pytest.approx(tau * LN9)
        two = reduce_tree(tree, model="two_pole")
        assert two.delays()[0] == pytest.approx(tau * LN2, rel=1e-9)

    def test_elmore_below_step_crossing_for_deep_lines(self):
        # The 50 % step crossing of an RC line sits below T_D (the
        # impulse-response mean), and both are positive.
        tree = WireTree.line(segments=6)
        two = reduce_tree(tree, model="two_pole")
        elmore = reduce_tree(tree, model="elmore")
        assert 0.0 < two.delays()[0] < elmore.delays()[0]

    def test_unknown_model_rejected(self):
        with pytest.raises(ParameterError, match="unknown wire model"):
            reduce_tree(single_rc(), model="pade")

    def test_timing_lookup(self):
        timing = reduce_tree(WireTree.fanout(branches=2))
        assert timing.timing("b1_2").sink == "b1_2"
        with pytest.raises(ParameterError, match="unknown sink"):
            timing.timing("zz")

    def test_reduction_counter_increments(self):
        from repro.wire.model import _reduction_counter

        before = _reduction_counter("elmore").value
        reduce_tree(single_rc(), model="elmore")
        assert _reduction_counter("elmore").value == before + 1
        assert ("repro_wire_reductions_total"
                in registry().render())


class TestScaledDelays:
    def test_scaling_law_is_exact(self):
        # Uniform R/C scaling multiplies every crossing by rs*cs:
        # compare against a full re-reduction of the scaled tree.
        tree = WireTree.fanout(branches=2, stem=1, segments=2,
                               load=0.3e-15)
        timing = reduce_tree(tree, model="two_pole")
        rs, cs = 1.3, 0.7
        scaled_tree = WireTree(
            segments=tuple(
                WireSegment(s.name, s.parent, s.resistance * rs,
                            s.capacitance * cs, s.load * cs)
                for s in tree.segments),
            sinks=tree.sinks)
        direct = reduce_tree(scaled_tree, model="two_pole").delays()
        fast = scaled_delays(timing, r_scale=rs, c_scale=cs)
        assert np.allclose(fast, direct, rtol=1e-9)

    def test_corner_axis_shape(self):
        timing = reduce_tree(WireTree.fanout(branches=2))
        out = scaled_delays(timing, r_scale=np.ones(5),
                            c_scale=np.linspace(0.8, 1.2, 5))
        assert out.shape == (5, 2)

    def test_rejects_non_positive_scales(self):
        timing = reduce_tree(single_rc())
        with pytest.raises(ParameterError):
            scaled_delays(timing, r_scale=0.0)


class TestCoupling:
    def test_effective_load_adds_total_capacitance(self):
        from repro.core.parameters import PAPER_TABLE_I
        tree = WireTree.line(segments=3, capacitance=0.4e-15)
        assert effective_load(PAPER_TABLE_I, tree) == pytest.approx(
            PAPER_TABLE_I.co + 1.2e-15)

    def test_loaded_params_only_touches_co(self):
        from repro.core.parameters import PAPER_TABLE_I
        tree = WireTree.line(segments=2)
        loaded = loaded_params(PAPER_TABLE_I, tree)
        assert loaded.co > PAPER_TABLE_I.co
        assert loaded.r1 == PAPER_TABLE_I.r1
        assert loaded.cn == PAPER_TABLE_I.cn

    def test_wire_load_slows_the_gate(self):
        from repro.core.parameters import PAPER_TABLE_I
        from repro.engine import get_engine
        tree = WireTree.line(segments=3)
        engine = get_engine("reference")
        bare = engine.delays_falling(PAPER_TABLE_I,
                                     np.array([0.0]))[0]
        loaded = engine.delays_falling(
            loaded_params(PAPER_TABLE_I, tree), np.array([0.0]))[0]
        assert loaded > bare

    def test_degraded_slew_is_rss(self):
        assert degraded_slew(3e-12, 4e-12) == pytest.approx(5e-12)
        assert degraded_slew(3e-12, 0.0) == pytest.approx(3e-12)
