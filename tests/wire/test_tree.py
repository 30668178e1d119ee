"""Tests for repro.wire.tree: topology validation and exact moments."""

import math

import pytest

from repro.errors import NetlistError, ParameterError
from repro.wire import WireSegment, WireTree


class TestWireSegment:
    def test_valid(self):
        segment = WireSegment("n1", "root", 1e3, 1e-15, load=2e-15)
        assert segment.load == 2e-15

    @pytest.mark.parametrize("name", ["", "root"])
    def test_bad_name_rejected(self, name):
        with pytest.raises(ParameterError):
            WireSegment(name, "root", 1e3, 1e-15)

    @pytest.mark.parametrize("resistance",
                             [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_resistance_rejected(self, resistance):
        with pytest.raises(ParameterError):
            WireSegment("n1", "root", resistance, 1e-15)

    @pytest.mark.parametrize("capacitance", [-1e-18, float("nan")])
    def test_bad_capacitance_rejected(self, capacitance):
        with pytest.raises(ParameterError):
            WireSegment("n1", "root", 1e3, capacitance)

    def test_bad_load_rejected(self):
        with pytest.raises(ParameterError):
            WireSegment("n1", "root", 1e3, 1e-15, load=-1e-18)


class TestWireTreeValidation:
    def test_empty_rejected(self):
        with pytest.raises(NetlistError):
            WireTree(segments=())

    def test_duplicate_name_rejected(self):
        with pytest.raises(NetlistError, match="duplicate"):
            WireTree(segments=(
                WireSegment("n1", "root", 1e3, 1e-15),
                WireSegment("n1", "root", 1e3, 1e-15)))

    def test_forward_parent_rejected(self):
        with pytest.raises(NetlistError, match="not declared"):
            WireTree(segments=(
                WireSegment("n2", "n1", 1e3, 1e-15),
                WireSegment("n1", "root", 1e3, 1e-15)))

    def test_unknown_sink_rejected(self):
        with pytest.raises(NetlistError, match="no wire segment"):
            WireTree(segments=(
                WireSegment("n1", "root", 1e3, 1e-15),),
                sinks=("zz",))

    def test_duplicate_sink_rejected(self):
        with pytest.raises(NetlistError, match="duplicate sink"):
            WireTree(segments=(
                WireSegment("n1", "root", 1e3, 1e-15),),
                sinks=("n1", "n1"))

    def test_default_sinks_are_leaves(self):
        tree = WireTree.fanout(branches=2, stem=1, segments=2)
        assert tree.sinks == ("b1_2", "b2_2")

    def test_nodes_root_first(self):
        tree = WireTree.line(segments=2)
        assert tree.nodes == ("root", "n1", "n2")


class TestBuilders:
    def test_line_shape(self):
        tree = WireTree.line(segments=3, resistance=2e3,
                             capacitance=0.4e-15, load=1e-15)
        assert len(tree.segments) == 3
        assert tree.sinks == ("n3",)
        # Load lands on the last segment only.
        assert tree.segments[-1].load == 1e-15
        assert tree.segments[0].load == 0.0

    def test_line_rejects_zero_segments(self):
        with pytest.raises(ParameterError):
            WireTree.line(segments=0)

    def test_fanout_rejects_bad_shape(self):
        with pytest.raises(ParameterError):
            WireTree.fanout(branches=0)
        with pytest.raises(ParameterError):
            WireTree.fanout(stem=-1)
        with pytest.raises(ParameterError):
            WireTree.fanout(segments=0)

    def test_total_capacitance(self):
        tree = WireTree.line(segments=4, capacitance=0.5e-15,
                             load=1e-15)
        assert tree.total_capacitance() == pytest.approx(3e-15)

    def test_describe(self):
        text = WireTree.line(segments=2).describe()
        assert "2 segments" in text and "n2" in text


class TestMoments:
    def test_single_rc(self):
        tree = WireTree(segments=(
            WireSegment("n1", "root", 1e3, 1e-15),))
        assert tree.elmore_delays()["n1"] == pytest.approx(1e-12)
        elmore, m2 = tree.moments()
        assert m2["n1"] == pytest.approx(1e-24)

    def test_uniform_ladder_closed_form(self):
        # T_D(last of N) = R*C * sum_{k=1..N} k  for per-segment R, C.
        n, r, c = 5, 2e3, 0.4e-15
        tree = WireTree.line(segments=n, resistance=r, capacitance=c)
        expected = r * c * sum(range(1, n + 1))
        assert tree.elmore_delays()[f"n{n}"] == pytest.approx(expected)

    def test_two_stage_by_hand(self):
        # R1(C1+C2) + R2*C2 with R=1k, C=1f per stage: 3e-12.
        tree = WireTree.line(segments=2, resistance=1e3,
                             capacitance=1e-15)
        assert tree.elmore_delays()["n2"] == pytest.approx(3e-12)
        # m2(n2) = R1*(C1*T1 + C2*T2) + R2*C2*T2 with T1=2ps, T2=3ps.
        _, m2 = tree.moments()
        t1, t2 = 2e-12, 3e-12
        expected = (1e3 * (1e-15 * t1 + 1e-15 * t2)
                    + 1e3 * 1e-15 * t2)
        assert m2["n2"] == pytest.approx(expected)

    def test_symmetric_fanout_sinks_match(self):
        tree = WireTree.fanout(branches=3, stem=2, segments=2,
                               load=1e-15)
        delays = tree.elmore_delays()
        values = [delays[sink] for sink in tree.sinks]
        assert all(math.isclose(v, values[0]) for v in values)

    def test_downstream_capacitance_root_children(self):
        tree = WireTree.fanout(branches=2, stem=1, segments=1,
                               capacitance=1e-15, load=0.5e-15)
        down = tree.downstream_capacitance()
        assert down["s1"] == pytest.approx(4e-15)
        assert down["b1_1"] == pytest.approx(1.5e-15)

    def test_moments_build_the_child_map_a_bounded_number_of_times(
            self, monkeypatch):
        # One child map per pass, not one per segment: the pass stays
        # linear in the tree size.
        calls = []
        children = WireTree.children

        def counted(tree):
            calls.append(1)
            assert len(calls) <= 2, "child map rebuilt per segment"
            return children(tree)

        monkeypatch.setattr(WireTree, "children", counted)
        tree = WireTree.line(segments=20_000)
        elmore, m2 = tree.moments()
        assert elmore["n20000"] > elmore["n19999"] > 0.0
        assert m2["n20000"] > 0.0
