"""The levelized propagation core on generated netlists.

Netlists come from the benchmark's own generator
(``perfbench/netgen.py``), imported from the repository root; the
generator is used as is, with its module constants changed only where
a test says so.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from repro.core.parameters import PAPER_TABLE_I
from repro.obs import metrics, trace
from repro.sta import (TimingNode, analyze, build_timing_graph,
                       demo_corners, sweep_corners, sweep_corners_scalar)
from repro.stats import ParameterDistribution
from repro.timing import DigitalTrace, simulate
from repro.units import PS

REPO_DIR = str(Path(__file__).resolve().parents[2])

#: STA-vs-simulation bound and vectorized-vs-scalar sweep bound.
SIM_TOL = 0.1 * PS
SWEEP_TOL = 1e-15


@pytest.fixture
def netgen(monkeypatch):
    monkeypatch.syspath_prepend(REPO_DIR)
    from perfbench import netgen
    return netgen


def _engine_calls() -> float:
    children = metrics.registry().get("repro_engine_calls_total") or {}
    return float(sum(counter.value for counter in children.values()))


def _max_difference(left, right) -> float:
    worst = 0.0
    for node, values in left.arrivals.items():
        other = right.arrivals[node]
        finite = np.isfinite(values)
        assert np.array_equal(finite, np.isfinite(other))
        assert np.array_equal(values[~finite], other[~finite])
        if finite.any():
            worst = max(worst, float(np.max(np.abs(values[finite]
                                                   - other[finite]))))
    return worst


class TestPlan:
    def test_levels_read_only_earlier_rows(self, netgen):
        graph = build_timing_graph(netgen.generate_netlist(3, 60).circuit)
        plan = graph.plan
        assert plan.nodes == tuple(graph.nodes())
        written = np.zeros(len(plan.nodes), dtype=bool)
        written[:plan.inputs] = True
        for level in plan.levels:
            for group in level.groups:
                assert written[group.pins].all()
            assert not written[level.targets].any()
            written[level.targets] = True
        evaluations = sum(group.size for group in plan.groups)
        assert evaluations == plan.evaluations
        assert len(plan.arc_eval) == len(graph.arcs)

    def test_arcs_of_one_mis_output_share_an_evaluation(self, netgen):
        graph = build_timing_graph(netgen.generate_netlist(5, 40).circuit)
        plan = graph.plan
        shared: dict = {}
        for index, arc in enumerate(graph.arcs):
            if arc.is_mis:
                key = (arc.instance, arc.target)
                assert shared.setdefault(key, plan.arc_eval[index]) \
                    == plan.arc_eval[index]
        assert len(set(plan.arc_eval.tolist())) == plan.evaluations


class TestAgainstSimulation:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_arrivals_match_the_simulator(self, netgen, seed):
        """Every input rises once; each simulated transition sits
        within 0.1 ps of the STA arrival of the same polarity."""
        circuit = netgen.generate_netlist(seed, gates=40, inputs=8,
                                          levels=6).circuit
        rng = np.random.default_rng(seed)
        times = {signal: 100.0 * PS + float(rng.uniform(0.0, 30.0 * PS))
                 for signal in circuit.inputs}
        graph = build_timing_graph(circuit)
        result = analyze(graph, arrivals={signal: (time, -math.inf)
                                          for signal, time
                                          in times.items()},
                         top_paths=1)
        simulated = simulate(circuit, {
            signal: DigitalTrace(0, [(time, 1)])
            for signal, time in times.items()})
        compared = 0
        for signal in graph.signal_order:
            for time, value in simulated[signal].transitions:
                node = TimingNode(signal, "rise" if value else "fall")
                assert result.arrivals[node] == pytest.approx(
                    time, abs=SIM_TOL)
                compared += 1
        assert compared >= 40


class TestSweepParity:
    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_shared_block_axis(self, netgen, mode):
        graph = build_timing_graph(netgen.generate_netlist(21, 60)
                                   .circuit)
        params, arrivals = demo_corners(6, graph.inputs, seed=2)
        fast = sweep_corners(graph, params=params, arrivals=arrivals,
                             mode=mode)
        slow = sweep_corners_scalar(graph, params=params,
                                    arrivals=arrivals, mode=mode)
        assert _max_difference(fast, slow) <= SWEEP_TOL

    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_per_instance_dict_axis(self, netgen, mode):
        graph = build_timing_graph(netgen.generate_netlist(22, 60)
                                   .circuit)
        names = [instance.name for instance in graph.circuit.instances]
        corners = 5
        block = ParameterDistribution(
            PAPER_TABLE_I, {"r1": 0.05, "r3": 0.05, "co": 0.05}
        ).sample_block(corners * len(names), 9)
        params = {name: block[k * corners:(k + 1) * corners]
                  for k, name in enumerate(names[::2])}
        rng = np.random.default_rng(4)
        arrivals = {signal: rng.uniform(0.0, 30.0 * PS, corners)
                    for signal in graph.inputs}
        fast = sweep_corners(graph, params=params, arrivals=arrivals,
                             mode=mode)
        slow = sweep_corners_scalar(graph, params=params,
                                    arrivals=arrivals, mode=mode)
        assert _max_difference(fast, slow) <= SWEEP_TOL


class TestEngineCalls:
    def _sweep_calls(self, graph) -> float:
        params, arrivals = demo_corners(8, graph.inputs, seed=1)
        before = _engine_calls()
        sweep_corners(graph, params=params, arrivals=arrivals)
        return _engine_calls() - before

    def test_calls_do_not_grow_with_gates(self, netgen, monkeypatch):
        """Without wires every gate sits on its generator level, so
        200 and 1,000 gates give the same depth — and the same calls:
        one per level, gate width and direction."""
        monkeypatch.setattr(netgen, "WIRE_SHARE", 0.0)
        counts = []
        for gates in (200, 1000):
            graph = build_timing_graph(
                netgen.generate_netlist(1234, gates).circuit)
            assert len(graph.plan.levels) == 10
            counts.append(self._sweep_calls(graph))
            assert counts[-1] == graph.plan.engine_groups()
        assert counts[0] == counts[1] == 40

    @pytest.mark.parametrize("gates", [200, 1000])
    def test_calls_are_the_plan_groups(self, netgen, gates):
        """With wires, the count is the plan's engine-backed groups:
        at most the four NOR2/NOR3 rise/fall kinds per level."""
        graph = build_timing_graph(
            netgen.generate_netlist(1234, gates).circuit)
        calls = self._sweep_calls(graph)
        assert calls == graph.plan.engine_groups()
        assert calls <= 4 * len(graph.plan.levels)


class TestTracing:
    def test_one_level_span_per_plan_level(self, netgen):
        graph = build_timing_graph(netgen.generate_netlist(8, 40).circuit)
        tracer = trace.configure("mem")
        try:
            analyze(graph, required=300.0 * PS)
            records = tracer.records()
        finally:
            trace.unconfigure()
        (propagate,) = [r for r in records if r["name"] == "sta.propagate"]
        levels = [r for r in records if r["name"] == "sta.level"]
        assert len(levels) == len(graph.plan.levels)
        assert [r["attrs"]["level"] for r in levels] \
            == list(range(len(graph.plan.levels)))
        for record, level in zip(levels, graph.plan.levels):
            assert record["parent"] == propagate["id"]
            assert record["attrs"]["groups"] == len(level.groups)
            assert record["attrs"]["lanes"] == level.stop - level.first
