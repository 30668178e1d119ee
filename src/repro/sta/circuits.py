"""The paper's NOR test circuits, packaged for STA and simulation.

Small feed-forward circuits built from the paper's two-input hybrid
NOR element — the same netlists drive the STA-vs-event-simulation
cross-validation (:func:`repro.analysis.experiments.experiment_sta`),
the ``repro sta`` CLI, and the corner-sweep benchmark.  Each builder
returns a :class:`~repro.timing.TimingCircuit` whose instances carry
:class:`~repro.timing.channels.HybridNorChannel` delays, so event
simulation and STA read the exact same model.

* ``nor2`` — the paper's single NOR gate (Section VI's device under
  test): inputs ``a``, ``b``, output ``y``.
* ``chain`` — NOR inverter chain: each stage ties both pins to the
  previous signal (``Δ = 0`` MIS points all the way down).
* ``tree`` — a balanced NOR reduction tree over four inputs
  (``a`` … ``d``), mixing earlier/later references per level.
* ``nor3`` / ``nor3_mixed`` — a generalized 3-input NOR, alone and
  feeding a paper NOR2 (mixed-width MIS conditioning).
* ``chain_wire`` / ``tree_wire`` — the wired variants: RC
  interconnect (:class:`~repro.wire.WireTree`) between stages, with
  the driving gates re-parameterized through
  :func:`repro.wire.loaded_params` so they price the wire load.

``repro sta --validate`` checks STA against event simulation of these
channels and builds no transistor-level cell.  The analog counterparts
come from :func:`repro.spice.technology.stamp_gate`: the wired circuits
of :mod:`repro.wire.spice` and, for one gate,
:func:`repro.analysis.characterization.mis_delay`.
"""

from __future__ import annotations

import numpy as np

from ..core.multi_input import paper_generalized
from ..core.parameters import PAPER_TABLE_I, NorGateParameters
from ..errors import ParameterError
from ..timing.channels.hybrid import HybridNorChannel
from ..timing.channels.multi_input import GeneralizedNorChannel
from ..timing.circuit import TimingCircuit
from ..units import PS
from ..wire.coupling import loaded_params
from ..wire.tree import WireTree

__all__ = ["STA_CIRCUITS", "sta_circuit", "single_nor", "nor_chain",
           "nor_tree", "single_nor3", "nor3_mixed", "nor_chain_wire",
           "nor_tree_wire", "demo_wire_line", "demo_wire_fanout",
           "demo_corners"]


def single_nor(params: NorGateParameters = PAPER_TABLE_I
               ) -> TimingCircuit:
    """One hybrid NOR: inputs ``a``, ``b``, output ``y``."""
    circuit = TimingCircuit(["a", "b"])
    circuit.add_hybrid_nor("g0", "a", "b", "y",
                           HybridNorChannel(params))
    return circuit


def nor_chain(params: NorGateParameters = PAPER_TABLE_I,
              stages: int = 3) -> TimingCircuit:
    """NOR-as-inverter chain: stage *i* NORs the previous signal
    with itself (both pins tied), so every stage sits at the paper's
    ``Δ = 0`` MIS point.

    Parameters
    ----------
    params : NorGateParameters, optional
        Electrical parameters shared by all stages.
    stages : int, optional
        Number of NOR stages (default 3, at least 1).
    """
    if stages < 1:
        raise ParameterError("chain needs at least 1 stage")
    circuit = TimingCircuit(["a"])
    previous = "a"
    for index in range(stages):
        output = f"n{index + 1}" if index < stages - 1 else "y"
        circuit.add_hybrid_nor(f"g{index}", previous, previous,
                               output, HybridNorChannel(params))
        previous = output
    return circuit


def nor_tree(params: NorGateParameters = PAPER_TABLE_I
             ) -> TimingCircuit:
    """Balanced two-level NOR tree over inputs ``a`` … ``d``.

    Level one NORs ``(a, b)`` and ``(c, d)``; level two NORs the two
    intermediate signals into ``y`` — a miniature reduction tree
    whose root delay depends on the MIS alignment of *both* levels.
    """
    circuit = TimingCircuit(["a", "b", "c", "d"])
    circuit.add_hybrid_nor("g0", "a", "b", "n1",
                           HybridNorChannel(params))
    circuit.add_hybrid_nor("g1", "c", "d", "n2",
                           HybridNorChannel(params))
    circuit.add_hybrid_nor("g2", "n1", "n2", "y",
                           HybridNorChannel(params))
    return circuit


def single_nor3(params: NorGateParameters = PAPER_TABLE_I
                ) -> TimingCircuit:
    """One generalized 3-input NOR: inputs ``a``–``c``, output ``y``.

    Parameters
    ----------
    params : NorGateParameters, optional
        2-input base set widened through
        :func:`repro.core.multi_input.paper_generalized` (the
        ``repro sta`` circuits share one parameter knob).
    """
    circuit = TimingCircuit(["a", "b", "c"])
    circuit.add_mis_gate(
        "g0", ["a", "b", "c"], "y",
        GeneralizedNorChannel(paper_generalized(3, params)))
    return circuit


def nor3_mixed(params: NorGateParameters = PAPER_TABLE_I
               ) -> TimingCircuit:
    """A NOR3 feeding a 2-input NOR — mixed-width MIS conditioning.

    The 3-input gate reduces ``a``–``c`` into ``n1``; a paper NOR2
    combines ``n1`` with input ``d`` into ``y``, so the root delay
    depends on a Δ-vector at the first level and a scalar Δ at the
    second.
    """
    circuit = TimingCircuit(["a", "b", "c", "d"])
    circuit.add_mis_gate(
        "g0", ["a", "b", "c"], "n1",
        GeneralizedNorChannel(paper_generalized(3, params)))
    circuit.add_hybrid_nor("g1", "n1", "d", "y",
                           HybridNorChannel(params))
    return circuit


def demo_wire_line(segments: int = 3) -> WireTree:
    """The default inter-stage wire of ``chain_wire``: a 3-stage
    2 kΩ / 0.4 fF-per-segment line (≈ 1.2 fF total — twice the
    paper's intrinsic ``co``, a realistically heavy route)."""
    return WireTree.line(segments=segments, resistance=2e3,
                         capacitance=0.4e-15)


def demo_wire_fanout() -> WireTree:
    """The default fanout wire of ``tree_wire``: one stem segment
    splitting into two 2-segment branches (same per-segment RC as
    :func:`demo_wire_line`)."""
    return WireTree.fanout(branches=2, stem=1, segments=2,
                           resistance=2e3, capacitance=0.4e-15)


def nor_chain_wire(params: NorGateParameters = PAPER_TABLE_I,
                   stages: int = 2,
                   tree: WireTree | None = None) -> TimingCircuit:
    """The ``chain`` circuit with RC wire between the stages.

    Stage *i* is a tied-input NOR (``Δ = 0`` MIS point) driving
    ``o<i+1>``; every stage but the last feeds a copy of *tree*
    whose sink signal ``m<i+1>`` drives the next stage.  Driving
    gates carry :func:`repro.wire.loaded_params` so the hybrid model
    prices the wire capacitance; the transistor-level counterpart is
    :func:`repro.wire.spice.wired_nor_chain`.

    Parameters
    ----------
    params : NorGateParameters, optional
        Electrical parameters of every gate (before wire loading).
    stages : int, optional
        Number of NOR stages (default 2, at least 2).
    tree : WireTree, optional
        Inter-stage wire (default :func:`demo_wire_line`; must have
        exactly one sink).
    """
    if stages < 2:
        raise ParameterError("a wired chain needs at least 2 stages")
    tree = tree if tree is not None else demo_wire_line()
    if len(tree.sinks) != 1:
        raise ParameterError("chain wires need exactly one sink")
    driving = loaded_params(params, tree)
    circuit = TimingCircuit(["a"])
    previous = "a"
    for index in range(stages):
        last = index == stages - 1
        output = "y" if last else f"o{index + 1}"
        circuit.add_hybrid_nor(
            f"g{index}", previous, previous, output,
            HybridNorChannel(params if last else driving))
        if not last:
            wired = f"m{index + 1}"
            circuit.add_wire(f"w{index + 1}", output, tree, wired)
            previous = wired
    return circuit


def nor_tree_wire(params: NorGateParameters = PAPER_TABLE_I,
                  tree: WireTree | None = None) -> TimingCircuit:
    """A NOR2 driving a fanout wire into two tied-input receivers.

    The driver NORs ``a`` and ``b`` into ``o`` (wire-loaded
    parameters); the fanout *tree* taps ``o`` into sink signals
    ``m1``/``m2``, each NORed with itself into endpoints
    ``y1``/``y2``.  The transistor-level counterpart is
    :func:`repro.wire.spice.wired_nor_tree`.

    Parameters
    ----------
    params : NorGateParameters, optional
        Electrical parameters of every gate (before wire loading).
    tree : WireTree, optional
        Fanout wire (default :func:`demo_wire_fanout`; must have
        exactly two sinks).
    """
    tree = tree if tree is not None else demo_wire_fanout()
    if len(tree.sinks) != 2:
        raise ParameterError("tree_wire needs a two-sink fanout "
                             "tree")
    circuit = TimingCircuit(["a", "b"])
    circuit.add_hybrid_nor("g0", "a", "b", "o",
                           HybridNorChannel(loaded_params(params,
                                                          tree)))
    circuit.add_wire("w0", "o", tree, ("m1", "m2"))
    circuit.add_hybrid_nor("r1", "m1", "m1", "y1",
                           HybridNorChannel(params))
    circuit.add_hybrid_nor("r2", "m2", "m2", "y2",
                           HybridNorChannel(params))
    return circuit


#: Named circuit builders accepted by :func:`sta_circuit` and the
#: CLI's ``repro sta --circuit`` flag.
STA_CIRCUITS = {
    "nor2": single_nor,
    "chain": nor_chain,
    "tree": nor_tree,
    "nor3": single_nor3,
    "nor3_mixed": nor3_mixed,
    "chain_wire": nor_chain_wire,
    "tree_wire": nor_tree_wire,
}


def sta_circuit(name: str,
                params: NorGateParameters = PAPER_TABLE_I
                ) -> TimingCircuit:
    """Build a named test circuit.

    Parameters
    ----------
    name : str
        A key of :data:`STA_CIRCUITS`.
    params : NorGateParameters, optional
        Electrical parameters for every gate (default: the paper's
        Table I).

    Raises
    ------
    ValueError
        If *name* is not a registered circuit.
    """
    try:
        builder = STA_CIRCUITS[name]
    except KeyError:
        raise ValueError(
            f"unknown circuit {name!r}; available: "
            f"{', '.join(sorted(STA_CIRCUITS))}") from None
    return builder(params)


def demo_corners(count: int, signals, seed: int = 0,
                 base: NorGateParameters = PAPER_TABLE_I):
    """The demo/benchmark corner grid shared by CLI and benches.

    Four process variants (the pull-down resistances scaled by
    0.9/1.0/1.1/1.2) assigned round-robin over the corner axis,
    crossed with uniformly random input-arrival offsets in
    ``[0, 40 ps]`` for each listed signal — the workload
    ``repro sta --corners`` reports and ``benchmarks/bench_sta.py``
    records in ``BENCH_sta.json``.

    Parameters
    ----------
    count : int
        Number of corners.
    signals : iterable of str
        Primary-input names that receive random arrival offsets.
    seed : int, optional
        RNG seed for the arrival axis (default 0).
    base : NorGateParameters, optional
        Parameter set the variants scale from.

    Returns
    -------
    tuple
        ``(params, arrivals)`` ready to pass to
        :func:`repro.sta.sweep.sweep_corners`.
    """
    rng = np.random.default_rng(seed)
    scales = (0.9, 1.0, 1.1, 1.2)
    variants = [base.replace(r3=base.r3 * scale, r4=base.r4 * scale)
                for scale in scales]
    params = [variants[index % len(variants)]
              for index in range(count)]
    arrivals = {signal: rng.uniform(0.0, 40.0 * PS, count)
                for signal in signals}
    return params, arrivals
