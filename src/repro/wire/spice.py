"""Lower wire trees into SPICE netlists and build wired circuits.

The validation anchor of the subsystem: a :class:`WireTree` is exact
circuit structure, so lowering it into ``Resistor``/``Capacitor``
devices of :mod:`repro.spice.netlist` and running the MNA transient
solver gives ground truth the reduced-order models must match.  Two
wired benchmark circuits mirror the STA circuits of
:mod:`repro.sta.circuits`:

* :func:`wired_nor_chain` — a tied-input NOR2 chain (the repo's
  inverter idiom) with a wire line between stages, the
  ``chain_wire`` STA circuit;
* :func:`wired_nor_tree` — a NOR2 driving a fanout tree into two
  tied-input NOR2 receivers, the ``tree_wire`` STA circuit.

Every gate in them is one :func:`repro.spice.technology.stamp_gate`
call, the same cell stamp the stand-alone builders use, with a
per-instance name prefix so several cells share one netlist and
supply.
"""

from __future__ import annotations

import dataclasses
import math

from ..errors import ParameterError
from ..spice.devices import Capacitor
from ..spice.netlist import Circuit
from ..spice.technology import TechnologyCard, stamp_gate
from ..spice.waveforms import Waveform
from .tree import WireTree

__all__ = ["lower_wire", "wired_nor_chain", "wired_nor_tree",
           "nor2_input_capacitance", "WiredCircuit"]


def lower_wire(circuit: Circuit, tree: WireTree, input_node: str,
               prefix: str = "w") -> dict[str, str]:
    """Stamp a wire tree into a netlist as R/C devices.

    Parameters
    ----------
    circuit : Circuit
        Netlist under construction.
    tree : WireTree
        The RC tree to lower.
    input_node : str
        Existing circuit node driving the tree's root.
    prefix : str, optional
        Device/node name prefix (must be unique per lowered tree).

    Returns
    -------
    dict
        Tree node name -> circuit node name (the root maps to
        *input_node*); use it to probe sink waveforms.
    """
    nodes = {tree.root: input_node}
    for segment in tree.segments:
        node = f"{prefix}_{segment.name}"
        nodes[segment.name] = node
        circuit.resistor(f"R{prefix}_{segment.name}",
                         nodes[segment.parent], node,
                         segment.resistance)
        shunt = segment.capacitance + segment.load
        if shunt > 0.0:
            circuit.capacitor(f"C{prefix}_{segment.name}", node, "0",
                              shunt)
    return nodes


def nor2_input_capacitance(tech: TechnologyCard,
                           tied: bool = True) -> float:
    """Input capacitance one NOR2 receiver taps onto a wire, farads.

    The exact sum of the capacitors :func:`~repro.spice.technology.
    stamp_gate` puts on the input node: with both pins tied to the
    wire sink (``tied=True``) all five gate-overlap capacitors, with
    pin ``a`` alone the two on ``a``.  Used as the sink ``load`` when
    building the wire tree that models a wired netlist.
    """
    cell = Circuit("nor2_input")
    stamp_gate(cell, tech, "nor", ["a", "a" if tied else "b"], "o")
    return math.fsum(device.capacitance
                     for device in cell.devices_of_type(Capacitor)
                     if "a" in device.nodes)


@dataclasses.dataclass(frozen=True)
class WiredCircuit:
    """A lowered wired benchmark circuit plus its probe points.

    Attributes
    ----------
    circuit : Circuit
        The complete netlist (validated).
    stage_outputs : tuple of str
        Gate output nodes in topological order.
    sink_nodes : dict
        Wire sink name -> circuit node, per lowered tree.
    outputs : tuple of str
        Final endpoint node(s).
    """

    circuit: Circuit
    stage_outputs: tuple[str, ...]
    sink_nodes: dict[str, str]
    outputs: tuple[str, ...]


def wired_nor_chain(tech: TechnologyCard, wave_in: Waveform | float,
                    tree: WireTree, stages: int = 2,
                    name: str = "wired_nor_chain") -> WiredCircuit:
    """Tied-input NOR2 chain with a wire line between stages.

    Stage ``i`` (prefix ``g<i>``) drives node ``o<i>``; every stage
    but the last feeds a lowered copy of *tree* (prefix ``w<i>``)
    whose single sink drives the next stage's tied inputs.  The
    transistor-level counterpart of the ``chain_wire`` STA circuit.
    """
    if stages < 2:
        raise ParameterError("a wired chain needs at least 2 stages")
    if len(tree.sinks) != 1:
        raise ParameterError("chain wires need exactly one sink")
    circuit = Circuit(name)
    circuit.voltage_source("Vdd", "vdd", "0", tech.vdd)
    circuit.voltage_source("Va", "a", "0", wave_in)
    stage_outputs = []
    sink_nodes: dict[str, str] = {}
    node_in = "a"
    for index in range(stages):
        node_out = f"o{index + 1}"
        stamp_gate(circuit, tech, "nor", [node_in, node_in], node_out,
                   prefix=f"g{index + 1}_")
        stage_outputs.append(node_out)
        if index < stages - 1:
            nodes = lower_wire(circuit, tree, node_out,
                               prefix=f"w{index + 1}")
            sink = nodes[tree.sinks[0]]
            sink_nodes[f"w{index + 1}.{tree.sinks[0]}"] = sink
            node_in = sink
    circuit.validate()
    return WiredCircuit(circuit=circuit,
                        stage_outputs=tuple(stage_outputs),
                        sink_nodes=sink_nodes,
                        outputs=(stage_outputs[-1],))


def wired_nor_tree(tech: TechnologyCard, wave_a: Waveform | float,
                   wave_b: Waveform | float, tree: WireTree,
                   name: str = "wired_nor_tree") -> WiredCircuit:
    """NOR2 driving a fanout wire into tied-input NOR2 receivers.

    The driver (prefix ``g0``) outputs on node ``o``; the tree is
    lowered with prefix ``w``; every sink ``k`` drives receiver
    ``r<k>`` (tied inputs) outputting on ``y<k>``.  The
    transistor-level counterpart of the ``tree_wire`` STA circuit.
    """
    circuit = Circuit(name)
    circuit.voltage_source("Vdd", "vdd", "0", tech.vdd)
    circuit.voltage_source("Va", "a", "0", wave_a)
    circuit.voltage_source("Vb", "b", "0", wave_b)
    stamp_gate(circuit, tech, "nor", ["a", "b"], "o", prefix="g0_")
    nodes = lower_wire(circuit, tree, "o", prefix="w")
    outputs = []
    sink_nodes: dict[str, str] = {}
    for index, sink in enumerate(tree.sinks):
        sink_nodes[sink] = nodes[sink]
        node_out = f"y{index + 1}"
        stamp_gate(circuit, tech, "nor", [nodes[sink], nodes[sink]],
                   node_out, prefix=f"r{index + 1}_")
        outputs.append(node_out)
    circuit.validate()
    return WiredCircuit(circuit=circuit, stage_outputs=("o",),
                        sink_nodes=sink_nodes,
                        outputs=tuple(outputs))
