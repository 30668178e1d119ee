"""The cell stamp reproduces the pinned netlists device for device.

``data/cell_netlists.json`` holds every device of each cell, in order,
as ``(class, nodes, value, polarity)``: the MOSFET value is its
width-scaled ``k`` and the source value its level at ``t = 0``.  The
file was written from the hand-stamped NOR2/NAND2/inverter builders
that :func:`repro.spice.technology.stamp_gate` replaced; device order,
node names and values fix the MNA matrices, so matching it keeps every
analog result byte-identical.  Device names are not pinned.
"""

import json
import pathlib

import pytest

from repro.spice.devices import Capacitor, Mosfet, Resistor
from repro.spice.technology import (BULK65, FINFET15, build_gate,
                                    build_inverter_chain)
from repro.wire import (WireTree, nor2_input_capacitance, wired_nor_chain,
                        wired_nor_tree)

PINNED = json.loads((pathlib.Path(__file__).parent / "data"
                     / "cell_netlists.json").read_text())


def describe(circuit):
    rows = []
    for device in circuit.devices:
        polarity = None
        if isinstance(device, Mosfet):
            value, polarity = device.model.k, device.model.polarity
        elif isinstance(device, Capacitor):
            value = device.capacitance
        elif isinstance(device, Resistor):
            value = device.resistance
        else:
            value = device.value(0.0)
        rows.append([type(device).__name__, list(device.nodes), value,
                     polarity])
    return rows


def cells():
    """The pinned cells, built through the current builders."""
    load = nor2_input_capacitance(FINFET15, tied=True)
    line = WireTree.line(segments=3, resistance=2e3, capacitance=0.4e-15,
                         load=load)
    fanout = WireTree.fanout(branches=2, stem=1, segments=2,
                             resistance=2e3, capacitance=0.4e-15,
                             load=load)
    built = {}
    for tech in (FINFET15, BULK65):
        for gate in ("nor", "nand"):
            built[f"{gate}2_{tech.name}"] = build_gate(
                tech, gate, (0.0, tech.vdd))
    built["inverter_finfet15"] = build_gate(FINFET15, "nor", (0.0,))
    built["inverter_chain3_finfet15"] = build_inverter_chain(
        FINFET15, 0.0, stages=3)
    built["wired_nor_chain_finfet15"] = wired_nor_chain(
        FINFET15, 0.0, line, stages=2).circuit
    built["wired_nor_tree_finfet15"] = wired_nor_tree(
        FINFET15, 0.0, FINFET15.vdd, fanout).circuit
    return built


BUILT = cells()


def test_every_pinned_cell_is_built():
    assert sorted(BUILT) == sorted(PINNED)


@pytest.mark.parametrize("cell", sorted(PINNED))
def test_netlist_matches_pin(cell):
    assert describe(BUILT[cell]) == PINNED[cell]
