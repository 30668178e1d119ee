"""What a MIS gate name means, pinned number for number.

``data/gate_conventions.json`` was written by an earlier build, before
the NOR/NAND conventions moved into :func:`repro.library.gate_kind`:

* NAND2 :class:`~repro.sta.EngineArcModel` delays in both directions
  at the worst-case state, at ``V_M = 0.3 V``, and for a per-lane
  block of three parameter sets (VDD 0.8 / 1.0 / 1.2 V);
* :class:`~repro.timing.TableDelayChannel` output traces of one seeded
  glitch train through a coarse ``nand2`` and a coarse ``nor3`` table;
* the :func:`~repro.library.verify_table` errors of the coarse NAND2
  table.

Every value is compared with ``==``: the conventions decide which
surface, direction and state each number reads, so any drift shows
as a changed bit.  ``python tests/library/test_gate_conventions.py``
rewrites the file from the current build.
"""

import json
import math
import pathlib

import numpy as np
import pytest

from repro.core.multi_input import paper_generalized
from repro.core.parameters import PAPER_TABLE_I
from repro.engine import block_from_parameters
from repro.library import (CharacterizationJob, characterize_gate,
                           default_delta_grid, default_vector_delta_grid,
                           verify_table)
from repro.sta import EngineArcModel
from repro.timing import TableDelayChannel
from repro.timing.tracegen import WaveformConfig, generate_traces
from repro.units import PS

FIXTURE = pathlib.Path(__file__).parent / "data" / "gate_conventions.json"

DELTAS = np.array([-math.inf, -40.0, -5.0, 0.0, 5.0, 40.0,
                   math.inf]) * PS
STATES = {"worst": None, "0.3": 0.3}
BLOCK_VDD = (0.8, 1.0, 1.2)
#: A glitch train: gaps around the gate delays, so pulses vanish.
GLITCHES = WaveformConfig(mu=50 * PS, sigma=25 * PS, mode="global",
                          transitions=240)


def _arc_delays() -> dict:
    block = block_from_parameters([PAPER_TABLE_I.replace(vdd=vdd)
                                   for vdd in BLOCK_VDD])
    lanes = np.repeat(block, len(DELTAS))
    tiled = np.tile(DELTAS, len(BLOCK_VDD))
    out = {}
    for label, state in STATES.items():
        arc = EngineArcModel(PAPER_TABLE_I, "nand2", state=state)
        for direction in ("falling", "rising"):
            out[f"{label}/{direction}"] = arc.delays(
                direction, DELTAS).tolist()
            out[f"{label}/block/{direction}"] = arc.delays(
                direction, tiled, params=lanes).tolist()
    return out


def _tables() -> dict:
    nand2 = characterize_gate(CharacterizationJob(
        "nand2_coarse", PAPER_TABLE_I, "nand2",
        deltas=tuple(default_delta_grid(PAPER_TABLE_I, core_points=33,
                                        tail_points=4)),
        state_grid=(0.0, 0.4, 0.8)))
    p3 = paper_generalized(3)
    nor3 = characterize_gate(CharacterizationJob(
        "nor3_coarse", p3, "nor3",
        deltas=tuple(default_vector_delta_grid(p3, core_points=9))))
    return {"nand2": nand2, "nor3": nor3}


def _channel_traces(tables) -> dict:
    out = {}
    for gate, table in tables.items():
        names = [f"i{k}" for k in range(table.num_inputs)]
        traces = generate_traces(GLITCHES, names, seed=7,
                                 t_start=20 * PS)
        result = TableDelayChannel(table).simulate(
            *(traces[name] for name in names))
        out[gate] = {"initial": result.initial,
                     "transitions": [list(edge)
                                     for edge in result.transitions]}
    return out


def _verify(tables) -> dict:
    accuracy = verify_table(tables["nand2"])
    return {"falling_error": accuracy.falling_error,
            "rising_error": accuracy.rising_error}


def current() -> dict:
    """The pinned quantities, computed by this build."""
    tables = _tables()
    return {"engine_arc_nand2": _arc_delays(),
            "table_channel": _channel_traces(tables),
            "verify_table_nand2": _verify(tables)}


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def tables() -> dict:
    return _tables()


class TestPinnedConventions:
    def test_engine_arc_nand2(self, pinned):
        assert _arc_delays() == pinned["engine_arc_nand2"]

    def test_table_channel_traces(self, pinned, tables):
        traces = _channel_traces(tables)
        assert traces == pinned["table_channel"]
        # The train exercises cancellation: fewer edges come out.
        assert all(0 < len(trace["transitions"]) < GLITCHES.transitions
                   for trace in traces.values())

    def test_verify_table_nand2(self, pinned, tables):
        assert _verify(tables) == pinned["verify_table_nand2"]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(current(), indent=1) + "\n")
