"""`gate_kind`, `gate_delays` and `mirror_voltage`: the one reading
of a MIS gate name and the NAND mirror every layer shares."""

import itertools
import math

import numpy as np
import pytest

from repro.core.duality import mirror_voltage
from repro.core.parameters import PAPER_TABLE_I
from repro.engine import delays_for_direction, get_engine
from repro.errors import ParameterError
from repro.library import gate_delays, gate_kind
from repro.units import PS

DELTAS = np.array([-math.inf, -40.0, -5.0, 0.0, 5.0, 40.0,
                   math.inf]) * PS


class TestGateKind:
    def test_records(self):
        nor3, nand2 = gate_kind("nor3"), gate_kind("nand2")
        assert (nor3.inputs, nor3.nand, nor3.parallel, nor3.series,
                nor3.controlling) == (3, False, "falling", "rising", 1)
        assert (nand2.inputs, nand2.nand, nand2.parallel, nand2.series,
                nand2.controlling) == (2, True, "rising", "falling", 0)
        assert gate_kind("nor3") is nor3

    @pytest.mark.parametrize("values",
                             itertools.product((0, 1), repeat=3))
    def test_output_is_the_boolean_function(self, values):
        assert gate_kind("nor3").output(values) == int(not any(values))
        assert gate_kind("nand2").output(values[:2]) == \
            int(not all(values[:2]))

    def test_worst_state(self):
        assert gate_kind("nor2").worst_state(0.8) == 0.0
        assert gate_kind("nand2").worst_state(0.8) == 0.8


class TestGateDelays:
    def test_nand_is_the_mirrored_nor(self):
        engine = get_engine(None)
        vdd = PAPER_TABLE_I.vdd
        for direction, nor in (("falling", "rising"),
                               ("rising", "falling")):
            assert np.array_equal(
                gate_delays(engine, "nand2", PAPER_TABLE_I, direction,
                            DELTAS, 0.3),
                delays_for_direction(engine, nor, PAPER_TABLE_I,
                                     DELTAS, vdd - 0.3))
        # None is the worst case: V_M = VDD, 0 V in the NOR frame.
        assert np.array_equal(
            gate_delays(engine, "nand2", PAPER_TABLE_I, "falling",
                        DELTAS),
            delays_for_direction(engine, "rising", PAPER_TABLE_I,
                                 DELTAS, 0.0))

    @pytest.mark.parametrize("gate", ["nor2", "nand2"])
    def test_unknown_direction_reaches_the_engine(self, gate):
        with pytest.raises(ParameterError, match="direction must be"):
            gate_delays(get_engine(None), gate, PAPER_TABLE_I, "up",
                        [0.0])

    def test_mirror_voltage_per_lane(self):
        vdd = np.array([0.8, 1.0, 1.2])
        assert np.array_equal(mirror_voltage(0.3, vdd), vdd - 0.3)
        with pytest.raises(ParameterError,
                           match=r"node voltage 0\.9 outside"):
            mirror_voltage(0.9, vdd)
        with pytest.raises(ParameterError):
            mirror_voltage(math.nan, 0.8)
