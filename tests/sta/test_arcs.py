"""Arc delay models: engine/table/fixed parity and contracts."""

import math

import numpy as np
import pytest

from repro.core.duality import HybridNandModel
from repro.core.hybrid_model import HybridNorModel
from repro.core.parameters import PAPER_TABLE_I
from repro.engine import block_from_parameters
from repro.errors import ParameterError
from repro.library import CharacterizationJob, characterize_gate
from repro.sta import (ArcDelayModel, EngineArcModel, FixedArcModel,
                       TableArcModel)
from repro.timing import (ExpChannel, InertialDelayChannel,
                          PureDelayChannel)
from repro.units import PS

DELTAS = np.array([-math.inf, -40.0 * PS, -5.0 * PS, 0.0, 5.0 * PS,
                   40.0 * PS, math.inf])


@pytest.fixture(scope="module")
def nor_table():
    job = CharacterizationJob("nor2_t", PAPER_TABLE_I, "nor2")
    return characterize_gate(job)


@pytest.fixture(scope="module")
def nand_table():
    job = CharacterizationJob("nand2_t", PAPER_TABLE_I, "nand2")
    return characterize_gate(job)


class TestEngineArcModel:
    def test_nor_matches_model(self):
        arc = EngineArcModel(PAPER_TABLE_I, "nor2")
        model = HybridNorModel(PAPER_TABLE_I)
        falling = arc.delays("falling", DELTAS)
        rising = arc.delays("rising", DELTAS)
        for i, delta in enumerate(DELTAS):
            assert falling[i] == pytest.approx(
                model.delay_falling(delta), abs=1e-15)
            assert rising[i] == pytest.approx(
                model.delay_rising(delta, 0.0), abs=1e-15)

    def test_nand_matches_duality_model(self):
        arc = EngineArcModel(PAPER_TABLE_I, "nand2")
        nand = HybridNandModel(PAPER_TABLE_I)
        falling = arc.delays("falling", DELTAS)
        rising = arc.delays("rising", DELTAS)
        for i, delta in enumerate(DELTAS):
            # Default state is the mirrored worst case V_M = VDD.
            assert falling[i] == pytest.approx(
                nand.delay_falling(delta), abs=1e-15)
            assert rising[i] == pytest.approx(
                nand.delay_rising(delta), abs=1e-15)

    def test_state_override(self):
        vdd = PAPER_TABLE_I.vdd
        worst = EngineArcModel(PAPER_TABLE_I, "nor2")
        mid = EngineArcModel(PAPER_TABLE_I, "nor2", state=vdd / 2.0)
        model = HybridNorModel(PAPER_TABLE_I)
        assert mid.delays("rising", [0.0])[0] == pytest.approx(
            model.delay_rising(0.0, vdd / 2.0), abs=1e-15)
        assert (worst.delays("rising", [0.0])[0]
                != mid.delays("rising", [0.0])[0])

    def test_params_retargeting(self):
        arc = EngineArcModel(PAPER_TABLE_I, "nor2")
        assert arc.retargetable
        slow = PAPER_TABLE_I.replace(r3=2.0 * PAPER_TABLE_I.r3,
                                     r4=2.0 * PAPER_TABLE_I.r4)
        base = arc.delays("falling", [0.0])[0]
        retargeted = arc.delays("falling", [0.0], params=slow)[0]
        assert retargeted > base
        assert retargeted == pytest.approx(
            HybridNorModel(slow).delay_falling(0.0), abs=1e-15)

    @pytest.mark.parametrize("gate", ["nor2", "nand2"])
    def test_per_lane_corners(self, gate):
        """A sample block gives every lane its own corner; the NAND
        mirror takes each lane's own VDD."""
        arc = EngineArcModel(PAPER_TABLE_I, gate, state=0.3)
        corners = [PAPER_TABLE_I.replace(vdd=vdd, r3=r3)
                   for vdd, r3 in ((0.8, 40e3), (1.0, 45e3), (1.2, 50e3))]
        block = block_from_parameters(corners)
        lanes = np.array([-5.0 * PS, 0.0, 20.0 * PS])
        for direction in ("falling", "rising"):
            per_lane = arc.delays(direction, lanes, params=block)
            one_by_one = [arc.delays(direction, lanes[i:i + 1],
                                     params=corner)[0]
                          for i, corner in enumerate(corners)]
            assert per_lane == pytest.approx(one_by_one, abs=1e-18)

    def test_rejects_unknown_gate(self):
        with pytest.raises(ParameterError):
            EngineArcModel(PAPER_TABLE_I, "xor2")

    def test_satisfies_protocol(self):
        assert isinstance(EngineArcModel(PAPER_TABLE_I),
                          ArcDelayModel)


class TestTableArcModel:
    def test_matches_table_lookup(self, nor_table):
        arc = TableArcModel(nor_table)
        finite = DELTAS[np.isfinite(DELTAS)]
        np.testing.assert_allclose(
            arc.delays("falling", finite),
            nor_table.falling.delays_at(finite, 0.0), atol=0.0)
        np.testing.assert_allclose(
            arc.delays("rising", finite),
            nor_table.rising.delays_at(finite, 0.0), atol=0.0)

    def test_nand_default_state_is_vdd(self, nand_table):
        arc = TableArcModel(nand_table)
        assert arc.state == PAPER_TABLE_I.vdd
        assert arc.gate == "nand2"

    def test_close_to_engine(self, nor_table):
        """Table lookups track direct evaluation to the library's
        interpolation bound."""
        table_arc = TableArcModel(nor_table)
        engine_arc = EngineArcModel(PAPER_TABLE_I, "nor2")
        for direction in ("falling", "rising"):
            difference = np.abs(table_arc.delays(direction, DELTAS)
                                - engine_arc.delays(direction, DELTAS))
            assert float(difference.max()) <= 0.1 * PS

    def test_rejects_foreign_params(self, nor_table):
        arc = TableArcModel(nor_table)
        assert not arc.retargetable
        with pytest.raises(ParameterError, match="re-target"):
            arc.delays("falling", [0.0],
                       params=PAPER_TABLE_I.replace(r3=1.0))
        # The table's own params are fine (no-op override).
        arc.delays("falling", [0.0], params=PAPER_TABLE_I)

    def test_rejects_bad_direction(self, nor_table):
        with pytest.raises(ParameterError):
            TableArcModel(nor_table).delays("sideways", [0.0])


class TestFixedArcModel:
    def test_constant_broadcast(self):
        arc = FixedArcModel(delay_rise=5.0 * PS, delay_fall=3.0 * PS)
        out = arc.delays("rising", np.zeros((2, 3)))
        assert out.shape == (2,)
        assert np.all(out == 5.0 * PS)
        assert np.all(arc.delays("falling", [0.0]) == 3.0 * PS)

    def test_from_pure_channel(self):
        channel = PureDelayChannel(7.0 * PS, 4.0 * PS)
        arc = FixedArcModel.from_channel(channel)
        assert arc.delay_rise == 7.0 * PS
        assert arc.delay_fall == 4.0 * PS

    def test_from_inertial_channel(self):
        arc = FixedArcModel.from_channel(InertialDelayChannel(6.0 * PS))
        assert arc.delay_rise == arc.delay_fall == 6.0 * PS

    def test_from_involution_channel(self):
        channel = ExpChannel(20.0 * PS, 24.0 * PS,
                             pure_delay=2.0 * PS)
        arc = FixedArcModel.from_channel(channel)
        assert arc.delay_rise == pytest.approx(20.0 * PS)
        assert arc.delay_fall == pytest.approx(24.0 * PS)

    def test_rejects_negative_delay(self):
        with pytest.raises(ParameterError):
            FixedArcModel(-1.0 * PS, 1.0 * PS)

    def test_rejects_bad_direction(self):
        with pytest.raises(ParameterError):
            FixedArcModel(1.0 * PS, 1.0 * PS).delays("up", [0.0])
