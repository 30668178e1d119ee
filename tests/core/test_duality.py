"""Tests for repro.core.duality — the NAND2 mirror model."""

import math

import pytest

from repro.core import HybridNandModel, HybridNorModel, PAPER_TABLE_I
from repro.errors import ParameterError
from repro.units import PS


@pytest.fixture(scope="module")
def nand():
    return HybridNandModel(PAPER_TABLE_I)


@pytest.fixture(scope="module")
def nor():
    return HybridNorModel(PAPER_TABLE_I)


class TestMirrorIdentities:
    def test_rising_equals_nor_falling(self, nand, nor):
        for delta in (-40 * PS, -10 * PS, 0.0, 10 * PS, 40 * PS):
            assert nand.delay_rising(delta) == pytest.approx(
                nor.delay_falling(delta), rel=1e-12)

    def test_falling_equals_nor_rising_mirrored(self, nand, nor):
        vdd = PAPER_TABLE_I.vdd
        for delta in (-30 * PS, 0.0, 30 * PS):
            for x in (0.0, 0.3, vdd):
                assert nand.delay_falling(delta, vm_init=x) == \
                    pytest.approx(nor.delay_rising(delta,
                                                   vn_init=vdd - x),
                                  rel=1e-12)

    def test_default_vm_is_worst_case(self, nand, nor):
        """V_M = VDD mirrors the paper's V_N = GND convention."""
        assert nand.delay_falling(0.0) == pytest.approx(
            nor.delay_rising(0.0, vn_init=0.0), rel=1e-12)

    def test_closed_forms(self, nand, nor):
        assert nand.delay_rising_zero() == pytest.approx(
            nor.delay_falling_zero())
        assert nand.delay_rising_minus_inf() == pytest.approx(
            nor.delay_falling_minus_inf())
        assert nand.delay_rising_plus_inf() == pytest.approx(
            nor.delay_falling_plus_inf())
        assert nand.delay_falling_minus_inf() == pytest.approx(
            nor.delay_rising_minus_inf())

    def test_voltage_range_validated(self, nand):
        with pytest.raises(ParameterError):
            nand.delay_falling(0.0, vm_init=1.5)


class TestStateRange:
    """``V_M`` outside ``[0, VDD]`` is rejected on every NAND path, not
    only by the closed form: the engine arcs and characterization
    used to evaluate the NOR at a negative or above-rail ``V_N``."""

    @pytest.mark.parametrize("vm", [1.6, -0.3])
    def test_every_nand_path_rejects(self, nand, vm):
        from repro.library import CharacterizationJob, characterize_gate
        from repro.sta import EngineArcModel

        message = rf"node voltage {vm!r} outside \[0, VDD\]"
        with pytest.raises(ParameterError, match=message):
            nand.delay_falling(0.0, vm_init=vm)
        with pytest.raises(ParameterError, match=message):
            EngineArcModel(PAPER_TABLE_I, "nand2", state=vm).delays(
                "falling", [0.0])
        with pytest.raises(ParameterError, match=message):
            characterize_gate(CharacterizationJob(
                "nand2_bad", PAPER_TABLE_I, "nand2",
                deltas=(-10 * PS, 0.0, 10 * PS),
                state_grid=tuple(sorted((0.0, vm)))))
        from repro.engine import get_engine
        from repro.library import gate_delays
        with pytest.raises(ParameterError, match=message):
            gate_delays(get_engine(None), "nand2", PAPER_TABLE_I,
                        "falling", [0.0], state=vm)


class TestNandMisLandscape:
    """The NAND's Charlie effects are the NOR's, mirrored."""

    def test_rising_is_speedup(self, nand):
        ch = nand.characteristic_rising()
        assert ch.is_speedup  # parallel pMOS pull-up

    def test_falling_order_dependence(self, nand):
        # Early A (rail-side series transistor) predrains M -> the
        # dual of the NOR's early-A precharge: slower here.
        assert nand.delay_falling_minus_inf() > \
            nand.delay_falling_plus_inf()

    def test_falling_flat_for_negative_delta_at_worst_case(self, nand):
        values = [nand.delay_falling(d) for d in (-5 * PS, -25 * PS,
                                                  -70 * PS)]
        assert max(values) - min(values) < 1e-15

    def test_curves(self, nand):
        deltas = [d * PS for d in (-40, -20, 0, 20, 40)]
        rising = nand.rising_curve(deltas)
        falling = nand.falling_curve(deltas)
        assert rising.direction == "rising"
        assert falling.direction == "falling"
        assert min(rising.delays) == pytest.approx(
            nand.delay_rising_zero())

    def test_limits(self, nand):
        assert nand.delay_rising(math.inf) == pytest.approx(
            nand.delay_rising_plus_inf())


class TestAnalogNandDuality:
    """The analog NAND2 cell exhibits the mirrored MIS landscape."""

    @pytest.fixture(scope="class")
    def nand_sis(self, fast_transient_options):
        from repro.analysis.characterization import mis_delay
        from repro.spice.technology import FINFET15
        values = {}
        for direction in ("rising", "falling"):
            values[direction] = {
                delta: mis_delay(FINFET15, "nand", delta * PS,
                                 direction, fast_transient_options)
                for delta in (-400, 0, 400)}
        return values

    def test_rising_speedup(self, nand_sis):
        rising = nand_sis["rising"]
        assert rising[0] < rising[-400]
        assert rising[0] < rising[400]
        speedup = rising[0] / min(rising[-400], rising[400]) - 1.0
        assert -0.45 < speedup < -0.15  # mirror of the NOR's -30 %

    def test_falling_slowdown(self, nand_sis):
        falling = nand_sis["falling"]
        assert falling[0] > min(falling[-400], falling[400])

    def test_falling_order_dependence(self, nand_sis):
        falling = nand_sis["falling"]
        # Early A drains the stack node M -> B-last is slower than
        # A-last (the mirror of the NOR's rising asymmetry).
        assert falling[-400] != pytest.approx(falling[400],
                                              abs=0.05 * PS)
