"""n-input (multi-axis) delay surfaces, tables, and the format-v2 JSON."""

import math

import numpy as np
import pytest

from repro.core.charlie import MisCurve
from repro.core.multi_input import paper_generalized
from repro.errors import ParameterError
from repro.library import (CharacterizationJob, DelaySurface,
                           GateLibrary, characterize_gate,
                           characterize_library, generalized_jobs,
                           mis_gate_inputs, verify_table)
from repro.library.tables import LIBRARY_FORMAT_VERSION, GateDelayTable
from repro.units import PS


@pytest.fixture(scope="module")
def p3():
    return paper_generalized(3)


@pytest.fixture(scope="module")
def nor3_table(p3):
    axis = tuple(np.linspace(-60 * PS, 60 * PS, 17))
    return characterize_gate(
        CharacterizationJob("nor3_t", p3, "nor3", deltas=axis))


def _simple_surface():
    axes = ((0.0, 1.0, 2.0), (0.0, 2.0))
    delays = tuple(tuple(float(10 * i + j) for j in (0, 2))
                   for i in (0, 1, 2))
    return DelaySurface("falling", axes, (0.0,), (delays,))


class TestMisGateInputs:
    def test_known_types(self):
        assert mis_gate_inputs("nor2") == 2
        assert mis_gate_inputs("nand2") == 2
        assert mis_gate_inputs("nor3") == 3
        assert mis_gate_inputs("nor12") == 12

    @pytest.mark.parametrize("bad", ["xor2", "nand3", "nor", "nor1",
                                     "nor03"])
    def test_unknown_types_rejected(self, bad):
        with pytest.raises(ParameterError):
            mis_gate_inputs(bad)


class TestVectorDelaySurface:
    def test_exact_at_grid_nodes(self):
        surface = _simple_surface()
        assert surface.delay_at([1.0, 2.0]) == 12.0
        assert surface.delay_at([2.0, 0.0]) == 20.0

    def test_multilinear_between_nodes(self):
        surface = _simple_surface()
        # The sampled function is itself multilinear (10*x + y), so
        # interpolation must reproduce it everywhere.
        assert surface.delay_at([0.5, 1.0]) == pytest.approx(6.0)
        assert surface.delay_at([1.5, 0.5]) == pytest.approx(15.5)

    def test_batch_shape(self):
        surface = _simple_surface()
        probes = np.zeros((4, 5, 2))
        assert surface.delays_at(probes).shape == (4, 5)

    def test_infinite_reads_edges(self):
        surface = _simple_surface()
        assert surface.delay_at([math.inf, -math.inf]) == 20.0

    def test_finite_out_of_range_raises(self):
        surface = _simple_surface()
        with pytest.raises(ParameterError):
            surface.delay_at([3.0, 0.0])
        assert surface.delay_at([3.0, 0.0], clamp=True) == 20.0

    def test_nan_rejected(self):
        surface = _simple_surface()
        with pytest.raises(ParameterError):
            surface.delay_at([math.nan, 0.0])
        with pytest.raises(ParameterError):
            surface.delays_at(np.full((1, 2), math.nan), clamp=True)

    def test_wrong_width_rejected(self):
        surface = _simple_surface()
        with pytest.raises(ParameterError):
            surface.delays_at(np.zeros((2, 3)))

    def test_validation(self):
        with pytest.raises(ParameterError):
            DelaySurface("sideways", ((0.0, 1.0),), (0.0,),
                         ((0.0, 1.0),))
        with pytest.raises(ParameterError):
            DelaySurface("falling", (), (0.0,), ((),))
        with pytest.raises(ParameterError):  # shape mismatch
            DelaySurface("falling", ((0.0, 1.0), (0.0, 1.0)), (0.0,),
                         (((1.0, 2.0),),))
        with pytest.raises(ParameterError):  # non-increasing axis
            DelaySurface("falling", ((1.0, 0.0),), (0.0,),
                         ((1.0, 2.0),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_file_data_rejected(self, bad):
        for field, value in (("internal_state_v", bad),
                             ("delays_s", [[bad, 2.0]] * 3)):
            payload = _simple_surface().to_dict()
            payload[field] = value
            with pytest.raises(ParameterError, match="finite"):
                DelaySurface.from_dict(payload)

    def test_round_trip(self):
        surface = _simple_surface()
        payload = surface.to_dict()
        assert set(payload) == {"direction", "axes_s", "delays_s",
                                "internal_state_v"}
        again = DelaySurface.from_dict(payload)
        assert again == surface


class TestNInputTables:
    def test_table_structure(self, nor3_table, p3):
        assert nor3_table.gate == "nor3"
        assert nor3_table.num_inputs == 3
        assert nor3_table.params == p3
        assert len(nor3_table.falling.axes) == 2
        assert nor3_table.falling.state_grid == (0.0,)

    def test_lookup_matches_engine_at_nodes(self, nor3_table, p3):
        from repro.engine import get_engine
        probe = np.array([15 * PS, -30 * PS])
        direct = get_engine().delays_falling_n(p3, probe[None, :])[0]
        assert nor3_table.delay_falling(probe) == pytest.approx(
            float(direct), abs=1e-18)

    def test_describe_mentions_grid(self, nor3_table):
        assert "nor3" in nor3_table.describe()
        assert "17x17" in nor3_table.describe()

    def test_gate_surface_kind_mismatch_rejected(self, nor3_table,
                                                 p3):
        with pytest.raises(ParameterError):
            GateDelayTable(cell="bad", gate="nor2", params=p3,
                           falling=nor3_table.falling,
                           rising=nor3_table.rising)
        with pytest.raises(ParameterError, match="delta axes"):
            GateDelayTable(cell="bad", gate="nor4",
                           params=paper_generalized(4),
                           falling=nor3_table.falling,
                           rising=nor3_table.rising)

    def test_json_round_trip(self, nor3_table, tmp_path):
        library = characterize_library(
            [CharacterizationJob("nor3_t", nor3_table.params, "nor3",
                                 deltas=nor3_table.falling.axes[0])],
            name="vector-test")
        path = library.save(tmp_path / "lib.json")
        again = GateLibrary.load(path)
        table = again["nor3_t"]
        assert table == nor3_table
        probe = np.array([5 * PS, -3 * PS])
        assert table.delay_rising(probe) == pytest.approx(
            nor3_table.delay_rising(probe), abs=0.0)

    def test_version_1_payloads_still_load(self, tmp_path):
        from repro.core.parameters import PAPER_TABLE_I
        from repro.library import paper_jobs
        deltas = tuple(np.linspace(-50 * PS, 50 * PS, 9))
        job = paper_jobs(PAPER_TABLE_I)[0]
        import dataclasses
        table = characterize_gate(
            dataclasses.replace(job, deltas=deltas,
                                state_grid=(0.0, 0.8)))
        library = GateLibrary("v1", {table.cell: table})
        payload = library.to_dict()
        assert payload["format_version"] == LIBRARY_FORMAT_VERSION
        payload["format_version"] = 1
        again = GateLibrary.from_dict(payload)
        assert again[table.cell] == table

    def test_unsupported_version_rejected(self, nor3_table):
        library = GateLibrary("x", {"nor3_t": nor3_table})
        payload = library.to_dict()
        payload["format_version"] = 99
        with pytest.raises(ParameterError):
            GateLibrary.from_dict(payload)

    def test_generalized_jobs_defaults(self):
        jobs = generalized_jobs(3)
        assert len(jobs) == 1
        assert jobs[0].gate == "nor3"
        assert jobs[0].num_inputs == 3
        with pytest.raises(ParameterError):
            generalized_jobs(4, paper_generalized(3))


class TestVerifyVectorTable:
    def test_interpolation_error_bound(self, p3):
        # Dense grid on the MIS core: the ISSUE-4 acceptance bound.
        from repro.core.multi_input import generalized_model
        tau = generalized_model(p3).settle_time() / 60.0
        axis = tuple(np.linspace(-0.375 * tau, 0.375 * tau, 193))
        table = characterize_gate(
            CharacterizationJob("nor3_dense", p3, "nor3",
                                deltas=axis))
        accuracy = verify_table(table, oversample=1)
        assert accuracy.max_error <= 0.1 * PS

    def test_coarse_grid_reports_honestly(self, nor3_table):
        accuracy = verify_table(nor3_table, oversample=1)
        # The 17-point axis cannot be femtosecond-accurate; the
        # verifier must report that instead of masking it.
        assert accuracy.max_error > 0.1 * PS


class TestOutOfRangeRegression:
    """Satellite: DelaySurface raises like MisCurve (no silent
    edge-clamp)."""

    @pytest.fixture()
    def surface(self):
        return DelaySurface("falling", ((-1.0 * PS, 0.0, 1.0 * PS),),
                            (0.0,), ((10 * PS, 11 * PS, 12 * PS),))

    def test_finite_out_of_range_raises(self, surface):
        with pytest.raises(ParameterError):
            surface.delays_at(2.0 * PS)
        with pytest.raises(ParameterError):
            surface.delay_at(-2.0 * PS)

    def test_clamp_opt_in_restores_edges(self, surface):
        assert surface.delay_at(2.0 * PS, clamp=True) == 12 * PS

    def test_infinite_reads_sis_edges(self, surface):
        assert surface.delay_at(math.inf) == 12 * PS
        assert surface.delay_at(-math.inf) == 10 * PS

    def test_nan_rejected(self, surface):
        with pytest.raises(ParameterError):
            surface.delays_at(math.nan)

    def test_mis_curve_still_raises(self):
        curve = MisCurve((-1.0 * PS, 1.0 * PS), (10 * PS, 12 * PS),
                         "falling")
        with pytest.raises(ValueError):
            curve.delay_at(2.0 * PS)
        with pytest.raises(ValueError):
            curve.delay_at(math.inf)
