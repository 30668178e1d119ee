"""Contract tests for DelaySurface / GateDelayTable / GateLibrary."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator

from repro.core.charlie import MisCurve
from repro.core.parameters import PAPER_TABLE_I
from repro.errors import ParameterError
from repro.library import (DelaySurface, GateDelayTable, GateLibrary,
                           LIBRARY_FORMAT, characterize_gate,
                           CharacterizationJob)
from repro.units import PS


@pytest.fixture(scope="module")
def nor_table() -> GateDelayTable:
    job = CharacterizationJob("nor2_test", PAPER_TABLE_I)
    return characterize_gate(job)


def _surface(direction="falling", states=(0.0,),
             deltas=(-10.0 * PS, 0.0, 10.0 * PS)) -> DelaySurface:
    rows = tuple(tuple(20.0 * PS + i * PS + j * PS
                       for j in range(len(deltas)))
                 for i in range(len(states)))
    return DelaySurface(direction, (tuple(deltas),), tuple(states),
                        rows)


class TestDelaySurface:
    def test_rejects_bad_direction(self):
        with pytest.raises(ParameterError):
            _surface(direction="sideways")

    def test_rejects_non_monotone_deltas(self):
        with pytest.raises(ParameterError):
            _surface(deltas=(0.0, 0.0, 1.0 * PS))

    def test_rejects_ragged_rows(self):
        with pytest.raises(ParameterError):
            DelaySurface("falling", ((0.0, 1.0 * PS),), (0.0,),
                         ((1.0 * PS,),))

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ParameterError):
            DelaySurface("falling", ((0.0, 1.0 * PS),), (0.0, 0.4),
                         ((1.0 * PS, 2.0 * PS),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_data(self, bad):
        with pytest.raises(ParameterError, match="finite"):
            DelaySurface("falling", ((0.0, 1.0 * PS),), (0.0,),
                         ((1.0 * PS, bad),))
        with pytest.raises(ParameterError, match="finite"):
            DelaySurface("falling", ((0.0, bad),), (0.0,),
                         ((1.0 * PS, 2.0 * PS),))
        with pytest.raises(ParameterError, match="finite"):
            DelaySurface("falling", ((0.0, 1.0 * PS),), (bad,),
                         ((1.0 * PS, 2.0 * PS),))

    def test_rejects_state_axis_on_vector_surface(self):
        with pytest.raises(ParameterError, match="one-axis"):
            DelaySurface("rising", ((0.0, 1.0), (0.0, 1.0)), (0.0, 0.8),
                         np.zeros((2, 2, 2)))

    def test_clamped_lookup_at_edges(self):
        surface = _surface()
        assert surface.delay_at(-math.inf) == surface.delays[0][0]
        assert surface.delay_at(math.inf) == surface.delays[0][-1]

    def test_interpolates_between_samples(self):
        surface = _surface()
        mid = surface.delay_at(5.0 * PS)
        assert surface.delays[0][1] < mid < surface.delays[0][2]

    def test_bilinear_between_state_rows(self):
        surface = _surface(states=(0.0, 0.8))
        low = surface.delay_at(0.0, 0.0)
        high = surface.delay_at(0.0, 0.8)
        mid = surface.delay_at(0.0, 0.4)
        assert mid == pytest.approx(0.5 * (low + high))

    def test_state_clamps(self):
        surface = _surface(states=(0.0, 0.8))
        assert surface.delay_at(0.0, -5.0) == surface.delay_at(0.0, 0.0)
        assert surface.delay_at(0.0, 5.0) == surface.delay_at(0.0, 0.8)

    @pytest.mark.parametrize("state", [math.nan, math.inf, -math.inf])
    def test_non_finite_state_rejected(self, nor_table, state):
        """A non-finite state raises instead of reading a state row,
        through the table, the arc model and the channel alike."""
        from repro.sta import TableArcModel
        from repro.timing import DigitalTrace, TableDelayChannel
        with pytest.raises(ParameterError, match="state"):
            nor_table.delay_rising(0.0, state=state)
        with pytest.raises(ParameterError, match="state"):
            TableArcModel(nor_table, state=state).delays("rising",
                                                         [0.0])
        channel = TableDelayChannel(nor_table, state=state)
        with pytest.raises(ParameterError, match="state"):
            channel.simulate(DigitalTrace(1, [(10.0 * PS, 0)]),
                             DigitalTrace(1, [(20.0 * PS, 0)]))

    def test_curve_is_miscurve(self):
        curve = _surface().curve()
        assert isinstance(curve, MisCurve)
        assert curve.direction == "falling"

    def test_round_trip(self):
        surface = _surface(states=(0.0, 0.8))
        assert DelaySurface.from_dict(surface.to_dict()) == surface


def _increasing(draw, points: int, start: float, scale: float):
    steps = draw(st.lists(st.floats(0.1, 10.0), min_size=points - 1,
                          max_size=points - 1))
    return tuple(start + scale * np.concatenate([[0.0],
                                                 np.cumsum(steps)]))


@st.composite
def surfaces_and_probes(draw):
    """A random surface of any accepted shape plus probes inside its
    box: 1-3 Δ axes, and 1-3 state points on a one-axis surface."""
    siblings = draw(st.integers(1, 3))
    states = draw(st.integers(1, 3)) if siblings == 1 else 1
    axes = tuple(_increasing(draw, draw(st.integers(2, 5)),
                             draw(st.floats(-1e-10, 0.0)), 1e-11)
                 for _ in range(siblings))
    state_grid = _increasing(draw, states, 0.0, 0.1)
    shape = (states, *(len(axis) for axis in axes))
    delays = np.reshape(draw(st.lists(
        st.floats(1e-12, 1e-10), min_size=int(np.prod(shape)),
        max_size=int(np.prod(shape)))), shape)
    probes = draw(st.lists(
        st.lists(st.floats(0.0, 1.0), min_size=siblings + 1,
                 max_size=siblings + 1), min_size=1, max_size=6))
    return (DelaySurface("rising", axes, state_grid, delays),
            np.asarray(probes))


class TestAgainstRegularGridInterpolator:
    """The multilinear lookup against an independent oracle."""

    @settings(max_examples=200, deadline=None)
    @given(case=surfaces_and_probes())
    def test_matches_scipy_linear(self, case):
        surface, fractions = case
        grids = (surface.state_grid, *surface.axes)
        keep = [j for j, grid in enumerate(grids) if len(grid) > 1]
        oracle = RegularGridInterpolator(
            [grids[j] for j in keep],
            np.asarray(surface.delays).reshape(
                [len(grids[j]) for j in keep]), method="linear")
        lows = np.array([grid[0] for grid in grids])
        highs = np.array([grid[-1] for grid in grids])
        points = np.minimum(lows + fractions * (highs - lows), highs)
        for point in points:
            got = surface.delay_at(point[1:], point[0])
            want = float(oracle(point[keep][None, :])[0])
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestGateDelayTable:
    def test_direction_consistency_enforced(self, nor_table):
        with pytest.raises(ParameterError):
            GateDelayTable("x", "nor2", PAPER_TABLE_I,
                           falling=nor_table.rising,
                           rising=nor_table.rising)

    def test_unknown_gate_rejected(self, nor_table):
        with pytest.raises(ParameterError):
            GateDelayTable("x", "xor2", PAPER_TABLE_I,
                           falling=nor_table.falling,
                           rising=nor_table.rising)

    def test_round_trip(self, nor_table):
        clone = GateDelayTable.from_dict(nor_table.to_dict())
        assert clone == nor_table

    def test_describe_mentions_cell(self, nor_table):
        assert "nor2_test" in nor_table.describe()

    def test_missing_key_raises_parameter_error(self, nor_table):
        payload = nor_table.to_dict()
        del payload["falling"]
        with pytest.raises(ParameterError, match="missing"):
            GateDelayTable.from_dict(payload)

    def test_malformed_surface_field_names_the_surface(self, nor_table):
        payload = nor_table.to_dict()
        payload["falling"]["deltas_s"] = 5
        with pytest.raises(ParameterError, match="falling surface"):
            GateDelayTable.from_dict(payload)


class TestGateLibrary:
    def test_key_must_match_cell(self, nor_table):
        with pytest.raises(ParameterError):
            GateLibrary("lib", {"other_name": nor_table})

    def test_save_load_round_trip(self, nor_table, tmp_path):
        lib = GateLibrary("lib", {nor_table.cell: nor_table},
                          description="test library")
        path = lib.save(tmp_path / "lib.json")
        loaded = GateLibrary.load(path)
        assert loaded == lib
        assert loaded["nor2_test"].delay_falling(0.0) == \
            nor_table.delay_falling(0.0)

    def test_getitem_error_lists_cells(self, nor_table):
        lib = GateLibrary("lib", {nor_table.cell: nor_table})
        with pytest.raises(KeyError, match="nor2_test"):
            lib["missing_cell"]

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ParameterError, match="format"):
            GateLibrary.load(path)

    @pytest.mark.parametrize("payload", [[1, 2], "str", 3, None])
    def test_rejects_non_object_payload(self, payload):
        with pytest.raises(ParameterError, match="JSON object"):
            GateLibrary.from_dict(payload)

    @pytest.mark.parametrize("cells", [[1], "nor2", 7])
    def test_rejects_non_object_cells(self, nor_table, cells):
        payload = GateLibrary("lib", {nor_table.cell: nor_table}) \
            .to_dict()
        payload["cells"] = cells
        with pytest.raises(ParameterError, match="'cells'"):
            GateLibrary.from_dict(payload)

    def test_rejects_future_format_version(self, nor_table, tmp_path):
        lib = GateLibrary("lib", {nor_table.cell: nor_table})
        payload = lib.to_dict()
        payload["format_version"] = 99
        path = tmp_path / "future.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ParameterError, match="version"):
            GateLibrary.load(path)

    def test_header_fields(self, nor_table):
        lib = GateLibrary("lib", {nor_table.cell: nor_table})
        payload = lib.to_dict()
        assert payload["format"] == LIBRARY_FORMAT
        assert list(payload["cells"]) == ["nor2_test"]

    def test_iteration_and_len(self, nor_table):
        lib = GateLibrary("lib", {nor_table.cell: nor_table})
        assert len(lib) == 1
        assert [t.cell for t in lib] == ["nor2_test"]
        assert lib.cells == ("nor2_test",)
