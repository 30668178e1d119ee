"""Contract tests for DelaySurface / GateDelayTable / GateLibrary."""

import json
import math

import numpy as np
import pytest

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
    return DelaySurface(direction, tuple(deltas), tuple(states), rows)


class TestDelaySurface:
    def test_rejects_bad_direction(self):
        with pytest.raises(ParameterError):
            _surface(direction="sideways")

    def test_rejects_non_monotone_deltas(self):
        with pytest.raises(ParameterError):
            _surface(deltas=(0.0, 0.0, 1.0 * PS))

    def test_rejects_ragged_rows(self):
        with pytest.raises(ParameterError):
            DelaySurface("falling", (0.0, 1.0 * PS), (0.0,),
                         ((1.0 * PS,),))

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ParameterError):
            DelaySurface("falling", (0.0, 1.0 * PS), (0.0, 0.4),
                         ((1.0 * PS, 2.0 * PS),))

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

    def test_curve_is_miscurve(self):
        curve = _surface().curve()
        assert isinstance(curve, MisCurve)
        assert curve.direction == "falling"

    def test_round_trip(self):
        surface = _surface(states=(0.0, 0.8))
        assert DelaySurface.from_dict(surface.to_dict()) == surface


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
