"""Library files written by an earlier build load and read the same.

``data/library_v2.json`` (a NOR2, a NAND2 and a NOR3 cell on coarse
grids) and its 2-input ``format_version: 1`` copy
``data/library_v1.json`` were written by an earlier build with
``characterize_gate`` + ``GateLibrary.save``.
``data/library_lookups.json`` holds clamped lookups that build
recorded at grid nodes, cell midpoints, ``±inf``, finite out-of-range
separations, and (2-input) a state between two grid rows.
"""

import json
import pathlib

import pytest

from repro.library import GateLibrary

DATA = pathlib.Path(__file__).parent / "data"
V2 = DATA / "library_v2.json"
V1 = DATA / "library_v1.json"
LOOKUPS = json.loads((DATA / "library_lookups.json").read_text())["cases"]


def _case_id(case) -> str:
    return f"{case['cell']}-{case['direction']}"


@pytest.fixture(scope="module")
def library() -> GateLibrary:
    return GateLibrary.load(V2)


class TestEarlierBuildFiles:
    def test_v2_file_loads(self, library):
        assert library.cells == ("nand2_fixture", "nor2_fixture",
                                 "nor3_fixture")
        assert library["nor3_fixture"].num_inputs == 3

    def test_v2_file_resaves_byte_identical(self, library, tmp_path):
        path = library.save(tmp_path / "again.json")
        assert path.read_bytes() == V2.read_bytes()

    def test_v1_file_loads_the_same_tables(self, library):
        old = GateLibrary.load(V1)
        assert old.cells == ("nand2_fixture", "nor2_fixture")
        for cell in old.cells:
            assert old[cell] == library[cell]

    @pytest.mark.parametrize("case", LOOKUPS, ids=_case_id)
    def test_lookups_match_recorded_values(self, library, case):
        table = library[case["cell"]]
        lookup = getattr(table, f"delay_{case['direction']}")
        for row in case["rows"]:
            got = [lookup(delta, row["state_v"], clamp=True)
                   for delta in case["deltas_s"]]
            assert got == pytest.approx(row["delays_s"], rel=0.0,
                                        abs=1e-18)
