"""Behavior of the :class:`repro.api.Session` facade."""

import copy
import json
import math
import os
import pathlib

import numpy as np
import pytest

from repro.api import (CharacterizeRequest, DelayRequest,
                       DescribeRequest, ExperimentRequest,
                       LibraryRequest, Session, StaRequest,
                       StatsRequest, VersionRequest, VersionResult,
                       from_json)
from repro.core.parameters import PAPER_TABLE_I
from repro.engine import get_engine
from repro.errors import ParameterError

#: A library file written by an earlier build (tests/library/data).
_LIBRARY = json.loads((pathlib.Path(__file__).parents[1] / "library"
                       / "data" / "library_v2.json").read_text())


def _poisoned(field: str, value) -> str:
    """The library file with one field of the NOR2 falling surface
    replaced (NaN serializes as the ``NaN`` token Python reads)."""
    payload = copy.deepcopy(_LIBRARY)
    payload["cells"]["nor2_fixture"]["falling"][field] = value
    return json.dumps(payload)


class TestBindings:
    def test_defaults(self):
        session = Session()
        assert session.tech_name == "finfet15"
        assert session.engine.name == "vectorized"
        assert session.parameters == PAPER_TABLE_I

    def test_engine_by_name_and_instance(self):
        assert Session(engine="reference").engine.name == "reference"
        backend = get_engine("reference")
        assert Session(engine=backend).engine is backend

    def test_unknown_engine_raises_on_first_use(self):
        session = Session(engine="gpu")  # construction stays cheap
        with pytest.raises(ValueError, match="unknown delay engine"):
            session.engine

    def test_unknown_tech_rejected(self):
        with pytest.raises(ParameterError, match="unknown technology"):
            Session(tech="tsmc3")

    def test_tech_card_instance(self):
        from repro.spice.technology import BULK65
        session = Session(tech=BULK65)
        assert session.technology is BULK65

    def test_generalized_widening(self):
        session = Session()
        assert session.generalized(3).num_inputs == 3

    def test_repr_is_compact(self):
        session = Session(engine="reference")
        assert "finfet15" in repr(session)
        session.engine
        assert "reference" in repr(session)


class TestDispatch:
    def test_delay_matches_direct_engine_call(self):
        session = Session()
        deltas = ((0.0,), (10e-12,), (float("inf"),))
        result = session.run(DelayRequest(deltas=deltas))
        direct = session.engine.delays_falling(
            PAPER_TABLE_I, np.array([0.0, 10e-12, float("inf")]))
        assert np.allclose(result.delays, direct, atol=0.0)

    def test_run_rejects_non_requests(self):
        with pytest.raises(ParameterError, match="not a known"):
            Session().run("fig4")

    def test_run_json_round_trip(self):
        session = Session()
        result = session.run_json(VersionRequest().to_json())
        assert isinstance(result, VersionResult)
        assert result.version

    def test_run_json_rejects_results(self):
        session = Session()
        result = session.run(VersionRequest())
        with pytest.raises(ParameterError, match="not a request"):
            session.run_json(result.to_json())

    def test_result_envelope_round_trips(self):
        session = Session()
        result = session.run(DescribeRequest())
        assert from_json(result.to_json()) == result

    def test_experiment_unknown_name(self):
        with pytest.raises(ParameterError, match="unknown experiment"):
            Session().run(ExperimentRequest(name="fig99"))

    def test_every_catalog_name_is_runnable(self):
        """experiment_names() is the ExperimentRequest contract —
        the probe-style names must not be rejected."""
        from repro.api import experiment_names
        session = Session()
        for name in ("engines", "multi_input"):
            assert name in experiment_names()
        result = session.run(ExperimentRequest(name="multi_input"))
        assert "n=2 reduction" in result.text

    def test_sta_honors_the_session_parameters(self):
        """StaRequest must analyze the *bound* parameter set."""
        from repro.api import StaRequest
        default = Session().run(StaRequest(circuit="nor2"))
        slowed = Session(
            parameters=PAPER_TABLE_I.replace(
                r3=4.0 * PAPER_TABLE_I.r3,
                r4=4.0 * PAPER_TABLE_I.r4))
        other = slowed.run(StaRequest(circuit="nor2"))
        assert other.analysis != default.analysis
        # The corner sweep scales the bound set, not Table I.
        corners = StaRequest(circuit="nor2", corners=8, seed=1)
        default_sweep = Session().run(corners).analysis["sweep"]
        assert slowed.run(corners).analysis["sweep"] != default_sweep
        loaded = Session(parameters=PAPER_TABLE_I.replace(
            co=3.0 * PAPER_TABLE_I.co)).run(corners).analysis["sweep"]
        assert loaded["summary_s"]["min"] \
            > default_sweep["summary_s"]["max"]

    def test_sta_reuses_the_memoized_graph(self):
        from repro.api import StaRequest
        session = Session()
        graph = session.timing_graph("nor2")
        session.run(StaRequest(circuit="nor2", top=1))
        assert session.timing_graph("nor2") is graph

    def test_delay_arity_validation(self):
        with pytest.raises(ParameterError, match="sibling offset"):
            Session().run(DelayRequest(gate="nor3",
                                       deltas=((1e-12,),)))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("engine", ["reference", "vectorized"])
class TestNonFiniteInitialVoltage:
    """A NaN or infinite ``vn_init`` is a typed parameter error on
    every path through ``Session.run`` — never a wrong-kind error or a
    result full of NaN."""

    @pytest.mark.parametrize("gate, deltas",
                             [("nor2", ((5e-12,),)),
                              ("nor3", ((5e-12, 0.0),))])
    def test_delay_request(self, engine, value, gate, deltas):
        request = DelayRequest(gate=gate, direction="rising",
                               deltas=deltas, vn_init=value)
        with pytest.raises(ParameterError, match="must be finite"):
            Session(engine=engine).run(request)

    def test_stats_request(self, engine, value):
        request = StatsRequest(method="mc", direction="rising",
                               samples=8, vn_init=value)
        with pytest.raises(ParameterError, match="vn_init"):
            Session(engine=engine).run(request)


class TestNonFiniteTimingInputs:
    """Statistical and plain STA reject a NaN requirement and a
    non-finite arrival jitter instead of reporting a wrong yield or
    unconstrained slacks."""

    @pytest.mark.parametrize("field, value", [
        ("arrival_sigma", math.inf), ("arrival_sigma", math.nan),
        ("required", math.nan)])
    def test_stats_yield_request(self, field, value):
        fields = {"required": 250e-12, field: value}
        request = StatsRequest(method="yield", samples=8, **fields)
        with pytest.raises(ParameterError, match=f"{field}|NaN"):
            Session().run(request)

    def test_sta_request(self):
        with pytest.raises(ParameterError, match="NaN"):
            Session().run(StaRequest(circuit="nor2",
                                     required=math.nan))

    @pytest.mark.parametrize("per_instance", [False, True])
    def test_yield_nan_arrival(self, per_instance):
        """A NaN arrival used to give yield 0.0 with every worst
        arrival NaN."""
        from repro.stats import ParameterDistribution, timing_yield
        graph = Session().timing_graph("tree")
        distribution = ParameterDistribution(PAPER_TABLE_I,
                                             {"r1": 0.05})
        with pytest.raises(ParameterError, match="'a'.*NaN"):
            timing_yield(graph, distribution, samples=4,
                         required=200e-12, arrivals={"a": math.nan},
                         per_instance=per_instance)


class TestEmptyDeltaGrid:
    @pytest.mark.parametrize("method", ["mc", "surrogate"])
    def test_empty_grid_is_rejected(self, method):
        """An empty Δ grid is a typed error, not a result with empty
        columns."""
        request = StatsRequest(method=method, deltas=(), samples=8)
        with pytest.raises(ParameterError, match="at least one Δ"):
            Session().run(request)

    def test_yield_ignores_deltas(self):
        """Statistical STA has no Δ grid, so an empty one is fine."""
        result = Session().run(StatsRequest(method="yield", deltas=(),
                                            samples=8))
        assert len(result.mean) == 1


class TestCharacterizeGridSizes:
    @pytest.mark.parametrize("field, message", [
        ("core_points", "core_points must be >= 3"),
        ("state_points", "at least 2 points")])
    def test_zero_reaches_the_grid_checks(self, field, message):
        """0 is a grid size, not "use the default grid"."""
        request = CharacterizeRequest(**{field: 0})
        with pytest.raises(ParameterError, match=message):
            Session().run(request)


class TestCaching:
    def test_repeats_are_cache_hits(self):
        session = Session()
        request = DelayRequest(deltas=((5e-12,),))
        first = session.run(request)
        second = session.run(request)
        assert second is first
        info = session.cache_info()
        assert info["hits"] == 1
        assert info["misses"] == 1

    def test_equal_requests_share_one_entry(self):
        session = Session()
        first = session.run(DelayRequest(deltas=((5e-12,),)))
        second = session.run(DelayRequest(deltas=((5e-12,),)))
        assert second is first

    def test_cache_can_be_disabled(self):
        session = Session(cache=False)
        request = VersionRequest()
        assert session.run(request) is not session.run(request)
        info = session.cache_info()
        assert info["size"] == 0
        assert info["misses"] == 2  # dispatches still counted

    def test_cache_false_covers_files_and_graphs(self, tmp_path):
        """cache=False must re-read files, as the docstring says."""
        from repro.library import GateLibrary, characterize_gate
        from repro.library.characterize import CharacterizationJob
        table = characterize_gate(
            CharacterizationJob("nor2_paper", PAPER_TABLE_I,
                                deltas=(0.0, 1e-12),
                                state_grid=(0.0,)))
        path = tmp_path / "lib.json"
        GateLibrary("first", {"nor2_paper": table}).save(path)
        session = Session(cache=False)
        assert session.load_library(path).name == "first"
        GateLibrary("second", {"nor2_paper": table}).save(path)
        assert session.load_library(path).name == "second"
        assert session.timing_graph("nor2") \
            is not session.timing_graph("nor2")

    def test_clear_cache(self):
        session = Session()
        session.run(VersionRequest())
        session.clear_cache()
        assert session.cache_info() == {"hits": 0, "misses": 0,
                                        "size": 0}

    def test_timing_graph_memoized(self):
        session = Session()
        assert session.timing_graph("nor2") \
            is session.timing_graph("nor2")


class TestLibraryAccess:
    def test_missing_file_is_one_line_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="no such file"):
            Session().load_library(tmp_path / "nope.json")

    def test_foreign_json_is_one_line_value_error(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="cannot read"):
            Session().load_library(path)

    @pytest.mark.parametrize("content", [
        "[1, 2]", '"str"',
        '{"format": "repro-gate-library", "format_version": 2, '
        '"cells": [1]}',
        pytest.param(_poisoned("delays_s", [[float("nan")] * 9]),
                     id="nan-delay"),
        pytest.param(_poisoned("state_grid_v", [float("nan")]),
                     id="nan-state")])
    def test_non_object_json_is_one_line_value_error(self, tmp_path,
                                                     content):
        path = tmp_path / "odd.json"
        path.write_text(content)
        with pytest.raises(ValueError, match="cannot read") as info:
            Session().load_library(path)
        assert "\n" not in str(info.value)

    def test_directory_is_one_line_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            Session().load_library(tmp_path)
        # The LibraryRequest default path "" names the working
        # directory.
        with pytest.raises(ValueError, match="cannot read"):
            Session().run(LibraryRequest())

    @pytest.mark.skipif(not os.path.exists("/proc/self/mem"),
                        reason="needs a procfs file that fails to read")
    def test_unreadable_file_is_one_line_value_error(self):
        with pytest.raises(ValueError, match="cannot read"):
            Session().load_library("/proc/self/mem")

    def test_sta_library_path_errors_are_value_errors(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        for library_path in (str(path), str(tmp_path)):
            request = StaRequest(circuit="nor2",
                                 library_path=library_path,
                                 cell="nor2_paper")
            with pytest.raises(ValueError, match="cannot read"):
                Session().run(request)

    def test_sta_library_requires_cell(self, tmp_path):
        request = StaRequest(circuit="nor2",
                             library_path=str(tmp_path / "x.json"))
        with pytest.raises(ParameterError, match="--cell"):
            Session().run(request)

    def test_library_request_missing_file(self, tmp_path):
        request = LibraryRequest(path=str(tmp_path / "nope.json"))
        with pytest.raises(ValueError, match="no such file"):
            Session().run(request)
