"""Property tests: every request/result round-trips through JSON.

The contract of :mod:`repro.api.serialization`:
``from_json(to_json(x)) == x`` for every registered record type, for
arbitrary field values (non-finite floats included — strict JSON has
no literal for them, so they travel as spelled strings).
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (API_SCHEMA, API_SCHEMA_VERSION, ApiRecord,
                       CharacterizeRequest, CharacterizeResult,
                       DelayRequest, DelayResult, DescribeRequest,
                       DescribeResult, ErrorResult,
                       ExperimentRequest,
                       ExperimentResult, LibraryInspectResult,
                       LibraryRequest, StaRequest, StaRunResult,
                       StatsRequest, StatsResult, VersionRequest,
                       VersionResult, WireRequest, WireResult,
                       Session, from_json, known_kinds)
from repro.errors import ParameterError

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
maybe_inf = st.floats(allow_nan=False, allow_infinity=True, width=64)
names = st.text(max_size=24)
counts = st.integers(min_value=0, max_value=10**6)
seeds = st.integers(min_value=-2**31, max_value=2**31)

#: Δ-vectors: tuples of tuples of (possibly infinite) floats.
delta_vectors = st.lists(
    st.lists(maybe_inf, min_size=1, max_size=3).map(tuple),
    min_size=1, max_size=4).map(tuple)

#: JSON-shaped data for ``Any``-typed payload fields.  Finite floats
#: only: inside an untyped payload there is no annotation to restore
#: an ``inf`` spelling from.
_json_scalar = (st.none() | st.booleans()
                | st.integers(-10**9, 10**9) | finite | names)
json_payload = st.dictionaries(
    names,
    st.recursive(_json_scalar,
                 lambda inner: (st.lists(inner, max_size=3)
                                | st.dictionaries(names, inner,
                                                  max_size=3)),
                 max_leaves=6),
    max_size=4)

str_dicts = st.dictionaries(names, names, max_size=4)
name_tuples = st.lists(names, max_size=4).map(tuple)
float_tuples = st.lists(maybe_inf, max_size=5).map(tuple)
gates = st.sampled_from(["nor2", "nor3", "nor4"])

STRATEGIES = {
    DescribeRequest: st.builds(DescribeRequest),
    VersionRequest: st.builds(VersionRequest),
    DelayRequest: st.builds(
        DelayRequest,
        direction=st.sampled_from(["falling", "rising"]),
        deltas=delta_vectors, gate=gates, vn_init=finite),
    CharacterizeRequest: st.builds(
        CharacterizeRequest, gate=gates, fit=st.booleans(),
        core_points=st.none() | counts,
        state_points=st.none() | counts, library_name=names),
    LibraryRequest: st.builds(LibraryRequest, path=names,
                              cell=st.none() | names,
                              verify=st.booleans()),
    StaRequest: st.builds(
        StaRequest, circuit=names,
        library_path=st.none() | names, cell=st.none() | names,
        required=st.none() | maybe_inf, top=counts,
        corners=st.none() | counts, seed=seeds,
        validate=st.booleans()),
    ExperimentRequest: st.builds(
        ExperimentRequest, name=names, with_analog=st.booleans(),
        transitions=st.none() | counts,
        repetitions=st.none() | counts, seed=seeds),
    DescribeResult: st.builds(
        DescribeResult, version=names, engines=name_tuples,
        experiments=str_dicts, workflows=str_dicts, text=names),
    ErrorResult: st.builds(
        ErrorResult, error=names, exception=names,
        request_kind=st.none() | names,
        status=st.integers(min_value=0, max_value=599), text=names),
    VersionResult: st.builds(VersionResult, version=names,
                             text=names),
    DelayResult: st.builds(
        DelayResult, gate=gates,
        direction=st.sampled_from(["falling", "rising"]),
        engine=names, deltas=delta_vectors, delays=float_tuples,
        text=names),
    CharacterizeResult: st.builds(
        CharacterizeResult, cells=name_tuples,
        worst_error=maybe_inf, engine=names, library=json_payload,
        text=names),
    LibraryInspectResult: st.builds(
        LibraryInspectResult, name=names, cells=name_tuples,
        text=names),
    StaRunResult: st.builds(
        StaRunResult, circuit=st.none() | names, engine=names,
        analysis=st.none() | json_payload,
        max_error=st.none() | maybe_inf, text=names),
    ExperimentResult: st.builds(ExperimentResult, name=names,
                                text=names),
    StatsRequest: st.builds(
        StatsRequest,
        method=st.sampled_from(["mc", "surrogate", "yield"]),
        gate=gates,
        direction=st.sampled_from(["falling", "rising"]),
        deltas=float_tuples, samples=counts, seed=seeds,
        sigma=st.lists(st.tuples(names, maybe_inf),
                       max_size=4).map(tuple),
        distribution=st.sampled_from(["lognormal", "normal"]),
        correlation=finite, vn_init=finite,
        percentiles=float_tuples, bins=counts,
        degree=st.integers(min_value=1, max_value=5),
        circuit=names, required=st.none() | maybe_inf,
        arrival_sigma=finite, per_instance=st.booleans()),
    StatsResult: st.builds(
        StatsResult,
        method=st.sampled_from(["mc", "surrogate", "yield"]),
        gate=gates,
        direction=st.sampled_from(["falling", "rising"]),
        circuit=st.none() | names, samples=counts,
        deltas=float_tuples, mean=float_tuples, std=float_tuples,
        minimum=float_tuples, maximum=float_tuples,
        percentile_levels=float_tuples,
        percentile_values=st.lists(float_tuples,
                                   max_size=3).map(tuple),
        histogram_edges=st.none() | st.lists(
            float_tuples, max_size=3).map(tuple),
        histogram_counts=st.none() | st.lists(
            float_tuples, max_size=3).map(tuple),
        yield_fraction=st.none() | finite,
        required=st.none() | maybe_inf, text=names),
    WireRequest: st.builds(
        WireRequest,
        topology=st.sampled_from(["line", "fanout"]),
        stages=counts, branches=counts,
        resistance=finite, capacitance=finite, sink_load=finite,
        model=st.sampled_from(["elmore", "two_pole"]),
        corners=counts, seed=seeds, validate=st.booleans()),
    WireResult: st.builds(
        WireResult,
        topology=names, model=names, sinks=name_tuples,
        elmore=float_tuples, delays=float_tuples,
        slews=float_tuples, total_capacitance=maybe_inf,
        corners=counts,
        corner_delay_min=st.none() | maybe_inf,
        corner_delay_max=st.none() | maybe_inf,
        max_error=st.none() | maybe_inf, text=names),
}

ALL_TYPES = sorted(STRATEGIES, key=lambda cls: cls.__name__)


@pytest.mark.parametrize(
    "cls", ALL_TYPES, ids=[cls.__name__ for cls in ALL_TYPES])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_roundtrip_identity(cls, data):
    """``from_json(to_json(x)) == x`` — typed and generic decode."""
    record = data.draw(STRATEGIES[cls])
    text = record.to_json()
    json.loads(text)  # strict JSON (no NaN/Infinity literals)
    assert cls.from_json(text) == record
    assert from_json(text) == record
    assert from_json(record.to_dict()) == record


def test_every_kind_is_registered():
    kinds = known_kinds()
    assert len(kinds) == len(ALL_TYPES) == 19
    assert {cls.kind for cls in ALL_TYPES} == set(kinds)


@pytest.mark.parametrize("kind", ["sweep", "multi_input",
                                  "sweep_result",
                                  "multi_input_result"])
def test_removed_benchmark_kinds_are_unknown(kind):
    """The engine-sweep and n-input probe envelopes left the API;
    the two workloads run as ``ExperimentRequest`` names."""
    assert kind not in known_kinds()
    payload = {"schema": f"{API_SCHEMA}/{API_SCHEMA_VERSION}",
               "kind": kind, "data": {}}
    with pytest.raises(ParameterError, match="unknown payload kind"):
        from_json(payload)


def test_error_result_wraps_exceptions():
    error = ErrorResult.from_exception(ValueError("bad input"),
                                       request_kind="delay",
                                       status=400)
    assert error.error == "bad input"
    assert error.exception == "ValueError"
    assert error.request_kind == "delay"
    assert error.status == 400
    assert error.text == "error: bad input"
    assert from_json(error.to_json()) == error
    # Message-less exceptions fall back to the class name.
    assert ErrorResult.from_exception(RuntimeError()).error \
        == "RuntimeError"


def test_infinities_travel_as_strings():
    record = StaRequest(required=math.inf)
    payload = json.loads(record.to_json())
    assert payload["data"]["required"] == "Infinity"
    back = StaRequest.from_json(payload)
    assert back.required == math.inf
    assert back == record


def test_schema_version_is_checked():
    payload = json.loads(VersionRequest().to_json())
    payload["schema"] = f"{API_SCHEMA}/{API_SCHEMA_VERSION + 1}"
    with pytest.raises(ParameterError, match="schema version"):
        from_json(payload)
    payload["schema"] = "someone-else/1"
    with pytest.raises(ParameterError, match="not a repro.api"):
        from_json(payload)
    with pytest.raises(ParameterError, match="not a repro.api"):
        from_json({"kind": "version", "data": {}})


def test_unknown_kind_and_fields_are_rejected():
    payload = json.loads(VersionRequest().to_json())
    payload["kind"] = "teleport"
    with pytest.raises(ParameterError, match="unknown payload kind"):
        from_json(payload)
    payload = json.loads(StaRequest().to_json())
    payload["data"]["burst"] = 3
    with pytest.raises(ParameterError, match="unknown field"):
        from_json(payload)


def test_kind_mismatch_in_typed_decode():
    with pytest.raises(ParameterError, match="expected a 'sta'"):
        StaRequest.from_json(VersionRequest().to_json())


def test_malformed_json_is_a_parameter_error():
    with pytest.raises(ParameterError, match="not a JSON payload"):
        from_json("{nope")
    with pytest.raises(ParameterError, match="JSON object"):
        from_json("[1, 2]")


def _deep(depth: int) -> str:
    """A delay envelope whose Δ grid nests *depth* arrays deep."""
    return ('{"schema": "repro.api/1", "kind": "delay", "data": '
            '{"deltas": ' + "[" * depth + "]" * depth + "}}")


@pytest.mark.parametrize("depth", [5_000, 100_000])
def test_deep_nesting_is_a_parameter_error(depth):
    """Nesting past the decoder's recursion limit is malformed JSON:
    a typed ParameterError, never an untyped RecursionError."""
    for text in (_deep(depth), "[" * depth + "]" * depth):
        with pytest.raises(ParameterError, match="not a JSON payload"):
            from_json(text)
    with pytest.raises(ParameterError, match="not a JSON payload"):
        Session().run_json(_deep(depth))


def test_field_type_enforcement():
    payload = json.loads(StaRequest().to_json())
    payload["data"]["top"] = "many"
    with pytest.raises(ParameterError):
        from_json(payload)


def test_base_class_is_abstractly_decodable():
    record = DelayRequest()
    assert ApiRecord.from_json(record.to_json()) == record
