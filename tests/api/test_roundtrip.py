"""Property tests: every request/result round-trips through JSON.

The contract of :mod:`repro.api.serialization`:
``from_json(to_json(x)) == x`` for every registered record type, for
arbitrary field values (non-finite floats included — strict JSON has
no literal for them, so they travel as spelled strings).
"""

import collections
import dataclasses
import json
import math
import typing

import numpy as np
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
from repro.api import serialization
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


#: One malformed ``data`` field per decode branch, with the exact
#: message it must raise: (kind's record class, field, JSON value,
#: message).
MALFORMED_FIELDS = [
    (DelayRequest, "vn_init", "inf", "not a float spelling: 'inf'"),
    (DelayRequest, "vn_init", [1.0], "expected a number, got [1.0]"),
    (DelayRequest, "vn_init", True, "expected a number, got True"),
    (StaRequest, "top", 1.5, "expected an int, got 1.5"),
    (StaRequest, "top", False, "expected an int, got False"),
    (StaRequest, "validate", 1, "expected a bool, got 1"),
    (StaRequest, "circuit", 3, "expected a string, got 3"),
    (DelayRequest, "deltas", 5, "expected an array, got 5"),
    (DelayRequest, "deltas", [[0.0], "x"],
     "expected an array, got 'x'"),
    (DelayRequest, "deltas", [["x"]], "not a float spelling: 'x'"),
    (StatsRequest, "sigma", [["r1", 0.1, 2]],
     "expected 2 entries, got 3"),
    (StatsRequest, "sigma", [[1, 0.1]], "expected a string, got 1"),
    (StaRequest, "required", "soon",
     "value 'soon' fits no arm of float | None"),
    (DescribeResult, "cache", {"hit": [1]},
     "value [1] fits no arm of bool | int | str"),
    (DescribeResult, "experiments", [1],
     "expected an object, got [1]"),
    (DescribeResult, "experiments", {"fig4": 1},
     "expected a string, got 1"),
    (StaRequest, "burst", 3, "unknown field(s) for 'sta': ['burst']"),
]


@pytest.mark.parametrize(
    "cls, field, value, message", MALFORMED_FIELDS,
    ids=[f"{cls.kind}.{field}-{index}" for index, (cls, field, _, _)
         in enumerate(MALFORMED_FIELDS)])
def test_malformed_field_messages(cls, field, value, message):
    """Every decode branch rejects a misfit with its own one-line
    message, through the typed and the generic decode alike."""
    payload = json.loads(cls().to_json())
    payload["data"][field] = value
    for decode in (from_json, cls.from_json):
        with pytest.raises(ParameterError) as caught:
            decode(json.dumps(payload))
        assert str(caught.value) == message


def _with_field(kind: str, field: str, literal: str) -> str:
    """An envelope of *kind* whose *field* is the raw JSON *literal*."""
    return ('{"schema": "repro.api/1", "kind": "' + kind
            + '", "data": {"' + field + '": ' + literal + "}}")


@pytest.mark.parametrize("text", [
    pytest.param(_with_field("delay", "vn_init", "1" + "0" * 5000),
                 id="5001-digit-literal"),
    pytest.param(_with_field("delay", "vn_init", "1" + "0" * 400),
                 id="float-overflow"),
    pytest.param(_with_field("delay", "deltas",
                             "[[1" + "0" * 400 + "]]"),
                 id="float-overflow-in-array"),
    pytest.param(_with_field("sta", "required", "1" + "0" * 400),
                 id="float-overflow-in-union")])
def test_oversized_integer_is_a_parameter_error(text):
    """An integer literal too long to parse, or too large for its
    float field, is a typed ParameterError, never an untyped
    ValueError or OverflowError."""
    with pytest.raises(ParameterError):
        from_json(text)
    with pytest.raises(ParameterError):
        Session().run_json(text)


#: In-process envelope dicts holding an integer past CPython's
#: 4,300-digit ``str`` limit, where its ``repr`` raises ``ValueError``;
#: and the message each must raise instead.
HUGE = 10 ** 5000
HUGE_TEXT = f"an integer of {HUGE.bit_length()} bits"
OVERSIZED_DICTS = [
    ({"kind": "sta", "data": {"required": HUGE}},
     f"value {HUGE_TEXT} fits no arm of float | None"),
    ({"kind": "sta", "data": {"validate": HUGE}},
     f"expected a bool, got {HUGE_TEXT}"),
    ({"kind": "sta", "data": {"circuit": HUGE}},
     f"expected a string, got {HUGE_TEXT}"),
    ({"kind": "delay", "data": {"deltas": [HUGE]}},
     f"expected an array, got {HUGE_TEXT}"),
    ({"kind": "sta", "data": {"required": [HUGE]}},
     "value a list holding an integer too large to print fits no arm "
     "of float | None"),
    ({"kind": HUGE, "data": {}},
     f"unknown payload kind {HUGE_TEXT}; known kinds: "
     f"{', '.join(known_kinds())}"),
    ({"schema": HUGE, "kind": "sta", "data": {}},
     f"not a repro.api payload (schema={HUGE_TEXT})"),
]


@pytest.mark.parametrize(
    "envelope, message", OVERSIZED_DICTS,
    ids=["required", "validate", "circuit", "deltas", "nested", "kind",
         "schema"])
def test_oversized_integer_in_a_dict_payload(envelope, message):
    """A dict payload can carry an integer that JSON text cannot: its
    decode error is a typed one-line ParameterError, never the plain
    ValueError that ``repr`` of the integer raises."""
    payload = {"schema": "repro.api/1", **envelope}
    with pytest.raises(ParameterError) as caught:
        Session().run_json(payload)
    assert str(caught.value) == message
    with pytest.raises(ParameterError):
        from_json(payload)


def test_type_hints_are_resolved_once_per_class(monkeypatch):
    """Decoding resolves a record class's annotations once; every
    later decode of the class reuses its prebuilt field decoders."""
    serialization._field_decoders.cache_clear()
    serialization._decoder.cache_clear()
    calls = collections.Counter()
    resolve = typing.get_type_hints

    def counting(obj, *args, **kwargs):
        calls[obj] += 1
        return resolve(obj, *args, **kwargs)

    monkeypatch.setattr(typing, "get_type_hints", counting)
    texts = [cls().to_json() for cls in ALL_TYPES]
    for _ in range(50):
        for text in texts:
            from_json(text)
    assert calls == collections.Counter(ALL_TYPES)


# ----------------------------------------------------------------------
# the encoder against its item-by-item predecessor
# ----------------------------------------------------------------------

def _item_walk_encode(value):
    """The field encoder before it copied float lists in one pass,
    verbatim: the oracle the current encoder must match."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        if math.isnan(value):
            return "NaN"
        return value
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_item_walk_encode(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _item_walk_encode(item)
                for key, item in value.items()}
    raise ParameterError(
        f"cannot serialize field value of type {type(value).__name__}")


def _outcome(encode, value):
    """What *encode* makes of *value*: its strict-JSON text and the
    ``repr`` of the plain data (so a tuple for a list, or an int for
    a float, shows), or the message it raises."""
    try:
        plain = encode(value)
    except ParameterError as error:
        return "error", str(error)
    return ("ok", json.dumps(plain, sort_keys=True, allow_nan=False),
            repr(plain))


def _assert_same_encoding(value):
    assert _outcome(serialization._encode, value) == \
        _outcome(_item_walk_encode, value)


@pytest.mark.parametrize(
    "cls", ALL_TYPES, ids=[cls.__name__ for cls in ALL_TYPES])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_encoder_matches_the_item_walk(cls, data):
    """Every field of every kind encodes as the item-by-item walk
    encoded it, and so does the whole envelope."""
    record = data.draw(STRATEGIES[cls])
    data_fields = {}
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        _assert_same_encoding(value)
        if value is not None or field.name not in record._omit_none:
            data_fields[field.name] = _item_walk_encode(value)
    assert record.to_json() == json.dumps(
        {"schema": f"{API_SCHEMA}/{API_SCHEMA_VERSION}",
         "kind": cls.kind, "data": data_fields},
        sort_keys=True, allow_nan=False)


#: Values the one-pass copy must see through: non-finite, signed-zero,
#: subnormal and largest floats, sums that overflow, int/bool and
#: NumPy items among floats, nested and empty rows, timings dicts, and
#: NumPy values that have no encoding at all.
HAND_PICKED = [
    math.inf, -math.inf, math.nan, -0.0, 5e-324,
    1.7976931348623157e308,
    (math.inf, -math.inf, math.nan), (1.0, math.nan, 2.0),
    (-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308),
    (1.7976931348623157e308, 1.7976931348623157e308),
    [-1.7976931348623157e308] * 3,
    (1.0, 2, 3.5), (1.0, True), (False, 0.5), [0.5, np.float64(0.25)],
    (np.float64(math.inf),), (np.float64(-0.0), -0.0),
    ((1.0,), (2.0, math.inf)), ((1.0,), ()), ((), ()), (((),),),
    ((1.0, 2.0), [3.0]), (((1.0,),),), ((1.0,), (2,)),
    ((1.0,), (np.float64(2.0),)), ((5e-324,), (-0.0,)),
    ((1.7976931348623157e308,), (1.7976931348623157e308,)),
    [(1.0, 2.0), 3.0],
    {"session.run": 1e-3, "engine.delays": 2.5e-4},
    {"a": (1.0, math.nan), "b": ((0.5,), (math.inf,))}, {1: (0.5,)},
    [], (), [None, 1.0], ["a", 1.0], [[], [1.0]],
    np.int64(3), np.array([1.0, 2.0]), (1.0, np.int64(3)),
    ((1.0,), (np.int64(2),)), ((1.0,), np.array([2.0])),
    {"x": np.array([1.0])},
]


@pytest.mark.parametrize("value", HAND_PICKED,
                         ids=[f"value{i}" for i in range(len(HAND_PICKED))])
def test_encoder_matches_the_item_walk_on_edge_values(value):
    _assert_same_encoding(value)


def test_numpy_values_keep_their_message():
    for value, kind in ((np.int64(3), "int64"),
                        (np.array([1.0]), "ndarray"),
                        ((0.5, np.int64(1)), "int64"),
                        (((0.5,), np.array([1.0])), "ndarray")):
        with pytest.raises(ParameterError) as caught:
            serialization._encode(value)
        assert str(caught.value) == \
            f"cannot serialize field value of type {kind}"


_leaves = (st.floats(width=64) | st.integers(-2**70, 2**70)
           | st.booleans() | st.none() | names
           | st.floats(width=64).map(np.float64)
           | st.integers(-5, 5).map(np.int64))
_float_rows = st.lists(st.floats(width=64), max_size=6)
_values = st.recursive(
    _leaves | _float_rows | _float_rows.map(tuple),
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(names, inner, max_size=3)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(value=_values)
def test_encoder_matches_the_item_walk_on_any_value(value):
    _assert_same_encoding(value)
