"""End-to-end envelope round-trips through ``POST /v1/run``.

Every request kind of :mod:`repro.api.requests` goes over real HTTP
and must come back as its matching result envelope — the same typed
object ``session.run_json`` would return.
"""

import json

import pytest

from repro._version import __version__
from repro.api import (CharacterizeRequest, DelayRequest,
                       DescribeRequest, ExperimentRequest,
                       LibraryRequest, Request, Session, StaRequest,
                       StatsRequest, VersionRequest, WireRequest,
                       from_json)

#: (request, expected result envelope kind) for every request kind.
CASES = [
    (VersionRequest(), "version_result"),
    (DescribeRequest(), "describe_result"),
    (DelayRequest(deltas=((0.0,), (5e-12,), (-20e-12,))),
     "delay_result"),
    (DelayRequest(gate="nor3", direction="rising",
                  deltas=((0.0, 2e-12),)), "delay_result"),
    (ExperimentRequest(name="engines"), "experiment_result"),
    (DelayRequest(gate="nor4", deltas=((0.0, 3e-12, -2e-12),)),
     "delay_result"),
    (CharacterizeRequest(core_points=5, state_points=2),
     "characterize_result"),
    (StaRequest(circuit="tree", top=1), "sta_result"),
    (ExperimentRequest(name="multi_input"), "experiment_result"),
    (StatsRequest(deltas=(0.0,), samples=64, seed=3), "stats_result"),
    (WireRequest(stages=2, corners=3), "wire_result"),
    (WireRequest(topology="fanout", branches=2, stages=1,
                 model="elmore", validate=True), "wire_result"),
]


def test_case_table_covers_every_request_kind():
    """The table above must not silently fall behind the API."""
    from repro.api.serialization import _KINDS
    request_kinds = {kind for kind, cls in _KINDS.items()
                     if issubclass(cls, Request)
                     and cls is not Request}
    # "library" needs an on-disk file; test_library_round_trip
    # covers it separately.
    assert {type(req).kind for req, _ in CASES} | {"library"} \
        == request_kinds


@pytest.mark.parametrize(
    "request_record,result_kind", CASES,
    ids=[f"{type(req).kind}-{index}"
         for index, (req, _) in enumerate(CASES)])
def test_round_trip(client, request_record, result_kind):
    status, body = client.run(request_record)
    assert status == 200
    envelope = json.loads(body)
    assert envelope["kind"] == result_kind
    # The body must decode back into the typed result.
    record = from_json(body.decode("utf-8"))
    assert type(record).kind == result_kind
    assert record.text


@pytest.mark.parametrize("kind,data", [
    ("sweep", {"points": 8}),
    ("multi_input", {"gate": "nor3", "points": 3}),
])
def test_removed_benchmark_kinds_are_typed_400(client, kind, data):
    """The engine-sweep and n-input probe kinds are not requests.

    Their workloads run as ``ExperimentRequest`` names at a fixed
    size, so a client cannot size the work.
    """
    body = json.dumps({"schema": "repro.api/1", "kind": kind,
                       "data": data})
    status, payload = client.post("/v1/run", body)
    assert status == 400
    error = from_json(payload)
    assert error.kind == "error"
    assert error.status == 400
    assert error.request_kind == kind
    assert "unknown payload kind" in error.error
    assert repr(kind) in error.error


def test_library_round_trip(client, tmp_path):
    """LibraryRequest needs a file: characterize one, inspect it."""
    from repro.library import GateLibrary
    characterized = client.server.session.run(
        CharacterizeRequest(core_points=5, state_points=2))
    path = tmp_path / "lib.json"
    GateLibrary.from_dict(characterized.library).save(path)
    status, body = client.run(
        LibraryRequest(path=str(path), cell="nor2_paper"))
    assert status == 200
    record = from_json(body.decode("utf-8"))
    assert type(record).kind == "library_inspect_result"
    assert "nor2_paper" in record.cells


def test_response_is_byte_identical_to_run_json(client):
    """The HTTP body is exactly ``result.to_json()`` — no rewrap."""
    request_record = DelayRequest(deltas=((0.0,), (7e-12,)))
    status, body = client.run(request_record)
    assert status == 200
    twin = Session()  # same default bindings as the server fixture
    assert body == twin.run_json(
        request_record.to_json()).to_json().encode("utf-8")


def test_keep_alive_serves_many_requests_per_connection(server):
    import http.client
    connection = http.client.HTTPConnection(server.host, server.port,
                                            timeout=30)
    try:
        for index in range(5):
            connection.request(
                "POST", "/v1/run",
                body=DelayRequest(
                    deltas=((index * 1e-12,),)).to_json())
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 200
            assert payload["kind"] == "delay_result"
    finally:
        connection.close()


def test_health_reports_version(client):
    status, payload = client.get("/v1/health")
    assert status == 200
    assert payload == {"status": "ok", "version": __version__}
