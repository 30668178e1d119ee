"""Fault injection: bad inputs, handler bugs, timeouts, disconnects.

Every failure mode must come back as a clean JSON error envelope with
the right 4xx/5xx status — and, crucially, the server must keep
serving afterwards.  Each test therefore ends by proving the next
request still succeeds.
"""

import copy
import json
import pathlib
import socket
import threading
import time

import pytest

from repro.api import DelayRequest, VersionRequest
from repro.api.handlers import HANDLERS
from repro.server import JobStore


#: A delay envelope nested far past the JSON decoder's recursion limit.
_DEEP = ('{"schema": "repro.api/1", "kind": "delay", "data": '
         '{"deltas": ' + "[" * 5000 + "]" * 5000 + "}}")


def _long_vn_init(zeros: int) -> str:
    """A delay envelope whose ``vn_init`` is the integer literal 1
    followed by *zeros* zeros."""
    return ('{"schema": "repro.api/1", "kind": "delay", "data": '
            '{"vn_init": 1' + "0" * zeros + "}}")


#: A library file written by an earlier build (tests/library/data).
_LIBRARY = json.loads((pathlib.Path(__file__).parents[1] / "library"
                       / "data" / "library_v2.json").read_text())


def _poisoned(field: str, value) -> str:
    """The library file with one field of the NOR2 falling surface
    replaced (NaN serializes as the ``NaN`` token Python reads)."""
    payload = copy.deepcopy(_LIBRARY)
    payload["cells"]["nor2_fixture"]["falling"][field] = value
    return json.dumps(payload)


def _alive(client) -> None:
    """The server must still answer after whatever just happened."""
    status, payload = client.get("/v1/health")
    assert status == 200 and payload["status"] == "ok"


class TestBadBodies:
    def test_malformed_json_is_400(self, client):
        status, payload = client.post("/v1/run", "{not json")
        assert status == 400
        assert payload["kind"] == "error"
        assert payload["data"]["status"] == 400
        _alive(client)

    def test_non_envelope_json_is_400(self, client):
        status, payload = client.post("/v1/run", "[1, 2, 3]")
        assert status == 400
        assert payload["kind"] == "error"
        _alive(client)

    def test_unknown_kind_is_400_with_request_kind(self, client):
        body = json.dumps({"schema": "repro.api/1", "kind": "nope",
                           "data": {}})
        status, payload = client.post("/v1/run", body)
        assert status == 400
        assert payload["data"]["request_kind"] == "nope"
        _alive(client)

    def test_posting_a_result_envelope_is_400(self, client):
        from repro.api import VersionResult
        status, payload = client.post(
            "/v1/run", VersionResult(version="1").to_json())
        assert status == 400
        assert "is a result" in payload["data"]["error"]
        _alive(client)

    @pytest.mark.parametrize("content", [
        None, "[1, 2]", '"str"',
        '{"format": "repro-gate-library", "format_version": 2, '
        '"cells": [1]}',
        pytest.param(_poisoned("delays_s", [[float("nan")] * 9]),
                     id="nan-delay"),
        pytest.param(_poisoned("state_grid_v", [float("nan")]),
                     id="nan-state")])
    def test_unreadable_library_is_400(self, client, tmp_path,
                                       content):
        """A library path that is a directory (``None``: the default
        ``path=""``) or a file holding no library object — or one
        with non-finite table data — is a typed client error, for
        LibraryRequest and StaRequest alike."""
        from repro.api import LibraryRequest, StaRequest
        path = ""
        if content is not None:
            path = str(tmp_path / "odd.json")
            (tmp_path / "odd.json").write_text(content)
        for record in (LibraryRequest(path=path),
                       StaRequest(library_path=path, cell="nor2")):
            status, body = client.run(record)
            assert status == 400
            payload = json.loads(body)
            assert payload["kind"] == "error"
            assert "cannot read" in payload["data"]["error"]
        _alive(client)

    def test_deep_nesting_is_400(self, client):
        """An envelope nested past the JSON decoder's recursion limit
        is a typed client error."""
        status, payload = client.post("/v1/run", _DEEP)
        assert status == 400
        assert payload["kind"] == "error"
        assert payload["data"]["exception"] == "ParameterError"
        _alive(client)

    def test_deep_nesting_batch_line_is_typed(self, client):
        upload = "\n".join([VersionRequest().to_json(), _DEEP]) + "\n"
        _, meta = client.post("/v1/batches", upload)
        final = client.wait_job(meta["id"])
        assert (final["ok"], final["errors"]) == (1, 1)
        records = {record["line"]: record for record in
                   client.server.store.result_records(meta["id"])}
        assert records[2]["envelope"]["data"]["exception"] \
            == "ParameterError"
        _alive(client)

    @pytest.mark.parametrize("zeros", [5000, 400],
                             ids=["5001-digits", "float-overflow"])
    def test_oversized_integer_is_400(self, client, zeros):
        """An integer literal past the int/str digit limit, or too
        large for its float field, is a typed client error."""
        status, payload = client.post("/v1/run", _long_vn_init(zeros))
        assert status == 400
        assert payload["kind"] == "error"
        assert payload["data"]["exception"] == "ParameterError"
        _alive(client)

    def test_invalid_utf8_is_400(self, client):
        status, _, body = client.request("POST", "/v1/run",
                                         body=b"\xff\xfe{}")
        assert status == 400
        assert json.loads(body)["kind"] == "error"
        _alive(client)

    def test_missing_content_length_is_411(self, server, make_client):
        with socket.create_connection(
                (server.host, server.port), timeout=10) as sock:
            sock.sendall(b"POST /v1/run HTTP/1.1\r\n"
                         b"Host: test\r\n\r\n")
            reply = sock.recv(4096).decode("utf-8", "replace")
        assert reply.startswith("HTTP/1.1 411")
        assert '"kind": "error"' in reply
        _alive(make_client(server))

    def test_oversized_body_is_413(self, make_server, make_client):
        server = make_server(max_body=1024)
        client = make_client(server)
        status, payload = client.post("/v1/run", "x" * 4096)
        assert status == 413
        assert "exceeds" in payload["data"]["error"]
        _alive(client)

    def test_unknown_endpoint_is_404(self, client):
        status, payload = client.get("/v1/nope")
        assert status == 404
        assert payload["kind"] == "error"
        _alive(client)


class TestHandlerBugs:
    def test_handler_bug_is_500_and_server_survives(self, client,
                                                    monkeypatch):
        def boom(session, request):
            raise RuntimeError("injected handler bug")

        monkeypatch.setitem(HANDLERS, VersionRequest, boom)
        status, payload = client.post("/v1/run",
                                      VersionRequest().to_json())
        assert status == 500
        assert payload["data"]["exception"] == "RuntimeError"
        assert payload["data"]["error"] == "injected handler bug"
        # An unaffected kind still works on the same server.
        status, _ = client.run(DelayRequest(deltas=((1e-12,),)))
        assert status == 200
        _alive(client)

    def test_handler_bug_mid_batch_is_per_line(self, client,
                                               monkeypatch):
        def boom(session, request):
            raise RuntimeError("injected handler bug")

        monkeypatch.setitem(HANDLERS, VersionRequest, boom)
        upload = "\n".join([
            DelayRequest(deltas=((2e-12,),)).to_json(),
            VersionRequest().to_json(),  # the poisoned line
            DelayRequest(deltas=((4e-12,),)).to_json(),
        ]) + "\n"
        _, meta = client.post("/v1/batches", upload)
        final = client.wait_job(meta["id"])
        assert final["status"] == "completed_with_errors"
        assert final["ok"] == 2 and final["errors"] == 1
        records = {record["line"]: record for record in
                   client.server.store.result_records(meta["id"])}
        assert records[1]["status"] == "ok"
        assert records[3]["status"] == "ok"
        assert records[2]["envelope"]["data"]["exception"] \
            == "RuntimeError"
        assert records[2]["envelope"]["data"]["request_kind"] \
            == "version"


class TestTimeouts:
    def test_slow_handler_times_out_with_504(self, make_server,
                                             make_client,
                                             monkeypatch):
        original = HANDLERS[VersionRequest]

        def stall(session, request):
            time.sleep(2.0)
            return original(session, request)

        monkeypatch.setitem(HANDLERS, VersionRequest, stall)
        server = make_server(request_timeout=0.3)
        client = make_client(server)
        start = time.monotonic()
        status, payload = client.post("/v1/run",
                                      VersionRequest().to_json())
        elapsed = time.monotonic() - start
        assert status == 504
        assert payload["data"]["exception"] == "TimeoutError"
        assert payload["data"]["request_kind"] == "version"
        assert elapsed < 1.5  # did not wait out the slow handler
        # The timeout is visible in the counters, and the server
        # still serves fast requests.
        status, _ = client.run(DelayRequest(deltas=((1e-12,),)))
        assert status == 200
        _, stats = client.get("/v1/stats")
        assert stats["requests"]["timeouts"] == 1
        _alive(client)


def _hit_counter(client) -> float:
    """``repro_session_requests_total{kind="delay",outcome="hit"}``
    from ``/v1/metrics`` (process-wide, so tests read differences)."""
    _, _, body = client.request("GET", "/v1/metrics")
    prefix = "repro_session_requests_total{"
    for line in body.decode("utf-8").splitlines():
        if (line.startswith(prefix) and 'kind="delay"' in line
                and 'outcome="hit"' in line):
            return float(line.rsplit(" ", 1)[1])
    return 0.0


class TestMemoHits:
    """A memo hit is answered on the connection thread: it takes no
    run-pool worker, so a stalled miss cannot hold it up."""

    def test_hit_takes_no_worker(self, make_server, make_client,
                                 monkeypatch):
        server = make_server(run_workers=1, request_timeout=0.5)
        client = make_client(server)
        delay = DelayRequest(direction="rising",
                             deltas=((1e-12,), (-3e-12,)))
        status, first = client.run(delay)
        assert status == 200
        hits_before = _hit_counter(client)

        original = HANDLERS[VersionRequest]
        entered, release = threading.Event(), threading.Event()

        def stall(session, request):
            entered.set()
            release.wait(10.0)
            return original(session, request)

        monkeypatch.setitem(HANDLERS, VersionRequest, stall)
        miss = {}

        def stalled_miss():
            miss["reply"] = client.post("/v1/run",
                                        VersionRequest().to_json())

        thread = threading.Thread(target=stalled_miss)
        thread.start()
        try:
            assert entered.wait(5.0)  # the one worker is held
            start = time.monotonic()
            status, again = client.run(delay)  # another connection
            elapsed = time.monotonic() - start
            thread.join(5.0)
        finally:
            release.set()
        assert not thread.is_alive()
        assert status == 200
        assert again == first
        assert elapsed < 0.5
        status, payload = miss["reply"]
        assert status == 504
        assert payload["data"]["exception"] == "TimeoutError"
        assert server.session.cache_info()["hits"] == 1
        assert _hit_counter(client) - hits_before == 1.0
        _alive(client)

    def test_decode_errors_keep_their_bytes(self, client):
        """Decoding moved to the connection thread; a bad field and a
        result kind still get the same 400 bodies."""
        from repro.api import DelayResult
        bad_field = ('{"schema": "repro.api/1", "kind": "delay", '
                     '"data": {"vn_init": "hot"}}')
        status, _, body = client.request("POST", "/v1/run",
                                         body=bad_field)
        assert status == 400
        assert body == (
            b'{"data": {"error": "not a float spelling: \'hot\'", '
            b'"exception": "ParameterError", "request_kind": "delay", '
            b'"status": 400, "text": "error: not a float spelling: '
            b'\'hot\'"}, "kind": "error", "schema": "repro.api/1"}\n')
        status, _, body = client.request("POST", "/v1/run",
                                         body=DelayResult().to_json())
        assert status == 400
        assert body == (
            b'{"data": {"error": "payload kind \'delay_result\' is a '
            b'result, not a request", "exception": "ParameterError", '
            b'"request_kind": "delay_result", "status": 400, "text": '
            b'"error: payload kind \'delay_result\' is a result, not '
            b'a request"}, "kind": "error", "schema": "repro.api/1"}\n')
        assert client.server.session.cache_info()["hits"] == 0
        _alive(client)

    def test_node_voltage_outside_the_rails_is_400(self, client):
        """A rising delay from ``V_N`` = 1.6 V on the 0.8 V card used
        to answer 200 with 50.4 ps."""
        status, payload = client.post(
            "/v1/run", DelayRequest(direction="rising",
                                    vn_init=1.6).to_json())
        assert status == 400
        assert payload["data"]["exception"] == "ParameterError"
        assert payload["data"]["error"] == \
            "node voltage 1.6 outside [0, VDD]"
        _alive(client)


class TestDisconnects:
    def test_client_vanishing_mid_request_is_survived(
            self, client, server):
        # Claim a large body, send almost none of it, hang up: the
        # handler's read comes up short and its error response hits a
        # closed socket.
        with socket.create_connection(
                (server.host, server.port), timeout=10) as sock:
            sock.sendall(b"POST /v1/run HTTP/1.1\r\n"
                         b"Host: test\r\n"
                         b"Content-Length: 1000000\r\n\r\n{")
        time.sleep(0.1)
        _alive(client)

    def test_disconnect_mid_results_stream_is_survived(
            self, tmp_path, make_server, make_client):
        # A finished job with a multi-megabyte results file, built
        # directly on disk so the test needs no compute.
        job_dir = tmp_path / "jobs"
        store = JobStore(job_dir)
        meta = store.create(VersionRequest().to_json() + "\n")
        filler = "x" * 512
        with open(store.results_path(meta["id"]), "w") as handle:
            for line in range(1, 4097):
                handle.write(json.dumps(
                    {"line": line, "status": "ok",
                     "envelope": {"kind": "version_result",
                                  "filler": filler}}) + "\n")
        meta["status"] = "completed"
        meta["done"] = meta["ok"] = 4096
        store.write_meta(meta)

        server = make_server(job_dir=job_dir)
        client = make_client(server)
        with socket.create_connection(
                (server.host, server.port), timeout=10) as sock:
            sock.sendall(f"GET /v1/batches/{meta['id']}/results "
                         "HTTP/1.1\r\nHost: test\r\n\r\n"
                         .encode("utf-8"))
            sock.recv(1024)  # read a first chunk, then hang up
        # The streaming thread hits the broken pipe; the server
        # must shrug it off and keep serving.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            status, payload = client.get("/v1/health")
            if status == 200:
                break
            time.sleep(0.05)
        assert status == 200 and payload["status"] == "ok"
        status, _ = client.run(DelayRequest(deltas=((1e-12,),)))
        assert status == 200


class TestConstruction:
    def test_bad_server_parameters_are_rejected(self, tmp_path):
        from repro.server import ReproServer
        for kwargs in ({"run_workers": 0}, {"request_timeout": 0.0},
                       {"max_body": 0}):
            with pytest.raises(ValueError):
                ReproServer(job_dir=tmp_path / "jobs", **kwargs)

    def test_stop_without_start_returns(self, tmp_path):
        """Stopping a server that never served must not wait for a
        serving loop that never ran."""
        from repro.server import ReproServer
        server = ReproServer(port=0, job_dir=tmp_path / "jobs")
        stopper = threading.Thread(target=server.stop, daemon=True)
        stopper.start()
        stopper.join(5)
        assert not stopper.is_alive()
