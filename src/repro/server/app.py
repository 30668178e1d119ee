"""The threaded HTTP service: routes, timeouts, lifecycle.

:class:`ReproServer` glues one shared :class:`repro.api.Session`, the
crash-safe :class:`~repro.server.store.JobStore` and the
:class:`~repro.server.jobs.BatchRunner` behind a stdlib
:class:`http.server.ThreadingHTTPServer`:

========================  ============================================
``POST /v1/run``          one ``repro.api/1`` request envelope in, one
                          result envelope out (memo hits answered at
                          once; misses on a bounded worker pool with
                          a per-request timeout)
``POST /v1/batches``      JSONL upload of envelopes -> job id
                          (idempotent on content)
``GET /v1/batches/<id>``  job status + progress counters
``GET /v1/batches/<id>/results``  JSONL download of per-line outcome
                          records, streamed in chunks
``GET /v1/stats``         request/latency/cache/job counters
``GET /v1/metrics``       the same counters as named instruments, in
                          Prometheus text exposition format (the
                          process-global registry merged with this
                          server's)
``GET /v1/health``        liveness + version
========================  ============================================

Error contract: every failure is a JSON body — an
:class:`repro.api.ErrorResult` envelope carrying the mapped HTTP
status — never an HTML error page and never a handler-thread
traceback.  Bad request payloads are 400, unknown resources 404,
oversized bodies 413, timeouts 504; unexpected handler failures are
500 and the server keeps serving.  A client that disconnects
mid-stream is logged (status 499) and the connection thread exits
cleanly.
"""

from __future__ import annotations

import concurrent.futures
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .._version import __version__
from ..api import ErrorResult, Session
from ..api.serialization import decode_envelope, envelope_kind
from ..errors import ParameterError, ReproError
from ..obs import metrics as _obs_metrics
from ..obs.trace import span as _span
from .jobs import BatchRunner
from .stats import RequestLog, ServerStats
from .store import TERMINAL_STATUSES, JobStore

__all__ = ["ReproServer", "DEFAULT_MAX_BODY", "DEFAULT_TIMEOUT"]

#: Default per-request service timeout for ``POST /v1/run``, seconds.
DEFAULT_TIMEOUT = 30.0

#: Default largest accepted request body, bytes (8 MiB — a ~40k-line
#: batch upload; raise via ``ReproServer(max_body=...)``).
DEFAULT_MAX_BODY = 8 * 1024 * 1024

#: Chunk size for streaming results downloads.
_STREAM_CHUNK = 64 * 1024

class _Disconnect(Exception):
    """The client went away mid-response (normalized marker)."""


class _Handler(BaseHTTPRequestHandler):
    """Per-connection request handler; all state lives on the app."""

    server_version = f"repro-serve/{__version__}"
    protocol_version = "HTTP/1.1"
    # One response = one packet: buffer the out stream (flushed per
    # request by handle_one_request) and disable Nagle, so header and
    # body writes never straddle a delayed-ACK round trip (a ~40 ms
    # stall per request otherwise).
    wbufsize = 64 * 1024
    disable_nagle_algorithm = True

    @property
    def app(self) -> "ReproServer":
        """The owning :class:`ReproServer` (set on the HTTP server)."""
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        """Silence the default stderr access log (structured log
        instead)."""

    def do_GET(self) -> None:
        """Dispatch GET routes."""
        self._dispatch("GET")

    def do_POST(self) -> None:
        """Dispatch POST routes."""
        self._dispatch("POST")

    # ------------------------------------------------------------------
    # dispatch plumbing
    # ------------------------------------------------------------------

    def _dispatch(self, method: str) -> None:
        start = time.perf_counter()
        route, status, timed_out = self.path, 500, False
        self.log_fields = {}
        with _span("server.request", method=method) as live:
            try:
                route, status, timed_out = self._route(method)
            except _Disconnect:
                status = 499  # client closed connection mid-response
                self.close_connection = True
            except Exception as exc:
                # A bug in a route must not kill the connection thread
                # silently nor leak a traceback to the client.
                status = 500
                try:
                    self._send_error(500, exc)
                except Exception:  # headers sent / client gone
                    self.close_connection = True
            live.set(route=route, status=status)
        elapsed = time.perf_counter() - start
        self.app.stats.record(route, status, elapsed,
                              timed_out=timed_out)
        self.app.log.write(method=method, path=self.path, route=route,
                           status=status, ms=elapsed * 1e3,
                           timed_out=timed_out, **self.log_fields)

    def _route(self, method: str) -> "tuple[str, int, bool]":
        """Serve one request; returns (route pattern, status,
        timed_out)."""
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if method == "POST" and path == "/v1/run":
            status, timed_out = self._post_run()
            return "/v1/run", status, timed_out
        if method == "POST" and path == "/v1/batches":
            return "/v1/batches", self._post_batch(), False
        if method == "GET" and path.startswith("/v1/batches/"):
            tail = path[len("/v1/batches/"):]
            if tail.endswith("/results"):
                return ("/v1/batches/<id>/results",
                        self._get_results(tail[:-len("/results")]),
                        False)
            if "/" not in tail and tail:
                return ("/v1/batches/<id>", self._get_batch(tail),
                        False)
        if method == "GET" and path == "/v1/stats":
            return "/v1/stats", self._get_stats(), False
        if method == "GET" and path == "/v1/metrics":
            return "/v1/metrics", self._get_metrics(), False
        if method == "GET" and path == "/v1/health":
            return "/v1/health", self._get_health(), False
        self._send_error(
            404, LookupError(f"no such endpoint: {method} {path}"))
        return path, 404, False

    def _read_body(self) -> "tuple[bytes | None, int]":
        """Read the request body.

        Returns
        -------
        tuple
            ``(body, 0)`` on success; ``(None, status)`` after an
            error response (411 missing length, 400 bad length, 413
            oversized) has already been sent.
        """
        header = self.headers.get("Content-Length")
        if header is None:
            self._send_error(
                411, ValueError("Content-Length header required"))
            return None, 411
        try:
            length = int(header)
            if length < 0:
                raise ValueError
        except ValueError:
            self._send_error(
                400, ValueError(f"bad Content-Length: {header!r}"))
            return None, 400
        if length > self.app.max_body:
            self._send_error(413, ValueError(
                f"request body of {length} bytes exceeds the "
                f"{self.app.max_body}-byte limit"))
            return None, 413
        return self.rfile.read(length), 0

    # ------------------------------------------------------------------
    # responses
    # ------------------------------------------------------------------

    def _write(self, data: bytes) -> None:
        try:
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError, socket.timeout,
                OSError) as exc:
            raise _Disconnect() from exc

    def _send_bytes(self, status: int, body: bytes,
                    content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self._write(body)

    def _send_json(self, status: int, payload: dict) -> None:
        self._send_bytes(status,
                         (json.dumps(payload, sort_keys=True) + "\n")
                         .encode("utf-8"))

    def _send_error(self, status: int, exc: BaseException,
                    request_kind: "str | None" = None) -> None:
        # Error paths may leave unread body bytes on the socket (404
        # on a POST, oversized upload); close the connection so the
        # keep-alive stream can never desynchronize.
        self.close_connection = True
        envelope = ErrorResult.from_exception(
            exc, request_kind=request_kind, status=status)
        self._send_bytes(status,
                         (envelope.to_json() + "\n").encode("utf-8"))

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------

    def _post_run(self) -> "tuple[int, bool]":
        body, error_status = self._read_body()
        if body is None:
            return error_status, False
        try:
            envelope = decode_envelope(body.decode("utf-8"))
        except UnicodeDecodeError as exc:
            self._send_error(400, exc)
            return 400, False
        except ParameterError as exc:
            result, status, timed_out = (
                ErrorResult.from_exception(exc, status=400), 400, False)
        else:
            kind = envelope_kind(envelope)
            if kind is not None:
                self.log_fields["kind"] = kind
            result, status, timed_out = self.app.run_envelope(envelope)
        if isinstance(result, ErrorResult):
            self._send_bytes(status,
                             (result.to_json() + "\n").encode("utf-8"))
        else:
            self._send_bytes(status, result.to_json().encode("utf-8"))
        return status, timed_out

    def _post_batch(self) -> int:
        body, error_status = self._read_body()
        if body is None:
            return error_status
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError as exc:
            self._send_error(400, exc)
            return 400
        try:
            meta = self.app.submit_batch(text)
        except ValueError as exc:
            self._send_error(400, exc)
            return 400
        self.log_fields["job"] = meta["id"]
        self._send_json(202, meta)
        return 202

    def _get_batch(self, job_id: str) -> int:
        self.log_fields["job"] = job_id
        meta = self.app.store.meta(job_id)
        if meta is None:
            self._send_error(
                404, LookupError(f"no such job: {job_id}"))
            return 404
        self._send_json(200, meta)
        return 200

    def _get_results(self, job_id: str) -> int:
        self.log_fields["job"] = job_id
        meta = self.app.store.meta(job_id)
        if meta is None:
            self._send_error(
                404, LookupError(f"no such job: {job_id}"))
            return 404
        if meta["status"] not in TERMINAL_STATUSES:
            self._send_error(409, RuntimeError(
                f"job {job_id} is {meta['status']} "
                f"({meta['done']}/{meta['total']} lines done); "
                "poll GET /v1/batches/<id> until it completes"))
            return 409
        records = self.app.store.result_records(job_id)
        body = "".join(json.dumps(record, sort_keys=True) + "\n"
                       for record in records).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Repro-Job-Status", meta["status"])
        self.end_headers()
        for offset in range(0, len(body), _STREAM_CHUNK):
            self._write(body[offset:offset + _STREAM_CHUNK])
        return 200

    def _get_stats(self) -> int:
        self._send_json(200, self.app.stats_payload())
        return 200

    def _get_metrics(self) -> int:
        body = _obs_metrics.render_prometheus(
            _obs_metrics.registry(),
            self.app.stats.registry).encode("utf-8")
        self._send_bytes(
            200, body,
            content_type="text/plain; version=0.0.4; charset=utf-8")
        return 200

    def _get_health(self) -> int:
        self._send_json(200, {"status": "ok",
                              "version": __version__})
        return 200


class ReproServer:
    """A long-running delay-model service over one shared session.

    Parameters
    ----------
    host : str, optional
        Bind address (default ``"127.0.0.1"``).
    port : int, optional
        Bind port; ``0`` (the default) picks a random free port —
        read it back from :attr:`port`.
    session : Session, optional
        The session serving every request; built from *tech* /
        *engine* when omitted.
    tech : str, optional
        Technology card name for the implicit session.
    engine : str, optional
        Delay-engine backend name for the implicit session (``None``
        picks the package default).
    job_dir : str or Path, optional
        Root of the on-disk batch-job store (default:
        ``repro_jobs`` under the working directory).
    run_workers : int, optional
        Bound on concurrently *executing* ``/v1/run`` requests
        (excess requests queue; default 8).  Memo hits take no
        worker.
    batch_workers : int, optional
        Bound on concurrently executing batch jobs (default 2).
    request_timeout : float, optional
        Per-request service timeout of a ``/v1/run`` memo miss in
        seconds (default 30).
    max_body : int, optional
        Largest accepted request body in bytes (default 8 MiB).
    log_stream : file-like, optional
        Destination for structured per-request JSON logs (``None``
        disables them).

    Examples
    --------
    >>> from repro.server import ReproServer
    >>> with ReproServer(port=0) as server:       # doctest: +SKIP
    ...     print(server.url)                     # doctest: +SKIP
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 session: "Session | None" = None,
                 tech: str = "finfet15",
                 engine: "str | None" = None,
                 job_dir: "str | None" = None,
                 run_workers: int = 8,
                 batch_workers: int = 2,
                 request_timeout: float = DEFAULT_TIMEOUT,
                 max_body: int = DEFAULT_MAX_BODY,
                 log_stream=None):
        if run_workers < 1:
            raise ValueError("run_workers must be >= 1")
        if request_timeout <= 0:
            raise ValueError("request_timeout must be > 0")
        if max_body < 1:
            raise ValueError("max_body must be >= 1")
        self.session = session if session is not None else Session(
            tech=tech, engine=engine)
        self.store = JobStore(job_dir if job_dir is not None
                              else "repro_jobs")
        self.runner = BatchRunner(self.store, self.session,
                                  workers=batch_workers)
        self.stats = ServerStats()
        self.log = RequestLog(log_stream)
        self.request_timeout = float(request_timeout)
        self.max_body = int(max_body)
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=run_workers,
            thread_name_prefix="repro-run")
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.app = self  # type: ignore[attr-defined]
        self._thread: "threading.Thread | None" = None

    # ------------------------------------------------------------------
    # addresses
    # ------------------------------------------------------------------

    @property
    def host(self) -> str:
        """The bound address."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolved, even when constructed with 0)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the service."""
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self, resume: bool = True) -> "ReproServer":
        """Start serving in a background thread (idempotent).

        Parameters
        ----------
        resume : bool, optional
            Re-enqueue incomplete batch jobs found in the job store
            (default ``True`` — the crash/restart recovery path).
        """
        if self._thread is None:
            self.runner.start(resume=resume)
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                kwargs={"poll_interval": 0.05},
                name="repro-serve", daemon=True)
            self._thread.start()
        return self

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting requests and shut the workers down.

        Parameters
        ----------
        drain : bool, optional
            Let queued/in-flight batch jobs finish (bounded by
            *timeout*) before stopping; an interrupted job is
            persisted back to ``queued`` either way, so nothing is
            lost — drain just finishes it *now* instead of on the
            next start (default ``True``).
        timeout : float, optional
            Upper bound in seconds on the batch drain.
        """
        # shutdown() waits for a serve_forever loop; on a server that
        # never started there is none, and it would wait forever.
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout)
            self._thread = None
        self._httpd.server_close()
        # Abandon (do not wait for) /v1/run work past its timeout.
        self._pool.shutdown(wait=False, cancel_futures=True)
        self.runner.stop(drain=drain, timeout=timeout)

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # request execution
    # ------------------------------------------------------------------

    def run_envelope(self, envelope: dict):
        """Answer one decoded ``/v1/run`` envelope.

        The request is decoded here, on the calling (connection)
        thread.  A memo hit is answered here too: it does no work a
        timeout could cut short, so it takes no pool worker.  A miss
        runs on the bounded pool under the per-request timeout.

        Parameters
        ----------
        envelope : dict
            The request envelope, already decoded by
            :func:`~repro.api.serialization.decode_envelope` (so the
            body is parsed once); its ``kind`` labels error
            envelopes.

        Returns
        -------
        tuple
            ``(result, http_status, timed_out)`` where *result* is
            the typed result on success or an :class:`ErrorResult`
            on failure.
        """
        request_kind = envelope_kind(envelope)
        try:
            request = self.session.decode_request(envelope)
            result = self.session.lookup(request)
            if result is None:
                future = self._pool.submit(self.session.run, request)
                result = future.result(self.request_timeout)
            return result, 200, False
        except concurrent.futures.TimeoutError:
            error = ErrorResult.from_exception(
                TimeoutError(f"request exceeded the "
                             f"{self.request_timeout:g} s service "
                             "timeout"),
                request_kind=request_kind, status=504)
            return error, 504, True
        except (ReproError, ValueError) as exc:
            return (ErrorResult.from_exception(
                exc, request_kind=request_kind, status=400), 400,
                False)
        except Exception as exc:  # handler bug: report, keep serving
            return (ErrorResult.from_exception(
                exc, request_kind=request_kind, status=500), 500,
                False)

    def submit_batch(self, text: str) -> dict:
        """Create (or re-find) a batch job and enqueue it.

        Parameters
        ----------
        text : str
            JSONL upload, one request envelope per line.

        Returns
        -------
        dict
            The job's metadata (terminal jobs are returned as-is,
            not re-run — submission is idempotent on content).

        Raises
        ------
        ValueError
            If the upload has no request lines.
        """
        meta = self.store.create(text)
        if meta["status"] not in TERMINAL_STATUSES:
            self.runner.submit(meta["id"])
        return meta

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def stats_payload(self) -> dict:
        """The ``GET /v1/stats`` body: requests, latency, cache,
        jobs."""
        jobs = self.store.jobs()
        by_status: dict[str, int] = {}
        for meta in jobs:
            by_status[meta["status"]] = (
                by_status.get(meta["status"], 0) + 1)
        payload = self.stats.snapshot()
        payload["session_cache"] = self.session.cache_info()
        payload["jobs"] = {"total": len(jobs),
                           "by_status": by_status,
                           "pending": self.runner.pending()}
        payload["version"] = __version__
        return payload

    def __repr__(self) -> str:
        state = "serving" if self._thread is not None else "stopped"
        return f"ReproServer({self.url!r}, {state})"
