"""Delay-as-a-service: a stdlib-only HTTP front end for the session
API.

The process that stays up.  Everything the package serves through
:meth:`repro.api.Session.run` becomes reachable over HTTP — one
schema-versioned ``repro.api/1`` envelope per request — plus an
asynchronous batch lifecycle for bulk workloads::

    repro serve --port 8080 --jobs-dir ./repro_jobs

    # one synchronous request
    curl -d @request.json http://127.0.0.1:8080/v1/run

    # upload -> poll -> download a batch of requests
    curl -d @requests.jsonl http://127.0.0.1:8080/v1/batches
    curl http://127.0.0.1:8080/v1/batches/<id>
    curl http://127.0.0.1:8080/v1/batches/<id>/results

Layering (no dependencies beyond the standard library):

* :mod:`repro.server.app` — :class:`ReproServer`: the threaded HTTP
  server, routing, per-request timeouts, graceful shutdown.
* :mod:`repro.server.jobs` — :class:`BatchRunner`: a bounded worker
  pool executing batch jobs line by line with per-line error
  isolation.
* :mod:`repro.server.store` — :class:`JobStore`: the crash-safe
  on-disk job store (content-hash job ids, atomic metadata, fsync'd
  append-only results) that lets jobs survive restarts and resume.
* :mod:`repro.server.stats` — request counters, latency percentiles
  and structured JSON request logging behind ``GET /v1/stats``.

See ``docs/server.md`` for the endpoint and operations guide, and
``benchmarks/bench_server.py`` for the sustained-throughput numbers
(``BENCH_server.json``).
"""

from __future__ import annotations

from .app import DEFAULT_MAX_BODY, DEFAULT_TIMEOUT, ReproServer
from .jobs import BatchRunner
from .stats import RequestLog, ServerStats, percentile
from .store import JOB_SCHEMA_VERSION, TERMINAL_STATUSES, JobStore

__all__ = [
    "BatchRunner",
    "DEFAULT_MAX_BODY",
    "DEFAULT_TIMEOUT",
    "JOB_SCHEMA_VERSION",
    "JobStore",
    "ReproServer",
    "RequestLog",
    "ServerStats",
    "TERMINAL_STATUSES",
    "percentile",
    "serve",
]


def serve(host: str = "127.0.0.1", port: int = 8080, *,
          tech: str = "finfet15", engine: "str | None" = None,
          job_dir: "str | None" = None, run_workers: int = 8,
          batch_workers: int = 2,
          request_timeout: float = DEFAULT_TIMEOUT,
          max_body: int = DEFAULT_MAX_BODY, log_stream=None) -> int:
    """Run the service in the foreground until SIGINT/SIGTERM.

    This is what ``repro serve`` calls: build a :class:`ReproServer`,
    start it (resuming any incomplete batch jobs in *job_dir*), block
    until interrupted, then shut down gracefully — stop accepting
    connections, drain in-flight batch work, persist job state.

    Parameters
    ----------
    host, port : str, int
        Bind address (``port=0`` picks a free port, printed on
        startup).
    tech, engine : str
        Session bindings (see :class:`repro.api.Session`).
    job_dir : str, optional
        Batch-job store root (default ``repro_jobs``).
    run_workers, batch_workers : int
        Worker-pool bounds for ``/v1/run`` and batch jobs.
    request_timeout : float
        Per-request service timeout of ``/v1/run``, seconds.
    max_body : int
        Largest accepted request body, bytes.
    log_stream : file-like, optional
        Structured per-request JSON log destination.

    Returns
    -------
    int
        Process exit code (0 on a clean shutdown).
    """
    import signal
    import sys
    import threading

    server = ReproServer(host=host, port=port, tech=tech,
                         engine=engine, job_dir=job_dir,
                         run_workers=run_workers,
                         batch_workers=batch_workers,
                         request_timeout=request_timeout,
                         max_body=max_body, log_stream=log_stream)
    server.session.engine  # fail fast on an unknown engine name
    stop = threading.Event()

    def _signalled(signum, frame):
        stop.set()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _signalled)
        except (ValueError, OSError):  # non-main thread / platform
            pass
    server.start()
    print(f"repro serve: listening on {server.url} "
          f"(engine={server.session.engine_name}, "
          f"jobs={server.store.root})", file=sys.stderr)
    try:
        while not stop.is_set():
            stop.wait(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        print("repro serve: shutting down (draining batch jobs)",
              file=sys.stderr)
        server.stop(drain=True)
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0
