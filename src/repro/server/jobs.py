"""Bounded worker pool executing batch jobs line by line.

The :class:`BatchRunner` owns a small pool of daemon threads pulling
job ids off a queue.  Each job executes one JSONL line at a time
through the shared :class:`repro.api.Session`; the thread pool here
only bounds how many *jobs* run concurrently.

Failure isolation is per line: a line that fails to parse, decode, or
execute yields an :class:`repro.api.ErrorResult` envelope in the
results file and the job carries on; the job finishes as
``completed_with_errors`` instead of aborting.  Every finished line is
durably appended to the store before the progress counters advance,
so a crash (or a graceful stop) between lines loses nothing: on the
next :meth:`BatchRunner.start` the store's incomplete jobs are
re-enqueued and resume exactly at the first line without a result.
"""

from __future__ import annotations

import queue
import threading
import time

from ..api import ErrorResult, Session
from ..api.serialization import decode_envelope, envelope_kind
from ..obs import metrics as _metrics
from ..obs.trace import span as _span
from .store import TERMINAL_STATUSES, JobStore

__all__ = ["BatchRunner"]

#: Memoized outcome -> batch-line counter (module-level so every
#: runner in the process shares the global-registry instruments).
_LINE_COUNTERS: dict = {}


def _line_counter(outcome: str):
    counter = _LINE_COUNTERS.get(outcome)
    if counter is None:
        counter = _metrics.registry().counter(
            "repro_batch_lines_total",
            "batch-job request lines by outcome",
            labels={"outcome": outcome})
        _LINE_COUNTERS[outcome] = counter
    return counter


class BatchRunner:
    """Executes store jobs on a bounded pool of worker threads.

    Parameters
    ----------
    store : JobStore
        The on-disk job store (shared with the HTTP layer).
    session : Session
        The session every request line runs through (shared with the
        synchronous ``/v1/run`` endpoint, so both paths hit the same
        memo and disk caches).
    workers : int, optional
        Number of jobs executed concurrently (default 2).

    Notes
    -----
    One job is only ever executed by one worker at a time: ids are
    deduplicated while queued or running, so resubmitting an active
    job is a no-op.
    """

    def __init__(self, store: JobStore, session: Session,
                 workers: int = 2):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.store = store
        self.session = session
        self.workers = int(workers)
        self._queue: "queue.Queue[str]" = queue.Queue()
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._active: set[str] = set()
        self._threads: list[threading.Thread] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self, resume: bool = True) -> None:
        """Start the worker threads (idempotent).

        Parameters
        ----------
        resume : bool, optional
            Also enqueue every incomplete job found in the store —
            the restart-recovery path (default ``True``).
        """
        if not self._threads:
            self._stop.clear()
            for index in range(self.workers):
                thread = threading.Thread(
                    target=self._worker, daemon=True,
                    name=f"repro-batch-{index}")
                thread.start()
                self._threads.append(thread)
        if resume:
            for meta in self.store.incomplete():
                self.submit(meta["id"])

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the workers, optionally draining queued work first.

        Parameters
        ----------
        drain : bool, optional
            Wait (up to *timeout*) for queued and in-flight jobs to
            finish before stopping (default ``True``).  With
            ``False``, workers stop at the next line boundary and the
            interrupted job is persisted back to ``queued`` so a
            restart resumes it.
        timeout : float, optional
            Upper bound in seconds on the drain wait and on joining
            each worker thread.
        """
        if drain:
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                with self._lock:
                    idle = not self._active
                if idle and self._queue.empty():
                    break
                time.sleep(0.05)
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout)
        self._threads = []

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(self, job_id: str) -> bool:
        """Enqueue a job for execution.

        Returns
        -------
        bool
            ``True`` if the job was enqueued, ``False`` if it is
            already queued or running (resubmission is a no-op).
        """
        with self._lock:
            if job_id in self._active:
                return False
            self._active.add(job_id)
        self._queue.put(job_id)
        return True

    def pending(self) -> int:
        """Number of jobs currently queued or running."""
        with self._lock:
            return len(self._active)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _worker(self) -> None:
        while not self._stop.is_set():
            try:
                job_id = self._queue.get(timeout=0.05)
            except queue.Empty:
                continue
            try:
                self.execute(job_id)
            finally:
                with self._lock:
                    self._active.discard(job_id)
                self._queue.task_done()

    def run_line(self, number: int, text: str) -> dict:
        """Execute one JSONL line; never raises.

        Parameters
        ----------
        number : int
            1-based line number in the uploaded file.
        text : str
            The line's request envelope JSON.

        Returns
        -------
        dict
            A per-line outcome record: ``{"line", "status",
            "envelope"}`` where the envelope is the typed result on
            success or an :class:`~repro.api.ErrorResult` on failure.
        """
        request_kind = None
        with _span("server.batch.line", line=number) as live:
            try:
                envelope = decode_envelope(text)
                request_kind = envelope_kind(envelope)
                result = self.session.run_json(envelope)
                _line_counter("ok").inc()
                live.set(kind=request_kind, status="ok")
                return {"line": number, "status": "ok",
                        "envelope": result.to_dict()}
            except Exception as exc:
                # Deliberately broad: one bad line (malformed JSON,
                # bad parameters, a handler bug) must never abort the
                # job.
                _line_counter("error").inc()
                live.set(kind=request_kind, status="error")
                error = ErrorResult.from_exception(
                    exc, request_kind=request_kind)
                return {"line": number, "status": "error",
                        "envelope": error.to_dict()}

    def execute(self, job_id: str) -> "dict | None":
        """Run one job to completion (or to the stop signal).

        Lines that already have a result on disk are skipped — this
        is both the restart-resume path and the idempotent-resubmit
        path.  If the runner is stopped mid-job, progress so far is
        persisted and the job's status set back to ``queued``.

        Returns
        -------
        dict or None
            The job's final metadata, or ``None`` for an unknown id.
        """
        meta = self.store.meta(job_id)
        if meta is None or meta["status"] in TERMINAL_STATUSES:
            return meta
        with _span("server.batch.job", job=job_id,
                   total=meta.get("total")) as live:
            meta = self._execute_lines(job_id, meta)
            live.set(status=meta["status"], done=meta["done"],
                     errors=meta["errors"])
        return meta

    def _execute_lines(self, job_id: str, meta: dict) -> dict:
        """Line-by-line body of :meth:`execute` (span-wrapped
        there)."""
        done = self.store.completed_lines(job_id)
        meta["done"] = len(done)
        meta["ok"] = sum(1 for record in done.values()
                         if record.get("status") == "ok")
        meta["errors"] = meta["done"] - meta["ok"]
        meta["status"] = "running"
        self.store.write_meta(meta)
        for number, text in self.store.input_lines(job_id):
            if number in done:
                continue
            if self._stop.is_set():
                meta["status"] = "queued"
                self.store.write_meta(meta)
                return meta
            record = self.run_line(number, text)
            self.store.append_result(job_id, record)
            meta["done"] += 1
            if record["status"] == "ok":
                meta["ok"] += 1
            else:
                meta["errors"] += 1
            self.store.write_meta(meta)
        meta["status"] = ("completed_with_errors" if meta["errors"]
                          else "completed")
        self.store.write_meta(meta)
        return meta
