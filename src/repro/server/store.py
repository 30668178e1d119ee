"""Crash-safe on-disk store for batch jobs.

A batch job is a JSONL file of request envelopes plus the bookkeeping
needed to execute it at-most-once per line and to survive a process
crash at any instant.  The store follows the :mod:`repro.cache`
conventions:

* **Content-hash keys** — the job id is the SHA-256
  :func:`repro.cache.content_key` of the uploaded JSONL text, so
  resubmitting the same file is idempotent: the caller gets the same
  id (and, if the job already ran, its finished results) instead of a
  duplicate job.
* **Schema-versioned layout** — everything lives under
  ``<root>/v1/<id[:2]>/<id>/``::

      input.jsonl      # the uploaded request lines, verbatim
      meta.json        # status + progress counters (atomic replace)
      results.jsonl    # one record per finished line (append + fsync)

* **Atomic writes** — ``input.jsonl`` and ``meta.json`` are written
  via temp file + ``os.replace``; ``results.jsonl`` is append-only
  with an ``fsync`` per record, so a crash can at worst truncate the
  final line — which the reader detects and discards, making that
  line's work repeatable.

Line numbers are 1-based (like an editor looking at the uploaded
file); whitespace-only lines are ignored entirely — they are neither
counted nor executed.

Job lifecycle: ``queued`` → ``running`` → ``completed`` /
``completed_with_errors``.  A job found ``queued`` or ``running`` at
startup simply resumes: lines already present in ``results.jsonl``
are kept, the remainder re-executed (:meth:`JobStore.completed_lines`
is the resume bookkeeping).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from ..cache import atomic_write, content_key

__all__ = ["JobStore", "JOB_SCHEMA_VERSION", "TERMINAL_STATUSES"]

#: On-disk schema version of the job layout; bump to orphan old jobs.
JOB_SCHEMA_VERSION = 1

#: Statuses of a finished job (nothing left to execute).
TERMINAL_STATUSES = ("completed", "completed_with_errors")


class JobStore:
    """Content-addressed batch-job directory under *root*.

    Parameters
    ----------
    root : str or Path
        Store root (created lazily on the first job).

    Notes
    -----
    The store is safe for one writer per job (the
    :class:`~repro.server.jobs.BatchRunner` guarantees that) plus any
    number of concurrent readers — readers only ever see a complete
    ``meta.json`` (atomic replace) and complete ``results.jsonl``
    records (a torn final line is discarded).
    """

    def __init__(self, root: "str | Path"):
        self.root = Path(root)

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------

    def job_dir(self, job_id: str) -> Path:
        """Directory of one job (which may not exist yet)."""
        return (self.root / f"v{JOB_SCHEMA_VERSION}" / job_id[:2]
                / job_id)

    def results_path(self, job_id: str) -> Path:
        """Path of the job's append-only results file."""
        return self.job_dir(job_id) / "results.jsonl"

    @staticmethod
    def job_id_for(text: str) -> str:
        """The content-hash id a JSONL upload maps to."""
        return content_key({"kind": "batch_input",
                            "schema": JOB_SCHEMA_VERSION,
                            "input": text})

    # ------------------------------------------------------------------
    # creation
    # ------------------------------------------------------------------

    def create(self, text: str) -> dict:
        """Register a JSONL upload; idempotent on content.

        Parameters
        ----------
        text : str
            The uploaded JSONL payload (one request envelope per
            line).

        Returns
        -------
        dict
            The job's metadata.  If the same content was uploaded
            before, the *existing* metadata is returned unchanged —
            including terminal statuses, so finished work is never
            redone.

        Raises
        ------
        ValueError
            If the upload contains no non-blank lines.
        """
        job_id = self.job_id_for(text)
        existing = self.meta(job_id)
        if existing is not None:
            return existing
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValueError("batch upload has no request lines")
        atomic_write(self.job_dir(job_id) / "input.jsonl",
                     text.encode("utf-8"))
        now = time.time()
        meta = {"id": job_id, "status": "queued", "total": len(lines),
                "done": 0, "ok": 0, "errors": 0,
                "created": now, "updated": now}
        self.write_meta(meta)
        return meta

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------

    def meta(self, job_id: str) -> "dict | None":
        """The job's metadata, or ``None`` for an unknown/broken id."""
        path = self.job_dir(job_id) / "meta.json"
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None

    def write_meta(self, meta: dict) -> None:
        """Atomically persist a metadata dict (stamps ``updated``)."""
        meta = dict(meta)
        meta["updated"] = time.time()
        data = json.dumps(meta, sort_keys=True).encode("utf-8")
        atomic_write(self.job_dir(meta["id"]) / "meta.json", data)

    def jobs(self) -> "list[dict]":
        """Metadata of every job in the store, oldest first."""
        schema_dir = self.root / f"v{JOB_SCHEMA_VERSION}"
        if not schema_dir.is_dir():
            return []
        metas = [self.meta(path.parent.name)
                 for path in sorted(schema_dir.glob("*/*/meta.json"))]
        return sorted((m for m in metas if m is not None),
                      key=lambda m: m["created"])

    def incomplete(self) -> "list[dict]":
        """Jobs that still have lines to execute (resume set)."""
        return [meta for meta in self.jobs()
                if meta["status"] not in TERMINAL_STATUSES]

    # ------------------------------------------------------------------
    # inputs and results
    # ------------------------------------------------------------------

    def input_lines(self, job_id: str) -> "list[tuple[int, str]]":
        """The job's request lines as ``(line_number, text)`` pairs.

        Line numbers are 1-based positions in the uploaded file;
        whitespace-only lines are skipped.
        """
        path = self.job_dir(job_id) / "input.jsonl"
        with open(path, "r", encoding="utf-8") as handle:
            return [(number, line.strip())
                    for number, line in enumerate(handle, start=1)
                    if line.strip()]

    def append_result(self, job_id: str, record: dict) -> None:
        """Append one per-line outcome record, durably.

        Parameters
        ----------
        job_id : str
            The job being executed.
        record : dict
            ``{"line": int, "status": "ok"|"error", "envelope":
            <result/error envelope dict>}``.

        Notes
        -----
        The record is flushed and ``fsync``-ed before returning, so a
        crash immediately after costs nothing, and a crash *during*
        the write at worst leaves a torn final line that
        :meth:`completed_lines` discards.  A torn line also lacks its
        trailing newline, so the append starts with a newline repair
        — otherwise the new record would fuse onto the torn fragment
        and both would be lost.
        """
        data = (json.dumps(record, sort_keys=True) + "\n") \
            .encode("utf-8")
        with open(self.results_path(job_id), "a+b") as handle:
            handle.seek(0, os.SEEK_END)
            if handle.tell() > 0:
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

    def completed_lines(self, job_id: str) -> "dict[int, dict]":
        """Per-line outcomes already on disk: line number -> record.

        A torn (crash-truncated) final line fails to parse and is
        simply excluded — its line re-executes on resume.  Should a
        crash between the result append and the metadata update ever
        produce a duplicate record, the first occurrence wins.
        """
        path = self.results_path(job_id)
        records: dict[int, dict] = {}
        try:
            with open(path, "r", encoding="utf-8") as handle:
                for raw in handle:
                    try:
                        record = json.loads(raw)
                    except json.JSONDecodeError:
                        continue
                    number = record.get("line")
                    if isinstance(number, int) and number not in records:
                        records[number] = record
        except OSError:
            return {}
        return records

    def result_records(self, job_id: str) -> "list[dict]":
        """All per-line outcomes, ordered by line number."""
        records = self.completed_lines(job_id)
        return [records[number] for number in sorted(records)]

    def __repr__(self) -> str:
        return f"JobStore({str(self.root)!r})"
