"""Hierarchical span tracing with a no-op-level disabled path.

A *span* is one timed region of work — ``session.run`` dispatching a
request, one engine call, one eigensolve of the compiled kernel.
Spans nest: entering a span while another is open on the same thread
records the open one as its parent, so a trace reconstructs the call
tree of a request across every instrumented layer.

The instrumentation style everywhere in the package is::

    from ..obs.trace import span

    with span("kernel.evaluate", direction=direction) as s:
        ...
        s.set(rows=rows)          # attach data learned mid-flight

and costs one module-level check when tracing is **off** (the
returned object is a shared no-op context manager — nothing is
allocated, nothing recorded; ``tests/obs`` asserts the zero-span
guarantee and ``benchmarks/bench_obs.py`` tracks the per-call
overhead).

Activation mirrors :mod:`repro.cache`:

* ``REPRO_TRACE=jsonl:<path>`` in the environment — every finished
  span is appended to *path* as one JSON line (inherited by forked
  worker processes, whose spans land in the same file tagged with
  their own pid);
* ``REPRO_TRACE=mem`` — record into the bounded in-memory buffer
  only;
* :func:`configure` — what ``Session(trace=...)`` and the CLI's
  ``--trace PATH`` call; explicit configuration wins over the
  environment.

Span ids are unique across threads *and* processes: ``"<pid>-<thread
id>-<sequence>"``.  Every finished span is kept in a bounded
per-process ring (:attr:`Tracer.records`) and, when a JSONL sink is
configured, durably appended as it finishes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import threading
import time
from collections import deque

__all__ = [
    "ENV_VAR",
    "Span",
    "Tracer",
    "active_tracer",
    "configure",
    "enabled",
    "span",
    "unconfigure",
]

#: Environment variable activating process-wide tracing
#: (``jsonl:<path>`` or ``mem``).
ENV_VAR = "REPRO_TRACE"

#: Default bound on the in-memory ring of finished spans.
DEFAULT_BUFFER = 65536


class Span:
    """One timed, attributed region of work (a context manager).

    Created by :meth:`Tracer.span` (or the module-level :func:`span`
    shortcut); entering starts the clock and links the span under the
    thread's currently open span, exiting records it.

    Parameters
    ----------
    tracer : Tracer
        The tracer that records the span when it closes.
    name : str
        Dotted span name (``"kernel.evaluate"``); the
        aggregation key of per-request timing breakdowns.
    attrs : dict
        Initial attributes (JSON-safe values).
    """

    __slots__ = ("name", "attrs", "span_id", "parent_id",
                 "start_ts", "duration_s", "_tracer", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.span_id = ""
        self.parent_id: "str | None" = None
        self.start_ts = 0.0
        self.duration_s = 0.0
        self._tracer = tracer
        self._t0 = 0.0

    def set(self, **attrs) -> "Span":
        """Attach (or overwrite) attributes on the open span.

        Parameters
        ----------
        **attrs
            JSON-safe attribute values.

        Returns
        -------
        Span
            ``self``, for chaining.
        """
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        """Start the clock and push the span on the thread's stack."""
        self._tracer._enter(self)
        self.start_ts = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        """Stop the clock and hand the finished span to the tracer."""
        self.duration_s = time.perf_counter() - self._t0
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._exit(self)

    def to_record(self) -> dict:
        """The span as a plain JSON-safe dict (one JSONL line)."""
        return {"name": self.name, "id": self.span_id,
                "parent": self.parent_id, "ts": self.start_ts,
                "dur_s": self.duration_s, "attrs": self.attrs}


class _NoopSpan:
    """Shared do-nothing stand-in returned while tracing is off."""

    __slots__ = ()

    def set(self, **attrs) -> "_NoopSpan":
        """Ignore attributes (tracing is off)."""
        return self

    def __enter__(self) -> "_NoopSpan":
        """No-op."""
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        """No-op."""


_NOOP = _NoopSpan()


class Tracer:
    """Thread-safe recorder of finished spans.

    Parameters
    ----------
    buffer : int, optional
        Bound on the in-memory ring of finished span records; older
        spans fall off (default 65536).
    sink : str or Path, optional
        JSONL file appended to as spans finish (``None``: in-memory
        only).  The file is opened lazily, in append mode, and
        re-opened after a ``fork`` so worker processes append their
        own lines instead of sharing the parent's buffer.

    Notes
    -----
    All methods are safe to call from multiple threads; the per-thread
    open-span stack and capture lists live in thread-local storage,
    so concurrent requests never see each other's parentage.
    """

    def __init__(self, buffer: int = DEFAULT_BUFFER,
                 sink: "str | None" = None):
        if buffer < 1:
            raise ValueError("buffer must be >= 1")
        self._records: "deque[dict]" = deque(maxlen=int(buffer))
        self._lock = threading.Lock()
        self._local = threading.local()
        self._sequence = 0
        self.sink = str(sink) if sink is not None else None
        self._sink_file: "io.TextIOBase | None" = None
        self._sink_pid = os.getpid()

    # ------------------------------------------------------------------
    # span lifecycle (called by Span)
    # ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, span: Span) -> None:
        stack = self._stack()
        span.parent_id = stack[-1].span_id if stack else None
        with self._lock:
            self._sequence += 1
            sequence = self._sequence
        span.span_id = (f"{os.getpid():x}-"
                        f"{threading.get_ident():x}-{sequence:x}")
        stack.append(span)

    def _exit(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - misnested guard
            stack.remove(span)
        record = span.to_record()
        for captured in getattr(self._local, "captures", ()):
            captured.append(record)
        with self._lock:
            self._records.append(record)
            if self.sink is not None:
                self._sink_write(record)

    def _sink_write(self, record: dict) -> None:
        # Called under the lock.  After a fork the inherited file
        # object shares the parent's descriptor but not its buffer
        # discipline; re-open so every process appends whole lines.
        if (self._sink_file is None
                or self._sink_pid != os.getpid()):
            directory = os.path.dirname(self.sink)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._sink_file = open(self.sink, "a",
                                   encoding="utf-8")
            self._sink_pid = os.getpid()
        try:
            self._sink_file.write(
                json.dumps(record, sort_keys=True, default=str)
                + "\n")
            self._sink_file.flush()
        except (OSError, ValueError):  # closed/broken sink
            self._sink_file = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        """Create a span bound to this tracer (enter it with ``with``).

        Parameters
        ----------
        name : str
            Dotted span name.
        **attrs
            Initial JSON-safe attributes.

        Returns
        -------
        Span
            The unstarted span context manager.
        """
        return Span(self, name, attrs)

    def record(self, name: str, start_ts: float,
               duration_s: float, **attrs) -> dict:
        """Append an already-measured span as a root record.

        For phases that finished before any tracer existed — the
        CLI records package import time as a backdated
        ``cli.startup`` span this way, so traces cover the process
        wall time and not just post-import work.

        Parameters
        ----------
        name : str
            Dotted span name.
        start_ts : float
            Wall-clock start (``time.time()`` epoch seconds).
        duration_s : float
            Measured duration in seconds.
        **attrs
            JSON-safe attributes.

        Returns
        -------
        dict
            The appended span record (parentless).
        """
        span = Span(self, name, attrs)
        span.start_ts = float(start_ts)
        span.duration_s = float(duration_s)
        with self._lock:
            self._sequence += 1
            sequence = self._sequence
        span.span_id = (f"{os.getpid():x}-"
                        f"{threading.get_ident():x}-{sequence:x}")
        record = span.to_record()
        with self._lock:
            self._records.append(record)
            if self.sink is not None:
                self._sink_write(record)
        return record

    def current_span(self) -> "Span | None":
        """The innermost open span on the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def records(self) -> "list[dict]":
        """A snapshot of the finished-span ring (oldest first)."""
        with self._lock:
            return list(self._records)

    def clear(self) -> None:
        """Drop every buffered record (the sink file is untouched)."""
        with self._lock:
            self._records.clear()

    @contextlib.contextmanager
    def capture(self):
        """Collect spans finished on this thread while the block runs.

        Yields
        ------
        list of dict
            Grows as spans finish; used by
            :meth:`repro.api.Session.run` to build per-request
            timing breakdowns.
        """
        captured: "list[dict]" = []
        captures = getattr(self._local, "captures", None)
        if captures is None:
            captures = self._local.captures = []
        captures.append(captured)
        try:
            yield captured
        finally:
            captures.remove(captured)

    def export_jsonl(self, path: "str | os.PathLike") -> int:
        """Write the buffered records to *path*, one JSON line each.

        Parameters
        ----------
        path : str or os.PathLike
            Destination file (overwritten).

        Returns
        -------
        int
            Number of records written.
        """
        records = self.records()
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True,
                                        default=str) + "\n")
        return len(records)

    def flush(self) -> None:
        """Flush the JSONL sink (no-op for in-memory tracers)."""
        with self._lock:
            if self._sink_file is not None:
                try:
                    self._sink_file.flush()
                except (OSError, ValueError):  # pragma: no cover
                    self._sink_file = None

    def __repr__(self) -> str:
        """Compact state summary."""
        return (f"Tracer(records={len(self._records)}, "
                f"sink={self.sink!r})")


def read_jsonl(path: "str | os.PathLike") -> "list[dict]":
    """Load an exported trace file back into span records.

    Parameters
    ----------
    path : str or os.PathLike
        A file written by :meth:`Tracer.export_jsonl` or a JSONL
        sink.

    Returns
    -------
    list of dict
        One record per line (a torn final line is discarded).
    """
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return records


# ----------------------------------------------------------------------
# process-wide activation (mirrors repro.cache)
# ----------------------------------------------------------------------

_UNSET = object()
_CONFIGURED: "Tracer | None | object" = _UNSET
#: Per-spec tracers resolved from the environment, so repeated env
#: lookups share one buffer/sink.
_ENV_TRACERS: "dict[str, Tracer]" = {}


def _tracer_for(spec: str) -> Tracer:
    if spec not in _ENV_TRACERS:
        _ENV_TRACERS[spec] = _build(spec)
    return _ENV_TRACERS[spec]


def _build(spec: str) -> Tracer:
    if spec.startswith("jsonl:"):
        return Tracer(sink=spec[len("jsonl:"):])
    if spec in ("mem", "1", "on"):
        return Tracer()
    # A bare path is treated as a JSONL sink.
    return Tracer(sink=spec)


def configure(trace: "str | Tracer | None") -> "Tracer | None":
    """Set (or clear) the process-wide tracer explicitly.

    Parameters
    ----------
    trace : str or Tracer or None
        ``"jsonl:<path>"`` (or a bare path) for a JSONL sink,
        ``"mem"`` for in-memory-only recording, an existing
        :class:`Tracer`, or ``None`` to disable tracing even if
        ``REPRO_TRACE`` is set.

    Returns
    -------
    Tracer or None
        The active tracer after reconfiguration.

    Notes
    -----
    Explicit configuration wins over the environment — it is what
    ``Session(trace=...)`` and ``repro ... --trace PATH`` call.  Use
    :func:`unconfigure` to fall back to ``REPRO_TRACE``.
    """
    global _CONFIGURED
    if trace is None:
        _CONFIGURED = None
    elif isinstance(trace, Tracer):
        _CONFIGURED = trace
    else:
        _CONFIGURED = _tracer_for(str(trace))
    return _CONFIGURED


def unconfigure() -> None:
    """Drop the explicit configuration (environment rules again)."""
    global _CONFIGURED
    _CONFIGURED = _UNSET


def active_tracer() -> "Tracer | None":
    """The process-wide tracer, or ``None`` when tracing is off.

    Explicit :func:`configure` wins; otherwise ``REPRO_TRACE`` is
    consulted on every call (so tests and forked workers may flip it
    at runtime).
    """
    if _CONFIGURED is not _UNSET:
        return _CONFIGURED  # type: ignore[return-value]
    spec = os.environ.get(ENV_VAR)
    if not spec:
        return None
    return _tracer_for(spec)


def enabled() -> bool:
    """Whether any tracer is currently active."""
    return active_tracer() is not None


def span(name: str, **attrs):
    """Open a span on the active tracer — or a shared no-op.

    The package-wide instrumentation entry point: when tracing is
    disabled this returns a singleton no-op context manager without
    allocating anything, so instrumented hot paths stay at their
    uninstrumented cost (guarded by ``benchmarks/bench_obs.py``).

    Parameters
    ----------
    name : str
        Dotted span name (``"cache.get"``, ``"kernel.eig"``, ...).
    **attrs
        Initial JSON-safe attributes.

    Returns
    -------
    Span or _NoopSpan
        A context manager; real spans support ``.set(**attrs)``.
    """
    tracer = active_tracer()
    if tracer is None:
        return _NOOP
    return tracer.span(name, **attrs)
