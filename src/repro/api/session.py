"""The session facade: one front door to every workload.

A :class:`Session` binds the things every layer used to re-plumb
through its own keyword arguments — the technology card, the delay
engine, the base electrical parameters, loaded gate libraries — and
serves every workload through one dispatch seam::

    from repro.api import Session, StaRequest
    session = Session(engine="vectorized")
    result = session.run(StaRequest(circuit="tree", corners=100))
    print(result.text)              # the human report
    payload = result.to_json()      # the machine envelope

Requests and results are plain serializable data
(:mod:`repro.api.requests` / :mod:`repro.api.results`), so the same
seam serves an HTTP service or a distributed dispatcher unchanged:
``session.run_json(envelope)`` accepts a serialized request and
returns the typed result.

Results are memoized per session, keyed by the (hashable) request —
repeating a request is a dictionary lookup.  The cache never expires
within a session; requests that read files (:class:`LibraryRequest`,
:class:`StaRequest` with a library) therefore see the file as it was
first read.  Use :meth:`Session.clear_cache` (or ``cache=False``)
when that matters.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any

from .. import cache as disk_cache
from ..obs import metrics as _metrics
from ..obs import trace as obs_trace
from ..core.parameters import PAPER_TABLE_I, NorGateParameters
from ..engine import DelayEngine, get_engine
from ..errors import ParameterError
from ..library import GateLibrary
from ..spice.technology import TechnologyCard
from .catalog import TECHNOLOGIES
from .handlers import HANDLERS
from .requests import Request
from .results import Result
from .serialization import from_json as _record_from_json

__all__ = ["Session"]


class Session:
    """Bound technology + engine + parameters, one ``run()`` seam.

    Parameters
    ----------
    tech : str or TechnologyCard, optional
        Technology card, by registry name (``"finfet15"`` /
        ``"bulk65"``) or as an instance (default ``"finfet15"``).
    engine : str or DelayEngine or None, optional
        Delay-evaluation backend, by registry name or as an
        instance; ``None`` picks the package default.  Resolution is
        lazy, so constructing a session is always cheap.
    parameters : NorGateParameters, optional
        Base 2-input electrical parameter set (default: the paper's
        Table I).
    cache : bool, optional
        Memoize per-request results, loaded libraries and lowered
        timing graphs within this session (default ``True``;
        ``False`` re-reads and re-builds on every call).
    cache_dir : str or Path, optional
        Root directory of the *persistent* cross-process cache (see
        :mod:`repro.cache`): characterized delay tables are stored
        there and shared with other processes.
        ``None`` (default) leaves the process-wide setting alone —
        the ``REPRO_CACHE_DIR`` environment variable still applies.
    trace : str or Tracer, optional
        Enable span tracing process-wide (see
        :mod:`repro.obs.trace`): ``"jsonl:<path>"`` (or a bare path)
        appends finished spans to a JSONL file, ``"mem"`` records
        into the in-memory buffer only, and a
        :class:`~repro.obs.trace.Tracer` instance is used as-is.
        While tracing is on, freshly computed results carry a
        ``timings`` breakdown (span name -> seconds).  ``None``
        (default) leaves the process-wide setting alone — the
        ``REPRO_TRACE`` environment variable still applies.

    Raises
    ------
    ParameterError
        If *tech* names no registered technology card.
    """

    def __init__(self, tech: "str | TechnologyCard" = "finfet15",
                 engine: "str | DelayEngine | None" = None,
                 parameters: NorGateParameters | None = None,
                 cache: bool = True,
                 cache_dir: "str | None" = None,
                 trace: "str | obs_trace.Tracer | None" = None
                 ) -> None:
        if isinstance(tech, str):
            try:
                card = TECHNOLOGIES[tech]
            except KeyError:
                raise ParameterError(
                    f"unknown technology {tech!r}; available: "
                    f"{', '.join(sorted(TECHNOLOGIES))}") from None
            self._tech_name, self._tech = tech, card
        else:
            self._tech_name, self._tech = tech.name, tech
        self._engine_spec = engine
        self._engine: DelayEngine | None = None
        self._parameters = (PAPER_TABLE_I if parameters is None
                            else parameters)
        self._cache_enabled = bool(cache)
        if cache_dir is not None:
            disk_cache.configure(cache_dir)
        if trace is not None:
            obs_trace.configure(trace)
        self._results: dict[Request, Result] = {}
        self._libraries: dict[str, GateLibrary] = {}
        self._graphs: dict[str, Any] = {}
        self._hits = 0
        self._misses = 0
        # Pre-resolved registry instruments, keyed by (kind, outcome)
        # or kind, so the hot dispatch path skips the registry lookup.
        self._instruments: dict = {}

    # ------------------------------------------------------------------
    # bindings
    # ------------------------------------------------------------------

    @property
    def engine(self) -> DelayEngine:
        """The resolved delay backend (resolved once, then pinned).

        Raises
        ------
        ValueError
            If the session was built with an unknown engine name.
        """
        if self._engine is None:
            self._engine = get_engine(self._engine_spec)
        return self._engine

    @property
    def engine_name(self) -> str:
        """Registry name of the resolved backend."""
        return self.engine.name

    @property
    def technology(self) -> TechnologyCard:
        """The bound technology card."""
        return self._tech

    @property
    def tech_name(self) -> str:
        """Registry name of the bound technology card."""
        return self._tech_name

    @property
    def parameters(self) -> NorGateParameters:
        """The bound 2-input electrical parameter set."""
        return self._parameters

    def generalized(self, num_inputs: int):
        """The bound parameters widened to an n-input NOR.

        Parameters
        ----------
        num_inputs : int
            Gate width (>= 2).

        Returns
        -------
        GeneralizedNorParameters
            :func:`repro.core.multi_input.paper_generalized` of the
            session's base parameters.
        """
        from ..core.multi_input import paper_generalized
        return paper_generalized(num_inputs, self._parameters)

    def load_library(self, path: str) -> GateLibrary:
        """Load (and memoize) a characterized library JSON.

        Parameters
        ----------
        path : str
            A ``repro characterize`` output file.

        Raises
        ------
        ValueError
            With a one-line message if the file is missing,
            unreadable, or not a gate-library payload.
        """
        key = str(path)
        if key in self._libraries:
            return self._libraries[key]
        try:
            library = GateLibrary.load(key)
        except FileNotFoundError:
            raise ValueError(f"no such file: {key}") from None
        except (OSError, ValueError) as error:
            raise ValueError(f"cannot read {key}: {error}") from None
        if self._cache_enabled:
            self._libraries[key] = library
        return library

    def timing_graph(self, circuit: str):
        """Lower (and memoize) a built-in STA circuit to its graph.

        Parameters
        ----------
        circuit : str
            A ``repro.sta.STA_CIRCUITS`` name.

        Returns
        -------
        TimingGraph
            The engine-backed graph, one instance per session per
            circuit name.
        """
        if circuit in self._graphs:
            return self._graphs[circuit]
        from ..sta import build_timing_graph, sta_circuit
        graph = build_timing_graph(
            sta_circuit(circuit, self._parameters),
            engine=self.engine)
        if self._cache_enabled:
            self._graphs[circuit] = graph
        return graph

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _requests_total(self, kind: str, outcome: str):
        key = (kind, outcome)
        counter = self._instruments.get(key)
        if counter is None:
            counter = _metrics.registry().counter(
                "repro_session_requests_total",
                "session.run dispatches by request kind and memo "
                "outcome",
                labels={"kind": kind, "outcome": outcome})
            self._instruments[key] = counter
        return counter

    def _run_seconds(self, kind: str):
        histogram = self._instruments.get(kind)
        if histogram is None:
            histogram = _metrics.registry().histogram(
                "repro_session_run_seconds",
                "handler wall time per request kind",
                labels={"kind": kind})
            self._instruments[kind] = histogram
        return histogram

    def run(self, request: Request) -> Result:
        """Dispatch a request to its handler; memoize the result.

        Parameters
        ----------
        request : Request
            Any :mod:`repro.api.requests` instance.

        Returns
        -------
        Result
            The matching typed result (cached on repeats when the
            session cache is enabled).  While tracing is enabled
            (see the *trace* parameter / ``REPRO_TRACE``), freshly
            computed results additionally carry a ``timings``
            breakdown: span name -> seconds summed over this
            request, ``session.run`` being the total.

        Raises
        ------
        ParameterError
            If *request* is not a known request type.
        """
        handler = HANDLERS.get(type(request))
        if handler is None:
            raise ParameterError(
                f"not a known request: {type(request).__name__}; "
                f"expected one of "
                f"{', '.join(sorted(c.__name__ for c in HANDLERS))}")
        cached = self.lookup(request)
        if cached is not None:
            return cached
        kind = type(request).kind
        self._misses += 1
        self._requests_total(kind, "miss").inc()
        tracer = obs_trace.active_tracer()
        if tracer is None:
            started = time.perf_counter()
            result = handler(self, request)
            self._run_seconds(kind).observe(
                time.perf_counter() - started)
            if self._cache_enabled:
                self._results[request] = result
            return result
        with tracer.capture() as captured:
            with tracer.span("session.run", kind=kind):
                result = handler(self, request)
        if self._cache_enabled:
            # Memoize the result *without* timings: a later cache
            # hit did not redo this work, so it must not replay the
            # first computation's breakdown.
            self._results[request] = result
        timings: dict[str, float] = {}
        for record in captured:
            timings[record["name"]] = (timings.get(record["name"],
                                                   0.0)
                                       + record["dur_s"])
        self._run_seconds(kind).observe(
            timings.get("session.run", 0.0))
        return dataclasses.replace(result, timings=timings)

    def lookup(self, request: Request) -> "Result | None":
        """The memoized result of *request*, or ``None``.

        The memo lookup of :meth:`run`: a hit is counted here, once,
        as a ``run`` hit (``cache_info()["hits"]`` and
        ``repro_session_requests_total{outcome="hit"}``).  A miss
        counts nothing; the :meth:`run` that computes the result
        counts it.  The server answers hits with this on the
        connection thread.
        """
        if not self._cache_enabled:
            return None
        result = self._results.get(request)
        if result is not None:
            self._hits += 1
            self._requests_total(type(request).kind, "hit").inc()
        return result

    @staticmethod
    def decode_request(payload: "str | dict[str, Any]") -> Request:
        """Decode a serialized request envelope into its request.

        Parameters
        ----------
        payload : str or dict
            A request envelope produced by ``request.to_json()`` (or
            an equivalent dict).

        Raises
        ------
        ParameterError
            If the payload is malformed, carries a foreign schema
            version, or decodes to a result type.
        """
        record = _record_from_json(payload)
        if not isinstance(record, Request):
            raise ParameterError(
                f"payload kind {type(record).kind!r} is a result, "
                "not a request")
        return record

    def run_json(self, payload: "str | dict[str, Any]") -> Result:
        """Decode a serialized request envelope and :meth:`run` it.

        Parameters
        ----------
        payload : str or dict
            A request envelope produced by ``request.to_json()`` (or
            an equivalent dict).

        Raises
        ------
        ParameterError
            As :meth:`decode_request`.
        """
        return self.run(self.decode_request(payload))

    # ------------------------------------------------------------------
    # cache control
    # ------------------------------------------------------------------

    def clear_cache(self) -> None:
        """Drop every memoized result, library and timing graph."""
        self._results.clear()
        self._libraries.clear()
        self._graphs.clear()
        self._hits = 0
        self._misses = 0

    def cache_info(self) -> dict:
        """Cache counters: ``{"hits", "misses", "size"}``.

        When the persistent cross-process cache is active (see
        :mod:`repro.cache`), a ``"disk"`` entry is added with its
        location and process-wide counters: ``{"dir", "hits",
        "misses", "writes", "entries"}``.
        """
        info: dict = {"hits": self._hits, "misses": self._misses,
                      "size": len(self._results)}
        store = disk_cache.get_store()
        if store is not None:
            info["disk"] = store.info()
        return info

    def __repr__(self) -> str:
        """Compact binding summary (engine shown unresolved-lazy)."""
        engine = (self._engine.name if self._engine is not None
                  else repr(self._engine_spec))
        return (f"Session(tech={self._tech_name!r}, engine={engine}, "
                f"cached={len(self._results)})")
