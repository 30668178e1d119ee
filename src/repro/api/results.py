"""Typed, JSON-round-trippable result objects of :meth:`Session.run`.

Each request type of :mod:`repro.api.requests` resolves to exactly one
result type here.  Results are frozen dataclasses of plain data: every
field serializes through the :mod:`repro.api.serialization` envelope
(``result.to_json()``) and decodes back with
``Result.from_json`` / :func:`repro.api.from_json` — the round-trip
contract the property tests enforce.

Every result carries a ``text`` field with the human rendering the CLI
prints; the structured fields carry the same information for
machines.  All physical quantities are SI seconds unless a field name
says otherwise.
"""

from __future__ import annotations

import dataclasses
from typing import Any, ClassVar

from .serialization import ApiRecord

__all__ = [
    "CharacterizeResult",
    "DelayResult",
    "DescribeResult",
    "ErrorResult",
    "ExperimentResult",
    "LibraryInspectResult",
    "Result",
    "StaRunResult",
    "StatsResult",
    "VersionResult",
    "WireResult",
]


@dataclasses.dataclass(frozen=True)
class Result(ApiRecord):
    """Base class of everything :meth:`Session.run` returns.

    Parameters
    ----------
    timings : dict of str to float, optional
        Per-request timing breakdown (span name -> seconds summed
        over that request), attached by :meth:`Session.run` **only
        while tracing is enabled** (``Session(trace=...)``,
        ``REPRO_TRACE``, or ``repro ... --trace``).  ``None`` by
        default and then omitted from the JSON envelope entirely, so
        untraced envelopes are byte-identical to previous releases.
    """

    #: Fields dropped from the envelope when ``None`` (instead of
    #: serializing as ``null``) — keeps ``timings`` schema-compatible.
    _omit_none: ClassVar[frozenset] = frozenset({"timings"})

    timings: dict[str, float] | None = None


@dataclasses.dataclass(frozen=True)
class ErrorResult(Result):
    """A failed request, as a first-class envelope.

    :meth:`Session.run` *raises* on bad requests (the CLI turns that
    into exit code 2); transports that must keep going — the HTTP
    service of :mod:`repro.server`, a batch job where one bad JSONL
    line must not abort the others — wrap the failure in this record
    instead, so error outcomes travel through exactly the same
    schema-versioned envelope as successes.

    Parameters
    ----------
    error : str
        One-line human-readable failure message.
    exception : str
        Class name of the underlying exception (``"ParameterError"``,
        ``"TimeoutError"``, ...).
    request_kind : str, optional
        ``kind`` tag of the offending request, when it decoded far
        enough to tell.
    status : int
        The HTTP status the service mapped the failure to (400 bad
        request, 404 unknown resource, 504 timeout, 500 internal);
        ``0`` outside an HTTP context.
    text : str
        The rendered one-line error (what a CLI would print).
    """

    kind: ClassVar[str] = "error"
    error: str = ""
    exception: str = ""
    request_kind: str | None = None
    status: int = 0
    text: str = ""

    @classmethod
    def from_exception(cls, exc: BaseException,
                       request_kind: str | None = None,
                       status: int = 0) -> "ErrorResult":
        """Wrap an exception into the envelope.

        Parameters
        ----------
        exc : BaseException
            The failure; its ``str()`` becomes the message (falling
            back to the class name for message-less exceptions).
        request_kind : str, optional
            ``kind`` tag of the offending request, if known.
        status : int, optional
            HTTP status code the caller maps the failure to.
        """
        message = str(exc) or type(exc).__name__
        return cls(error=message, exception=type(exc).__name__,
                   request_kind=request_kind, status=status,
                   text=f"error: {message}")


@dataclasses.dataclass(frozen=True)
class DescribeResult(Result):
    """Catalog of the session's capabilities (``repro list``).

    Parameters
    ----------
    version : str
        Package version.
    engines : tuple of str
        Registered delay-engine backend names.
    experiments : dict of str to str
        Experiment name -> one-line description.
    workflows : dict of str to str
        Workflow command name -> one-line description.
    text : str
        The two-column listing the CLI prints.
    cache : dict, optional
        Persistent-cache report: ``{"enabled": False}`` when no
        cache root is configured, else ``{"enabled": True, "dir",
        "hits", "misses", "writes", "entries"}`` (process-wide
        counters, see :mod:`repro.cache`).
    """

    kind: ClassVar[str] = "describe_result"
    version: str = ""
    engines: tuple[str, ...] = ()
    experiments: dict[str, str] = dataclasses.field(
        default_factory=dict)
    workflows: dict[str, str] = dataclasses.field(default_factory=dict)
    text: str = ""
    cache: dict[str, bool | int | str] = dataclasses.field(
        default_factory=dict)


@dataclasses.dataclass(frozen=True)
class VersionResult(Result):
    """The package version (``repro version`` / ``repro --version``).

    Parameters
    ----------
    version : str
        The version string from :mod:`repro._version`.
    text : str
        ``"repro <version>"``.
    cache : dict, optional
        Persistent-cache report (see :class:`DescribeResult`); lets
        operators poll warm-cache ratios via ``repro version
        --json``.
    """

    kind: ClassVar[str] = "version_result"
    version: str = ""
    text: str = ""
    cache: dict[str, bool | int | str] = dataclasses.field(
        default_factory=dict)


@dataclasses.dataclass(frozen=True)
class DelayResult(Result):
    """MIS delays at explicit input separations.

    Parameters
    ----------
    gate : str
        Evaluated gate width (``nor2`` / ``nor3`` / ``nor4``).
    direction : str
        ``"falling"`` or ``"rising"``.
    engine : str
        Name of the backend that produced the delays.
    deltas : tuple of tuple of float
        The queried Δ-vectors, echoed back (seconds).
    delays : tuple of float
        One delay per query point, seconds, ``δ_min`` included.
    text : str
        Rendered Δ/delay table.
    """

    kind: ClassVar[str] = "delay_result"
    gate: str = "nor2"
    direction: str = "falling"
    engine: str = ""
    deltas: tuple[tuple[float, ...], ...] = ()
    delays: tuple[float, ...] = ()
    text: str = ""


@dataclasses.dataclass(frozen=True)
class CharacterizeResult(Result):
    """A characterized gate library plus its accuracy audit.

    Parameters
    ----------
    cells : tuple of str
        Characterized cell names (sorted).
    worst_error : float
        Worst table-vs-direct interpolation error, seconds.
    engine : str
        Backend that swept the grids.
    library : dict
        The serialized :class:`~repro.library.GateLibrary` payload
        (``GateLibrary.to_dict()``); load it back with
        ``GateLibrary.from_dict`` or write it as the library JSON.
    text : str
        Rendered per-cell accuracy listing.
    """

    kind: ClassVar[str] = "characterize_result"
    cells: tuple[str, ...] = ()
    worst_error: float = 0.0
    engine: str = ""
    library: dict[str, Any] = dataclasses.field(default_factory=dict)
    text: str = ""


@dataclasses.dataclass(frozen=True)
class LibraryInspectResult(Result):
    """Inspection of an on-disk characterized library.

    Parameters
    ----------
    name : str
        Library name from the JSON header.
    cells : tuple of str
        Inspected cell names.
    text : str
        Rendered listing (surface detail / verification lines
        included when requested).
    """

    kind: ClassVar[str] = "library_inspect_result"
    name: str = ""
    cells: tuple[str, ...] = ()
    text: str = ""


@dataclasses.dataclass(frozen=True)
class StaRunResult(Result):
    """A static-timing run: report, optional sweep, or validation.

    Parameters
    ----------
    circuit : str, optional
        Analyzed circuit name (``None`` for the cross-validation
        mode, which runs its own scenario set).
    engine : str
        Backend driving the timing arcs.
    analysis : dict, optional
        The full analysis payload (arrivals, slacks, paths, and the
        corner sweep under ``"sweep"``) — the shape
        :func:`repro.sta.sta_payload` documents.  ``None`` in
        cross-validation mode.
    max_error : float, optional
        Worst |STA − event-simulation| disagreement in seconds
        (cross-validation mode only).
    text : str
        Rendered report / validation table.
    """

    kind: ClassVar[str] = "sta_result"
    circuit: str | None = None
    engine: str = ""
    analysis: dict[str, Any] | None = None
    max_error: float | None = None
    text: str = ""


@dataclasses.dataclass(frozen=True)
class StatsResult(Result):
    """Statistical delay analysis outcome (``repro stats``).

    Deliberately carries **no** engine name: identical seeds produce
    byte-identical envelopes across the ``reference`` /
    ``vectorized`` backends (the determinism contract of
    :mod:`repro.stats`), and an engine field would break that.

    For ``method = "yield"`` the per-Δ statistics columns collapse
    to one pseudo-column holding the worst-endpoint-arrival
    distribution and ``deltas`` is empty.

    Parameters
    ----------
    method : str
        ``"mc"``, ``"surrogate"`` or ``"yield"``.
    gate : str
        Evaluated gate width (``mc`` / ``surrogate``).
    direction : str
        ``"falling"`` or ``"rising"`` (``mc`` / ``surrogate``).
    circuit : str, optional
        Analyzed circuit (``yield`` only, else ``None``).
    samples : int
        Samples behind the statistics; for ``surrogate`` the
        model-evaluation count (the collocation design size).
    deltas : tuple of float
        The Δ grid, seconds (empty for ``yield``).
    mean, std, minimum, maximum : tuple of float
        Per-column moments/extremes, seconds (``std`` ddof = 1).
    percentile_levels : tuple of float
        Reported percentile levels in percent.
    percentile_values : tuple of tuple of float
        Per-level, per-column percentiles, seconds.
    histogram_edges : tuple of tuple of float, optional
        Per-column bin edges (``None`` when no histogram was
        requested).
    histogram_counts : tuple of tuple of float, optional
        Per-column bin counts.
    yield_fraction : float, optional
        Fraction of corners with non-negative worst slack
        (``yield`` only).
    required : float, optional
        Endpoint requirement, seconds (``yield`` only).
    text : str
        Rendered statistics table / yield report.
    """

    kind: ClassVar[str] = "stats_result"
    method: str = "mc"
    gate: str = "nor2"
    direction: str = "falling"
    circuit: str | None = None
    samples: int = 0
    deltas: tuple[float, ...] = ()
    mean: tuple[float, ...] = ()
    std: tuple[float, ...] = ()
    minimum: tuple[float, ...] = ()
    maximum: tuple[float, ...] = ()
    percentile_levels: tuple[float, ...] = ()
    percentile_values: tuple[tuple[float, ...], ...] = ()
    histogram_edges: tuple[tuple[float, ...], ...] | None = None
    histogram_counts: tuple[tuple[float, ...], ...] | None = None
    yield_fraction: float | None = None
    required: float | None = None
    text: str = ""


@dataclasses.dataclass(frozen=True)
class WireResult(Result):
    """RC-interconnect reduction outcome (``repro wire``).

    Parameters
    ----------
    topology : str
        ``"line"`` or ``"fanout"``.
    model : str
        Reduced-order model used (``"elmore"`` / ``"two_pole"``).
    sinks : tuple of str
        Sink node names, in tree order.
    elmore : tuple of float
        Per-sink Elmore delay, seconds.
    delays : tuple of float
        Per-sink model 50 % delay, seconds.
    slews : tuple of float
        Per-sink 10–90 % output slew, seconds.
    total_capacitance : float
        Total tree capacitance (wire + sink loads), farads — the
        load the driving gate prices through
        :func:`repro.wire.loaded_params`.
    corners : int
        R/C corner count of the vectorized sweep (0 when skipped).
    corner_delay_min, corner_delay_max : float, optional
        Extremes of the worst-sink delay across the corner grid,
        seconds (``None`` when the sweep was skipped).
    max_error : float, optional
        Largest |analytic − SPICE| sink-delay error of the
        transient cross-validation, seconds (``None`` unless
        ``validate`` was requested).
    text : str
        Rendered per-sink table / validation report.
    """

    kind: ClassVar[str] = "wire_result"
    topology: str = "line"
    model: str = "two_pole"
    sinks: tuple[str, ...] = ()
    elmore: tuple[float, ...] = ()
    delays: tuple[float, ...] = ()
    slews: tuple[float, ...] = ()
    total_capacitance: float = 0.0
    corners: int = 0
    corner_delay_min: float | None = None
    corner_delay_max: float | None = None
    max_error: float | None = None
    text: str = ""


@dataclasses.dataclass(frozen=True)
class ExperimentResult(Result):
    """Rendered outcome of one reproduction experiment.

    Parameters
    ----------
    name : str
        Experiment name.
    text : str
        The experiment's rendered rows (what the figure shows).
    """

    kind: ClassVar[str] = "experiment_result"
    name: str = ""
    text: str = ""
