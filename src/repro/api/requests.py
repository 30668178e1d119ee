"""Typed, JSON-round-trippable request objects for :class:`Session`.

One request class per workload the package serves.  Requests are
frozen (hashable) dataclasses carrying only plain data — every field
is a string, number, boolean, ``None`` or a (nested) tuple of those —
so they serialize through the :mod:`repro.api.serialization` envelope
and key the per-session result cache.

Requests deliberately do **not** carry an engine or technology: those
are *session* bindings (:class:`repro.api.Session`), so the same
serialized request can be replayed against any backend or corner.
All physical quantities are SI (seconds, volts), like the rest of the
package.
"""

from __future__ import annotations

import dataclasses
from typing import ClassVar

from .serialization import ApiRecord

__all__ = [
    "CharacterizeRequest",
    "DelayRequest",
    "DescribeRequest",
    "ExperimentRequest",
    "LibraryRequest",
    "Request",
    "StaRequest",
    "StatsRequest",
    "VersionRequest",
    "WireRequest",
]


class Request(ApiRecord):
    """Marker base class of everything :meth:`Session.run` accepts."""


@dataclasses.dataclass(frozen=True)
class DescribeRequest(Request):
    """Enumerate the available experiments, workflows and engines.

    The CLI's ``repro list`` is this request; the rendered text is the
    same two-column listing.
    """

    kind: ClassVar[str] = "describe"


@dataclasses.dataclass(frozen=True)
class VersionRequest(Request):
    """Report the package version (single-sourced from
    :mod:`repro._version`)."""

    kind: ClassVar[str] = "version"


@dataclasses.dataclass(frozen=True)
class DelayRequest(Request):
    """Evaluate MIS delays at explicit input separations.

    Parameters
    ----------
    direction : str
        ``"falling"`` or ``"rising"`` (the output transition).
    deltas : tuple of tuple of float
        One entry per query point.  Each entry is a Δ-vector of
        sibling offsets in seconds: length 1 for ``nor2`` (the
        paper's scalar Δ), length ``n − 1`` for ``nor3`` / ``nor4``.
    gate : str
        Gate width: ``"nor2"`` (closed-form path), ``"nor3"`` or
        ``"nor4"`` (generalized Δ-vector path).
    vn_init : float
        Initial internal-node voltage in volts, rising direction
        only (default 0.0, the GND worst case).
    """

    kind: ClassVar[str] = "delay"
    direction: str = "falling"
    deltas: tuple[tuple[float, ...], ...] = ((0.0,),)
    gate: str = "nor2"
    vn_init: float = 0.0


@dataclasses.dataclass(frozen=True)
class CharacterizeRequest(Request):
    """Characterize a gate library (``repro characterize``).

    The result embeds the serialized
    :class:`~repro.library.GateLibrary` payload; writing it to disk is
    the caller's choice (the CLI's ``--out``).

    Parameters
    ----------
    gate : str
        ``"nor2"`` runs the paper's four-cell NOR2/NAND2 grid,
        ``"nor3"`` / ``"nor4"`` the n-input Δ-vector flow.
    fit : bool
        Fit gate parameters from an analog characterization of the
        session's technology instead of the paper's Table I (slower).
    core_points : int, optional
        Uniform Δ samples across the MIS core (``None``: the
        library's standard grid).
    state_points : int, optional
        Internal-node voltage grid size, 2-input grid only (``None``:
        the library's standard grid).
    library_name : str
        Library name stored in the JSON header.
    """

    kind: ClassVar[str] = "characterize"
    gate: str = "nor2"
    fit: bool = False
    core_points: int | None = None
    state_points: int | None = None
    library_name: str = "repro-hybrid"


@dataclasses.dataclass(frozen=True)
class LibraryRequest(Request):
    """Inspect / verify a characterized library JSON file.

    Parameters
    ----------
    path : str
        Path of a ``repro characterize`` output file.
    cell : str, optional
        Restrict inspection to one cell (adds the per-direction
        surface detail).
    verify : bool
        Re-measure the interpolation error of every listed table
        against the session's engine.
    """

    kind: ClassVar[str] = "library"
    path: str = ""
    cell: str | None = None
    verify: bool = False


@dataclasses.dataclass(frozen=True)
class StaRequest(Request):
    """MIS-aware static timing analysis (``repro sta``).

    Parameters
    ----------
    circuit : str
        Built-in test circuit name (see ``repro.sta.STA_CIRCUITS``).
    library_path : str, optional
        Characterized library JSON; gates use table lookups instead
        of direct evaluation (requires *cell*).
    cell : str, optional
        Cell of *library_path* driving the gates.
    required : float, optional
        Endpoint required arrival time in seconds (enables slack).
    top : int
        Number of ranked critical paths.
    corners : int, optional
        Also run an N-corner vectorized sweep (random
        parameter/arrival corners).
    seed : int
        Corner-sampling seed.
    validate : bool
        Run the STA-vs-event-simulation cross-validation instead of
        a report.
    """

    kind: ClassVar[str] = "sta"
    circuit: str = "tree"
    library_path: str | None = None
    cell: str | None = None
    required: float | None = None
    top: int = 3
    corners: int | None = None
    seed: int = 0
    validate: bool = False


@dataclasses.dataclass(frozen=True)
class ExperimentRequest(Request):
    """Run one of the paper's reproduction experiments by name.

    Covers the figure/table subcommands (``fig2`` … ``faithfulness``)
    plus the ``library`` characterization-accuracy, ``engines``
    backend-comparison and ``multi_input`` n-input probes, each at
    its default size.

    Parameters
    ----------
    name : str
        Experiment name (``repro list`` enumerates them).
    with_analog : bool
        Also run the analog golden sweep for the ``fig5`` / ``fig6``
        / ``fig8`` comparisons (slower).
    transitions : int, optional
        ``fig7`` transitions per configuration (``None``: the
        experiment's default).
    repetitions : int, optional
        ``fig7`` random repetitions (``None``: the experiment's
        default).
    seed : int
        RNG seed for the randomized experiments.
    """

    kind: ClassVar[str] = "experiment"
    name: str = "fig4"
    with_analog: bool = False
    transitions: int | None = None
    repetitions: int | None = None
    seed: int = 0


@dataclasses.dataclass(frozen=True)
class StatsRequest(Request):
    """Statistical delay analysis (``repro stats``).

    One request kind for the three statistical methods of
    :mod:`repro.stats`: vectorized Monte-Carlo delay sampling
    (``"mc"``), the probabilistic-collocation surrogate
    (``"surrogate"``) and Monte-Carlo timing yield (``"yield"``).
    The parameter distribution is centered on the session's bound
    parameter set; the request carries only its shape.

    Parameters
    ----------
    method : str
        ``"mc"``, ``"surrogate"`` or ``"yield"``.
    gate : str
        ``"nor2"`` (block-kernel path), ``"nor3"`` or ``"nor4"``
        (``mc`` / ``surrogate``).
    direction : str
        ``"falling"`` or ``"rising"`` (``mc`` / ``surrogate``).
    deltas : tuple of float
        Input separations in seconds, one statistics row each
        (``mc`` / ``surrogate``).
    samples : int
        Monte-Carlo sample count; for ``surrogate`` the polynomial
        *resample* count behind percentiles/histograms (the model-
        evaluation cost is the fixed collocation design).
    seed : int
        Draw seed; identical seeds give byte-identical results
        across processes and engine backends.
    sigma : tuple of (str, float)
        Relative spread per varied parameter, e.g.
        ``(("r1", 0.1), ("co", 0.05))``; empty (default) varies all
        six R/C parameters at 5 %.
    distribution : str
        Marginal family, ``"lognormal"`` (default) or ``"normal"``.
    correlation : float
        Equicorrelation ``0 <= rho < 1`` between the varied
        parameters' underlying normals.
    vn_init : float
        Rising-direction internal-node voltage, volts.
    percentiles : tuple of float
        Reported percentile levels in percent.
    bins : int
        Histogram bin count per Δ (0 disables histograms).
    degree : int
        Total polynomial degree of the surrogate expansion, 1–5.
    circuit : str
        Built-in test circuit (``yield``).
    required : float, optional
        Endpoint requirement in seconds (``yield``).
    arrival_sigma : float
        Absolute σ of Gaussian input-arrival jitter, seconds
        (``yield``).
    per_instance : bool
        Draw an independent parameter sample per circuit instance
        (local/uncorrelated process variation) instead of one shared
        sample per corner (``yield``).
    """

    kind: ClassVar[str] = "stats"
    method: str = "mc"
    gate: str = "nor2"
    direction: str = "falling"
    deltas: tuple[float, ...] = (0.0,)
    samples: int = 1024
    seed: int = 0
    sigma: tuple[tuple[str, float], ...] = ()
    distribution: str = "lognormal"
    correlation: float = 0.0
    vn_init: float = 0.0
    percentiles: tuple[float, ...] = (1.0, 50.0, 99.0)
    bins: int = 0
    degree: int = 3
    circuit: str = "tree"
    required: float | None = None
    arrival_sigma: float = 0.0
    per_instance: bool = False


@dataclasses.dataclass(frozen=True)
class WireRequest(Request):
    """RC-interconnect reduction and validation (``repro wire``).

    Builds a parametric :class:`~repro.wire.WireTree` (a uniform
    line or a symmetric fanout), reduces it to analytic per-sink
    delay/slew models, sweeps the reduction across R/C corner scale
    factors, and optionally cross-validates the analytic model
    against a lowered transient SPICE simulation of the same tree.

    Parameters
    ----------
    topology : str
        ``"line"`` (default) or ``"fanout"``.
    stages : int
        Segments per line, or per fanout branch.
    branches : int
        Branch count (``fanout`` only).
    resistance : float
        Per-segment resistance, ohms.
    capacitance : float
        Per-segment capacitance to ground, farads.
    sink_load : float
        Extra lumped load at each sink, farads (e.g. the receiving
        gate's input capacitance).
    model : str
        Reduced-order model: ``"elmore"`` or ``"two_pole"``
        (default).
    corners : int
        R/C corner scale-factor grid size of the vectorized sweep
        (0 disables the sweep).
    seed : int
        Corner-sampling seed.
    validate : bool
        Also lower the tree to R/C devices and compare the analytic
        sink delays against transient SPICE crossings.
    """

    kind: ClassVar[str] = "wire"
    topology: str = "line"
    stages: int = 3
    branches: int = 2
    resistance: float = 2e3
    capacitance: float = 0.4e-15
    sink_load: float = 0.0
    model: str = "two_pole"
    corners: int = 0
    seed: int = 0
    validate: bool = False
