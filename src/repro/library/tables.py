"""Characterized gate-delay tables and their JSON serialization.

A :class:`GateDelayTable` is the lookup-table form of one gate's MIS
delay surfaces — what an NLDM-style standard-cell library stores per
cell, here with the input-separation axis ``Δ`` the paper shows is
required for multi-input gates.  Each output direction is a
:class:`DelaySurface`: delays sampled over a rectangular
``(state, Δ)`` grid, bilinearly interpolated, where *state* is the
initial internal-node voltage of the transition that depends on one
(paper Section IV):

* a ``nor2`` cell's **rising** surface carries the ``V_N(0)`` axis
  (series pMOS stack); its falling surface is state-free (one row);
* a ``nand2`` cell — characterized through the CMOS mirror duality of
  :mod:`repro.core.duality` — carries the axis on its **falling**
  surface (``V_M(0)``, series nMOS stack) instead.

Lookups *clamp* to the characterized ranges: the grids produced by
:func:`repro.library.characterize.default_delta_grid` extend past the
settling region, where the curves sit on their SIS plateaus, so
clamping returns the ``δ(±∞)`` values instead of raising like
:meth:`~repro.core.charlie.MisCurve.delay_at` does mid-sweep.

n-input NOR cells (``"nor3"``, ``"nor4"``, …) store one
:class:`VectorDelaySurface` per direction instead: delays sampled over
an (n−1)-dimensional tensor grid of sibling offsets, multilinearly
interpolated.  Axis-aligned tensor grids cannot align with the
surface's kink bands (the diagonal ``Δ_i = Δ_j`` planes where the
input ordering changes), so the interpolation error there scales with
the grid pitch — pick the grid density for the accuracy you need;
:func:`repro.library.characterize.verify_table` measures it.

A :class:`GateLibrary` is a named collection of tables with a
versioned on-disk JSON format (all quantities SI: seconds, volts,
ohms, farads).  Format version 2 adds the n-input payloads; version-1
files still load.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import pathlib
import re
from typing import Any

import numpy as np

from ..core.charlie import CharacteristicDelays, MisCurve
from ..core.multi_input import GeneralizedNorParameters
from ..core.parameters import NorGateParameters
from ..errors import ParameterError
from ..units import to_ps

__all__ = ["DelaySurface", "GateDelayTable", "GateLibrary",
           "VectorDelaySurface", "GATE_CHOICES", "LIBRARY_FORMAT",
           "LIBRARY_FORMAT_VERSION", "gate_width", "mis_gate_inputs"]

#: On-disk format identifier of serialized libraries.
LIBRARY_FORMAT = "repro-gate-library"
#: Current on-disk format version (bump on breaking schema changes).
LIBRARY_FORMAT_VERSION = 2
#: Format versions :meth:`GateLibrary.from_dict` still reads.
SUPPORTED_FORMAT_VERSIONS = (1, 2)

#: Two-input gate types (closed-form characterization conventions).
GATE_TYPES = ("nor2", "nand2")

#: n-input NOR cell names: ``nor3``, ``nor4``, …
_NOR_N = re.compile(r"^nor([2-9]|[1-9]\d+)$")


def mis_gate_inputs(gate: str) -> int:
    """Input count of a MIS gate type name.

    Parameters
    ----------
    gate : str
        ``"nor2"`` / ``"nand2"`` (the paper's 2-input cells) or
        ``"nor<n>"`` for the generalized n-input NOR.

    Returns
    -------
    int
        The number of gate inputs.

    Raises
    ------
    ParameterError
        If *gate* is not a recognized MIS gate type.
    """
    if gate == "nand2":
        return 2
    match = _NOR_N.match(gate)
    if match is None:
        raise ParameterError(
            f"gate must be 'nand2' or 'nor<n>' (n >= 2), got "
            f"{gate!r}")
    return int(match.group(1))


#: Gate widths ``characterize`` / ``delay`` / ``stats`` accept (the
#: n-input flow covers NOR3/NOR4; ``nor2`` is the paper's closed-form
#: cell); :mod:`repro.api.catalog` re-exports it for the front ends.
GATE_CHOICES = ("nor2", "nor3", "nor4")


def gate_width(gate: str) -> int:
    """Input count of a request-surface gate name.

    Raises
    ------
    ParameterError
        If *gate* is not one of :data:`GATE_CHOICES`.
    """
    if gate not in GATE_CHOICES:
        raise ParameterError(
            f"unknown gate {gate!r}; available: "
            f"{', '.join(GATE_CHOICES)}")
    return mis_gate_inputs(gate)


def _check_grid(values: tuple[float, ...], label: str,
                minimum: int) -> None:
    if len(values) < minimum:
        raise ParameterError(f"{label} grid needs at least {minimum} "
                             f"point(s), got {len(values)}")
    if len(values) > 1 and not np.all(
            np.diff(np.asarray(values)) > 0.0):
        raise ParameterError(f"{label} grid must be strictly "
                             "increasing")


def _check_range(values: np.ndarray, lo: float, hi: float,
                 label: str) -> None:
    """Reject NaN and finite out-of-range lookups with a clear
    message (``±inf`` deliberately reads the SIS edges)."""
    if np.isnan(values).any():
        raise ParameterError(f"{label} lookups must not be NaN")
    bad = np.isfinite(values) & ((values < lo) | (values > hi))
    if bad.any():
        worst = float(np.asarray(values)[bad].flat[0])
        raise ParameterError(
            f"{label} separation {worst!r} s is outside the "
            f"characterized range [{lo!r}, {hi!r}] s; pass "
            "clamp=True to read the plateau edges instead of "
            "extrapolating (±inf always reads them)")


@dataclasses.dataclass(frozen=True)
class DelaySurface:
    """Sampled MIS delays of one output direction over ``(state, Δ)``.

    Parameters
    ----------
    direction : str
        ``"falling"`` or ``"rising"`` (the output transition).
    deltas : tuple of float
        Strictly increasing input separations ``Δ = t_B − t_A`` in
        seconds (at least two points).
    state_grid : tuple of float
        Strictly increasing initial internal-node voltages in volts.
        A single-point grid marks a state-free surface.
    delays : tuple of tuple of float
        Delays in seconds, ``delays[i][j]`` for ``state_grid[i]`` and
        ``deltas[j]``; they include the pure delay ``δ_min`` exactly
        like the model's delay functions.

    Notes
    -----
    ``±inf`` lookups read the table edges (with grids that extend
    past the settling region those are the SIS plateaus ``δ(±∞)``);
    *finite* out-of-range separations raise unless ``clamp=True`` is
    passed, matching :meth:`repro.core.charlie.MisCurve.delay_at` —
    a silent edge-clamp would report a plateau that was never
    measured.  The state axis always clamps.
    """

    direction: str
    deltas: tuple[float, ...]
    state_grid: tuple[float, ...]
    delays: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if self.direction not in ("falling", "rising"):
            raise ParameterError("direction must be 'falling' or "
                                 "'rising'")
        _check_grid(self.deltas, "delta", 2)
        _check_grid(self.state_grid, "state", 1)
        if len(self.delays) != len(self.state_grid):
            raise ParameterError("need one delay row per state grid "
                                 "point")
        for row in self.delays:
            if len(row) != len(self.deltas):
                raise ParameterError("delay rows must have one entry "
                                     "per delta")

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    @property
    def delta_range(self) -> tuple[float, float]:
        """Characterized ``(Δ_min, Δ_max)`` in seconds."""
        return (self.deltas[0], self.deltas[-1])

    @property
    def state_dependent(self) -> bool:
        """Whether the surface actually carries a state axis."""
        return len(self.state_grid) > 1

    def delays_at(self, deltas, state: float = 0.0,
                  clamp: bool = False) -> np.ndarray:
        """Bilinearly interpolated delays for an array of separations.

        Parameters
        ----------
        deltas : array_like of float
            Separations in seconds; ``±inf`` reads the table edges
            (the SIS plateaus with the default grids).
        state : float, optional
            Initial internal-node voltage in volts, clamped to the
            state grid (default 0.0).
        clamp : bool, optional
            When true, *finite* out-of-range separations clamp to
            the table edges instead of raising — the NLDM-consumer
            semantics the table channel and STA arcs opt into.

        Returns
        -------
        numpy.ndarray
            Delays in seconds, same shape as *deltas*.

        Raises
        ------
        ParameterError
            For NaN lookups, or finite separations outside the
            characterized range when *clamp* is false.
        """
        d = np.asarray(deltas, dtype=float)
        if not clamp:
            _check_range(d, self.deltas[0], self.deltas[-1], "delta")
        d = np.clip(d, self.deltas[0], self.deltas[-1])
        grid = np.asarray(self.state_grid)
        s = min(max(float(state), grid[0]), grid[-1])
        hi = int(np.searchsorted(grid, s, side="left"))
        if hi == 0 or len(grid) == 1:
            return np.interp(d, self.deltas, self.delays[0])
        if hi == len(grid):
            return np.interp(d, self.deltas, self.delays[-1])
        lo = hi - 1
        low = np.interp(d, self.deltas, self.delays[lo])
        high = np.interp(d, self.deltas, self.delays[hi])
        weight = (s - grid[lo]) / (grid[hi] - grid[lo])
        return low * (1.0 - weight) + high * weight

    def delay_at(self, delta: float, state: float = 0.0,
                 clamp: bool = False) -> float:
        """Scalar :meth:`delays_at` (one separation, one state)."""
        return float(self.delays_at(float(delta), state, clamp=clamp))

    def curve(self, state: float = 0.0, label: str = "") -> MisCurve:
        """A constant-state cut of the surface as a :class:`MisCurve`."""
        delays = tuple(float(v) for v in
                       self.delays_at(np.asarray(self.deltas), state))
        return MisCurve(self.deltas, delays, self.direction,
                        label=label or f"table ({self.direction})")

    def characteristic(self,
                       state: float = 0.0) -> CharacteristicDelays:
        """``(δ(−∞), δ(0), δ(∞))`` read from the clamped table edges."""
        return CharacteristicDelays(
            minus_inf=self.delay_at(self.deltas[0], state),
            zero=self.delay_at(0.0, state),
            plus_inf=self.delay_at(self.deltas[-1], state))

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation (seconds / volts)."""
        return {
            "direction": self.direction,
            "deltas_s": list(self.deltas),
            "state_grid_v": list(self.state_grid),
            "delays_s": [list(row) for row in self.delays],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "DelaySurface":
        """Inverse of :meth:`to_dict`."""
        try:
            return cls(
                direction=str(payload["direction"]),
                deltas=tuple(float(v) for v in payload["deltas_s"]),
                state_grid=tuple(float(v)
                                 for v in payload["state_grid_v"]),
                delays=tuple(tuple(float(v) for v in row)
                             for row in payload["delays_s"]),
            )
        except KeyError as missing:
            raise ParameterError(
                f"delay surface payload is missing {missing}") from None


@dataclasses.dataclass(frozen=True)
class VectorDelaySurface:
    """Sampled n-input MIS delays over an (n−1)-D Δ-vector grid.

    The Δ-vector generalization of :class:`DelaySurface`: one output
    direction of an n-input NOR, sampled on the tensor product of
    per-sibling offset grids and *multilinearly* interpolated.  The
    state axis of the 2-input surfaces is replaced by a single
    recorded ``internal_state`` — the chain-node voltage the rising
    surface was characterized at (the paper's GND worst case by
    default).

    Parameters
    ----------
    direction : str
        ``"falling"`` or ``"rising"`` (the output transition).
    axes : tuple of tuple of float
        One strictly increasing sibling-offset grid per sibling
        input (``n − 1`` axes, each with at least two points),
        seconds.
    delays : nested tuple of float
        Delays in seconds on the tensor grid:
        ``delays[i0][i1]…`` for ``axes[0][i0], axes[1][i1], …`` —
        ``δ_min`` included, exactly like the model's delay
        functions.
    internal_state : float, optional
        Internal chain-node voltage the surface was characterized
        at, volts (default 0.0).

    Notes
    -----
    ``±inf`` offsets read the grid edges; *finite* out-of-range
    offsets raise unless ``clamp=True``, like
    :meth:`DelaySurface.delays_at`.  Multilinear interpolation on an
    axis-aligned grid cannot align with the surface's diagonal kink
    bands (``Δ_i = Δ_j``), so the error there scales with the grid
    pitch — density is the accuracy dial.
    """

    direction: str
    axes: tuple[tuple[float, ...], ...]
    delays: tuple
    internal_state: float = 0.0

    def __post_init__(self) -> None:
        if self.direction not in ("falling", "rising"):
            raise ParameterError("direction must be 'falling' or "
                                 "'rising'")
        if not self.axes:
            raise ParameterError("need at least one sibling axis")
        for j, axis in enumerate(self.axes):
            _check_grid(tuple(axis), f"axis {j}", 2)
        shape = np.asarray(self.delays, dtype=float).shape
        expected = tuple(len(axis) for axis in self.axes)
        if shape != expected:
            raise ParameterError(
                f"delay grid shape {shape} does not match the axes "
                f"{expected}")

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    @functools.cached_property
    def _grid(self) -> np.ndarray:
        """The sampled delays as an ndarray (lookup workhorse)."""
        return np.asarray(self.delays, dtype=float)

    @property
    def num_siblings(self) -> int:
        """Number of sibling offsets a lookup takes (``n − 1``)."""
        return len(self.axes)

    @property
    def delta_ranges(self) -> tuple[tuple[float, float], ...]:
        """Characterized ``(Δ_min, Δ_max)`` per sibling axis."""
        return tuple((axis[0], axis[-1]) for axis in self.axes)

    def delays_at(self, deltas, clamp: bool = False) -> np.ndarray:
        """Multilinearly interpolated delays for Δ-vector arrays.

        Parameters
        ----------
        deltas : array_like of float
            Sibling offsets, shape ``(..., n−1)``; ``±inf`` reads
            the grid edges.
        clamp : bool, optional
            When true, finite out-of-range offsets clamp to the
            grid edges instead of raising.

        Returns
        -------
        numpy.ndarray
            Delays in seconds, shape ``deltas.shape[:-1]``.

        Raises
        ------
        ParameterError
            On NaN lookups, Δ-vectors of the wrong width, or finite
            out-of-range offsets when *clamp* is false.
        """
        k = self.num_siblings
        d = np.asarray(deltas, dtype=float)
        if d.ndim == 0 or d.shape[-1] != k:
            raise ParameterError(
                f"delta vectors must have a trailing axis of length "
                f"{k} (one offset per sibling input), got shape "
                f"{d.shape}")
        points = d.reshape(-1, k).copy()
        rows = points.shape[0]
        index = np.empty((rows, k), dtype=int)
        frac = np.empty((rows, k))
        for j, axis in enumerate(self.axes):
            ax = np.asarray(axis)
            column = points[:, j]
            if not clamp:
                _check_range(column, ax[0], ax[-1], f"axis-{j}")
            elif np.isnan(column).any():
                raise ParameterError(
                    f"axis-{j} lookups must not be NaN")
            column = np.clip(column, ax[0], ax[-1])
            cell = np.clip(
                np.searchsorted(ax, column, side="right") - 1,
                0, len(ax) - 2)
            index[:, j] = cell
            frac[:, j] = (column - ax[cell]) / (ax[cell + 1]
                                                - ax[cell])
        out = np.zeros(rows)
        for corner in range(2 ** k):
            select = index.copy()
            weight = np.ones(rows)
            for j in range(k):
                if corner >> j & 1:
                    select[:, j] += 1
                    weight *= frac[:, j]
                else:
                    weight *= 1.0 - frac[:, j]
            out += self._grid[tuple(select.T)] * weight
        return out.reshape(d.shape[:-1])

    def delay_at(self, delta, clamp: bool = False) -> float:
        """Scalar :meth:`delays_at` (one Δ-vector)."""
        return float(self.delays_at(np.asarray(delta, dtype=float),
                                    clamp=clamp))

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation (seconds / volts)."""
        return {
            "direction": self.direction,
            "axes_s": [list(axis) for axis in self.axes],
            "delays_s": np.asarray(self.delays,
                                   dtype=float).tolist(),
            "internal_state_v": self.internal_state,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "VectorDelaySurface":
        """Inverse of :meth:`to_dict`."""

        def nest(values):
            if isinstance(values, (int, float)):
                return float(values)
            return tuple(nest(v) for v in values)

        try:
            return cls(
                direction=str(payload["direction"]),
                axes=tuple(tuple(float(v) for v in axis)
                           for axis in payload["axes_s"]),
                delays=nest(payload["delays_s"]),
                internal_state=float(
                    payload.get("internal_state_v", 0.0)),
            )
        except KeyError as missing:
            raise ParameterError(
                f"vector delay surface payload is missing "
                f"{missing}") from None


@dataclasses.dataclass(frozen=True)
class GateDelayTable:
    """Interpolated MIS delay tables of one characterized gate.

    Parameters
    ----------
    cell : str
        Cell name the table is stored under (e.g. ``"nor2_paper"``).
    gate : str
        Gate type — ``"nor2"`` / ``"nand2"`` (the paper's 2-input
        cells, :class:`DelaySurface` pairs) or ``"nor<n>"`` for the
        generalized n-input NOR (:class:`VectorDelaySurface` pairs).
        Fixes the boolean function and the delay reference
        conventions consumed by
        :class:`repro.timing.channels.TableDelayChannel`.
    params : NorGateParameters or GeneralizedNorParameters
        The electrical parameter set the table was characterized from
        (kept for provenance and re-verification); the generalized
        kind for n-input cells.
    falling, rising : DelaySurface or VectorDelaySurface
        The two output-transition surfaces (both of the same kind).
    engine : str, optional
        Name of the delay engine that produced the samples.
    """

    cell: str
    gate: str
    params: NorGateParameters | GeneralizedNorParameters
    falling: DelaySurface | VectorDelaySurface
    rising: DelaySurface | VectorDelaySurface
    engine: str = "vectorized"

    def __post_init__(self) -> None:
        inputs = mis_gate_inputs(self.gate)
        if self.falling.direction != "falling":
            raise ParameterError("falling surface has direction "
                                 f"{self.falling.direction!r}")
        if self.rising.direction != "rising":
            raise ParameterError("rising surface has direction "
                                 f"{self.rising.direction!r}")
        if self.gate in GATE_TYPES:
            for surface in (self.falling, self.rising):
                if not isinstance(surface, DelaySurface):
                    raise ParameterError(
                        f"{self.gate!r} tables store DelaySurface "
                        f"pairs, got {type(surface).__name__}")
            if not isinstance(self.params, NorGateParameters):
                raise ParameterError(
                    f"{self.gate!r} tables are characterized from "
                    "NorGateParameters")
            return
        for surface in (self.falling, self.rising):
            if not isinstance(surface, VectorDelaySurface):
                raise ParameterError(
                    f"{self.gate!r} tables store VectorDelaySurface "
                    f"pairs, got {type(surface).__name__}")
            if surface.num_siblings != inputs - 1:
                raise ParameterError(
                    f"{self.gate!r} surfaces need {inputs - 1} "
                    f"sibling axes, got {surface.num_siblings}")
        if (not isinstance(self.params, GeneralizedNorParameters)
                or self.params.num_inputs != inputs):
            raise ParameterError(
                f"{self.gate!r} tables are characterized from a "
                f"{inputs}-input GeneralizedNorParameters set")

    @property
    def num_inputs(self) -> int:
        """Input count of the characterized gate."""
        return mis_gate_inputs(self.gate)

    # ------------------------------------------------------------------
    # lookup (thin sugar over the surfaces)
    # ------------------------------------------------------------------

    def delay_falling(self, delta, state: float = 0.0,
                      clamp: bool = False) -> float:
        """Falling-output delay ``δ↓(Δ)`` in seconds.

        Parameters
        ----------
        delta : float or sequence of float
            Input separation in seconds — a scalar for 2-input
            cells, a Δ-vector of ``n − 1`` sibling offsets for
            n-input ones; ``±inf`` reads the SIS edge.
        state : float, optional
            Initial stack-node voltage in volts — only meaningful
            for gate types whose falling surface is state-dependent
            (``nand2``); ignored by n-input cells.
        clamp : bool, optional
            Clamp finite out-of-range separations to the table
            edges instead of raising.
        """
        if isinstance(self.falling, VectorDelaySurface):
            return self.falling.delay_at(delta, clamp=clamp)
        return self.falling.delay_at(delta, state, clamp=clamp)

    def delay_rising(self, delta, state: float = 0.0,
                     clamp: bool = False) -> float:
        """Rising-output delay ``δ↑(Δ)`` in seconds.

        Parameters
        ----------
        delta : float or sequence of float
            Input separation in seconds — a scalar for 2-input
            cells, a Δ-vector for n-input ones; ``±inf`` reads the
            SIS edge.
        state : float, optional
            Initial internal-node voltage in volts (``V_N(0)`` for
            ``nor2``; ignored for ``nand2`` and for n-input cells,
            whose rising surfaces record their characterized
            ``internal_state``).
        clamp : bool, optional
            Clamp finite out-of-range separations to the table
            edges instead of raising.
        """
        if isinstance(self.rising, VectorDelaySurface):
            return self.rising.delay_at(delta, clamp=clamp)
        return self.rising.delay_at(delta, state, clamp=clamp)

    def describe(self) -> str:
        """One-line summary used by the CLI inspector."""
        if isinstance(self.falling, VectorDelaySurface):
            zero = [0.0] * self.falling.num_siblings
            axes = "x".join(str(len(axis))
                            for axis in self.falling.axes)
            lo, hi = self.falling.delta_ranges[0]
            return (f"{self.cell}: {self.gate}, {axes} delta grid "
                    f"in [{to_ps(lo):.0f}, {to_ps(hi):.0f}] ps per "
                    f"axis; fall(0) "
                    f"{to_ps(self.falling.delay_at(zero)):.2f} ps, "
                    f"rise(0) "
                    f"{to_ps(self.rising.delay_at(zero)):.2f} ps")
        fall = self.falling.characteristic()
        rise = self.rising.characteristic()
        return (f"{self.cell}: {self.gate}, "
                f"{len(self.falling.deltas)} deltas in "
                f"[{to_ps(self.falling.deltas[0]):.0f}, "
                f"{to_ps(self.falling.deltas[-1]):.0f}] ps, "
                f"{len(self.falling.state_grid)}x"
                f"{len(self.rising.state_grid)} state rows; "
                f"fall(0) {to_ps(fall.zero):.2f} ps, "
                f"rise(0) {to_ps(rise.zero):.2f} ps")

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation (SI units throughout)."""
        return {
            "cell": self.cell,
            "gate": self.gate,
            "engine": self.engine,
            "params": self.params.as_dict(),
            "falling": self.falling.to_dict(),
            "rising": self.rising.to_dict(),
        }

    @staticmethod
    def _surface_from_dict(payload: dict[str, Any]
                           ) -> DelaySurface | VectorDelaySurface:
        """Decode either surface kind (n-input payloads carry
        ``axes_s``)."""
        if "axes_s" in payload:
            return VectorDelaySurface.from_dict(payload)
        return DelaySurface.from_dict(payload)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "GateDelayTable":
        """Inverse of :meth:`to_dict`.

        Raises
        ------
        ParameterError
            If required keys are missing or grids are malformed.
        """
        try:
            params = payload["params"]
            if "r_pullup" in params:
                decoded = GeneralizedNorParameters(**params)
            else:
                decoded = NorGateParameters(**params)
            return cls(
                cell=str(payload["cell"]),
                gate=str(payload["gate"]),
                engine=str(payload.get("engine", "vectorized")),
                params=decoded,
                falling=cls._surface_from_dict(payload["falling"]),
                rising=cls._surface_from_dict(payload["rising"]),
            )
        except KeyError as missing:
            raise ParameterError(
                f"gate table payload is missing {missing}") from None
        except TypeError as error:
            raise ParameterError(
                f"malformed gate-parameter payload: {error}") from None


@dataclasses.dataclass(frozen=True)
class GateLibrary:
    """A named, serializable collection of characterized gate tables.

    Parameters
    ----------
    name : str
        Library name (stored in the JSON header).
    tables : dict of str to GateDelayTable
        Tables keyed by cell name.
    description : str, optional
        Free-form provenance note.
    """

    name: str
    tables: dict[str, GateDelayTable]
    description: str = ""

    def __post_init__(self) -> None:
        for cell, table in self.tables.items():
            if cell != table.cell:
                raise ParameterError(
                    f"library key {cell!r} does not match table cell "
                    f"{table.cell!r}")

    def __len__(self) -> int:
        return len(self.tables)

    def __iter__(self):
        return iter(self.tables.values())

    def __getitem__(self, cell: str) -> GateDelayTable:
        try:
            return self.tables[cell]
        except KeyError:
            raise KeyError(
                f"no cell {cell!r} in library {self.name!r}; "
                f"available: {', '.join(sorted(self.tables))}"
            ) from None

    @property
    def cells(self) -> tuple[str, ...]:
        """Sorted cell names."""
        return tuple(sorted(self.tables))

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Versioned plain-JSON representation."""
        return {
            "format": LIBRARY_FORMAT,
            "format_version": LIBRARY_FORMAT_VERSION,
            "name": self.name,
            "description": self.description,
            "cells": {cell: table.to_dict()
                      for cell, table in sorted(self.tables.items())},
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "GateLibrary":
        """Inverse of :meth:`to_dict`, with format validation."""
        if not isinstance(payload, dict):
            raise ParameterError(
                "not a gate-library payload (expected a JSON object, "
                f"got {type(payload).__name__})")
        if payload.get("format") != LIBRARY_FORMAT:
            raise ParameterError(
                "not a gate-library payload (format="
                f"{payload.get('format')!r})")
        version = payload.get("format_version")
        if version not in SUPPORTED_FORMAT_VERSIONS:
            raise ParameterError(
                f"unsupported library format version {version!r} "
                f"(this build reads versions "
                f"{SUPPORTED_FORMAT_VERSIONS})")
        cells = payload.get("cells", {})
        if not isinstance(cells, dict):
            raise ParameterError(
                "library 'cells' must be a JSON object, got "
                f"{type(cells).__name__}")
        tables = {cell: GateDelayTable.from_dict(table)
                  for cell, table in cells.items()}
        return cls(name=str(payload.get("name", "")),
                   tables=tables,
                   description=str(payload.get("description", "")))

    def save(self, path) -> pathlib.Path:
        """Write the library as indented JSON; returns the path."""
        path = pathlib.Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2,
                                   sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path) -> "GateLibrary":
        """Read a library previously written by :meth:`save`.

        Raises
        ------
        ParameterError
            If the file is not a gate library or has an unsupported
            format version.
        """
        payload = json.loads(pathlib.Path(path).read_text())
        return cls.from_dict(payload)
