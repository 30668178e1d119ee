"""Characterized gate-delay tables and their JSON serialization.

A :class:`GateDelayTable` is the lookup-table form of one gate's MIS
delay surfaces — what an NLDM-style standard-cell library stores per
cell, here with the input-separation axis ``Δ`` the paper shows is
required for multi-input gates.  Each output direction is one
:class:`DelaySurface` for every gate width: delays sampled over a
rectangular ``(state, Δ₁ … Δₙ₋₁)`` grid and multilinearly
interpolated, where *state* is the initial internal-node voltage of
the transition that depends on one (paper Section IV):

* a ``nor2`` cell's **rising** surface carries the ``V_N(0)`` axis
  (series pMOS stack); its falling surface is state-free (one row);
* a ``nand2`` cell — characterized through the CMOS mirror duality of
  :mod:`repro.core.duality` — carries the axis on its **falling**
  surface (``V_M(0)``, series nMOS stack) instead;
* an n-input NOR cell (``"nor3"``, ``"nor4"``, …) has ``n − 1``
  sibling-offset axes and a one-point state grid: the chain-node
  voltage it was characterized at.  Axis-aligned tensor grids cannot
  align with its kink bands (the diagonal ``Δ_i = Δ_j`` planes where
  the input ordering changes), so the interpolation error there
  scales with the grid pitch — pick the grid density for the
  accuracy you need; :func:`repro.library.characterize.verify_table`
  measures it.

Lookups *clamp* to the characterized ranges: the grids produced by
:func:`repro.library.characterize.default_delta_grid` extend past the
settling region, where the curves sit on their SIS plateaus, so
clamping returns the ``δ(±∞)`` values instead of raising like
:meth:`~repro.core.charlie.MisCurve.delay_at` does mid-sweep.

A :class:`GateLibrary` is a named collection of tables with a
versioned on-disk JSON format (all quantities SI: seconds, volts,
ohms, farads).  Format version 2 adds the n-input payloads; version-1
files still load.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import pathlib
import re
from typing import Any

import numpy as np

from ..core.charlie import CharacteristicDelays, MisCurve
from ..core.multi_input import GeneralizedNorParameters, offset_rows
from ..core.parameters import NorGateParameters
from ..errors import ParameterError
from ..units import to_ps

__all__ = ["DelaySurface", "GateDelayTable", "GateKind", "GateLibrary",
           "GATE_CHOICES", "LIBRARY_FORMAT", "LIBRARY_FORMAT_VERSION",
           "gate_kind", "gate_width", "mis_gate_inputs"]

#: On-disk format identifier of serialized libraries.
LIBRARY_FORMAT = "repro-gate-library"
#: Current on-disk format version (bump on breaking schema changes).
LIBRARY_FORMAT_VERSION = 2
#: Format versions :meth:`GateLibrary.from_dict` still reads.
SUPPORTED_FORMAT_VERSIONS = (1, 2)

#: MIS gate names: ``nand2`` and ``nor<n>`` (``nor2``, ``nor3``, …).
_GATE_NAME = re.compile(r"^(nand2|nor([2-9]|[1-9]\d+))$")


@dataclasses.dataclass(frozen=True)
class GateKind:
    """What a MIS gate name means (see :func:`gate_kind`).

    ``parallel`` is the output direction one controlling input drives
    through the parallel network, referenced to the earliest
    controlling input; ``series`` is the one the series stack drives
    once every input is released, referenced to the latest and
    dependent on the internal-node state.  The parallel network pulls
    the output to the complement of ``controlling``, the series stack
    to ``controlling`` itself.  ``nand`` marks the NAND2, timed as the
    mirrored NOR2 (:mod:`repro.core.duality`).
    """

    inputs: int
    nand: bool
    parallel: str
    series: str
    controlling: int

    def output(self, values) -> int:
        """Steady-state output for a sequence of input *values*."""
        return self.controlling ^ (self.controlling in values)

    def worst_state(self, vdd: float) -> float:
        """The paper's worst-case internal-node voltage in the gate's
        own frame: ``V_N = 0`` for NOR, ``V_M = VDD`` for NAND."""
        return vdd if self.nand else 0.0


@functools.lru_cache(maxsize=64)
def gate_kind(gate: str) -> GateKind:
    """The one reading of a MIS gate type name: ``"nor2"`` /
    ``"nand2"`` (the paper's 2-input cells) or ``"nor<n>"`` for the
    generalized n-input NOR.

    Raises
    ------
    ParameterError
        If *gate* is not a recognized MIS gate type.
    """
    match = _GATE_NAME.match(gate) if isinstance(gate, str) else None
    if match is None:
        raise ParameterError(
            f"gate must be 'nand2' or 'nor<n>' (n >= 2), got "
            f"{gate!r}")
    if match.group(2) is None:
        return GateKind(inputs=2, nand=True, parallel="rising",
                        series="falling", controlling=0)
    return GateKind(inputs=int(match.group(2)), nand=False,
                    parallel="falling", series="rising", controlling=1)


def mis_gate_inputs(gate: str) -> int:
    """Input count of a MIS gate type name (see :func:`gate_kind`)."""
    return gate_kind(gate).inputs


def gate_params(gate: str, params):
    """*params* as the parameter set of a *gate* cell.

    The one place an ``n = 2`` :class:`GeneralizedNorParameters` set
    becomes the paper's closed-form set for ``nor2``
    (:meth:`~GeneralizedNorParameters.to_two_input`); every other
    accepted set is returned as it is.

    Raises
    ------
    ParameterError
        If *gate* is unknown, or *params* is not
        :class:`NorGateParameters` for ``nor2`` / ``nand2`` (or a
        2-input generalized set for ``nor2``) or an n-input
        :class:`GeneralizedNorParameters` set for ``nor<n>``.
    """
    kind = gate_kind(gate)
    if kind.inputs == 2:
        if (not kind.nand
                and isinstance(params, GeneralizedNorParameters)
                and params.num_inputs == 2):
            return params.to_two_input()
        if not isinstance(params, NorGateParameters):
            raise ParameterError(f"{gate!r} cells take "
                                 "NorGateParameters")
    elif (not isinstance(params, GeneralizedNorParameters)
            or params.num_inputs != kind.inputs):
        raise ParameterError(
            f"{gate!r} cells take a {kind.inputs}-input "
            "GeneralizedNorParameters set")
    return params


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


def _grid(values, label: str, minimum: int) -> tuple[float, ...]:
    """Validate one sample grid: finite, strictly increasing, and at
    least *minimum* points long."""
    try:
        grid = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        grid = np.empty((0, 0))
    if grid.ndim != 1 or grid.size < minimum:
        raise ParameterError(f"{label} grid must be a sequence of at "
                             f"least {minimum} point(s)")
    if not np.isfinite(grid).all():
        raise ParameterError(f"{label} grid must be finite")
    if (np.diff(grid) <= 0.0).any():
        raise ParameterError(f"{label} grid must be strictly "
                             "increasing")
    return tuple(grid.tolist())


def _frozen(values: list) -> tuple:
    """Nested tuples from ``ndarray.tolist()`` output (ndim >= 1)."""
    if values and isinstance(values[0], list):
        return tuple(map(_frozen, values))
    return tuple(values)


@dataclasses.dataclass(frozen=True)
class DelaySurface:
    """Sampled MIS delays of one output direction over ``(state, Δ)``.

    One multilinear surface serves every gate width: a 2-input cell
    has one Δ axis, an n-input NOR has ``n − 1`` (one offset per
    sibling input, the Δ-vector of
    :func:`repro.engine.delays_for_direction`).

    Parameters
    ----------
    direction : str
        ``"falling"`` or ``"rising"`` (the output transition).
    axes : sequence of sequence of float
        One strictly increasing separation grid per sibling input,
        seconds, each with at least two points — ``(deltas,)`` with
        ``Δ = t_B − t_A`` for 2-input cells.
    state_grid : sequence of float
        Strictly increasing initial internal-node voltages in volts.
        A one-point grid marks a state-free surface, or records the
        chain-node voltage an n-input surface was characterized at;
        only one-axis surfaces carry more than one state.
    delays : array_like of float
        Finite delays in seconds, shape
        ``(len(state_grid), *(len(axis) for axis in axes))``; they
        include the pure delay ``δ_min`` exactly like the model's
        delay functions.  Stored as nested tuples; the lookups read
        an ndarray copy made once at construction.

    Notes
    -----
    ``±inf`` lookups read the table edges (with grids that extend
    past the settling region those are the SIS plateaus ``δ(±∞)``);
    *finite* out-of-range separations raise unless ``clamp=True`` is
    passed, matching :meth:`repro.core.charlie.MisCurve.delay_at` —
    a silent edge-clamp would report a plateau that was never
    measured.  The state axis always clamps.  Interpolation is
    linear along each Δ axis in turn (on one axis exactly
    :func:`numpy.interp`), then between the two bracketing state
    rows.  Axis-aligned grids cannot align with the n-input
    surfaces' diagonal kink bands (``Δ_i = Δ_j``), so the error
    there scales with the grid pitch — density is the accuracy dial.
    """

    direction: str
    axes: tuple[tuple[float, ...], ...]
    state_grid: tuple[float, ...]
    delays: tuple

    def __post_init__(self) -> None:
        if self.direction not in ("falling", "rising"):
            raise ParameterError("direction must be 'falling' or "
                                 "'rising'")
        label = f"{self.direction} surface"
        axes = tuple(_grid(axis, f"{label} delta axis {j}", 2)
                     for j, axis in enumerate(self.axes))
        states = _grid(self.state_grid, f"{label} state", 1)
        if not axes:
            raise ParameterError(f"{label} needs at least one delta "
                                 "axis")
        if len(axes) > 1 and len(states) > 1:
            raise ParameterError(
                f"{label}: only one-axis surfaces carry a state axis "
                "(n-input surfaces record one chain state)")
        shape = (len(states), *(len(axis) for axis in axes))
        try:
            table = np.array(self.delays, dtype=float)
        except (TypeError, ValueError):
            table = np.empty(0)
        if table.shape != shape:
            raise ParameterError(
                f"{label} delays must have shape (states, *axes) = "
                f"{shape}, got {table.shape}")
        if not np.isfinite(table).all():
            raise ParameterError(f"{label} delays must be finite")
        table.flags.writeable = False
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "state_grid", states)
        object.__setattr__(self, "delays", _frozen(table.tolist()))
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_axes",
                           tuple(np.asarray(axis) for axis in axes))
        object.__setattr__(self, "_states", np.asarray(states))

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def delays_at(self, deltas, state: float = 0.0,
                  clamp: bool = False) -> np.ndarray:
        """Multilinearly interpolated delays for an array of lookups.

        Parameters
        ----------
        deltas : array_like of float
            Separations in seconds, as
            :func:`repro.engine.delays_for_direction` takes them:
            any shape on a one-axis surface, ``(..., n−1)``
            Δ-vectors on an (n−1)-axis one.  ``±inf`` reads the
            table edges (the SIS plateaus with the default grids).
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
            Delays in seconds: the shape of *deltas* on a one-axis
            surface, ``deltas.shape[:-1]`` otherwise.

        Raises
        ------
        ParameterError
            For NaN separations, a non-finite *state*, Δ-vectors of
            the wrong width, or finite separations outside the
            characterized range when *clamp* is false.
        """
        k = len(self.axes)
        d = np.asarray(deltas, dtype=float)
        points, shape = offset_rows(k + 1, d[..., None] if k == 1
                                    else d)
        rows, weight = self._state_rows(state)
        cells, offsets, widths, tops = [], [], [], []
        for j, axis in enumerate(self._axes):
            x = points[:, j]
            outside = np.isfinite(x) & ((x < axis[0]) | (x > axis[-1]))
            if not clamp and outside.any():
                raise ParameterError(
                    f"axis-{j} separation {float(x[outside][0])!r} s "
                    f"is outside the characterized range "
                    f"[{self.axes[j][0]!r}, {self.axes[j][-1]!r}] s; "
                    "pass clamp=True to read the plateau edges "
                    "instead of extrapolating (±inf always reads "
                    "them)")
            x = np.clip(x, axis[0], axis[-1])
            cell = np.minimum(np.searchsorted(axis, x, side="right") - 1,
                              len(axis) - 2)
            cells.append(cell)
            offsets.append(x - axis[cell])
            widths.append(axis[cell + 1] - axis[cell])
            tops.append(x >= axis[-1])
        # Gather the 2**k cell corners of every point, shaped
        # (2,) * k + (state rows, points), then reduce one axis at a
        # time with np.interp's formula — a top-edge point reads its
        # sample exactly, as np.interp does — so one-axis lookups
        # match np.interp bit for bit.
        state_rows = np.asarray(rows)[:, None]
        values = np.stack([
            self._table[(state_rows,
                         *(cell + bit for cell, bit in zip(cells, bits)))]
            for bits in itertools.product((0, 1), repeat=k)])
        values = values.reshape((2,) * k + values.shape[1:])
        for offset, width, top in zip(offsets, widths, tops):
            low, high = values[0], values[1]
            values = np.where(top, high,
                              low + (high - low) / width * offset)
        if weight is None:
            return values[0].reshape(shape)
        return (values[0] * (1.0 - weight)
                + values[1] * weight).reshape(shape)

    def _state_rows(self, state: float) -> tuple[tuple[int, ...],
                                                  float | None]:
        """State rows bracketing *state* (clamped) and the weight of
        the upper one (``None``: read one row)."""
        s = float(state)
        if not math.isfinite(s):
            raise ParameterError(
                f"state lookups must be finite, got {state!r}")
        grid = self._states
        s = min(max(s, grid[0]), grid[-1])
        hi = int(np.searchsorted(grid, s, side="left"))
        if hi == 0:
            return (0,), None
        return (hi - 1, hi), (s - grid[hi - 1]) / (grid[hi]
                                                    - grid[hi - 1])

    def delay_at(self, delta, state: float = 0.0,
                 clamp: bool = False) -> float:
        """Scalar :meth:`delays_at`: one separation or Δ-vector."""
        return self.delays_at(delta, state, clamp=clamp).item()

    def characteristic(self,
                       state: float = 0.0) -> CharacteristicDelays:
        """``(δ(−∞), δ(0), δ(∞))`` with every sibling at that
        separation; the ``±∞`` entries read the table edges."""
        k = len(self.axes)
        return CharacteristicDelays(
            *(self.delay_at([delta] * k, state)
              for delta in (-math.inf, 0.0, math.inf)))

    def curve(self, state: float = 0.0, label: str = "") -> MisCurve:
        """A constant-state cut of a one-axis surface as a
        :class:`MisCurve`."""
        if len(self.axes) != 1:
            raise ParameterError("curve() cuts one-axis surfaces only")
        deltas = self.axes[0]
        return MisCurve(deltas,
                        tuple(self.delays_at(deltas, state).tolist()),
                        self.direction,
                        label=label or f"table ({self.direction})")

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation (seconds / volts).

        One Δ axis writes ``deltas_s`` / ``state_grid_v``; more axes
        write ``axes_s`` and their one state as ``internal_state_v``.
        """
        if len(self.axes) == 1:
            return {
                "direction": self.direction,
                "deltas_s": list(self.axes[0]),
                "state_grid_v": list(self.state_grid),
                "delays_s": self._table.tolist(),
            }
        return {
            "direction": self.direction,
            "axes_s": [list(axis) for axis in self.axes],
            "delays_s": self._table[0].tolist(),
            "internal_state_v": self.state_grid[0],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "DelaySurface":
        """Inverse of :meth:`to_dict` (either layout).

        Raises
        ------
        ParameterError
            If keys are missing or a field is malformed.
        """
        try:
            if "axes_s" in payload:
                axes = payload["axes_s"]
                states = [payload.get("internal_state_v", 0.0)]
                delays = [payload["delays_s"]]
            else:
                axes = [payload["deltas_s"]]
                states = payload["state_grid_v"]
                delays = payload["delays_s"]
            return cls(str(payload["direction"]), axes, states, delays)
        except KeyError as missing:
            raise ParameterError(
                f"delay surface payload is missing {missing}") from None
        except TypeError as error:
            raise ParameterError(
                f"malformed delay surface payload: {error}") from None


@dataclasses.dataclass(frozen=True)
class GateDelayTable:
    """Interpolated MIS delay tables of one characterized gate.

    Parameters
    ----------
    cell : str
        Cell name the table is stored under (e.g. ``"nor2_paper"``).
    gate : str
        Gate type — ``"nor2"`` / ``"nand2"`` (the paper's 2-input
        cells) or ``"nor<n>"`` for the generalized n-input NOR.
        Fixes the boolean function, the number of Δ axes of the
        surfaces (``n − 1``) and the delay reference conventions
        consumed by
        :class:`repro.timing.channels.TableDelayChannel`.
    params : NorGateParameters or GeneralizedNorParameters
        The electrical parameter set the table was characterized from
        (kept for provenance and re-verification); the generalized
        kind for n-input cells.
    falling, rising : DelaySurface
        The two output-transition surfaces.
    engine : str, optional
        Name of the delay engine that produced the samples.
    """

    cell: str
    gate: str
    params: NorGateParameters | GeneralizedNorParameters
    falling: DelaySurface
    rising: DelaySurface
    engine: str = "vectorized"

    def __post_init__(self) -> None:
        object.__setattr__(self, "params",
                           gate_params(self.gate, self.params))
        inputs = gate_kind(self.gate).inputs
        for direction in ("falling", "rising"):
            surface = getattr(self, direction)
            if surface.direction != direction:
                raise ParameterError(f"{direction} surface has "
                                     f"direction {surface.direction!r}")
            if len(surface.axes) != inputs - 1:
                raise ParameterError(
                    f"{self.gate!r} surfaces need {inputs - 1} delta "
                    f"axes, got {len(surface.axes)}")

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
            Initial stack-node voltage in volts, clamped to the
            surface's state grid — only state-dependent surfaces
            (``nand2`` falling) tell states apart.
        clamp : bool, optional
            Clamp finite out-of-range separations to the table
            edges instead of raising.
        """
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
            ``nor2``), clamped to the surface's state grid: the
            one-point grids of ``nand2`` rising and of n-input cells
            (their characterized chain state) read one row.
        clamp : bool, optional
            Clamp finite out-of-range separations to the table
            edges instead of raising.
        """
        return self.rising.delay_at(delta, state, clamp=clamp)

    def describe(self) -> str:
        """One-line summary used by the CLI inspector."""
        axes = self.falling.axes
        lo, hi = to_ps(axes[0][0]), to_ps(axes[0][-1])
        if len(axes) == 1:
            grid = (f"{len(axes[0])} deltas in [{lo:.0f}, {hi:.0f}] "
                    f"ps, {len(self.falling.state_grid)}x"
                    f"{len(self.rising.state_grid)} state rows")
        else:
            grid = (f"{'x'.join(str(len(axis)) for axis in axes)} "
                    f"delta grid in [{lo:.0f}, {hi:.0f}] ps per axis")
        return (f"{self.cell}: {self.gate}, {grid}; fall(0) "
                f"{to_ps(self.falling.characteristic().zero):.2f} ps, "
                f"rise(0) "
                f"{to_ps(self.rising.characteristic().zero):.2f} ps")

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
                falling=DelaySurface.from_dict(payload["falling"]),
                rising=DelaySurface.from_dict(payload["rising"]),
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
        tables = {}
        for cell, table in cells.items():
            try:
                tables[cell] = GateDelayTable.from_dict(table)
            except ParameterError as error:
                raise ParameterError(f"cell {cell!r}: {error}") from None
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
