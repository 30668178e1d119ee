"""Batch timing-library characterization through the engine seam.

This is the scenario the vectorized engine exists for: sweep
a grid of ``(gate, parameter set, Δ range, state grid)`` jobs through
a delay engine and produce :class:`~repro.library.tables.GateDelayTable`
entries that an event simulator can consume — the flow standard-cell
characterization runs against SPICE, here against the closed-form
hybrid model at array speed.

The default Δ grid is engineered for interpolation accuracy: a dense
uniform core across the MIS region (where the curves bend and kink),
plus a geometric tail out past the model's settling cutoff so the
clamped table edges are *exactly* the SIS plateaus ``δ(±∞)``.  With
the defaults the linear-interpolation error against direct engine
evaluation stays below 0.06 ps everywhere — worst at the slope kinks
of the falling curve — against the acceptance bound of 0.1 ps;
:func:`verify_table` measures it.

NAND cells are characterized through the CMOS mirror duality
(:mod:`repro.core.duality`): the NAND falling surface is the NOR
rising surface with the state axis mirrored (``V_M = VDD − V_N``),
and the NAND rising surface is the NOR falling curve.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Sequence

import numpy as np

from .. import cache
from ..core.duality import mirror_voltage
from ..core.hybrid_model import settle_time
from ..core.multi_input import (GeneralizedNorParameters,
                                generalized_model, paper_generalized)
from ..core.parameters import PAPER_TABLE_I, NorGateParameters
from ..engine import delays_for_direction, get_engine
from ..errors import ParameterError
from .tables import (DelaySurface, GateDelayTable, GateLibrary,
                     check_gate_params, gate_kind, mis_gate_inputs)

__all__ = [
    "CharacterizationJob",
    "TableAccuracy",
    "characterize_gate",
    "characterize_library",
    "default_delta_grid",
    "default_state_grid",
    "default_vector_delta_grid",
    "gate_delays",
    "generalized_jobs",
    "paper_jobs",
    "verify_table",
]

#: Core (uniform) Δ samples of the default grid, per direction.
DEFAULT_CORE_POINTS = 1025
#: Geometric tail samples on each side of the core.
DEFAULT_TAIL_POINTS = 32
#: Default state-axis (internal-node voltage) grid size.
DEFAULT_STATE_POINTS = 5
#: Default per-axis Δ samples of n-input (tensor) grids — the grid
#: is (n−1)-dimensional, so the per-axis budget is necessarily far
#: smaller than the 2-input default.
DEFAULT_VECTOR_CORE_POINTS = 129
#: Random Δ-vector probes per unit *oversample* used by
#: :func:`verify_table` on n-input tables (a dense tensor probe grid
#: would dwarf the characterization itself).
VECTOR_PROBES_PER_OVERSAMPLE = 4096


def default_delta_grid(params: NorGateParameters,
                       core_points: int = DEFAULT_CORE_POINTS,
                       tail_points: int = DEFAULT_TAIL_POINTS,
                       core_span: float | None = None) -> np.ndarray:
    """The Δ sampling grid used for characterization, in seconds.

    Parameters
    ----------
    params : NorGateParameters
        Parameter set whose time constants size the grid.
    core_points : int, optional
        Uniform samples across the central ``±core_span`` window
        where the MIS curves bend (default 1025).
    tail_points : int, optional
        Additional geometrically spaced samples per side reaching
        past the settling cutoff (default 32) — the curves are
        exponentially flat there, so few points suffice.
    core_span : float, optional
        Half-width of the uniform core in seconds.  Defaults to
        eight times the slowest RC time constant of *params*.

    Returns
    -------
    numpy.ndarray
        Strictly increasing separations, symmetric around 0,
        spanning ``±1.05 x settle_time(params)`` so that clamped
        lookups beyond the grid return the exact SIS plateaus.
    """
    if core_points < 3:
        raise ParameterError("core_points must be >= 3")
    if tail_points < 1:
        raise ParameterError("tail_points must be >= 1")
    settle = settle_time(params)
    tau_max = settle / 60.0  # settle_time is 60x the slowest tau
    if core_span is None:
        core_span = 8.0 * tau_max
    core_span = float(core_span)
    if not 0.0 < core_span < settle:
        raise ParameterError("core_span must lie in (0, settle_time)")
    # Odd core size keeps Δ = 0 an exact sample.
    if core_points % 2 == 0:
        core_points += 1
    core = np.linspace(-core_span, core_span, core_points)
    tail = np.geomspace(core_span, 1.05 * settle, tail_points + 1)[1:]
    return np.concatenate([-tail[::-1], core, tail])


def default_state_grid(params: NorGateParameters,
                       points: int = DEFAULT_STATE_POINTS) -> np.ndarray:
    """Internal-node voltage grid ``[0, VDD]`` in volts."""
    if points < 2:
        raise ParameterError("state grid needs at least 2 points")
    return np.linspace(0.0, params.vdd, points)


def default_vector_delta_grid(params: GeneralizedNorParameters,
                              core_points: int =
                              DEFAULT_VECTOR_CORE_POINTS,
                              core_span: float | None = None
                              ) -> np.ndarray:
    """The per-sibling Δ axis of an n-input characterization grid.

    A *uniform* symmetric window — n-input surfaces get no geometric
    tails, because the delay far from the origin depends on the
    *differences* between sibling offsets (the diagonal MIS band),
    which sparse axis-aligned tails cannot resolve.  Out-of-window
    lookups clamp to the window edge when the consumer opts in.

    Parameters
    ----------
    params : GeneralizedNorParameters
        Parameter set whose time constants size the window.
    core_points : int, optional
        Samples per sibling axis (default 129; forced odd so
        ``Δ = 0`` is an exact sample).
    core_span : float, optional
        Half-width of the window in seconds; defaults to four times
        the slowest RC time constant of *params*.

    Returns
    -------
    numpy.ndarray
        Strictly increasing offsets, symmetric around 0.
    """
    if core_points < 3:
        raise ParameterError("core_points must be >= 3")
    if core_span is None:
        # settle_time() is 60x the slowest tau over all modes.
        core_span = 4.0 * generalized_model(params).settle_time() / 60.0
    core_span = float(core_span)
    if not (np.isfinite(core_span) and core_span > 0.0):
        raise ParameterError("core_span must be positive and finite")
    if core_points % 2 == 0:
        core_points += 1
    return np.linspace(-core_span, core_span, core_points)


@dataclasses.dataclass(frozen=True)
class CharacterizationJob:
    """One cell of a characterization grid.

    Parameters
    ----------
    cell : str
        Name the resulting table is stored under.
    params : NorGateParameters or GeneralizedNorParameters
        Electrical parameters of the (mirrored, for NAND) hybrid
        model, SI units; the generalized kind for ``"nor<n>"`` gates
        with more than two inputs.
    gate : str, optional
        ``"nor2"`` (default), ``"nand2"``, or ``"nor<n>"`` for the
        generalized n-input NOR.
    technology : str, optional
        Free-form technology label recorded for provenance (e.g.
        ``"finfet15"``).
    deltas : tuple of float, optional
        Explicit Δ grid in seconds — the full axis for 2-input
        gates, the shared per-sibling axis of the tensor grid for
        n-input ones; ``None`` (default) uses
        :func:`default_delta_grid` / :func:`default_vector_delta_grid`.
    state_grid : tuple of float, optional
        Explicit internal-node voltage grid in volts (2-input gates
        only); ``None`` (default) uses :func:`default_state_grid`.
    internal_state : float, optional
        Chain-node voltage the *rising* surface of an n-input gate
        is characterized at, volts (default 0.0, the paper's GND
        worst case).  Ignored by 2-input gates.
    """

    cell: str
    params: NorGateParameters | GeneralizedNorParameters
    gate: str = "nor2"
    technology: str = ""
    deltas: tuple[float, ...] | None = None
    state_grid: tuple[float, ...] | None = None
    internal_state: float = 0.0

    @property
    def num_inputs(self) -> int:
        """Input count implied by the gate type."""
        return mis_gate_inputs(self.gate)

    def resolved_deltas(self) -> np.ndarray:
        """The job's Δ axis (explicit or default), seconds."""
        if self.deltas is not None:
            return np.asarray(self.deltas, dtype=float)
        if self.num_inputs == 2:
            return default_delta_grid(self.params)
        return default_vector_delta_grid(self.params)

    def resolved_state_grid(self) -> np.ndarray:
        """The job's state grid (explicit or default), volts."""
        if self.state_grid is not None:
            return np.asarray(self.state_grid, dtype=float)
        return default_state_grid(self.params)


def paper_jobs(params: NorGateParameters = PAPER_TABLE_I,
               technology: str = "finfet15",
               suffix: str = "paper"
               ) -> tuple[CharacterizationJob, ...]:
    """The default characterization grid: gates x pure-delay variants.

    Parameters
    ----------
    params : NorGateParameters, optional
        Base parameter set (default: the paper's Table I).
    technology : str, optional
        Provenance label recorded on every job.
    suffix : str, optional
        Cell-name suffix, e.g. ``"paper"`` -> ``"nor2_paper"`` —
        lets fitted parameter sets coexist with the defaults in one
        library.

    Returns
    -------
    tuple of CharacterizationJob
        Four cells: NOR2/NAND2, each with *params* as given and with
        the pure delay ``δ_min`` removed (the paper's "HM without
        δ_min" ablation variant).
    """
    bare = params.without_delta_min()
    return (
        CharacterizationJob(f"nor2_{suffix}", params, "nor2",
                            technology),
        CharacterizationJob(f"nor2_{suffix}_no_dmin", bare, "nor2",
                            technology),
        CharacterizationJob(f"nand2_{suffix}", params, "nand2",
                            technology),
        CharacterizationJob(f"nand2_{suffix}_no_dmin", bare, "nand2",
                            technology),
    )


def generalized_jobs(num_inputs: int,
                     params: GeneralizedNorParameters | None = None,
                     technology: str = "finfet15",
                     suffix: str = "paper"
                     ) -> tuple[CharacterizationJob, ...]:
    """Characterization jobs for an n-input NOR cell.

    Parameters
    ----------
    num_inputs : int
        Gate width ``n >= 2``.
    params : GeneralizedNorParameters, optional
        n-input parameter set; ``None`` (default) extrapolates the
        paper's Table I through
        :func:`repro.core.multi_input.paper_generalized`.
    technology : str, optional
        Provenance label recorded on the job.
    suffix : str, optional
        Cell-name suffix, e.g. ``"paper"`` -> ``"nor3_paper"``.

    Returns
    -------
    tuple of CharacterizationJob
        One ``nor<n>`` job (the n-input flow characterizes the
        worst-case GND chain state; the pure-delay ablation variants
        of :func:`paper_jobs` stay a 2-input study).
    """
    if params is None:
        params = paper_generalized(num_inputs)
    if params.num_inputs != num_inputs:
        raise ParameterError(
            f"parameter set has {params.num_inputs} inputs, job asks "
            f"for {num_inputs}")
    gate = f"nor{num_inputs}"
    return (CharacterizationJob(f"{gate}_{suffix}", params, gate,
                                technology),)


def _job_descriptor(job: CharacterizationJob, engine_name: str,
                    deltas: np.ndarray) -> dict:
    """Persistent-cache content descriptor of one job.

    Grids are recorded *resolved*, so an explicit grid equal to the
    default hashes to the same key as the default.  The engine name
    is part of the key: tables record their engine provenance, and
    backends only agree to the parity bound, not bit-exactly.
    """
    descriptor = {
        "kind": "gate-table",
        "schema": cache.SCHEMA_VERSION,
        "cell": job.cell,
        "gate": job.gate,
        "technology": job.technology,
        "engine": engine_name,
        "params": job.params.as_dict(),
        "deltas": [float(d) for d in deltas],
    }
    if job.num_inputs == 2:
        descriptor["state_grid"] = [
            float(s) for s in job.resolved_state_grid()]
    else:
        descriptor["internal_state"] = float(job.internal_state)
    return descriptor


def characterize_gate(job: CharacterizationJob,
                      engine=None) -> GateDelayTable:
    """Characterize one gate into an interpolated delay table.

    Parameters
    ----------
    job : CharacterizationJob
        Cell name, gate type, parameters and grids.
    engine : str or DelayEngine, optional
        Evaluation backend (name, instance, or ``None`` for the
        vectorized default).

    Returns
    -------
    GateDelayTable
        Both output-direction surfaces, delays in seconds with
        ``δ_min`` included.

    Notes
    -----
    When the persistent cache is active (see :mod:`repro.cache`),
    the finished table is stored under a content key derived from
    the job and engine name, and later calls — including from other
    processes sharing the same ``REPRO_CACHE_DIR`` — return the
    stored table without touching the engine.
    """
    backend = get_engine(engine)
    check_gate_params(job.gate, job.params)  # reject bad jobs early
    deltas = job.resolved_deltas()
    store = cache.get_store()
    key = None
    if store is not None:
        key = cache.content_key(
            _job_descriptor(job, backend.name, deltas))
        payload = store.get_json(key)
        if payload is not None:
            try:
                return GateDelayTable.from_dict(payload)
            except (ParameterError, KeyError, TypeError, ValueError):
                pass  # corrupt entry: recompute and overwrite below
    table = _characterize_gate_direct(job, backend, deltas)
    if store is not None:
        store.put_json(key, table.to_dict())
    return table


#: The mirrored NOR direction that times each NAND direction.
_MIRRORED = {"falling": "rising", "rising": "falling"}


def gate_delays(engine, gate: str, params, direction: str, deltas,
                state: float | None = None) -> np.ndarray:
    """Engine delays of one output *direction* of a *gate* cell.

    *params* and *deltas* go to :func:`repro.engine.delays_for_direction`
    as it takes them.  *state* is the internal-node voltage in the
    gate's own frame (``V_N`` for NOR, ``V_M`` for NAND); ``None`` is
    the paper's worst case, 0 V in the NOR frame.  NAND cells go
    through the CMOS mirror duality: NAND falling ``(Δ, V_M)`` is NOR
    rising ``(Δ, VDD − V_M)``, and NAND rising is NOR falling.

    Raises
    ------
    ParameterError
        For an unknown gate or direction, or a NAND *state* outside
        ``[0, VDD]``.
    """
    if gate_kind(gate).nand:
        direction = _MIRRORED.get(direction, direction)
        if state is not None:
            vdd = (params["vdd"] if isinstance(params, np.ndarray)
                   else params.vdd)
            state = mirror_voltage(state, vdd)
    return delays_for_direction(engine, direction, params, deltas,
                                0.0 if state is None else state)


def _surface_states(job: CharacterizationJob,
                    direction: str) -> tuple[float, ...]:
    """State rows one surface is sampled at.

    The job's grid on the series-stack transition of a 2-input gate
    (NOR rising, NAND falling), one 0 V row on its state-free
    parallel transition, and the characterized chain state on both
    n-input surfaces.
    """
    kind = gate_kind(job.gate)
    if kind.inputs > 2:
        return (float(job.internal_state),)
    if direction == kind.series:
        return tuple(float(s) for s in job.resolved_state_grid())
    return (0.0,)


def _characterize_gate_direct(job: CharacterizationJob, backend,
                              deltas: np.ndarray) -> GateDelayTable:
    """Evaluate one job through the engine (no persistent cache).

    The tensor grid of ``n − 1`` copies of the Δ axis goes through
    the engine once per state row of each surface.
    """
    siblings = job.num_inputs - 1
    axes = (tuple(float(d) for d in deltas),) * siblings
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    shape = (len(deltas),) * siblings
    surfaces = {}
    for direction in ("falling", "rising"):
        states = _surface_states(job, direction)
        surfaces[direction] = DelaySurface(direction, axes, states, [
            gate_delays(backend, job.gate, job.params, direction,
                        points, state).reshape(shape)
            for state in states])
    return GateDelayTable(cell=job.cell, gate=job.gate,
                          params=job.params, engine=backend.name,
                          **surfaces)


def characterize_library(jobs: Iterable[CharacterizationJob],
                         engine=None,
                         name: str = "repro-hybrid",
                         description: str = "") -> GateLibrary:
    """Run a grid of characterization jobs into one library.

    Parameters
    ----------
    jobs : iterable of CharacterizationJob
        The characterization grid (see :func:`paper_jobs`).
    engine : str or DelayEngine, optional
        Backend shared by all jobs.
    name, description : str, optional
        Library metadata stored in the JSON header.

    Returns
    -------
    GateLibrary
        One table per job, keyed by cell name.

    Raises
    ------
    ParameterError
        On duplicate cell names in *jobs*.
    """
    backend = get_engine(engine)
    tables: dict[str, GateDelayTable] = {}
    for job in jobs:
        if job.cell in tables:
            raise ParameterError(f"duplicate cell name {job.cell!r} "
                                 "in characterization grid")
        tables[job.cell] = characterize_gate(job, backend)
    return GateLibrary(name=name, tables=tables,
                       description=description)


@dataclasses.dataclass(frozen=True)
class TableAccuracy:
    """Interpolation error of one table against direct evaluation.

    Attributes
    ----------
    cell : str
        Cell the errors belong to.
    falling_error : float
        Max |table − engine| over the probe set, falling surface,
        seconds.
    rising_error : float
        Same for the rising surface.
    """

    cell: str
    falling_error: float
    rising_error: float

    @property
    def max_error(self) -> float:
        """Worst-case error across both surfaces, seconds."""
        return max(self.falling_error, self.rising_error)


def verify_table(table: GateDelayTable, engine=None,
                 oversample: int = 4) -> TableAccuracy:
    """Measure a table's interpolation error against its engine.

    2-input tables are probed on an *oversampled* uniform grid
    spanning the characterized Δ range (so probe points fall between
    the stored samples, where linear interpolation is worst) at every
    stored state-grid node.  n-input tables are probed at
    ``oversample x 4096`` seeded-random Δ-vectors inside the
    characterized box plus every cell center along the main diagonal
    (the kink band where multilinear interpolation is worst) — a
    dense tensor probe grid would dwarf the characterization itself.
    Either way, probes are compared against direct engine evaluation.

    Parameters
    ----------
    table : GateDelayTable
        The characterized table.
    engine : str or DelayEngine, optional
        Backend used for the direct evaluation (defaults to the
        vectorized default, independent of what built the table).
    oversample : int, optional
        Probe-density multiplier relative to the stored grid
        (default 4).

    Returns
    -------
    TableAccuracy
        Per-direction worst-case absolute errors in seconds.
    """
    backend = get_engine(engine)
    axes = [np.asarray(axis) for axis in table.falling.axes]
    if len(axes) == 1:
        probes = np.linspace(axes[0][0], axes[0][-1],
                             oversample * len(axes[0]) + 1)
    else:
        lows = np.array([axis[0] for axis in axes])
        highs = np.array([axis[-1] for axis in axes])
        rng = np.random.default_rng(0)
        count = max(1, oversample) * VECTOR_PROBES_PER_OVERSAMPLE
        probes = lows + (highs - lows) * rng.random((count, lows.size))
        # Cell centers along the main diagonal: the Δ_i = Δ_j kink band.
        centers = 0.5 * (axes[0][:-1] + axes[0][1:])
        diagonal = np.stack([np.clip(centers, low, high)
                             for low, high in zip(lows, highs)], axis=-1)
        probes = np.concatenate([probes, diagonal])
    errors = {}
    for direction in ("falling", "rising"):
        surface = getattr(table, direction)
        errors[direction] = max(
            float(np.max(np.abs(
                surface.delays_at(probes, state)
                - gate_delays(backend, table.gate, table.params,
                              direction, probes, state))))
            for state in surface.state_grid)
    return TableAccuracy(cell=table.cell,
                         falling_error=errors["falling"],
                         rising_error=errors["rising"])
