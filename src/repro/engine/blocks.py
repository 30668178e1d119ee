"""The 2-input closed forms: one call, one or thousands of parameter sets.

A **sample block** is a structured NumPy array with one record per
parameter set (:data:`BLOCK_DTYPE`).  Every 2-input MIS delay the
package evaluates in bulk runs through the two kernels of this module,
each split into two steps:

* a **constants step** (:func:`falling_constants` /
  :func:`rising_constants`) — the mode constants α, β, γ of paper
  eqs. (1)–(7) (:func:`~repro.core.modes.coupled_10` /
  :func:`~repro.core.modes.coupled_00`), the first-segment solutions
  and crossing times, the settle cutoff
  (:func:`~repro.core.hybrid_model.settle_time`) — elementary closed
  forms in ``(r1..r4, cn, co, vdd)`` computed as ``(N, 1)`` columns
  over the sample axis, by the same statements the scalar reference
  evaluates;
* one **Δ evaluation** (:func:`falling_delays` /
  :func:`rising_delays`) of an ``(N, M)`` Δ matrix against those
  columns.

Monte-Carlo (:mod:`repro.stats.montecarlo`) and the collocation
surrogate call the block kernels with thousands of records; the
vectorized engine (:mod:`repro.engine.vectorized`) memoizes the
constants of a one-record block per parameter set and runs the same
Δ evaluation for every Δ sweep.  The only iterative piece, the
two-exponential threshold crossing, is the package's one crossing
solver, :func:`~repro.core.solutions.exp_sum_crossing`, whose
two-exponential case is a closed-form bracket, an asymptotic first
guess and a lockstep Newton iteration with a bisection fallback.

The branch structure (sign of Δ, the ``settle_time`` cutoff, early
first-segment crossings) mirrors the scalar
:class:`~repro.core.hybrid_model.HybridNorModel` exactly, so results
match the scalar reference to the ≤ 1e-12 s parity bound (asserted by
the engine parity suite).

Entry points
------------
Both engines expose block entry points, ``delays_falling_block`` /
``delays_rising_block``, and
:func:`repro.engine.base.delays_for_direction` sends every per-lane
2-input evaluation there: the vectorized engine runs the kernels of
this module, the reference engine the per-sample loop
:func:`block_delays_loop`.  Blocks are packed and read by
:func:`~repro.core.multi_input.block_from_parameters` and
:func:`~repro.core.multi_input.parameters_at`.
"""

from __future__ import annotations

import collections
import math

import numpy as np

from ..core.hybrid_model import settle_time
from ..core.modes import coupled_00, coupled_10
from ..core.multi_input import parameters_at, validate_block
from ..core.parameters import (BLOCK_DTYPE, PARAM_FIELDS,
                               check_node_voltage, finite_voltage)
from ..core.solutions import exp_sum_crossing
from ..errors import NoCrossingError, ParameterError

__all__ = [
    "BLOCK_DTYPE",
    "PARAM_FIELDS",
    "FallingConstants",
    "RisingConstants",
    "block_delays_loop",
    "falling_constants",
    "falling_delays",
    "falling_delays_block",
    "rising_constants",
    "rising_delays",
    "rising_delays_block",
    "validate_block",
]

# ----------------------------------------------------------------------
# Δ validation
# ----------------------------------------------------------------------

def _prepare_deltas(block: np.ndarray, deltas
                    ) -> tuple[np.ndarray, bool]:
    """Normalize *deltas* to ``(N, M)`` against an ``(N,)`` block."""
    d = np.asarray(deltas, dtype=float)
    if np.isnan(d).any():
        raise ParameterError("input separations must not be NaN")
    squeeze = d.ndim == 1
    if squeeze:
        d = d[:, None]
    if d.ndim != 2 or d.shape[0] != block.shape[0]:
        raise ParameterError(
            f"deltas must have shape (N,) or (N, M) with N = "
            f"{block.shape[0]} samples, got {np.shape(deltas)}")
    return d, squeeze


# ----------------------------------------------------------------------
# the two-exponential threshold crossing (shared or per-row constants)
# ----------------------------------------------------------------------

def _crossing(k1, k2, l1, l2, level, downward: bool) -> np.ndarray:
    """First directed crossing of ``k1·e^{λ1 t} + k2·e^{λ2 t}`` through
    *level* at ``t ≥ 0``, elementwise; :class:`NoCrossingError` if an
    element never crosses (it starts beyond *level* or settles short)."""
    t = exp_sum_crossing((k1, k2), (l1, l2), level, downward)
    if np.isnan(t).any():
        raise NoCrossingError(
            "two-exponential sum never crosses the threshold in the "
            "requested direction")
    return t


# ----------------------------------------------------------------------
# per-row constants (the Δ-independent half of each kernel)
# ----------------------------------------------------------------------

def _columns(*values) -> list:
    """Per-row ``(N,)`` constants as ``(N, 1)`` column views that
    broadcast against an ``(N, M)`` Δ matrix.  A one-record block gets
    plain floats instead: they broadcast the same at a third less
    NumPy overhead per operation, which is most of the cost of a small
    sweep, and being immutable they are safe to memoize."""
    if np.shape(values[0])[0] == 1:
        return [float(value[0]) for value in values]
    return [value[:, None] for value in values]


#: Δ-independent constants of the falling transition (inputs rise):
#: vo of mode (1,0) entered at (VDD, VDD) is ``k1·e^{l1 t} +
#: k2·e^{l2 t}`` and crosses Vth at ``t10``; mode (0,1) crosses at
#: ``t01 = τ_R4·ln 2``; mode (1,1) decays at ``rate11 = −(1/τ_R3 +
#: 1/τ_R4)``; separations beyond ``settle`` count as ±inf.
FallingConstants = collections.namedtuple(
    "FallingConstants",
    "k1 k2 l1 l2 t10 t01 rate11 tau_r4 vdd vth settle delta_min")

#: Δ-independent constants of the rising transition (inputs fall) for
#: one mode-(1,1) internal-node voltage X: mode (1,0) entered at
#: (X, 0) has rates ``l1, l2`` and coefficients ``kn*`` (vn), ``ko*``
#: (vo), and lifts vo across Vth at ``t_up`` (``inf`` where it never
#: does); mode (0,1) entered at (X, 0) keeps vo at GND and moves
#: ``vn = VDD + swing·e^{−t/tau_n}``; mode (0,0) maps an entry state to
#: its exp-sum with ``vn_comp00`` and α ± β, 2β (paper eqs. (4)–(7)).
RisingConstants = collections.namedtuple(
    "RisingConstants",
    "l1 l2 kn1 kn2 ko1 ko2 t_up swing tau_n vn_comp00 "
    "alpha_minus_beta00 alpha_plus_beta00 two_beta00 l100 l200 vdd vth "
    "settle delta_min")


def falling_constants(block: np.ndarray) -> FallingConstants:
    """:data:`FallingConstants` of a validated ``(N,)`` block."""
    r2, r3, r4 = block["r2"], block["r3"], block["r4"]
    cn, co, vdd = block["cn"], block["co"], block["vdd"]
    vth = 0.5 * vdd
    alpha, beta, gamma = coupled_10(r2, r3, cn, co)
    l1, l2 = gamma + beta, gamma - beta

    # vo of mode (1,0) entered at (VDD, VDD):  c1 + c2 = VDD·CN·R2,
    # vo(t) = c1 (α+β) e^{λ1 t} + c2 (α−β) e^{λ2 t}  from VDD.
    total = vdd * cn * r2
    c1 = (vdd - total * (alpha - beta)) / (2.0 * beta)
    c2 = total - c1
    k1 = c1 * (alpha + beta)
    k2 = c2 * (alpha - beta)

    # First downward Vth crossing inside pure mode (1,0): vo starts
    # at VDD and the level sits above the late tail.
    t10 = _crossing(k1, k2, l1, l2, vth, downward=True)
    tau_r4 = co * r4
    return FallingConstants(*_columns(
        k1, k2, l1, l2, t10, tau_r4 * math.log(2.0),
        -(1.0 / (co * r3) + 1.0 / tau_r4), tau_r4, vdd, vth,
        settle_time(block), block["delta_min"]))


def rising_constants(block: np.ndarray, vn_init) -> RisingConstants:
    """:data:`RisingConstants` of a validated ``(N,)`` block at
    ``X = vn_init`` volts, one value or one per record
    (``ParameterError`` if any is not finite, or outside its record's
    ``[0, VDD]``)."""
    x = np.asarray(finite_voltage(vn_init, "vn_init"))
    check_node_voltage(x, block["vdd"])
    r1, r2, r3 = block["r1"], block["r2"], block["r3"]
    cn, co, vdd = block["cn"], block["co"], block["vdd"]
    vth = 0.5 * vdd

    # Mode (1,0) entered at (X, 0) — B fell first.  Charge sharing
    # can lift the output, possibly across Vth before A falls.
    alpha, beta, gamma = coupled_10(r2, r3, cn, co)
    l1, l2 = gamma + beta, gamma - beta
    vn_comp10 = 1.0 / (cn * r2)
    total = x / vn_comp10
    c1 = (0.0 - total * (alpha - beta)) / (2.0 * beta)
    c2 = total - c1
    ko1 = c1 * (alpha + beta)
    ko2 = c2 * (alpha - beta)

    # First *upward* Vth crossing of vo10, where one exists: only a
    # charged internal node can lift the output (inf where it never
    # does).
    t_up = np.full(block.shape[0], math.inf)
    if (x > 0.0).any():
        up = exp_sum_crossing((ko1, ko2), (l1, l2), vth, downward=False)
        t_up = np.where((x > 0.0) & ~np.isnan(up), up, math.inf)

    a00, b00, g00 = coupled_00(r1, r2, cn, co)
    return RisingConstants(*_columns(
        l1, l2, c1 * vn_comp10, c2 * vn_comp10, ko1, ko2, t_up,
        x - vdd, cn * r1, 1.0 / (cn * r2), a00 - b00, a00 + b00,
        2.0 * b00, g00 + b00, g00 - b00, vdd, vth, settle_time(block),
        block["delta_min"]))


# ----------------------------------------------------------------------
# the Δ evaluations: a call runs tile by tile, and within a tile buffers
# are reused through ``out=`` and in-place ufuncs, so a call allocates
# its result plus one tile's working set, whatever its size
# ----------------------------------------------------------------------

#: Least Δ elements per tile of a 2-input evaluation: a larger ``(N, M)``
#: matrix runs in near-equal tiles of whole rows, or of pieces of one
#: row when a row alone is larger, so a call's working set stops
#: growing with the call.  A rising tile is small: its crossing solver
#: allocates afresh on every Newton step, and tiles that stay in cache
#: run large calls faster.  A falling tile is a few closed forms, and a
#: larger one keeps its fixed cost per tile small.
_FALLING_TILE = 65536
_RISING_TILE = 8192


def _edges(length: int, least: int) -> list:
    """Edges of ``max(length // least, 1)`` near-equal parts of an
    axis: no part is a short remainder that pays a whole tile's fixed
    cost."""
    count = max(length // least, 1)
    return [length * k // count for k in range(count + 1)]


def _tiled(evaluate, constants, d: np.ndarray,
           least: int) -> np.ndarray:
    """*evaluate* (:func:`_falling_tile` or :func:`_rising_tile`) over
    an ``(N, M)`` Δ matrix, one tile of *least* to about twice as many
    elements at a time.  A tile sees the rows of the ``(N, 1)``
    constant columns it covers; the floats of a one-record block pass
    through unchanged.  A matrix of fewer than twice *least* elements
    is evaluated as it is."""
    rows, cols = d.shape
    if rows * cols < 2 * least:
        return evaluate(constants, d)
    tall = _edges(rows, -(-least // cols))
    wide = _edges(cols, least)
    out = np.empty(d.shape)
    for top, bottom in zip(tall, tall[1:]):
        band = slice(top, bottom)
        part = constants._make(
            value[band] if isinstance(value, np.ndarray) else value
            for value in constants)
        for left, right in zip(wide, wide[1:]):
            tile = (band, slice(left, right))
            out[tile] = evaluate(part, d[tile])
    return out


def falling_delays(constants: FallingConstants,
                   d: np.ndarray) -> np.ndarray:
    """Falling delays (``δ_min`` included) of an ``(N, M)`` NaN-free Δ
    matrix against ``N`` rows of :data:`FallingConstants`."""
    return _tiled(_falling_tile, constants, d, _FALLING_TILE)


def rising_delays(constants: RisingConstants,
                  d: np.ndarray) -> np.ndarray:
    """Rising delays (``δ_min`` included) of an ``(N, M)`` NaN-free Δ
    matrix against ``N`` rows of :data:`RisingConstants`."""
    return _tiled(_rising_tile, constants, d, _RISING_TILE)


def _falling_tile(constants: FallingConstants,
                  d: np.ndarray) -> np.ndarray:
    """:func:`falling_delays` of one tile."""
    c = constants
    pos = d >= 0.0
    mag = np.abs(d)
    np.minimum(mag, c.settle, out=mag)
    with np.errstate(divide="ignore", invalid="ignore",
                     over="ignore", under="ignore"):
        # Output voltage when the later input rises: mode (1,0) from
        # (VDD, VDD) for Δ ≥ 0, mode (0,1) — vo = VDD·e^{−t/τ_R4} —
        # for Δ < 0.
        vo = np.multiply(c.l1, mag)
        np.exp(vo, out=vo)
        vo *= c.k1
        term = np.multiply(c.l2, mag)
        np.exp(term, out=term)
        term *= c.k2
        vo += term
        np.negative(mag, out=term)
        term /= c.tau_r4
        np.exp(term, out=term)
        term *= c.vdd
        np.copyto(vo, term, where=~pos)
        # Mode (1,1) then decays with one exponential: the crossing is
        # a logarithm, unless the output crossed in the first mode.
        crossing = np.divide(c.vth, vo, out=vo)
        np.log(crossing, out=crossing)
        crossing /= c.rate11
        crossing += mag
        first = term
        np.copyto(first, c.t01)
        np.copyto(first, c.t10, where=pos)
        np.copyto(crossing, first, where=mag >= first)
    crossing += c.delta_min
    return crossing


def _rising_tile(constants: RisingConstants,
                 d: np.ndarray) -> np.ndarray:
    """:func:`rising_delays` of one tile."""
    c = constants
    pos = d >= 0.0
    mag = np.abs(d)
    np.minimum(mag, c.settle, out=mag)
    early = mag >= c.t_up
    early &= ~pos
    # State entering (0,0) when the later input falls.  Δ < 0: mode
    # (1,0) from (X, 0) moves both nodes.
    vo0 = np.multiply(c.l1, mag)
    np.exp(vo0, out=vo0)
    vn0 = vo0 * c.kn1
    vo0 *= c.ko1
    term = np.multiply(c.l2, mag)
    np.exp(term, out=term)
    vn0 += term * c.kn2
    term *= c.ko2
    vo0 += term
    # Δ ≥ 0: mode (0,1) from (X, 0) pins the output at GND, only V_N
    # moves.
    np.negative(mag, out=term)
    term /= c.tau_n
    np.exp(term, out=term)
    term *= c.swing
    term += c.vdd
    np.copyto(vn0, term, where=pos)
    del term
    # Early elements crossed Vth inside (1,0) already; they enter (0,0)
    # with the output at GND instead, so one solver call covers every
    # element, and their crossing is discarded below.
    np.copyto(vo0, 0.0, where=pos | early)

    # Map the entry state onto mode (0,0)'s coefficients in place:
    # vo(t) − VDD = k1·e^{λ1 t} + k2·e^{λ2 t} rises through Vth − VDD.
    total = vn0
    total -= c.vdd
    total /= c.vn_comp00
    k1 = vo0
    k1 -= c.vdd
    k1 -= total * c.alpha_minus_beta00
    k1 /= c.two_beta00
    k2 = np.subtract(total, k1, out=total)
    k1 *= c.alpha_plus_beta00
    k2 *= c.alpha_minus_beta00
    delay = _crossing(k1, k2, c.l100, c.l200, c.vth - c.vdd,
                      downward=False)

    # The rising delay is referenced to the *later* input: final-
    # segment crossings equal the (0,0)-local crossing time; only an
    # early upward crossing inside (1,0) gives a Δ-dependent offset.
    np.copyto(delay, np.subtract(c.t_up, mag, out=mag), where=early)
    delay += c.delta_min
    return delay


# ----------------------------------------------------------------------
# the block kernels
# ----------------------------------------------------------------------

def falling_delays_block(block, deltas) -> np.ndarray:
    """Falling MIS delays for a whole sample block at once.

    Sample ``i`` is evaluated at Δ row ``deltas[i]``: every segment
    constant is an array over the sample axis
    (:func:`falling_constants`), then one :func:`falling_delays` pass
    covers the grid.

    Parameters
    ----------
    block : numpy.ndarray
        Sample block of dtype :data:`BLOCK_DTYPE`, shape ``(N,)``
        (see :func:`validate_block`).
    deltas : array_like of float
        Input separations in seconds, shape ``(N,)`` or ``(N, M)``;
        ``±inf`` allowed, NaN rejected.

    Returns
    -------
    numpy.ndarray
        Delays in seconds (``δ_min`` included), same shape as
        *deltas*; matches the scalar reference to ≤ 1e-12 s.
    """
    block = validate_block(block)
    d, squeeze = _prepare_deltas(block, deltas)
    out = falling_delays(falling_constants(block), d)
    return out[:, 0] if squeeze else out


def rising_delays_block(block, deltas, vn_init=0.0) -> np.ndarray:
    """Rising MIS delays for a whole sample block at once.

    The rising twin of :func:`falling_delays_block`, including the
    early charge-sharing crossing of the intermediate (1,0) mode for
    ``vn_init > 0``.

    Parameters
    ----------
    block : numpy.ndarray
        Sample block of dtype :data:`BLOCK_DTYPE`, shape ``(N,)``.
    deltas : array_like of float
        Input separations in seconds, shape ``(N,)`` or ``(N, M)``;
        ``±inf`` allowed, NaN rejected.
    vn_init : float or array_like of float, optional
        Mode-(1,1) internal-node voltage ``X`` in volts, shared by
        the block or one per record (default 0.0, the GND worst
        case); NaN and ``±inf`` rejected.

    Returns
    -------
    numpy.ndarray
        Delays in seconds (``δ_min`` included), same shape as
        *deltas*; matches the scalar reference to ≤ 1e-12 s.
    """
    block = validate_block(block)
    d, squeeze = _prepare_deltas(block, deltas)
    out = rising_delays(rising_constants(block, vn_init), d)
    return out[:, 0] if squeeze else out


# ----------------------------------------------------------------------
# the per-sample reference loop
# ----------------------------------------------------------------------

def block_delays_loop(engine, direction: str, block, deltas,
                      vn_init=0.0) -> np.ndarray:
    """Per-sample reference loop over an engine's scalar entry points.

    The ground-truth (and benchmark-baseline) evaluation of a sample
    block: one ordinary ``delays_falling`` / ``delays_rising`` call
    per record.  The scalar ``reference`` engine serves its block
    entry points with this.

    Parameters
    ----------
    engine : DelayEngine
        Backend whose per-parameter-set entry points run the loop.
    direction : str
        ``"falling"`` or ``"rising"`` (the output transition).
    block : numpy.ndarray
        Sample block of dtype :data:`BLOCK_DTYPE`, shape ``(N,)``.
    deltas : array_like of float
        Input separations in seconds, shape ``(N,)`` or ``(N, M)``.
    vn_init : float or array_like of float, optional
        Rising-direction internal-node voltage in volts, one value or
        one per record.

    Returns
    -------
    numpy.ndarray
        Delays in seconds, same shape as *deltas*.
    """
    from .base import delays_for_direction

    block = validate_block(block)
    d, squeeze = _prepare_deltas(block, deltas)
    if direction == "rising":
        # Checked once, so a block without records is rejected too.
        vn_init = finite_voltage(vn_init, "vn_init")
        check_node_voltage(vn_init, block["vdd"])
    states = np.broadcast_to(np.asarray(vn_init, dtype=float),
                             block.shape)
    out = np.empty_like(d)
    for i in range(block.shape[0]):
        out[i] = delays_for_direction(engine, direction,
                                      parameters_at(block, i), d[i],
                                      float(states[i]))
    return out[:, 0] if squeeze else out
