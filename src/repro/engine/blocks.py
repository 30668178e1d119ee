"""Parameter-block evaluation: one call, thousands of parameter sets.

The closed forms of :mod:`repro.engine.vectorized` batch over Δ for
**one** parameter set — the right shape for sweeps and STA, but not
for Monte-Carlo, where every sample is a *different* parameter set.
This module flattens the other axis: a **sample block** is a
structured NumPy array with one record per parameter set
(:data:`BLOCK_DTYPE`), and the kernels below evaluate the whole block
against a per-sample Δ matrix in one NumPy pass.

Everything the per-parameter-set contexts of the vectorized engine
memoize — the mode constants α, β, λ₁, λ₂ of
:func:`repro.core.modes.mode_10_constants` /
:func:`~repro.core.modes.mode_00_constants`, the first-segment
solutions, the settle cutoff — is an elementary closed form in
``(r1..r4, cn, co, vdd)``, so it vectorizes over the sample axis
directly.  The only iterative piece, the two-exponential threshold
crossing, is :func:`_two_term_crossing`: a closed-form bracket, an
asymptotic first guess and a lockstep Newton iteration with a
bisection fallback.  It broadcasts per-row rates as readily as shared
ones, so the vectorized engine's rising path solves with it too.

The branch structure (sign of Δ, the ``settle_time`` cutoff, early
first-segment crossings) mirrors :mod:`repro.engine.vectorized`
exactly, so block results match the scalar reference to the same
≤ 1e-12 s parity bound (asserted by the stats kernel tests).

Entry points
------------
Engines expose the block kernels as ``delays_falling_block`` /
``delays_rising_block`` methods; :func:`block_delays` is the
dispatcher (with a per-sample loop fallback for backends without
native block support).  :mod:`repro.stats.montecarlo` is the primary
consumer.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.hybrid_model import _SETTLE_FACTOR
from ..core.multi_input import _BATCH_BISECT_STEPS, _NEWTON_STEPS
from ..core.parameters import NorGateParameters
from ..errors import NoCrossingError, ParameterError

__all__ = [
    "BLOCK_DTYPE",
    "PARAM_FIELDS",
    "block_delays",
    "block_delays_loop",
    "block_from_matrix",
    "block_from_parameters",
    "falling_delays_block",
    "field_matrix",
    "parameters_at",
    "rising_delays_block",
    "validate_block",
]

#: Field order of a sample block — the constructor order of
#: :class:`~repro.core.parameters.NorGateParameters`.
PARAM_FIELDS = ("r1", "r2", "r3", "r4", "cn", "co", "vdd",
                "delta_min")

#: Structured dtype of a sample block: one float64 per parameter.
BLOCK_DTYPE = np.dtype([(name, np.float64) for name in PARAM_FIELDS])


# ----------------------------------------------------------------------
# block construction / validation
# ----------------------------------------------------------------------

def block_from_parameters(params) -> np.ndarray:
    """Pack parameter sets into a sample block.

    Parameters
    ----------
    params : NorGateParameters or sequence of NorGateParameters
        The parameter sets, one record each.

    Returns
    -------
    numpy.ndarray
        Structured array of dtype :data:`BLOCK_DTYPE`, shape
        ``(len(params),)``.
    """
    if isinstance(params, NorGateParameters):
        params = [params]
    block = np.empty(len(params), dtype=BLOCK_DTYPE)
    for i, p in enumerate(params):
        block[i] = tuple(getattr(p, name) for name in PARAM_FIELDS)
    return block


def block_from_matrix(matrix) -> np.ndarray:
    """Rebuild a sample block from its plain-float field matrix.

    The inverse of viewing a block as an ``(N, len(PARAM_FIELDS))``
    float array — the shape the parallel engine ships through shared
    memory.

    Parameters
    ----------
    matrix : array_like of float
        Field values, shape ``(N, len(PARAM_FIELDS))``, columns in
        :data:`PARAM_FIELDS` order.

    Returns
    -------
    numpy.ndarray
        Structured array of dtype :data:`BLOCK_DTYPE`, shape
        ``(N,)``.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != len(PARAM_FIELDS):
        raise ParameterError(
            f"field matrix must have {len(PARAM_FIELDS)} columns, "
            f"got shape {matrix.shape}")
    return matrix.view(BLOCK_DTYPE).reshape(matrix.shape[0])


def field_matrix(block: np.ndarray) -> np.ndarray:
    """View a sample block as a plain ``(N, len(PARAM_FIELDS))`` float
    matrix.

    The inverse of :func:`block_from_matrix` — the homogeneous shape
    the parallel engine stages through shared memory.  Zero-copy when
    the block is contiguous.

    Parameters
    ----------
    block : numpy.ndarray
        Sample block of dtype :data:`BLOCK_DTYPE`, shape ``(N,)``.

    Returns
    -------
    numpy.ndarray
        Float64 matrix, columns in :data:`PARAM_FIELDS` order.
    """
    block = np.ascontiguousarray(block)
    return block.view(np.float64).reshape(block.shape[0],
                                          len(PARAM_FIELDS))


def parameters_at(block: np.ndarray, index: int) -> NorGateParameters:
    """Materialize one block record as a parameter object.

    Parameters
    ----------
    block : numpy.ndarray
        Sample block of dtype :data:`BLOCK_DTYPE`.
    index : int
        Record index.

    Returns
    -------
    NorGateParameters
        The (validated) scalar parameter set.
    """
    row = block[index]
    return NorGateParameters(
        **{name: float(row[name]) for name in PARAM_FIELDS})


def validate_block(block) -> np.ndarray:
    """Check a sample block like the scalar parameter constructor.

    Parameters
    ----------
    block : numpy.ndarray
        Structured array of dtype :data:`BLOCK_DTYPE` (any 1-D
        length).

    Returns
    -------
    numpy.ndarray
        The validated block (unchanged).

    Raises
    ------
    ParameterError
        On a wrong dtype, or any record a
        :class:`~repro.core.parameters.NorGateParameters` constructor
        would reject (non-positive / non-finite electrical values,
        negative ``delta_min``).
    """
    block = np.asarray(block)
    if block.dtype != BLOCK_DTYPE:
        raise ParameterError(
            f"sample block must have dtype {BLOCK_DTYPE}, got "
            f"{block.dtype}")
    if block.ndim != 1:
        raise ParameterError("sample block must be 1-D")
    for name in PARAM_FIELDS[:-1]:
        values = block[name]
        if not np.all(np.isfinite(values) & (values > 0.0)):
            raise ParameterError(
                f"{name} must be positive and finite in every block "
                "record")
    dmin = block["delta_min"]
    if not np.all(np.isfinite(dmin) & (dmin >= 0.0)):
        raise ParameterError(
            "delta_min must be non-negative and finite in every "
            "block record")
    return block


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
# per-row closed forms (arrays over the sample axis)
# ----------------------------------------------------------------------

def _mode10_constants(r2, r3, cn, co):
    """Mode (1,0) constants per row (paper eqs. (1)–(3))."""
    denom = 2.0 * co * cn * r2 * r3
    alpha = (co * r3 - cn * (r2 + r3)) / denom
    radicand = ((co * r3 + cn * (r2 + r3)) ** 2
                - 4.0 * co * cn * r2 * r3)
    beta = np.sqrt(radicand) / denom
    gamma = -(co * r3 + cn * (r2 + r3)) / denom
    return alpha, beta, gamma + beta, gamma - beta


def _mode00_constants(r1, r2, cn, co):
    """Mode (0,0) constants per row (paper eqs. (4)–(7))."""
    denom = 2.0 * co * cn * r1 * r2
    alpha = (co * (r1 + r2) - cn * r1) / denom
    radicand = ((cn * r1 + co * (r1 + r2)) ** 2
                - 4.0 * co * cn * r1 * r2)
    beta = np.sqrt(radicand) / denom
    gamma = -(cn * r1 + co * (r1 + r2)) / denom
    return alpha, beta, gamma + beta, gamma - beta


def _settle(block: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.core.hybrid_model.settle_time`."""
    r1, r2, r3, r4 = (block["r1"], block["r2"], block["r3"],
                      block["r4"])
    cn, co = block["cn"], block["co"]
    taus = np.stack([co * r3 * r4 / (r3 + r4), co * r3, co * r4,
                     cn * r1, cn * r2, co * r2, co * r1])
    return _SETTLE_FACTOR * taus.max(axis=0)


# ----------------------------------------------------------------------
# the two-exponential threshold crossing (shared or per-row constants)
# ----------------------------------------------------------------------

def _two_term_crossing(k1, k2, l1, l2, level, downward: bool
                       ) -> np.ndarray:
    """First directed crossing of ``k1·e^{λ1 t} + k2·e^{λ2 t}`` through
    *level* at ``t ≥ 0``, elementwise.

    The one threshold-crossing solver of the 2-input closed forms.
    *k1* and *k2* carry one coefficient pair per element; *l1*, *l2*
    and *level* broadcast against them, so they may be scalars shared
    by the whole batch (the vectorized engine's cached mode constants)
    or per-element arrays (the parameter-block kernels) — equal values
    give identical bytes either way.  The rates must be ordered
    ``λ2 ≤ λ1 < 0``, as the mode constants ``γ ∓ β`` give them, so
    ``λ1`` is the slow one.

    The sum has at most one stationary point ``ts``, which splits it
    into monotone pieces: the crossing lies in ``[0, ts]`` when the
    sum reaches *level* by ``ts``, else in ``[max(ts, 0), hi]``.  The
    bound ``|k1 e^{λ1 t} + k2 e^{λ2 t}| ≤ (|k1| + |k2|)·e^{λ1 t}``
    closes that piece: past ``hi = ln(|level| / (|k1| + |k2|)) / λ1``
    the sum stays within ``|level|`` of its zero tail, so on the far
    side of *level*.  Newton starts from the slow-term asymptote
    ``ln(level / k1) / λ1`` and runs in lockstep; every step first
    shrinks the bracket with the current iterate, and a candidate
    outside the bracket takes the midpoint instead.  Elements still
    moving by more than ``1e-15·|t| + 1e-26`` after
    :data:`~repro.core.multi_input._NEWTON_STEPS` iterations finish
    under plain bisection.

    Raises
    ------
    NoCrossingError
        If an element starts on the far side of *level*, or its sum
        never reaches *level* in the requested direction.
    """
    if downward:
        # A downward crossing of the sum is an upward one of its
        # negation; negating is exact, so both share one code path.
        k1, k2, level = -k1, -k2, -level
    with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                     under="ignore"):
        if np.any(k1 + k2 > level):
            raise NoCrossingError(
                "two-exponential sum starts beyond the threshold; it "
                "never crosses it in the requested direction")
        ts = np.log(-(k2 * l2) / (k1 * l1)) / (l1 - l2)
        has_ts = (ts > 0.0) & (ts < math.inf)
        at = np.where(has_ts, ts, 0.0)
        closed = has_ts & (k1 * np.exp(l1 * at) + k2 * np.exp(l2 * at)
                           >= level)
        if np.any(~closed & (level >= 0.0)):
            raise NoCrossingError(
                "two-exponential sum settles short of the threshold; "
                "it never crosses it in the requested direction")
        lo = np.where(has_ts & ~closed, ts, 0.0)
        bound = np.log(-level / (np.abs(k1) + np.abs(k2))) / l1
        hi = np.where(closed, ts, np.maximum(lo, bound))
        t = np.log(level / k1) / l1
        t = np.where((t >= lo) & (t <= hi), t, 0.5 * (lo + hi))

        step = np.full_like(t, math.inf)
        for _ in range(_NEWTON_STEPS):
            a = k1 * np.exp(l1 * t)
            b = k2 * np.exp(l2 * t)
            f = a + b - level
            below = f <= 0.0
            lo = np.where(below, t, lo)
            hi = np.where(below, hi, t)
            candidate = t - f / (l1 * a + l2 * b)
            # Non-strict bounds: a candidate tying the bracket end it
            # just updated is the converged root, not an escape (NaN
            # and ±inf candidates compare False and take the
            # midpoint).
            inside = (candidate >= lo) & (candidate <= hi)
            candidate = np.where(inside, candidate, 0.5 * (lo + hi))
            step = np.abs(candidate - t)
            t = candidate
            if np.all(step <= 1e-15 * np.abs(t) + 1e-26):
                return t

        pending = step > 1e-15 * np.abs(t) + 1e-26
        k1, k2, l1, l2, level = (np.broadcast_to(x, t.shape)[pending]
                                 for x in (k1, k2, l1, l2, level))
        lo, hi = lo[pending], hi[pending]
        for _ in range(_BATCH_BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            below = (k1 * np.exp(l1 * mid) + k2 * np.exp(l2 * mid)
                     <= level)
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
            if np.all(hi - lo <= 1e-15 * np.abs(hi) + 1e-26):
                break
        t[pending] = 0.5 * (lo + hi)
    return t


# ----------------------------------------------------------------------
# falling transition (inputs rise, output VDD → GND)
# ----------------------------------------------------------------------

def falling_delays_block(block, deltas) -> np.ndarray:
    """Falling MIS delays for a whole sample block at once.

    The parameter-axis twin of
    :meth:`repro.engine.vectorized.VectorizedEngine.delays_falling`:
    sample ``i`` is evaluated at Δ row ``deltas[i]``, every segment
    constant computed as an array over the sample axis.

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

    r2, r3, r4 = block["r2"], block["r3"], block["r4"]
    cn, co, vdd = block["cn"], block["co"], block["vdd"]
    vth = 0.5 * vdd
    alpha, beta, l1, l2 = _mode10_constants(r2, r3, cn, co)

    # vo of mode (1,0) entered at (VDD, VDD):  c1 + c2 = VDD·CN·R2,
    # vo(t) = c1 (α+β) e^{λ1 t} + c2 (α−β) e^{λ2 t}  from VDD.
    total = vdd * cn * r2
    c1 = (vdd - total * (alpha - beta)) / (2.0 * beta)
    c2 = total - c1
    k1 = c1 * (alpha + beta)
    k2 = c2 * (alpha - beta)

    # First downward Vth crossing inside pure mode (1,0): vo starts
    # at VDD and the level sits above the late tail.
    t10 = _two_term_crossing(k1, k2, l1, l2, vth, downward=True)

    tau_r4 = co * r4
    t01 = tau_r4 * math.log(2.0)  # vo(t) = VDD e^{−t/τ_R4}
    rate11 = -(1.0 / (co * r3) + 1.0 / tau_r4)

    col = (slice(None), None)  # broadcast row constants over Δ
    settle = _settle(block)[col]
    pos = d >= 0.0
    mag = np.minimum(np.abs(d), settle)
    with np.errstate(divide="ignore", invalid="ignore",
                     over="ignore", under="ignore"):
        # (1,0) then (1,1) for Δ ≥ 0; (0,1) then (1,1) for Δ < 0.
        vo_pos = k1[col] * np.exp(l1[col] * mag) \
            + k2[col] * np.exp(l2[col] * mag)
        vo_neg = vdd[col] * np.exp(-mag / tau_r4[col])
        vo_d = np.where(pos, vo_pos, vo_neg)
        first = np.where(pos, t10[col], t01[col])
        late = mag + np.log(vth[col] / vo_d) / rate11[col]
        crossing = np.where(mag >= first, first, late)
    out = crossing + block["delta_min"][col]
    return out[:, 0] if squeeze else out


# ----------------------------------------------------------------------
# rising transition (inputs fall, output GND → VDD)
# ----------------------------------------------------------------------

def _crossing_00(alpha, beta, l1, l2, vn_comp, vdd, vth, vn0, vo0
                 ) -> np.ndarray:
    """First upward Vth crossing of mode (0,0) entered at ``(vn0, vo0)``.

    Maps the entry state onto the mode's exp-sum coefficients (paper
    eqs. (4)–(7)) and hands them to :func:`_two_term_crossing`.  The
    mode constants broadcast against the state arrays: the vectorized
    engine passes its cached scalars, the block kernels per-row
    columns.  Every element must enter below the threshold.
    """
    total = (vn0 - vdd) / vn_comp
    c1 = ((vo0 - vdd) - total * (alpha - beta)) / (2.0 * beta)
    c2 = total - c1
    # vo(t) − VDD = k1·e^{λ1 t} + k2·e^{λ2 t} rises through Vth − VDD.
    return _two_term_crossing(c1 * (alpha + beta), c2 * (alpha - beta),
                              l1, l2, vth - vdd, downward=False)


def rising_delays_block(block, deltas,
                        vn_init: float = 0.0) -> np.ndarray:
    """Rising MIS delays for a whole sample block at once.

    The parameter-axis twin of
    :meth:`repro.engine.vectorized.VectorizedEngine.delays_rising`,
    including the early charge-sharing crossing of the intermediate
    (1,0) mode for ``vn_init > 0``.

    Parameters
    ----------
    block : numpy.ndarray
        Sample block of dtype :data:`BLOCK_DTYPE`, shape ``(N,)``.
    deltas : array_like of float
        Input separations in seconds, shape ``(N,)`` or ``(N, M)``;
        ``±inf`` allowed, NaN rejected.
    vn_init : float, optional
        Mode-(1,1) internal-node voltage ``X`` in volts, shared by
        the block (default 0.0, the GND worst case).

    Returns
    -------
    numpy.ndarray
        Delays in seconds (``δ_min`` included), same shape as
        *deltas*; matches the scalar reference to ≤ 1e-12 s.
    """
    block = validate_block(block)
    d, squeeze = _prepare_deltas(block, deltas)
    x = float(vn_init)

    r1, r2, r3 = block["r1"], block["r2"], block["r3"]
    cn, co, vdd = block["cn"], block["co"], block["vdd"]
    vth = 0.5 * vdd
    rows = block.shape[0]

    # Mode (1,0) entered at (X, 0) — B fell first.  Charge sharing
    # can lift the output, possibly across Vth before A falls.
    alpha, beta, l1, l2 = _mode10_constants(r2, r3, cn, co)
    vn_comp10 = 1.0 / (cn * r2)
    total = x / vn_comp10
    c1 = (0.0 - total * (alpha - beta)) / (2.0 * beta)
    c2 = total - c1
    kn1, kn2 = c1 * vn_comp10, c2 * vn_comp10  # vn10 coefficients
    ko1 = c1 * (alpha + beta)                  # vo10 coefficients
    ko2 = c2 * (alpha - beta)

    # First *upward* Vth crossing of vo10, where one exists: vo10
    # starts at 0, peaks at its single stationary point, then decays
    # — the crossing exists iff the peak tops Vth.
    t_up = np.full(rows, math.inf)
    if x > 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = -(ko2 * l2) / (ko1 * l1)
            ts = np.log(ratio) / (l1 - l2)
        has_peak = np.isfinite(ts) & (ts > 0.0)
        if has_peak.any():
            t_eval = np.where(has_peak, ts, 0.0)
            peak = (ko1 * np.exp(l1 * t_eval)
                    + ko2 * np.exp(l2 * t_eval))
            sel = np.nonzero(has_peak & (peak > vth))[0]
            if sel.size:
                t_up[sel] = _two_term_crossing(
                    ko1[sel], ko2[sel], l1[sel], l2[sel], vth[sel],
                    downward=False)

    # Final mode (0,0) constants, per row.
    a00, b00, l100, l200 = _mode00_constants(r1, r2, cn, co)
    vn_comp00 = 1.0 / (cn * r2)

    col = (slice(None), None)
    settle = _settle(block)[col]
    pos = d >= 0.0
    mag = np.minimum(np.abs(d), settle)
    with np.errstate(over="ignore", under="ignore"):
        # (0,1) from (X, 0): output pinned at GND, only V_N moves.
        vn01 = vdd[col] + (x - vdd[col]) \
            * np.exp(-mag / (cn * r1)[col])
        # (1,0) from (X, 0): both nodes move.
        e1 = np.exp(l1[col] * mag)
        e2 = np.exp(l2[col] * mag)
        vn10 = kn1[col] * e1 + kn2[col] * e2
        vo10 = ko1[col] * e1 + ko2[col] * e2

    # The rising delay is referenced to the *later* input: final-
    # segment crossings equal the (0,0)-local crossing time; only an
    # early upward crossing inside (1,0) gives a Δ-dependent offset.
    # Early elements enter (0,0) with the output at GND instead, so
    # one solver call covers the grid; their crossing is discarded.
    early = ~pos & (mag >= t_up[col])
    vn0 = np.where(pos, vn01, vn10)
    vo0 = np.where(pos | early, 0.0, vo10)
    crossing = _crossing_00(a00[col], b00[col], l100[col], l200[col],
                            vn_comp00[col], vdd[col], vth[col], vn0,
                            vo0)
    delay = np.where(early, t_up[col] - mag, crossing)
    out = delay + block["delta_min"][col]
    return out[:, 0] if squeeze else out


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------

def block_delays_loop(engine, direction: str, block, deltas,
                      vn_init: float = 0.0) -> np.ndarray:
    """Per-sample reference loop over an engine's scalar entry points.

    The ground-truth (and benchmark-baseline) evaluation of a sample
    block: one ordinary ``delays_falling`` / ``delays_rising`` call
    per record.  Backends without native block kernels (the scalar
    ``reference`` engine) serve their block entry points with this.

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
    vn_init : float, optional
        Rising-direction internal-node voltage in volts.

    Returns
    -------
    numpy.ndarray
        Delays in seconds, same shape as *deltas*.
    """
    from .base import delays_for_direction

    block = validate_block(block)
    d, squeeze = _prepare_deltas(block, deltas)
    out = np.empty_like(d)
    for i in range(block.shape[0]):
        out[i] = delays_for_direction(engine, direction,
                                      parameters_at(block, i), d[i],
                                      vn_init)
    return out[:, 0] if squeeze else out


def block_delays(engine, direction: str, block, deltas,
                 vn_init: float = 0.0) -> np.ndarray:
    """Dispatch a sample-block evaluation by direction.

    The block twin of
    :func:`repro.engine.base.delays_for_direction`: resolves the
    direction to the engine's ``delays_falling_block`` /
    ``delays_rising_block`` entry point, falling back to the
    per-sample loop for backends that predate the block protocol.

    Parameters
    ----------
    engine : DelayEngine
        Backend instance the block runs on.
    direction : str
        ``"falling"`` or ``"rising"`` (the output transition).
    block : numpy.ndarray
        Sample block of dtype :data:`BLOCK_DTYPE`, shape ``(N,)``.
    deltas : array_like of float
        Input separations in seconds, shape ``(N,)`` or ``(N, M)``.
    vn_init : float, optional
        Rising-direction internal-node voltage in volts (default
        0.0).

    Returns
    -------
    numpy.ndarray
        Delays in seconds, same shape as *deltas*.

    Raises
    ------
    ValueError
        If *direction* is neither ``"falling"`` nor ``"rising"``.
    """
    if direction not in ("falling", "rising"):
        raise ValueError(f"direction must be 'falling' or 'rising', "
                         f"got {direction!r}")
    if direction == "falling":
        method = getattr(engine, "delays_falling_block", None)
        if method is None:
            return block_delays_loop(engine, direction, block,
                                     deltas)
        return method(block, deltas)
    method = getattr(engine, "delays_rising_block", None)
    if method is None:
        return block_delays_loop(engine, direction, block, deltas,
                                 vn_init)
    return method(block, deltas, vn_init)
