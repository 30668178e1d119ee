"""Closed-form trajectories of the four NOR-gate modes.

Every mode of the hybrid model is a 2-dimensional linear ODE with constant
coefficients, so both voltages are *sums of at most two real exponentials
plus a constant*:

.. math::  v(t) = K_0 + K_1 e^{\\lambda_1 t} + K_2 e^{\\lambda_2 t}

This module computes the coefficients from an arbitrary initial state
``(V_N(0), V_O(0))`` using the eigen-decompositions of
:mod:`repro.core.modes`, and packages them as :class:`ExpSum` objects that
support evaluation, differentiation and exact/bracketed threshold
inversion (the scalar inversion lives in :mod:`repro.core.trajectory`).

:func:`exp_sum_crossing` is the array counterpart for any number of
terms: the one solver behind every batched delay, in
:mod:`repro.engine.blocks` and :mod:`repro.core.multi_input`, and
behind the two-pole wire crossings of :mod:`repro.wire.model`.

A generic numeric LTI propagator (:func:`propagate_numeric`) based on the
matrix exponential is provided for cross-validation in the test-suite.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence

import numpy as np

from ..errors import ParameterError
from .modes import (Mode, ModeSystem, mode_00_constants,
                    mode_10_constants, mode_system)
from .parameters import NorGateParameters

__all__ = ["ExpSum", "ModeSolution", "exp_sum_crossing", "solve_mode",
           "propagate_numeric"]

#: Safeguarded Newton iterations of a crossing search (quadratic
#: convergence lands well inside this; leftover elements fall back to
#: lockstep bisection).
_NEWTON_STEPS = 12
#: Lockstep bisection steps of the non-convergence fallback.
_BISECT_STEPS = 128
#: Relative size, against the sum of the magnitudes of its terms, below
#: which a sum counts as zero at a breakpoint of the root isolation:
#: the rounding noise of evaluating a few terms, with a margin.
_NOISE = 1e-14


@dataclasses.dataclass(frozen=True)
class ExpSum:
    """A function ``t -> offset + sum_i coeffs[i] * exp(rates[i] * t)``.

    The representation is canonical enough for our purposes: terms with a
    zero coefficient are dropped at construction, and a zero-rate term is
    folded into the offset.
    """

    offset: float
    coeffs: tuple[float, ...]
    rates: tuple[float, ...]

    @classmethod
    def build(cls, offset: float,
              terms: Sequence[tuple[float, float]]) -> "ExpSum":
        """Create an :class:`ExpSum` from ``(coefficient, rate)`` pairs."""
        total_offset = float(offset)
        coeffs: list[float] = []
        rates: list[float] = []
        for coeff, rate in terms:
            if coeff == 0.0:
                continue
            if rate == 0.0:
                total_offset += coeff
                continue
            coeffs.append(float(coeff))
            rates.append(float(rate))
        return cls(total_offset, tuple(coeffs), tuple(rates))

    def __call__(self, t):
        """Evaluate at scalar or array ``t``."""
        if isinstance(t, (float, int)):
            # Scalar fast path — this is the innermost loop of every
            # delay computation.
            result = self.offset
            for coeff, rate in zip(self.coeffs, self.rates):
                result += coeff * math.exp(rate * t)
            return result
        t = np.asarray(t, dtype=float)
        result = np.full_like(t, self.offset, dtype=float)
        for coeff, rate in zip(self.coeffs, self.rates):
            result = result + coeff * np.exp(rate * t)
        if result.ndim == 0:
            return float(result)
        return result

    def derivative(self) -> "ExpSum":
        """Return the time-derivative as another :class:`ExpSum`."""
        cached = object.__getattribute__(self, "__dict__").get("_deriv")
        if cached is None:
            cached = ExpSum.build(0.0, [(coeff * rate, rate)
                                        for coeff, rate in
                                        zip(self.coeffs, self.rates)])
            object.__setattr__(self, "_deriv", cached)
        return cached

    @property
    def limit(self) -> float:
        """Value for ``t -> +inf`` (assumes all rates are negative)."""
        if any(rate > 0.0 for rate in self.rates):
            raise ParameterError("ExpSum diverges for t -> inf")
        return self.offset

    @property
    def slowest_rate(self) -> float:
        """The rate closest to zero (dominant long-term behaviour)."""
        if not self.rates:
            return 0.0
        return max(self.rates, key=lambda r: r if r < 0 else -math.inf)

    def shifted(self, dt: float) -> "ExpSum":
        """Return ``s`` with ``s(t) = self(t + dt)`` (time re-basing)."""
        return ExpSum.build(
            self.offset,
            [(coeff * math.exp(rate * dt), rate)
             for coeff, rate in zip(self.coeffs, self.rates)],
        )


# ----------------------------------------------------------------------
# batched threshold crossings of exponential sums
# ----------------------------------------------------------------------

def exp_sum_crossing(weights, rates, level, downward: bool,
                     window=math.inf) -> np.ndarray:
    """First directed crossing of ``Σ_j w_j·e^{λ_j t}`` through *level*
    on ``[0, window]``, elementwise.

    The search runs upward (a downward one on the negated sum) for the
    zeros of ``c + Σ_j w_j e^{λ_j t}``: zero-rate terms less *level*
    fold into the constant ``c``.  An element whose term-wise upper
    bound ``c + Σ_j max(w_j, w_j·e^{λ_j·window})`` stays below zero by
    more than rounding noise cannot cross and is dropped.  Equal rates
    merge next.

    A sum of k terms (a constant counts, with rate 0) has at most as
    many real zeros as its rate-ordered coefficients change sign, so
    at most k − 1 (Descartes' rule of signs), and the zeros of its
    derivative cut it into monotone pieces with at most one crossing
    each.  Multiplied by ``e^{−λ_slow t}``, the derivative is again a
    constant plus one fewer exponential, so the stationary points
    follow by recursion down to the closed-form stationary point of
    two exponentials.  At every level of that recursion, an element
    skips the isolation when it has at most one zero on ``t > 0`` by
    Laguerre's rule: its partial sums ``c, c + w_1, …, c + Σ_j w_j``,
    slowest rate first, change sign at most once.  (Abel summation
    writes the sum as ``t·∫A(s)e^{−st}ds`` over the partial-sum step
    function ``A``, and the Laplace kernel is variation-diminishing.)
    The partial sums never change sign more often than the
    coefficients, and on the n-input rising path far less often.

    One safeguarded Newton iteration then runs on the first piece that
    brackets a directed crossing, from the slow-term asymptote; a
    candidate outside the bracket takes the midpoint, and elements
    still moving by more than ``1e-15·|t| + 1e-26`` after
    :data:`_NEWTON_STEPS` steps finish under bisection.  A piece that
    reaches ``t = inf`` is closed by the tail bound
    ``|Σ_j w_j e^{λ_j t}| ≤ (Σ_j |w_j|)·e^{λ_slow t}``.  Two
    exponentials without a constant (the 2-input case) pick their
    piece in closed form: the crossing lies in ``[0, ts]`` when the
    sum reaches *level* by its one stationary point ``ts``, else past
    ``max(ts, 0)``.

    Parameters
    ----------
    weights : array_like of float
        Coefficients ``w_j``, one slab per term on the leading axis:
        shape ``(k, ...)``.
    rates : array_like of float
        Rates ``λ_j ≤ 0``, shape ``(k,)`` (shared by every element) or
        broadcastable to *weights*; a zero rate makes its term a
        constant.  Equal values give identical bytes either way.
    level : float or array_like of float
        Threshold, broadcast against the element shape.
    downward : bool
        Search the sum falling through *level* instead of rising.
    window : float or array_like of float, optional
        End of the search interval per element (default ``inf``).

    Returns
    -------
    numpy.ndarray
        Crossing times, over the broadcast element shape: the first
        ``t`` where the sum passes from ``≤ level`` to ``> level``
        (mirrored for *downward*), within ``1e-15·|t| + 1e-26`` of the
        root.  NaN where the sum does not cross in that direction on
        ``[0, window]``.
    """
    w = np.asarray(weights, dtype=float)
    lam = np.asarray(rates, dtype=float)
    lam = lam.reshape(lam.shape + (1,) * (w.ndim - lam.ndim))
    level = np.asarray(level, dtype=float)
    if downward:
        # A downward crossing of the sum is an upward one of its
        # negation; negating is exact, so both share one code path.
        w, level = -w, -level
    with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                     under="ignore"):
        if w.shape[0] == 2 and lam.all():
            return _two_exponential_crossing(w, lam, level, window)
        return _isolated_crossing(w, lam, level, window)


def _two_exponential_crossing(w, lam, level, window) -> np.ndarray:
    """Upward crossing of ``k1·e^{λ1 t} + k2·e^{λ2 t}`` (no constant):
    one comparison at the one stationary point picks the piece, at
    half the cost of :func:`_isolated_crossing` on a 16-point call."""
    swap = lam[1] > lam[0]
    if swap.any():
        w, lam = np.where(swap, w[::-1], w), np.where(swap, lam[::-1], lam)
    ts = _stationary(w, lam, math.inf)[0]
    has_ts = ts < math.inf
    at = np.where(has_ts, ts, 0.0)
    closed = has_ts & (np.add.reduce(w * np.exp(lam * at)) >= level)
    starts_below = np.add.reduce(w) <= level
    found = np.where(closed, starts_below,
                     (has_ts | starts_below) & (level < 0.0))
    lo = np.where(has_ts & ~closed, ts, 0.0)
    hi = np.where(closed, ts, math.inf)
    everywhere = found.all()
    if not everywhere:
        # Elements without a crossing sit on the converged bracket [0, 0].
        lo, hi = np.where(found, lo, 0.0), np.where(found, hi, 0.0)
    t = _solve(-level, w, lam, lo, hi)
    if np.ndim(window) or window < math.inf:
        # The first crossing on [0, inf) counts if it is in the window.
        found = found & (t <= window)
        everywhere = found.all()
    return t if everywhere else np.where(found, t, math.nan)


def _isolated_crossing(w, lam, level, window) -> np.ndarray:
    """Upward crossing of any exp-sum through root isolation."""
    k = w.shape[0]
    shape = np.broadcast_shapes(w.shape[1:], lam.shape[1:], level.shape,
                                np.shape(window))
    w = np.broadcast_to(w, (k,) + shape).reshape(k, -1)
    lam = np.broadcast_to(lam, (k,) + shape).reshape(k, -1)
    zero = lam == 0.0
    c = (np.where(zero, w, 0.0).sum(axis=0)
         - np.broadcast_to(level, shape).reshape(-1))
    w = np.where(zero, 0.0, w)
    window = np.broadcast_to(np.asarray(window, dtype=float),
                             shape).reshape(-1)
    # Every term is monotone, so the larger of its values at 0 and at
    # the window's end bounds it on the window: a sum whose bound stays
    # below zero by more than rounding noise never crosses.  fmax
    # skips the NaN of a zero rate over an infinite window (0·inf),
    # whose term was folded into c; a NaN sum crosses nowhere anyway.
    reach = c + np.add.reduce(np.fmax(w, w * np.exp(lam * window)))
    live = reach >= -_NOISE * (np.abs(c) + np.add.reduce(np.abs(w)))
    if live.all():
        return _first_crossing(c, w, lam, window).reshape(shape)
    out = np.full(c.shape, math.nan)
    live = np.flatnonzero(live)
    if live.size:
        out[live] = _first_crossing(c.take(live), w.take(live, axis=1),
                                    lam.take(live, axis=1),
                                    window.take(live))
    return out.reshape(shape)


def _first_crossing(c, w, lam, window) -> np.ndarray:
    """Upward crossing of ``c + Σ_j w_j e^{λ_j t}`` on ``[0, window]``
    per row, NaN where there is none; zero-rate terms are already
    folded into *c*."""
    w, lam = _canonical(w, lam)
    b, g, _ = _breakpoints(c, w, lam, window)
    hit = (g[:-1] <= 0.0) & (g[1:] > 0.0)
    rows = np.nonzero(hit.any(axis=0))[0]
    out = np.full(c.shape, math.nan)
    if rows.size:
        first = np.argmax(hit[:, rows], axis=0)
        out[rows] = _solve(c[rows], w[:, rows], lam[:, rows],
                           b[first, rows], b[first + 1, rows])
    return out


def _canonical(w, lam) -> tuple[np.ndarray, np.ndarray]:
    """``(k, R)`` terms with the nonzero ones first, slowest first, and
    equal rates merged; zero terms take the row's fastest rate, so
    shifting by the slowest rate never makes a rate positive."""
    absent = w == 0.0
    lam = np.where(absent, lam.min(axis=0), lam)
    order = np.argsort(np.where(absent, math.inf, -lam), axis=0,
                       kind="stable")
    w = np.take_along_axis(w, order, axis=0)
    lam = np.take_along_axis(lam, order, axis=0)
    if not np.any((lam[1:] == lam[:-1]) & (w[1:] != 0.0)):
        return w, lam
    for j in range(w.shape[0] - 1, 0, -1):
        tie = (lam[j] == lam[j - 1]) & (w[j] != 0.0)
        w[j - 1] += np.where(tie, w[j], 0.0)
        w[j] = np.where(tie, 0.0, w[j])
    return _canonical(w, lam)


def _breakpoints(c, w, lam, window) -> tuple:
    """Breakpoints ``0 = b_0 ≤ … ≤ b_k = window`` that cut
    ``c + Σ_j w_j e^{λ_j t}`` into pieces with at most one zero each,
    with the sum and the sum of the magnitudes of its terms there
    (each ``(k+1, R)``)."""
    k = w.shape[0]
    b = np.empty((k + 1,) + c.shape)
    g = np.empty_like(b)
    size = np.empty_like(b)
    b[0] = 0.0
    g[0] = c + np.add.reduce(w)
    size[0] = np.abs(c) + np.add.reduce(np.abs(w))
    b[1:] = window
    g[1:], size[1:] = _values(c, w, lam, window[None])
    rows = np.nonzero(_sign_changes(c, w, size[0]) > 1)[0]
    if rows.size:
        c, w, lam = c[rows], w[:, rows], lam[:, rows]
        points = np.minimum(_stationary(w, lam, window[rows]),
                            window[rows])
        b[1:k, rows] = points
        g[1:k, rows], size[1:k, rows] = _values(c, w, lam, points)
    return b, g, size


def _sign_changes(c, w, size) -> np.ndarray:
    """Laguerre's bound on the zeros of ``c + Σ_j w_j e^{λ_j t}`` on
    ``(0, inf)`` per row (rates distinct and slowest first): the sign
    changes of the partial sums ``c, c + w_1, …, c + Σ_j w_j``.

    A partial sum within rounding noise of zero, against the sum
    *size* of the magnitudes of the terms, may take either sign, so
    each step into or out of one counts.  That covers a sum settling
    onto zero, which may rise above it and sink back with no zero to
    close the piece.
    """
    partial = np.cumsum(np.concatenate([c[None], w]), axis=0)
    noise = _NOISE * size
    sign = (partial > noise).view(np.int8) - (partial < -noise).view(np.int8)
    return np.add.reduce(sign[1:] != sign[:-1])


def _values(c, w, lam, t) -> tuple[np.ndarray, np.ndarray]:
    """``c + Σ_j w_j e^{λ_j t}`` and ``|c| + Σ_j |w_j| e^{λ_j t}`` at
    the ``(P, R)`` points *t* (the limit ``c`` at ``t = inf``)."""
    e = np.exp(lam[:, None] * t)
    g = np.where(np.isinf(t), c, c + np.add.reduce(w[:, None] * e))
    return g, np.abs(c) + np.add.reduce(np.abs(w)[:, None] * e)


def _stationary(w, lam, window) -> np.ndarray:
    """Sorted stationary points of ``Σ_j w_j e^{λ_j t}`` in
    ``(0, window)``, ``inf``-padded to ``(k − 1, R)``."""
    if w.shape[0] == 2:
        ts = np.log(-(w[1] * lam[1]) / (w[0] * lam[0])) / (lam[0] - lam[1])
        return np.where((ts > 0.0) & (ts < window), ts, math.inf)[None]
    slope = w * lam
    return _zeros(slope[0], slope[1:], lam[1:] - lam[0], window)


def _zeros(c, w, lam, window) -> np.ndarray:
    """Sorted zeros of ``c + Σ_j w_j e^{λ_j t}`` (``k ≥ 2`` terms) in
    ``(0, window)``, ``inf``-padded to ``(k, R)``."""
    b, g, size = _breakpoints(c, w, lam, window)
    # A value within rounding noise of zero puts the zero on the
    # breakpoint itself (typically a multiple zero at t = 0), where no
    # piece needs a search for it.
    g = np.where(np.abs(g) <= _NOISE * size, 0.0, g)
    piece, row = np.nonzero((g[:-1] * g[1:] < 0.0) & (b[1:] > b[:-1]))
    out = np.full(w.shape, math.inf)
    if piece.size:
        sign = np.sign(g[piece + 1, row])
        out[piece, row] = _solve(sign * c[row], sign * w[:, row],
                                 lam[:, row], b[piece, row],
                                 b[piece + 1, row])
    return np.sort(out, axis=0)


def _solve(c, w, lam, lo, hi) -> np.ndarray:
    """Upward zero of ``c + Σ_j w_j e^{λ_j t}`` in ``[lo, hi]``, where
    the sum is ``≤ 0`` at *lo* and ``> 0`` at *hi* (``inf`` allowed)."""
    # Past the tail bound the sum keeps the sign of its limit c; the
    # margin keeps it strictly positive there despite rounding.
    bound = np.log(c / (np.abs(w).sum(axis=0) * (1.0 + _NOISE))) / lam[0]
    hi = np.where(c > 0.0, np.minimum(hi, np.maximum(lo, bound)), hi)
    t = np.log(-c / w[0]) / lam[0]
    t = np.where((t >= lo) & (t <= hi), t, 0.5 * (lo + hi))
    return _newton(w, lam, -c, lo, hi, t)


def _newton(w, lam, level, lo, hi, t) -> np.ndarray:
    """Safeguarded lockstep Newton for ``Σ_j w_j e^{λ_j t} = level``
    from *t* inside brackets with the sum ``≤ level`` at *lo* and
    ``> level`` at *hi*, with a lockstep-bisection fallback."""
    step = np.full_like(t, math.inf)
    for _ in range(_NEWTON_STEPS):
        terms = w * np.exp(lam * t)
        f = np.add.reduce(terms) - level
        below = f <= 0.0
        lo = np.where(below, t, lo)
        hi = np.where(below, hi, t)
        candidate = t - f / np.add.reduce(lam * terms)
        # Non-strict bounds: a candidate tying the bracket end it just
        # updated is the converged root, not an escape (NaN and ±inf
        # candidates compare False and take the midpoint).
        inside = (candidate >= lo) & (candidate <= hi)
        candidate = np.where(inside, candidate, 0.5 * (lo + hi))
        step = np.abs(candidate - t)
        t = candidate
        if (step <= 1e-15 * np.abs(t) + 1e-26).all():
            return t

    pending = step > 1e-15 * np.abs(t) + 1e-26
    shape = (w.shape[0],) + t.shape
    w = np.broadcast_to(w, shape)[:, pending]
    lam = np.broadcast_to(lam, shape)[:, pending]
    level = np.broadcast_to(level, t.shape)[pending]
    lo, hi = lo[pending], hi[pending]
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        below = np.add.reduce(w * np.exp(lam * mid)) <= level
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if (hi - lo <= 1e-15 * np.abs(hi) + 1e-26).all():
            break
    t[pending] = 0.5 * (lo + hi)
    return t


@dataclasses.dataclass(frozen=True)
class ModeSolution:
    """Closed-form solution of one mode from a given initial state.

    ``t`` is measured from the moment the mode was entered.
    """

    mode: Mode
    vn: ExpSum
    vo: ExpSum
    initial_state: tuple[float, float]

    def state_at(self, t: float) -> tuple[float, float]:
        """Return ``(V_N(t), V_O(t))``."""
        return (self.vn(t), self.vo(t))

    def states_at(self, times) -> np.ndarray:
        """Vectorized evaluation, returns shape ``(len(times), 2)``."""
        times = np.asarray(times, dtype=float)
        return np.stack([self.vn(times), self.vo(times)], axis=-1)


def _solve_coupled(constants, offset_vn: float, offset_vo: float,
                   vn0: float, vo0: float) -> tuple[ExpSum, ExpSum]:
    """Common solver for the coupled modes (1,0) and (0,0).

    The general solution (paper Sections III-C and III-E) is::

        VN(t) = offset_vn + (c1 e^{λ1 t} + c2 e^{λ2 t}) / (CN R2)
        VO(t) = offset_vo + c1 (α+β) e^{λ1 t} + c2 (α−β) e^{λ2 t}

    with ``c1, c2`` fixed by the initial conditions.
    """
    alpha, beta = constants.alpha, constants.beta
    lambda1, lambda2 = constants.lambda1, constants.lambda2
    vn_comp = constants.vn_component  # 1 / (CN R2)

    dn0 = vn0 - offset_vn
    do0 = vo0 - offset_vo
    # c1 + c2 = dn0 / vn_comp ; c1 (α+β) + c2 (α−β) = do0
    total = dn0 / vn_comp
    c1 = (do0 - total * (alpha - beta)) / (2.0 * beta)
    c2 = total - c1

    vn = ExpSum.build(offset_vn,
                      [(c1 * vn_comp, lambda1), (c2 * vn_comp, lambda2)])
    vo = ExpSum.build(offset_vo,
                      [(c1 * (alpha + beta), lambda1),
                       (c2 * (alpha - beta), lambda2)])
    return vn, vo


def solve_mode(mode: Mode, params: NorGateParameters,
               vn0: float, vo0: float) -> ModeSolution:
    """Solve one mode analytically from the initial state ``(vn0, vo0)``.

    Parameters
    ----------
    mode : Mode
        Input state of the gate during this mode.
    params : NorGateParameters
        Electrical parameters (SI units).
    vn0 : float
        Internal node voltage in volts when the mode is entered.
    vo0 : float
        Output voltage in volts when the mode is entered.

    Returns
    -------
    ModeSolution
        The closed-form node-voltage solutions (functions of time in
        seconds).
    """
    if mode is Mode.BOTH_HIGH:  # (1, 1): VN frozen, VO drains in parallel
        rate = -(1.0 / params.tau_r3 + 1.0 / params.tau_r4)
        vn = ExpSum.build(vn0, [])
        vo = ExpSum.build(0.0, [(vo0, rate)])
    elif mode is Mode.A_LOW_B_HIGH:  # (0, 1): decoupled charge/drain
        vn = ExpSum.build(params.vdd,
                          [(vn0 - params.vdd, -1.0 / params.tau_n_charge)])
        vo = ExpSum.build(0.0, [(vo0, -1.0 / params.tau_r4)])
    elif mode is Mode.A_HIGH_B_LOW:  # (1, 0): coupled drain through R3
        vn, vo = _solve_coupled(mode_10_constants(params), 0.0, 0.0,
                                vn0, vo0)
    elif mode is Mode.BOTH_LOW:  # (0, 0): coupled charge from VDD
        vn, vo = _solve_coupled(mode_00_constants(params), params.vdd,
                                params.vdd, vn0, vo0)
    else:  # pragma: no cover - exhaustive enum
        raise ParameterError(f"unknown mode {mode!r}")
    return ModeSolution(mode=mode, vn=vn, vo=vo,
                        initial_state=(float(vn0), float(vo0)))


def propagate_numeric(system: ModeSystem, state0, times) -> np.ndarray:
    """Numerically exact LTI propagation via the matrix exponential.

    Solves ``V' = A V + g`` from ``state0`` and returns the states at the
    requested ``times`` (shape ``(len(times), 2)``).  Used to cross-check
    the closed forms; the matrix of mode (1,1) is singular, so the affine
    part is handled through the standard augmented-matrix trick::

        d/dt [V; 1] = [[A, g], [0, 0]] [V; 1]
    """
    from scipy.linalg import expm
    a = system.matrix
    g = system.forcing
    augmented = np.zeros((3, 3))
    augmented[:2, :2] = a
    augmented[:2, 2] = g
    state0 = np.asarray(state0, dtype=float)
    times = np.asarray(times, dtype=float)
    out = np.empty((times.size, 2))
    extended = np.append(state0, 1.0)
    for i, t in enumerate(np.ravel(times)):
        out[i] = (expm(augmented * t) @ extended)[:2]
    return out
