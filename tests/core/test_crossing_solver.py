"""Property tests for the exponential-sum threshold-crossing solver.

:func:`repro.core.solutions.exp_sum_crossing` finds every batched
delay of the package: the 2-input closed forms (two exponentials) and
the n-input kernel (a constant plus up to n exponentials).  It is
tested here on synthetic rows of one to four exponentials, with and
without a constant, over finite and infinite windows, in both
directions.  The reference is an independent scalar search: a dense
scan for the first directed sign change, then plain bisection to
adjacent floats.
"""

import contextlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import solutions
from repro.core.multi_input import (CompiledNorKernel,
                                    block_from_parameters,
                                    generalized_model, paper_generalized)
from repro.core.parameters import PAPER_TABLE_I
from repro.core.solutions import (_canonical, _solve, _stationary, _values,
                                  exp_sum_crossing)
from repro.engine import blocks
from repro.errors import NoCrossingError
from repro.units import PS

#: Scan points of the reference search.
_SCAN = 16385


def _tolerance(t: float) -> float:
    """The solver's stopping rule."""
    return 1e-15 * abs(t) + 1e-26


def _terms(weights, rates, t: float) -> np.ndarray:
    return np.array([w * math.exp(r * t) for w, r in zip(weights, rates)])


def _resolution(weights, rates, level, t: float) -> float:
    """Width of the run of floats around the root *t* on which the
    computed sum rounds onto the level: every float in it is an equally
    good root, so two exact searches may land that far apart."""
    terms = _terms(weights, rates, t)
    slope = abs(float(np.dot(rates, terms)))
    return (4.0 * sys.float_info.epsilon
            * (np.abs(terms).sum() + abs(level)) / slope)


def _rising(weights, rates, level, downward):
    """The row as a scalar function that crosses zero upwards."""
    sign = -1.0 if downward else 1.0
    return lambda t: sign * (float(_terms(weights, rates, t).sum())
                             - level)


def _scan_end(weights, rates, level, window: float) -> float:
    """A finite end beyond which an infinite window holds no crossing:
    80 slowest time constants past the point where the exponentials
    shrink below the distance from the limit to the level."""
    if math.isfinite(window):
        return window
    slowest = min(abs(r) for r in rates if r != 0.0)
    limit = sum(w for w, r in zip(weights, rates) if r == 0.0) - level
    size = sum(abs(w) for w, r in zip(weights, rates) if r != 0.0)
    settle = math.log(size / abs(limit)) if size and limit else 0.0
    return (80.0 + max(settle, 0.0)) / slowest


def _bisection_root(weights, rates, level, downward, window) -> float:
    """First directed crossing by dense scan plus pure bisection (NaN
    where the scan finds none)."""
    f = _rising(weights, rates, level, downward)
    end = _scan_end(weights, rates, level, window)
    fastest = max(abs(r) for r in rates)
    grid = np.concatenate([[0.0], np.geomspace(min(1e-6 / fastest, end),
                                               end, _SCAN - 1)])
    values = np.array([f(t) for t in grid])
    hits = np.nonzero((values[:-1] <= 0.0) & (values[1:] > 0.0))[0]
    if not hits.size:
        return math.nan
    lo, hi = grid[hits[0]], grid[hits[0] + 1]
    while hi - lo > 1e-27:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


#: Coefficients and levels: zero or at least 1e-6 in magnitude, so no
#: sum underflows into subnormals, where rounding moves the root.
_coefficient = st.one_of(st.just(0.0), st.floats(1e-6, 1.0),
                         st.floats(-1.0, -1e-6))


@st.composite
def crossing_batches(draw) -> tuple:
    """A batch of rows sharing rates, level, window and direction.

    One to four exponentials with a base rate of 1e9–1e11 /s, spread
    up to 40x or nearly equal, optionally plus a constant (rate 0);
    per-row coefficients in [-1, 1].  Nearly equal rates get
    coefficients of one sign, since differences of such terms sink
    into rounding noise, where no root is defined.
    """
    count = draw(st.integers(1, 4))
    base = -10.0 ** draw(st.floats(9.0, 11.0))
    spread = draw(st.booleans())
    if spread:
        ratios = sorted(draw(st.lists(st.floats(1.5, 40.0),
                                      min_size=count - 1,
                                      max_size=count - 1, unique=True)))
        coefficient = _coefficient
    else:
        ratios = [1.0 + draw(st.sampled_from([1e-12, 1e-6])) * (i + 1)
                  for i in range(count - 1)]
        coefficient = st.floats(0.05, 1.0).map(
            lambda x, sign=draw(st.sampled_from([-1.0, 1.0])): sign * x)
    rates = [base] + [base * ratio for ratio in ratios]
    rows = draw(st.integers(1, 6))
    weights = [[draw(coefficient) for _ in range(rows)] for _ in rates]
    if draw(st.booleans()):
        rates.append(0.0)
        weights.append([draw(_coefficient) for _ in range(rows)])
    weights = np.array(weights)
    level = draw(_coefficient)
    window = draw(st.one_of(st.just(math.inf),
                            st.floats(0.1, 20.0).map(lambda x: -x / base)))
    return weights, np.array(rates), level, draw(st.booleans()), window


class TestAgainstBisection:
    @given(batch=crossing_batches())
    def test_root_matches_pure_bisection(self, batch):
        weights, rates, level, downward, window = batch
        roots = exp_sum_crossing(weights, rates, level, downward, window)
        assert roots.shape == weights.shape[1:]
        for row, root in enumerate(roots):
            args = (weights[:, row], rates, level, downward, window)
            expected = _bisection_root(*args)
            if math.isnan(expected):
                assert math.isnan(root)
                continue
            assert 0.0 <= root <= window
            bound = (_tolerance(expected)
                     + _resolution(weights[:, row], rates, level,
                                   expected))
            assert abs(root - expected) <= bound
            # A directed crossing: the sum is below the level just
            # before the root and above it just after.  Twice the bound
            # clears the rounding band on either side of the root.
            f = _rising(*args[:-1])
            gap = 2.0 * bound
            assert f(root - gap) <= 0.0 < f(root + gap)

    @given(batch=crossing_batches())
    def test_shared_and_per_row_constants_agree_bytewise(self, batch):
        weights, rates, level, downward, window = batch
        shared = exp_sum_crossing(weights, rates, level, downward, window)
        rows = weights.shape[1]
        per_row = exp_sum_crossing(
            weights, np.repeat(rates[:, None], rows, axis=1),
            np.full(rows, level), downward, np.full(rows, window))
        assert shared.tobytes() == per_row.tobytes()

    @pytest.mark.parametrize("downward", [False, True])
    def test_root_at_zero(self, downward):
        sign = -1.0 if downward else 1.0
        for weights, rates, level in (
                ([[-0.2], [-0.2]], [-1e10, -3e10], -0.4),
                ([[-0.2], [-0.2], [0.3]], [-1e10, -3e10, 0.0], -0.1)):
            root = exp_sum_crossing(sign * np.array(weights), rates,
                                    sign * level, downward)
            assert abs(root[0]) <= 1e-26


class TestGlitch:
    """A dip that crosses the level and back inside 0.02 τ, far inside
    one cell of a τ/16 sampling grid."""

    TAU = 10e-12

    def _row(self):
        # f − 0.4 = −(x − x1)(x − x2)(x − x3) in x = e^{−t/τ}: zeros at
        # 1.00 τ (up), 1.02 τ (down) and 3.0 τ (up).
        x1, x2, x3 = math.exp(-1.0), math.exp(-1.02), math.exp(-3.0)
        weights = np.array([0.4 + x1 * x2 * x3,
                            -(x1 * x2 + x1 * x3 + x2 * x3),
                            x1 + x2 + x3, -1.0])
        rates = np.array([0.0, -1.0, -2.0, -3.0]) / self.TAU
        return weights, rates

    @pytest.mark.parametrize("window", [math.inf, 60.0, 5.0])
    def test_every_zero_found(self, window):
        weights, rates = self._row()
        window *= self.TAU
        down = exp_sum_crossing(weights[:, None], rates, 0.4, True,
                                window)[0]
        up = exp_sum_crossing(weights[:, None], rates, 0.4, False,
                              window)[0]
        expected = 1.02 * self.TAU
        # The two close zeros make the row flat: one rounding unit of
        # the sum is ~3e-13 of t at 1.02 τ, above the 1e-15 stopping rule.
        assert abs(down - expected) <= (
            _tolerance(expected)
            + _resolution(weights, rates, 0.4, expected))
        assert abs(up - self.TAU) <= (
            _tolerance(self.TAU)
            + _resolution(weights, rates, 0.4, self.TAU))


class TestSafeguards:
    #: g(t) = −e^{−1e9 t} rises through −1/2 at ln 2 / 1e9, but the
    #: slow rate carries no term: the closed-form bracket is six
    #: decades wide and the asymptotic guess is undefined, so every
    #: Newton candidate is ±inf or outside the bracket.
    FLAT = (np.array([[0.0], [-1.0]]), [-1e3, -1e9], -0.5)

    def test_degenerate_newton_finishes_in_bisection(self, monkeypatch):
        exact = math.log(2.0) / 1e9
        root = exp_sum_crossing(*self.FLAT, downward=False)
        assert abs(root[0] - exact) <= _tolerance(exact)
        # Without the fallback's budget the row stays unconverged.
        monkeypatch.setattr(solutions, "_BISECT_STEPS", 0)
        unfinished = exp_sum_crossing(*self.FLAT, downward=False)
        assert abs(unfinished[0] - exact) > 1e-3 * exact

    @staticmethod
    def _with_constant(weights, rates):
        """The same rows plus a zero-weight constant term."""
        return (np.vstack([weights, np.zeros((1, weights.shape[1]))]),
                list(rates) + [0.0])

    @pytest.mark.parametrize("downward", [False, True])
    def test_row_starting_beyond_the_level_raises(self, downward):
        """NaN from the solver, with or without a constant term, and
        :class:`NoCrossingError` from the 2-input constants steps."""
        sign = -1.0 if downward else 1.0
        # Second row starts at −0.1, already past the level −0.4, and
        # rises monotonically from there.
        k = sign * np.array([-0.5, -0.05])
        rows = (np.array([k, k]), [-1e10, -3e10])
        for weights, rates in (rows, self._with_constant(*rows)):
            roots = exp_sum_crossing(weights, rates, sign * -0.4,
                                     downward)
            assert np.isfinite(roots[0]) and np.isnan(roots[1])
        with pytest.raises(NoCrossingError):
            blocks._crossing(k, k, -1e10, -3e10, sign * -0.4, downward)

    @pytest.mark.parametrize("downward", [False, True])
    def test_tail_short_of_the_level_raises(self, downward):
        sign = -1.0 if downward else 1.0
        # Rises monotonically to 0 but the level sits at +0.1.
        k = sign * np.array([-0.5])
        rows = (np.array([k, k]), [-1e10, -3e10])
        for weights, rates in (rows, self._with_constant(*rows)):
            root = exp_sum_crossing(weights, rates, sign * 0.1, downward)
            assert np.isnan(root[0])
        with pytest.raises(NoCrossingError):
            blocks._crossing(k, k, -1e10, -3e10, sign * 0.1, downward)


# ----------------------------------------------------------------------
# The previous isolation rule, kept as the differential oracle.  It
# isolated every row whose rate-ordered coefficients c, w_1, …, w_k
# change sign more than once (Descartes' rule of signs, which bounds
# the zeros on the whole real line) or whose constant is exactly zero,
# and it sent every row to the isolation, crossing or not.  Verbatim
# copies of the two functions; the helpers they call are the module's.
# ----------------------------------------------------------------------

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
    w, lam = _canonical(np.where(zero, 0.0, w), lam)
    window = np.broadcast_to(np.asarray(window, dtype=float),
                             shape).reshape(-1)
    b, g, _ = _breakpoints(c, w, lam, window)
    hit = (g[:-1] <= 0.0) & (g[1:] > 0.0)
    rows = np.nonzero(hit.any(axis=0))[0]
    out = np.full(c.shape, math.nan)
    if rows.size:
        first = np.argmax(hit[:, rows], axis=0)
        out[rows] = _solve(c[rows], w[:, rows], lam[:, rows],
                           b[first, rows], b[first + 1, rows])
    return out.reshape(shape)


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
    # A sum that settles exactly onto zero may rise above it and sink
    # back without a zero to close the piece, so it always isolates.
    signs = np.sign(np.concatenate([c[None], w]))
    rows = np.nonzero(((signs[1:] * signs[:-1] < 0.0).sum(axis=0) > 1)
                      | (c == 0.0))[0]
    if rows.size and k > 1:
        c, w, lam = c[rows], w[:, rows], lam[:, rows]
        points = np.minimum(_stationary(w, lam, window[rows]),
                            window[rows])
        b[1:k, rows] = points
        g[1:k, rows], size[1:k, rows] = _values(c, w, lam, points)
    return b, g, size


@contextlib.contextmanager
def descartes_rule():
    """Run the solver with the oracle's rule at every recursion level."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solutions, "_breakpoints", _breakpoints)
        patch.setattr(solutions, "_isolated_crossing", _isolated_crossing)
        yield


@st.composite
def differential_batches(draw) -> tuple:
    """A batch of two to six terms sharing rates, level, window and
    direction: exponentials spread up to 40x from a base rate of
    1e9–1e11 /s, terms tied to an earlier rate and constants (rate 0);
    per-row coefficients that may be zero, leaving a term absent from
    a row."""
    base = -10.0 ** draw(st.floats(9.0, 11.0))
    rates = [base]
    for _ in range(draw(st.integers(1, 5))):
        rates.append(draw(st.one_of(
            st.floats(1.5, 40.0).map(lambda x: base * x),
            st.sampled_from(tuple(rates)), st.just(0.0))))
    rows = draw(st.integers(1, 6))
    weights = np.array([[draw(_coefficient) for _ in range(rows)]
                        for _ in rates])
    level = draw(_coefficient)
    window = draw(st.one_of(st.just(math.inf),
                            st.floats(0.1, 20.0).map(lambda x: -x / base)))
    return weights, np.array(rates), level, draw(st.booleans()), window


class TestAgainstDescartesRule:
    """Laguerre's rule and the no-crossing bound find the crossings the
    oracle finds: the same rows cross, at the same roots up to the
    stopping rule (the Newton bracket may differ)."""

    @given(batch=differential_batches())
    def test_same_crossings(self, batch):
        weights, rates, level, downward, window = batch
        roots = exp_sum_crossing(weights, rates, level, downward, window)
        with descartes_rule():
            expected = exp_sum_crossing(weights, rates, level, downward,
                                        window)
        assert np.array_equal(np.isnan(roots), np.isnan(expected))
        for row in np.flatnonzero(~np.isnan(expected)):
            t = expected[row]
            bound = (2.0 * _tolerance(t)
                     + _resolution(weights[:, row], rates, level, t))
            assert abs(roots[row] - t) <= bound

    @pytest.mark.parametrize("downward", [False, True])
    def test_constant_over_an_infinite_window(self, downward):
        """The bound meets 0·inf for a zero rate over an infinite
        window.  That term was folded into the constant, so the bound
        must skip the NaN instead of dropping the row."""
        sign = -1.0 if downward else 1.0
        # 0.5 − e^{−1e10 t}, with a term absent from the row, rises
        # through 0 at ln 2 / 1e10.
        weights = sign * np.array([[0.5], [-1.0], [0.0]])
        rates = [0.0, -1e10, -3e10]
        root = exp_sum_crossing(weights, rates, 0.0, downward)
        exact = math.log(2.0) / 1e10
        assert abs(root[0] - exact) <= _tolerance(exact)
        with descartes_rule():
            assert exp_sum_crossing(weights, rates, 0.0,
                                    downward).tobytes() == root.tobytes()


@st.composite
def distinct_rate_sums(draw) -> tuple:
    """Rows of ``c + Σ_j w_j e^{λ_j t}`` with one to five distinct
    rates, slowest first as the solver orders them; coefficients of
    either sign or zero."""
    count = draw(st.integers(1, 5))
    base = -10.0 ** draw(st.floats(9.0, 11.0))
    ratios = sorted(draw(st.lists(st.floats(1.5, 40.0),
                                  min_size=count - 1, max_size=count - 1,
                                  unique=True)))
    rates = np.array([base] + [base * ratio for ratio in ratios])
    rows = draw(st.integers(1, 8))
    weights = np.array([[draw(_coefficient) for _ in range(rows)]
                        for _ in rates])
    constant = np.array([draw(_coefficient) for _ in range(rows)])
    return constant, weights, rates


class TestLaguerreRule:
    @given(rows=distinct_rate_sums())
    def test_partial_sums_bound_the_sign_changes(self, rows):
        """A fine grid out to 60 slowest time constants never sees more
        sign changes (of values beyond rounding noise) than the partial
        sums show."""
        c, w, rates = rows
        size = np.abs(c) + np.abs(w).sum(axis=0)
        bound = solutions._sign_changes(c, w, size)
        t = np.concatenate([[0.0], np.geomspace(1e-4 / abs(rates[-1]),
                                                60.0 / abs(rates[0]),
                                                4000)])
        terms = w[:, :, None] * np.exp(rates[:, None, None] * t)
        values = c[:, None] + terms.sum(axis=0)
        noise = 1e-12 * (np.abs(c)[:, None] + np.abs(terms).sum(axis=0))
        for row in range(c.size):
            signs = np.sign(values[row][np.abs(values[row]) > noise[row]])
            seen = np.count_nonzero(signs[1:] != signs[:-1])
            assert seen <= bound[row]

    @pytest.mark.parametrize("downward", [False, True])
    def test_sum_settling_onto_zero(self, downward):
        """0.5·e^{−1e10 t} − e^{−3e10 t} rises through 0 at ln 2 / 2e10
        and sinks back onto it without a second zero.  Its partial
        sums 0, 0.5, −0.5 change sign once, but the first is zero, so
        the row isolates and the piece up to the peak closes the
        crossing."""
        sign = -1.0 if downward else 1.0
        weights = sign * np.array([[0.3], [0.5], [-1.0]])
        root = exp_sum_crossing(weights, [0.0, -1e10, -3e10], sign * 0.3,
                                downward)
        exact = math.log(2.0) / 2e10
        assert abs(root[0] - exact) <= (
            _tolerance(exact)
            + _resolution(weights[:, 0], [0.0, -1e10, -3e10], 0.3, exact))

    def test_glitch_counts_three(self):
        """The glitch row's three zeros show in its partial sums; its
        coefficients change sign three times too."""
        weights, _ = TestGlitch()._row()
        c, w = np.array([weights[0] - 0.4]), weights[1:, None]
        assert solutions._sign_changes(c, w, np.abs(weights).sum()) == 3

    def test_tighter_than_the_coefficient_signs(self):
        """−0.1 + 0.5·e^{−t} − 0.3·e^{−2t}: the coefficients change sign
        twice, the partial sums −0.1, 0.4, 0.1 once, and the sum falls
        from 0.1 to its limit −0.1 through one zero."""
        c, w = np.array([-0.1]), np.array([[0.5], [-0.3]])
        assert solutions._sign_changes(c, w, np.array([0.9])) == 1
        root = exp_sum_crossing(np.array([[-0.1], [0.5], [-0.3]]),
                                [0.0, -1.0, -2.0], 0.0, downward=True)
        # 0.5·x − 0.3·x² = 0.1 at x = e^{−t} = (5 − √13) / 6.
        exact = -math.log((5.0 - math.sqrt(13.0)) / 6.0)
        assert abs(root[0] - exact) <= _tolerance(exact) + 1e-15


class TestKernelBytes:
    """The kernel's delays do not move by a bit from the oracle's."""

    #: (direction, internal_init): falling, and rising from GND, half
    #: VDD and VDD of the 0.8 V card.
    CASES = (("falling", 0.0), ("rising", 0.0), ("rising", 0.4),
             ("rising", PAPER_TABLE_I.vdd))

    @staticmethod
    def _deltas(gate: int, rows: int) -> np.ndarray:
        rng = np.random.default_rng(1000 * gate + rows)
        deltas = rng.uniform(-60.0 * PS, 60.0 * PS, (rows, gate - 1))
        deltas[1::7, 0] = math.inf
        deltas[3::11, -1] = -math.inf
        return deltas

    def _assert_same_bytes(self, kernel, deltas, sets=None):
        for direction, state in self.CASES:
            delays = kernel.evaluate(deltas, direction, state, sets)
            with descartes_rule():
                expected = kernel.evaluate(deltas, direction, state, sets)
            assert delays.tobytes() == expected.tobytes(), (direction,
                                                            state)

    @pytest.mark.parametrize("rows", [1, 64, 5000, 20000])
    @pytest.mark.parametrize("gate", [3, 4, 5])
    def test_one_set(self, gate, rows):
        self._assert_same_bytes(
            generalized_model(paper_generalized(gate)).kernel(),
            self._deltas(gate, rows))

    @pytest.mark.parametrize("gate", [3, 4, 5])
    def test_per_lane_block(self, gate):
        lanes = block_from_parameters([
            paper_generalized(gate, PAPER_TABLE_I.replace(
                r1=PAPER_TABLE_I.r1 * scale, co=PAPER_TABLE_I.co / scale))
            for scale in (0.9, 1.0, 1.15)])
        self._assert_same_bytes(CompiledNorKernel(lanes),
                                self._deltas(gate, 300),
                                np.arange(300) % 3)

    @pytest.mark.parametrize("state", [0.0, 0.4])
    def test_rising_nor4_isolates_no_row(self, monkeypatch, state):
        """No partial-sum sequence of a 20k-row NOR4 rising call changes
        sign twice, so no row reaches the root isolation.  The
        coefficient signs sent tens of thousands of rows there."""
        calls = []
        stationary = solutions._stationary
        monkeypatch.setattr(solutions, "_stationary",
                            lambda *args: calls.append(args[0].shape[1])
                            or stationary(*args))
        generalized_model(paper_generalized(4)).kernel().evaluate(
            self._deltas(4, 20000), "rising", state)
        assert calls == []
