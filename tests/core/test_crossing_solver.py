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

import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import solutions
from repro.core.solutions import exp_sum_crossing
from repro.engine import blocks
from repro.errors import NoCrossingError

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
