"""Property tests for the two-term threshold-crossing solver.

:func:`repro.engine.blocks._two_term_crossing` finds every rising
2-input delay (and the falling block kernel's first crossing), so it
is tested here on synthetic ``(k1, k2, λ1, λ2, level)`` rows whose
crossing is known to exist: in the piece before the stationary point,
after it, on a monotone sum, with a single term, with near-equal
rates, and exactly at ``t = 0`` — in both directions.  The reference
is an independent scalar search: a dense scan for the first directed
sign change, then plain bisection to adjacent floats.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import blocks
from repro.engine.blocks import _two_term_crossing
from repro.errors import NoCrossingError


def _tolerance(t: float) -> float:
    """The solver's stopping rule."""
    return 1e-15 * abs(t) + 1e-26


def _resolution(k1, k2, l1, l2, level, t: float) -> float:
    """Width of the run of floats around the root *t* on which the
    computed sum rounds onto the level: every float in it is an equally
    good root, so two exact searches may land that far apart."""
    a, b = k1 * math.exp(l1 * t), k2 * math.exp(l2 * t)
    return (4.0 * sys.float_info.epsilon
            * (abs(a) + abs(b) + abs(level)) / abs(l1 * a + l2 * b))


def _rising(k1, k2, l1, l2, level, downward):
    """The row as a scalar function that crosses zero upwards."""
    sign = -1.0 if downward else 1.0
    return lambda t: sign * (k1 * math.exp(l1 * t)
                             + k2 * math.exp(l2 * t) - level)


def _bisection_root(k1, k2, l1, l2, level, downward) -> float:
    """First directed crossing by dense scan plus pure bisection."""
    f = _rising(k1, k2, l1, l2, level, downward)
    grid = np.concatenate([[0.0], np.geomspace(1e-4 / abs(l2),
                                               1e3 / abs(l1), 8193)])
    values = np.array([f(t) for t in grid])
    hits = np.nonzero((values[:-1] <= 0.0) & (values[1:] > 0.0))[0]
    assert hits.size, "row has no crossing"
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


#: Row shapes, in the rising form ``level < 0`` (the tail settles
#: above the level): ``monotone`` sums of two negative terms,
#: ``single`` terms, ``zero`` rows that start exactly on the level,
#: ``dip`` rows that fall to a minimum first (crossing after the
#: stationary point) and ``peak`` rows that overshoot zero (crossing
#: before it).
_ALL_KINDS = ("monotone", "single", "zero", "dip", "peak")
_NEAR_EQUAL_KINDS = ("monotone", "single", "zero")


@st.composite
def _row(draw, rho: float, level: float, kinds) -> tuple:
    """Coefficients ``(k1, k2)`` of one row with a guaranteed upward
    crossing of *level* (< 0) for rates ``λ2 = ρ·λ1``."""
    kind = draw(st.sampled_from(kinds))
    size = abs(level)
    fraction = st.floats(0.05, 0.95)
    if kind == "zero":
        return draw(st.sampled_from([(level, 0.0), (0.0, level),
                                     (0.5 * level, 0.5 * level)]))
    if kind in ("monotone", "single"):
        start = level * (1.0 + draw(st.floats(0.05, 3.0)))
        split = (draw(st.sampled_from([0.0, 1.0])) if kind == "single"
                 else draw(fraction))
        return start * split, start * (1.0 - split)
    if kind == "dip":
        slow = size / (1.0 - 1.0 / rho) * (1.0 + draw(st.floats(0.1, 3.0)))
        fast = slow / rho + draw(fraction) * (slow - size - slow / rho)
        return -slow, fast
    slow = draw(st.floats(0.1, 3.0)) * size
    return slow, level - slow - draw(st.floats(0.05, 2.0)) * size


@st.composite
def crossing_batches(draw) -> tuple:
    """A batch sharing ``(λ1, λ2, level)`` with per-row coefficients."""
    l1 = -10.0 ** draw(st.floats(9.0, 11.0))
    near_equal = draw(st.booleans())
    rho = (draw(st.sampled_from([1.0 + 1e-12, 1.0 + 1e-6]))
           if near_equal else draw(st.floats(1.5, 40.0)))
    level = -draw(st.floats(0.05, 1.0))
    kinds = _NEAR_EQUAL_KINDS if near_equal else _ALL_KINDS
    rows = draw(st.lists(_row(rho, level, kinds), min_size=1,
                         max_size=8))
    k1, k2 = (np.array(column) for column in zip(*rows))
    downward = draw(st.booleans())
    if downward:  # mirror the rows: a falling sum crossing down
        k1, k2, level = -k1, -k2, -level
    return k1, k2, l1, rho * l1, level, downward


class TestAgainstBisection:
    @given(batch=crossing_batches())
    def test_root_matches_pure_bisection(self, batch):
        k1, k2, l1, l2, level, downward = batch
        roots = _two_term_crossing(k1, k2, l1, l2, level, downward)
        assert roots.shape == k1.shape
        for row, root in enumerate(roots):
            args = (k1[row], k2[row], l1, l2, level, downward)
            expected = _bisection_root(*args)
            assert abs(root - expected) <= (
                _tolerance(expected)
                + _resolution(*args[:-1], expected))
            f = _rising(*args)
            gap = 1e-9 * abs(root) + 1e-22
            assert f(root - gap) <= 0.0 < f(root + gap)

    @given(batch=crossing_batches())
    def test_shared_and_per_row_constants_agree_bytewise(self, batch):
        k1, k2, l1, l2, level, downward = batch
        shared = _two_term_crossing(k1, k2, l1, l2, level, downward)
        rows = k1.shape
        per_row = _two_term_crossing(k1, k2, np.full(rows, l1),
                                     np.full(rows, l2),
                                     np.full(rows, level), downward)
        assert shared.tobytes() == per_row.tobytes()

    @pytest.mark.parametrize("downward", [False, True])
    def test_root_at_zero(self, downward):
        sign = -1.0 if downward else 1.0
        root = _two_term_crossing(sign * np.array([-0.2]),
                                  sign * np.array([-0.2]), -1e10, -3e10,
                                  sign * -0.4, downward)
        assert abs(root[0]) <= 1e-26


class TestSafeguards:
    #: g(t) = −e^{−1e9 t} rises through −1/2 at ln 2 / 1e9, but the
    #: slow rate carries no term: the closed-form bracket is six
    #: decades wide and the asymptotic guess is undefined, so every
    #: Newton candidate is ±inf or outside the bracket.
    FLAT = (np.array([0.0]), np.array([-1.0]), -1e3, -1e9, -0.5)

    def test_degenerate_newton_finishes_in_bisection(self, monkeypatch):
        exact = math.log(2.0) / 1e9
        root = _two_term_crossing(*self.FLAT, downward=False)
        assert abs(root[0] - exact) <= _tolerance(exact)
        # Without the fallback's budget the row stays unconverged.
        monkeypatch.setattr(blocks, "_BATCH_BISECT_STEPS", 0)
        unfinished = _two_term_crossing(*self.FLAT, downward=False)
        assert abs(unfinished[0] - exact) > 1e-3 * exact

    @pytest.mark.parametrize("downward", [False, True])
    def test_row_starting_beyond_the_level_raises(self, downward):
        sign = -1.0 if downward else 1.0
        # Second row starts at −0.1, already past the level −0.4.
        k1 = sign * np.array([-0.5, -0.05])
        k2 = sign * np.array([-0.5, -0.05])
        with pytest.raises(NoCrossingError):
            _two_term_crossing(k1, k2, -1e10, -3e10, sign * -0.4,
                               downward)

    @pytest.mark.parametrize("downward", [False, True])
    def test_tail_short_of_the_level_raises(self, downward):
        sign = -1.0 if downward else 1.0
        # Rises monotonically to 0 but the level sits at +0.1.
        with pytest.raises(NoCrossingError):
            _two_term_crossing(sign * np.array([-0.5]),
                               sign * np.array([-0.5]), -1e10, -3e10,
                               sign * 0.1, downward)
