"""The n-input model against the transistor-level NOR3/NOR4 cells.

``paper_generalized(n)``, run through the default engine, is compared
with :func:`repro.analysis.characterization.mis_delay` on the NOR3 and
NOR4 cells that :func:`repro.spice.technology.stamp_gate` builds on the
FINFET15 card.  The grid is a small one (the full table of
``docs/multi_input.md`` comes from ``benchmarks/analog_multi_input.py``).
Measured on this grid, max |model − analog|: NOR3 4.0 ps falling /
12.8 ps rising, NOR4 2.2 / 24.6 ps.  The bounds add a margin of
1.5–3.4 ps.  The model's rising delays are too fast on every vector,
and the gap grows with stack depth.
"""

import itertools

import numpy as np
import pytest

from repro.analysis.characterization import mis_delay
from repro.core.multi_input import paper_generalized
from repro.engine import get_engine
from repro.spice.technology import FINFET15
from repro.units import PS

GRIDS = {
    3: list(itertools.product((-20, 0, 20), repeat=2)),
    4: [*itertools.product((-30, 30), repeat=3), (0, 0, 0)],
}

#: Max |model − analog| per (width, direction), seconds.
BOUNDS = {(3, "falling"): 5.5 * PS, (3, "rising"): 15.0 * PS,
          (4, "falling"): 4.0 * PS, (4, "rising"): 28.0 * PS}


@pytest.fixture(scope="module")
def errors():
    engine = get_engine()
    result = {}
    for (num_inputs, direction) in BOUNDS:
        grid = np.array(GRIDS[num_inputs], dtype=float) * PS
        params = paper_generalized(num_inputs)
        if direction == "falling":
            model = engine.delays_falling_n(params, grid)
        else:
            model = engine.delays_rising_n(params, grid)
        analog = np.array([mis_delay(FINFET15, "nor", row, direction)
                           for row in grid])
        result[num_inputs, direction] = model - analog
    return result


@pytest.mark.parametrize("key", sorted(BOUNDS))
def test_error_within_bound(errors, key):
    assert np.abs(errors[key]).max() < BOUNDS[key]


def test_rising_model_too_fast_and_worse_with_depth(errors):
    nor3, nor4 = errors[3, "rising"], errors[4, "rising"]
    assert (nor3 < 0.0).all() and (nor4 < 0.0).all()
    assert np.abs(nor4).max() > np.abs(nor3).max()
