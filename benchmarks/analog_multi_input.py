"""The n-input model against the transistor-level NOR2/NOR3/NOR4 cells.

``paper_generalized(n)`` widens the paper's Table I to an n-input NOR
(the rail-side pMOS keeps R1, every further stage repeats R2).  This
script runs it through the default engine over a grid of sibling
offsets ``Δ_j = t_j − t_0`` and compares each delay with
:func:`repro.analysis.characterization.mis_delay` on the cell that
:func:`repro.spice.technology.stamp_gate` builds for the same width on
the FINFET15 card, in both output directions.  It prints the error
table; with ``--write`` it also puts the table into the "Analog
reference" section of ``docs/multi_input.md``.

Run:  PYTHONPATH=src python benchmarks/analog_multi_input.py [--write]
"""

import argparse
import itertools
import pathlib
import re
import time

import numpy as np

from repro.analysis.characterization import mis_delay
from repro.core.multi_input import paper_generalized
from repro.engine import get_engine
from repro.spice.technology import FINFET15
from repro.units import PS

#: Offsets per sibling axis, ps, for each gate width.
AXES = {2: (-40, -20, 0, 20, 40), 3: (-40, -20, 0, 20, 40),
        4: (-30, 0, 30)}

DOC = pathlib.Path(__file__).resolve().parents[1] / "docs" / "multi_input.md"


def compare(num_inputs, axis, direction):
    """``(model − analog delays, seconds per transient)`` on the grid."""
    grid = np.array(list(itertools.product(axis,
                                           repeat=num_inputs - 1)),
                    dtype=float) * PS
    engine = get_engine()
    params = paper_generalized(num_inputs)
    if direction == "falling":
        model = engine.delays_falling_n(params, grid)
    else:
        model = engine.delays_rising_n(params, grid)
    start = time.perf_counter()
    analog = np.array([mis_delay(FINFET15, "nor", row, direction)
                       for row in grid])
    per_transient = (time.perf_counter() - start) / len(grid)
    return model - analog, per_transient


def table() -> str:
    lines = ["| gate | direction | Δ-vectors | max abs error [ps] | "
             "model − analog [ps] | s per transient |",
             "|---|---|---|---|---|---|"]
    for num_inputs, axis in AXES.items():
        for direction in ("falling", "rising"):
            error, seconds = compare(num_inputs, axis, direction)
            error = error / PS
            lines.append(
                f"| nor{num_inputs} | {direction} | "
                f"{len(axis)}^{num_inputs - 1} = {error.size} | "
                f"{np.abs(error).max():.1f} | "
                f"{error.min():+.1f} … {error.max():+.1f} | "
                f"{seconds:.2f} |")
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="replace the table in docs/multi_input.md")
    args = parser.parse_args()
    text = table()
    print(text)
    if args.write:
        doc = DOC.read_text()
        pattern = re.compile(r"(## Analog reference\n.*?\n)\| gate .*?\n\n",
                             re.S)
        if not pattern.search(doc):
            raise SystemExit("no analog reference table in " + str(DOC))
        DOC.write_text(pattern.sub(lambda m: m.group(1) + text + "\n\n",
                                   doc, count=1))


if __name__ == "__main__":
    main()
