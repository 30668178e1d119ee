"""Served ``delay`` envelopes, pinned byte for byte.

``data/delay_tables.json`` was written by an earlier build, before the
``delay`` handler formatted its table in one pass and the codec copied
float tuples without a call per item.  It holds
``DelayResult.to_json()`` of ``nor2``, ``nor3`` and ``nor4`` requests
at 1, 16 and 64 seeded Δ-vectors, in both directions, plus one
request per gate and direction whose offsets include ``±inf``.  The
envelope carries the delays, the echoed Δ-vectors and the rendered
``text`` table, so a changed digit anywhere shows as a changed byte.
``python tests/api/test_delay_bytes.py`` rewrites the file from the
current build.
"""

import json
import math
import pathlib

import numpy as np
import pytest

from repro.api import DelayRequest, Session

FIXTURE = pathlib.Path(__file__).parent / "data" / "delay_tables.json"

GATES = {"nor2": 2, "nor3": 3, "nor4": 4}
POINTS = (1, 16, 64)
DIRECTIONS = ("falling", "rising")


def _requests() -> dict:
    """Label -> request, seeded so every build asks the same."""
    rng = np.random.default_rng(27)
    out = {}
    for gate, width in GATES.items():
        for direction in DIRECTIONS:
            for points in POINTS:
                offsets = rng.uniform(-60e-12, 60e-12,
                                      (points, width - 1))
                out[f"{gate}/{direction}/{points}"] = DelayRequest(
                    gate=gate, direction=direction,
                    deltas=tuple(tuple(row) for row in offsets.tolist()))
            infinite = [(-math.inf,) * (width - 1),
                        (math.inf,) * (width - 1),
                        (math.inf,) + (0.0,) * (width - 2),
                        (-math.inf,) + (5e-12,) * (width - 2)]
            out[f"{gate}/{direction}/inf"] = DelayRequest(
                gate=gate, direction=direction,
                deltas=tuple(infinite))
    return out


def current() -> dict:
    """Label -> envelope text from the running build."""
    session = Session()
    return {label: session.run(request).to_json()
            for label, request in _requests().items()}


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def served() -> dict:
    return current()


def test_labels(pinned):
    assert sorted(pinned) == sorted(_requests())
    assert len(pinned) == len(GATES) * len(DIRECTIONS) * (len(POINTS) + 1)


@pytest.mark.parametrize("label", sorted(_requests()))
def test_envelope_bytes(pinned, served, label):
    assert served[label] == pinned[label]


def test_run_json_replays_the_same_bytes(pinned):
    """The in-process envelope path gives the pinned bytes too."""
    session = Session()
    for label, request in _requests().items():
        assert session.run_json(request.to_json()).to_json() == \
            pinned[label]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(current(), indent=1,
                                  sort_keys=True) + "\n")
