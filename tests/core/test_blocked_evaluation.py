"""Large engine calls run in fixed-size blocks.

Every delay of the model depends on its own Δ row alone, so the
``vectorized`` engine evaluates a large call block by block: the
n-input kernel in blocks of ``_BLOCK_ROWS`` Δ-vector rows, the
2-input Δ evaluations in near-equal tiles of ``_FALLING_TILE`` /
``_RISING_TILE`` to about twice as many elements.  A call's
temporaries then stay the size of one block, and a call that fits in
one block runs as it always has.

Here a blocked call must equal the concatenation of calls on its
blocks, byte for byte, at sizes around every block boundary, and agree
with the scalar ``reference`` engine within 1e-12 s at sampled rows.
A call's traced peak stays under a fixed ceiling: without blocks, a
10⁶-point rising sweep peaked at ~190 MB for an 8 MB result.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import multi_input
from repro.core.multi_input import paper_generalized
from repro.core.parameters import PAPER_TABLE_I
from repro.engine import blocks, get_engine
from repro.stats import ParameterDistribution
from repro.units import PS

VECTORIZED = get_engine("vectorized")
REFERENCE = get_engine("reference")
PARITY = 1e-12

TILES = {"falling": blocks._FALLING_TILE, "rising": blocks._RISING_TILE}
ROWS = multi_input._BLOCK_ROWS

#: Rising calls run from a discharged and from a charged stack node.
RUNS = [("falling", 0.0), ("rising", 0.0), ("rising", 0.4)]


def _around(size: int) -> list:
    """Sizes just below, at and above one block, and past two."""
    return [size - 1, size, size + 1, 2 * size + 3]


def _around_tile(size: int) -> list:
    """Sizes around a tile's least size, and around the first split
    into two tiles at twice that."""
    return [size - 1, size, size + 1, 2 * size - 1, 2 * size,
            2 * size + 3]


def _edges(length: int, least: int) -> list:
    """Tile edges along one axis: ``length // least`` near-equal parts,
    at least one."""
    count = max(length // least, 1)
    return [length * k // count for k in range(count + 1)]


def _deltas(shape, boundary: int, seed: int, span: float = 60 * PS
            ) -> np.ndarray:
    """Seeded Δ values, ``±inf`` at both ends and on both sides of the
    first block *boundary*, a flat index."""
    d = np.random.default_rng(seed).uniform(-span, span, shape)
    for index, value in ((0, -np.inf), (boundary - 1, np.inf),
                         (boundary, -np.inf), (d.size - 1, np.inf)):
        if index < d.size:
            d.flat[index] = value
    return d


def _sampled(count: int, boundary: int) -> np.ndarray:
    """Rows to check against the reference: both ends and both sides
    of the first block boundary."""
    rows = {0, boundary - 1, boundary, boundary + 1, count - 1}
    return np.array(sorted(row for row in rows if 0 <= row < count))


def _same_bytes(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _engine_call(engine, direction, params, deltas, state, suffix=""):
    method = getattr(engine, f"delays_{direction}{suffix}")
    if direction == "falling":
        return method(params, deltas)
    return method(params, deltas, state)


# ----------------------------------------------------------------------
# 2-input sweeps: tiles are pieces of the one Δ row
# ----------------------------------------------------------------------

@pytest.mark.parametrize("direction, state", RUNS)
@pytest.mark.parametrize("size_index", range(6))
def test_pair_call_is_its_tiles(direction, state, size_index):
    tile = TILES[direction]
    size = _around_tile(tile)[size_index]
    edges = _edges(size, tile)
    d = _deltas(size, edges[1], seed=size_index)
    got = _engine_call(VECTORIZED, direction, PAPER_TABLE_I, d, state)
    pieces = [_engine_call(VECTORIZED, direction, PAPER_TABLE_I,
                           d[start:stop], state)
              for start, stop in zip(edges, edges[1:])]
    assert len(pieces) == (2 if size >= 2 * tile else 1)
    assert _same_bytes(got, np.concatenate(pieces))
    rows = _sampled(size, edges[1])
    expected = _engine_call(REFERENCE, direction, PAPER_TABLE_I,
                            d[rows], state)
    assert np.max(np.abs(got[rows] - expected)) <= PARITY


# ----------------------------------------------------------------------
# 2-input sample blocks: tiles of whole rows, or pieces of one row
# ----------------------------------------------------------------------

DISTRIBUTION = ParameterDistribution(
    PAPER_TABLE_I, {name: 0.05 for name in ("r1", "r3", "co")})


def _tiles(rows: int, cols: int, least: int) -> list:
    """The tiles of an ``(N, M)`` evaluation: near-equal bands of whole
    rows while a row is shorter than *least*, else near-equal pieces of
    one row."""
    tall = _edges(rows, -(-least // cols))
    wide = _edges(cols, least)
    return [(slice(top, bottom), slice(left, right))
            for top, bottom in zip(tall, tall[1:])
            for left, right in zip(wide, wide[1:])]


def _rows_of(constants, band: slice):
    return constants._make(
        value[band] if isinstance(value, np.ndarray) else value
        for value in constants)


def _check_block(direction, state, records, cols, seed):
    tile = TILES[direction]
    tiles = _tiles(records, cols, tile)
    block = DISTRIBUTION.sample_block(records, seed)
    band, span = tiles[1] if len(tiles) > 1 else tiles[0]
    d = _deltas((records, cols), band.start * cols + span.start, seed)
    states = (state if direction == "falling"
              else np.linspace(0.0, state, records))
    got = _engine_call(VECTORIZED, direction, block, d, states, "_block")

    # The blocked Δ evaluation is its tiles' evaluations, each against
    # the rows of the constants it covers.
    if direction == "falling":
        constants, evaluate = (blocks.falling_constants(block),
                               blocks.falling_delays)
    else:
        constants, evaluate = (blocks.rising_constants(block, states),
                               blocks.rising_delays)
    expected = np.empty_like(d)
    for band, span in tiles:
        expected[band, span] = evaluate(_rows_of(constants, band),
                                        d[band, span])
    assert _same_bytes(got, expected)

    rows = _sampled(records, tiles[-1][0].start or 1)[:3]
    picks = np.array([0, cols // 2, cols - 1])
    reference = _engine_call(
        REFERENCE, direction, block[rows], d[np.ix_(rows, picks)],
        states if direction == "falling" else states[rows], "_block")
    assert (np.max(np.abs(got[np.ix_(rows, picks)] - reference))
            <= PARITY)


@pytest.mark.parametrize("direction, state", RUNS)
@pytest.mark.parametrize("size_index", range(6))
def test_block_rows_longer_than_a_tile(direction, state, size_index):
    """Two records whose Δ rows alone reach a tile's least size."""
    cols = _around_tile(TILES[direction])[size_index]
    _check_block(direction, state, 2, cols, seed=10 + size_index)


@pytest.mark.parametrize("direction, state", RUNS)
@pytest.mark.parametrize("size_index", range(6))
def test_blocks_of_whole_rows(direction, state, size_index):
    """1,024 Δ per record, so a tile holds whole records and its size
    is counted in records."""
    records = _around_tile(TILES[direction] // 1024)[size_index]
    _check_block(direction, state, records, 1024, seed=20 + size_index)


def test_pair_call_is_a_one_record_block():
    """Blocked sweeps keep returning a one-record block's bytes."""
    d = _deltas(2 * TILES["rising"] + 3, TILES["rising"], seed=30)
    block = blocks.block_from_parameters(PAPER_TABLE_I)
    assert _same_bytes(VECTORIZED.delays_rising(PAPER_TABLE_I, d, 0.4),
                       VECTORIZED.delays_rising_block(block, d[None],
                                                      0.4)[0])


# ----------------------------------------------------------------------
# n-input calls: blocks of Δ-vector rows
# ----------------------------------------------------------------------

def _row_blocks(rows: int) -> list:
    """Block edges of a kernel evaluation of *rows* Δ-vectors."""
    return list(range(0, rows, ROWS)) + [rows]


@pytest.mark.parametrize("direction, state", RUNS)
@pytest.mark.parametrize("gate", [3, 4])
@pytest.mark.parametrize("size", _around(ROWS))
def test_n_input_call_is_its_blocks(direction, state, gate, size):
    params = paper_generalized(gate)
    edges = _row_blocks(size)
    d = _deltas((size, gate - 1), edges[1] * (gate - 1), seed=size,
                span=40 * PS)
    got = _engine_call(VECTORIZED, direction, params, d, state, "_n")
    pieces = [_engine_call(VECTORIZED, direction, params,
                           d[start:stop], state, "_n")
              for start, stop in zip(edges, edges[1:])]
    assert _same_bytes(got, np.concatenate(pieces))
    rows = _sampled(size, edges[1])
    expected = _engine_call(REFERENCE, direction, params, d[rows],
                            state, "_n")
    assert np.max(np.abs(got[rows] - expected)) <= PARITY


def test_grid_shape_spans_blocks():
    """A Δ-vector grid is blocked on its flattened rows."""
    params = paper_generalized(3)
    d = _deltas((2 * ROWS + 3, 2), 2 * ROWS, seed=50, span=40 * PS)
    flat = VECTORIZED.delays_rising_n(params, d, 0.4)
    grid = VECTORIZED.delays_rising_n(params, d.reshape(5, -1, 2), 0.4)
    assert _same_bytes(grid, flat.reshape(5, -1))


@pytest.mark.parametrize("direction, state", RUNS)
@pytest.mark.parametrize("size", _around(ROWS))
def test_per_lane_sets_change_across_blocks(direction, state, size):
    """One parameter set per lane, drawn from three, with the set
    changing between the last row of a block and the first of the
    next."""
    edges = _row_blocks(size)
    choice = np.random.default_rng(size).integers(0, 3, size)
    if len(edges) > 2:
        choice[edges[1] - 1:edges[1] + 1] = (0, 1)
    lanes = paper_generalized(4, DISTRIBUTION.sample_block(3, 7)[choice])
    d = _deltas((size, 3), 3 * edges[1], seed=size + 1, span=40 * PS)
    got = _engine_call(VECTORIZED, direction, lanes, d, state, "_n")
    pieces = [_engine_call(VECTORIZED, direction, lanes[start:stop],
                           d[start:stop], state, "_n")
              for start, stop in zip(edges, edges[1:])]
    assert _same_bytes(got, np.concatenate(pieces))
    rows = _sampled(size, edges[1])
    expected = _engine_call(REFERENCE, direction, lanes[rows], d[rows],
                            state, "_n")
    assert np.max(np.abs(got[rows] - expected)) <= PARITY


# ----------------------------------------------------------------------
# bounded transient memory
# ----------------------------------------------------------------------

#: Traced peak of one large call, its result included.  Blocked, the
#: calls below peak at 7–10 MB on NumPy 2.4 (the 10⁶-point result
#: alone is 8 MB); evaluated whole they peaked at 180–240 MB.
CEILING_BYTES = 24e6


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case", ["nor2 rising 10^6 points",
                                  "nor3 rising 2x10^5 rows",
                                  "nor4 falling 2x10^5 rows"])
def test_transient_memory_is_bounded(case):
    gate, direction = int(case[3]), case.split()[1]
    rng = np.random.default_rng(80)
    if gate == 2:
        d = rng.uniform(-60 * PS, 60 * PS, 10 ** 6)
        params, suffix = PAPER_TABLE_I, ""
    else:
        d = rng.uniform(-40 * PS, 40 * PS, (2 * 10 ** 5, gate - 1))
        params, suffix = paper_generalized(gate), "_n"
    # Kernels and memoized constants are built before tracing starts.
    _engine_call(VECTORIZED, direction, params, d[:4], 0.0, suffix)
    peak = _peak_bytes(lambda: _engine_call(VECTORIZED, direction,
                                            params, d, 0.0, suffix))
    assert peak < CEILING_BYTES, f"{case}: peak {peak / 1e6:.1f} MB"
