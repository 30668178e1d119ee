"""Shared fixtures for the benchmark harness.

Every benchmark regenerates the paper's table or figure its file is
named after (``bench_fig4.py``: Fig. 4).  The rendered rows are
written to ``benchmarks/results/<name>.txt`` so that a benchmark run
leaves the full paper-vs-measured record on disk, and key numbers are
attached to the pytest-benchmark ``extra_info`` of each timing.

Workload sizes follow the paper where that is affordable and are
reduced otherwise; the environment variables

* ``REPRO_BENCH_TRANSITIONS`` (default 60; paper: 500/250)
* ``REPRO_BENCH_REPETITIONS`` (default 2; paper: 20)

scale the Fig. 7 study back up.
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Fig. 7 workload scaling (paper: 500/250 transitions, 20 repetitions).
BENCH_TRANSITIONS = int(os.environ.get("REPRO_BENCH_TRANSITIONS", "60"))
BENCH_REPETITIONS = int(os.environ.get("REPRO_BENCH_REPETITIONS", "2"))


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def write_result(results_dir):
    """Callable that stores a rendered experiment next to the bench."""

    def write(name: str, text: str) -> None:
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return write


@pytest.fixture(scope="session")
def characterization():
    """Full-fidelity analog characterization of the 15 nm NOR (Fig. 2).

    Shared across benches; the per-figure benchmarks time their own
    kernels, not this fixture.
    """
    from repro.analysis.characterization import characterize_nor
    from repro.spice.technology import FINFET15

    return characterize_nor(FINFET15)


@pytest.fixture(scope="session")
def delta_fit(characterization):
    """Δ-protocol fit (Table I convention)."""
    from repro.analysis.fitting import fit_from_characterization

    return fit_from_characterization(characterization)


@pytest.fixture(scope="session")
def toggle_fit(characterization):
    """Toggle-protocol fit (Fig. 7's 'empirically optimal' route)."""
    from repro.analysis.fitting import fit_from_characterization

    return fit_from_characterization(characterization,
                                     protocol="toggle")
