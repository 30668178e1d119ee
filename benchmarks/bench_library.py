"""Library-characterization benchmarks: throughput + table accuracy.

The workload is the ROADMAP's batch scenario: a grid of (gate,
parameter-variant) characterization jobs swept through each delay
engine.  Two records are produced:

* ``benchmarks/results/library.txt`` — the rendered accuracy table of
  :func:`repro.analysis.experiments.experiment_library`;
* ``BENCH_library.json`` at the repository root — per-backend wall
  time and cells/second for the same job grid, tracked across PRs
  next to ``BENCH_runtime.json``.

Acceptance: every characterized table must reproduce direct
``vectorized`` evaluation to <= 0.1 ps across the characterized Δ
range, and the ``vectorized`` backend must beat the scalar
``reference`` backend on the grid.
"""

import json
import pathlib
import sys
import time

from repro.analysis.experiments import experiment_library
from repro.api import Session
from repro.engine import get_engine
from repro.library import characterize_library, paper_jobs
from repro.units import PS

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from bench_common import environment_metadata  # noqa: E402

#: ISSUE acceptance bound for table-vs-direct interpolation error.
_ACCURACY_TOL = 0.1 * PS
#: Machine-readable throughput record tracked across PRs.
_JSON_PATH = pathlib.Path(__file__).parents[1] / "BENCH_library.json"


def _time_characterization(engine) -> float:
    jobs = paper_jobs()
    start = time.perf_counter()
    characterize_library(jobs, engine=engine)
    return time.perf_counter() - start


def test_library_accuracy_report(benchmark, write_result):
    """Accuracy of every characterized table vs direct evaluation."""
    session = Session()
    result = benchmark.pedantic(
        lambda: experiment_library(params=session.parameters,
                                   engine=session.engine),
        rounds=1, iterations=1)
    write_result("library", result.text)
    worst = max(accuracy.max_error for accuracy in result.accuracies)
    benchmark.extra_info["worst_error_fs"] = round(worst / 1e-15, 2)
    assert worst <= _ACCURACY_TOL


def test_library_backend_throughput(benchmark, write_result):
    """Per-backend characterization wall time, JSON record."""
    backends = {name: get_engine(name)
                for name in ("vectorized", "reference")}
    # Warm per-parameter caches so the record reflects steady-state
    # throughput.
    for backend in backends.values():
        characterize_library(paper_jobs()[:1], engine=backend)

    def run_all() -> dict[str, float]:
        return {name: _time_characterization(backend)
                for name, backend in backends.items()}

    seconds = benchmark.pedantic(run_all, rounds=1, iterations=1)

    cells = len(paper_jobs())
    payload = {
        "workload": "gate-library characterization "
                    "(4 cells x 2 directions x default grids)",
        "cells": cells,
        "backends": {
            name: {
                "seconds": elapsed,
                "cells_per_second": cells / elapsed,
            }
            for name, elapsed in sorted(seconds.items())
        },
        "speedup_vectorized_vs_reference":
            seconds["reference"] / seconds["vectorized"],
        "environment": environment_metadata(),
    }
    _JSON_PATH.write_text(json.dumps(payload, indent=2,
                                     sort_keys=True) + "\n")
    for name, elapsed in seconds.items():
        benchmark.extra_info[f"{name}_seconds"] = round(elapsed, 4)

    # The batched backend must beat the scalar reference outright.
    assert seconds["vectorized"] < seconds["reference"]
