"""n-input NOR benchmarks: Δ-vector batch speedup + MIS landscape.

Two records are produced:

* ``benchmarks/results/multi_input.txt`` — the rendered
  :func:`repro.analysis.experiments.experiment_multi_input` summary
  (n = 2 reduction, MIS landscape, batch parity);
* ``BENCH_multi_input.json`` at the repository root — wall time of a
  dense NOR3 Δ-vector grid through the batched eigen-solver against
  the scalar per-Δ-vector loop, tracked across PRs next to
  ``BENCH_runtime.json`` / ``BENCH_sta.json`` with the same schema
  (workload, per-contender seconds, speedup, parity).

Acceptance (ISSUE 4): batched n-input evaluation runs at least 10x
faster than the scalar per-Δ loop on the NOR3 grid sweep, at parity
``<= 1e-15 s``.

The module doubles as a CI smoke check::

    python benchmarks/bench_multi_input.py --smoke

runs a reduced grid (no pytest needed) and exits non-zero if parity
or the speedup machinery is broken.
"""

import argparse
import json
import pathlib
import sys
import time

import numpy as np

from repro.analysis.experiments import experiment_multi_input
from repro.api import Session
from repro.core.multi_input import delta_vector_grid

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from bench_common import repeat_median  # noqa: E402

#: ISSUE acceptance: batched vs scalar on the full grid.
_SPEEDUP_FLOOR = 10.0
#: Batched-vs-scalar agreement bound (both are exact solvers).
_PARITY_TOL = 1e-15
#: Machine-readable record tracked across PRs.
_JSON_PATH = pathlib.Path(__file__).parents[1] / "BENCH_multi_input.json"

#: Full / smoke per-axis grid sizes (the grid is (n−1)-dimensional).
FULL_AXIS_POINTS = 73
SMOKE_AXIS_POINTS = 21
#: Scalar probes: the full scalar grid would dominate the benchmark's
#: runtime, so the loop is timed on a subset and extrapolated per
#: point (each scalar evaluation is independent).
SCALAR_PROBES = 128


def measure_batch(axis_points: int, num_inputs: int = 3) -> dict:
    """Time the batched Δ-vector sweep against the scalar loop.

    Returns the ``BENCH_multi_input.json`` payload (seconds,
    speedup, and the parity of the two solvers on the probed rows).
    """
    session = Session(engine="vectorized")
    params = session.generalized(num_inputs)
    rows = delta_vector_grid(params, axis_points)

    vectorized = session.engine
    reference = Session(engine="reference").engine
    # Warm the per-(params, input-state) eigendecomposition caches:
    # steady-state throughput is the quantity of interest.
    vectorized.delays_falling_n(params, rows[:2])
    reference.delays_falling_n(params, rows[:2])

    start = time.perf_counter()
    batched = vectorized.delays_falling_n(params, rows)
    batched_rise = vectorized.delays_rising_n(params, rows)
    batched_s = time.perf_counter() - start

    probes = min(SCALAR_PROBES, rows.shape[0])
    start = time.perf_counter()
    scalar = reference.delays_falling_n(params, rows[:probes])
    scalar_rise = reference.delays_rising_n(params, rows[:probes])
    scalar_probe_s = time.perf_counter() - start
    scalar_s = scalar_probe_s * (rows.shape[0] / probes)

    parity = max(
        float(np.max(np.abs(batched[:probes] - scalar))),
        float(np.max(np.abs(batched_rise[:probes] - scalar_rise))))

    return {
        "workload": f"NOR{num_inputs} Δ-vector grid sweep (falling "
                    "+ rising, batched eigen-solver vs scalar "
                    "per-Δ-vector loop)",
        "grid_vectors": int(rows.shape[0]),
        "scalar_probes": int(probes),
        "batched_seconds": batched_s,
        "scalar_seconds": scalar_s,
        "speedup": scalar_s / batched_s,
        "vectors_per_second_batched": 2.0 * rows.shape[0] / batched_s,
        "parity_s": parity,
    }


def test_multi_input_record(benchmark, write_result):
    """Rendered n-input generalization record (landscape + parity)."""
    result = benchmark.pedantic(experiment_multi_input, rounds=1,
                                iterations=1)
    write_result("multi_input", result.text)
    benchmark.extra_info["reduction_error_s"] = result.reduction_error
    assert result.reduction_error <= 1e-12
    assert result.batch_error <= _PARITY_TOL


def test_multi_input_batch_speedup(benchmark, write_result):
    """Dense NOR3 Δ-grid: batched vs scalar loop (>= 10x)."""
    payload = benchmark.pedantic(
        lambda: repeat_median(
            lambda: measure_batch(FULL_AXIS_POINTS),
            "batched_seconds", repeats=3),
        rounds=1, iterations=1)
    _JSON_PATH.write_text(json.dumps(payload, indent=2,
                                     sort_keys=True) + "\n")
    benchmark.extra_info["speedup"] = round(payload["speedup"], 1)
    assert payload["parity_s"] <= _PARITY_TOL
    assert payload["speedup"] >= _SPEEDUP_FLOOR


def main(argv=None) -> int:
    """Script entry point (CI smoke mode without pytest)."""
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help=f"reduced grid ({SMOKE_AXIS_POINTS}^2 "
                             "Δ-vectors) for fast CI checks")
    parser.add_argument("--axis-points", type=int, default=None,
                        help="override the per-axis grid size")
    parser.add_argument("--repeats", type=int, default=1,
                        help="timed runs; the median (by batched "
                             "wall time) is recorded (default 1)")
    args = parser.parse_args(argv)
    axis_points = args.axis_points or (
        SMOKE_AXIS_POINTS if args.smoke else FULL_AXIS_POINTS)
    payload = repeat_median(lambda: measure_batch(axis_points),
                            "batched_seconds", repeats=args.repeats)
    _JSON_PATH.write_text(json.dumps(payload, indent=2,
                                     sort_keys=True) + "\n")
    print(f"{payload['grid_vectors']} Δ-vectors: batched "
          f"{payload['batched_seconds'] * 1e3:.1f} ms, scalar "
          f"{payload['scalar_seconds'] * 1e3:.1f} ms "
          f"({payload['scalar_probes']} probes extrapolated), "
          f"speedup {payload['speedup']:.1f}x, parity "
          f"{payload['parity_s']:.2e} s")
    print(f"wrote {_JSON_PATH}")
    if payload["parity_s"] > _PARITY_TOL:
        print("FAIL: batched/scalar parity broken", file=sys.stderr)
        return 1
    floor = 2.0 if (args.smoke
                    or axis_points < FULL_AXIS_POINTS) \
        else _SPEEDUP_FLOOR
    if payload["speedup"] < floor:
        print(f"FAIL: speedup {payload['speedup']:.1f}x below "
              f"{floor}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
