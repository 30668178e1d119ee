"""Runtime benchmarks: engine sweep throughput + channel overhead.

Two workloads live here:

* **Engine throughput** — a 10k-point falling+rising MIS sweep through
  every registered delay engine (:mod:`repro.engine`).  The measured
  points/second per backend are written to ``BENCH_runtime.json`` at
  the repository root so the perf trajectory can be tracked across
  PRs; the vectorized backend must stay ≥10× faster than the scalar
  reference while agreeing to ≤1e-12 s.

* **Channel overhead** (paper Section VI) — the hybrid channel vs the
  simpler channels on the same random trace.  The paper reports ~6 %
  overhead inside QuestaSim; our native-Python inertial baseline is a
  bare add-a-constant pass, so the fair statement is "same league, not
  orders of magnitude".
"""

import json
import pathlib
import sys

import pytest

from repro.analysis.accuracy import build_model_suite
from repro.analysis.experiments import (experiment_engines,
                                        experiment_runtime)
from repro.spice.technology import FINFET15
from repro.timing.tracegen import WaveformConfig, generate_traces
from repro.units import PS

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from bench_common import environment_metadata  # noqa: E402

_TRANSITIONS = 300
#: Δ grid size of the engine-throughput sweep (per direction).
_SWEEP_POINTS = 10_000
#: Machine-readable throughput record tracked across PRs.
_JSON_PATH = pathlib.Path(__file__).parents[1] / "BENCH_runtime.json"


def test_engine_sweep_throughput(benchmark, write_result):
    """10k-point MIS sweep: reference vs vectorized, JSON record."""
    result = benchmark.pedantic(
        lambda: experiment_engines(points=_SWEEP_POINTS, repeats=3),
        rounds=1, iterations=1)
    write_result("engines", result.text)

    payload = {
        "workload": "falling+rising MIS sweep",
        "sweep_points": result.points,
        "backends": {
            name: {
                "sweep_seconds": result.seconds[name],
                "points_per_second": result.points_per_second[name],
            }
            for name in sorted(result.seconds)
        },
        "speedup_vectorized_vs_reference": result.speedup,
        "max_abs_difference_seconds": result.max_abs_difference,
        "environment": environment_metadata(),
    }
    _JSON_PATH.write_text(json.dumps(payload, indent=2,
                                     sort_keys=True) + "\n")

    benchmark.extra_info["speedup"] = round(result.speedup, 1)
    benchmark.extra_info["vectorized_pps"] = round(
        result.points_per_second["vectorized"])
    # Acceptance: ≥10× on the 10k-point sweep, bit-tight parity.
    assert result.speedup >= 10.0
    assert result.max_abs_difference <= 1e-12


@pytest.fixture(scope="module")
def runtime_setup(request):
    characterization = request.getfixturevalue("characterization")
    toggle_fit = request.getfixturevalue("toggle_fit")
    suite = build_model_suite(characterization.targets_toggle,
                              toggle_fit.params)
    config = WaveformConfig(mu=100 * PS, sigma=50 * PS, mode="local",
                            transitions=_TRANSITIONS)
    traces = generate_traces(config, ["a", "b"], seed=5,
                             t_start=300 * PS)
    return suite, traces["a"], traces["b"]


@pytest.mark.parametrize("model_key", ["inertial", "exp",
                                       "hm_no_dmin", "hm"])
def test_channel_runtime(benchmark, runtime_setup, model_key):
    suite, trace_a, trace_b = runtime_setup
    runner = suite[model_key]
    out = benchmark(lambda: runner(trace_a, trace_b))
    assert out.initial in (0, 1)
    benchmark.extra_info["transitions"] = _TRANSITIONS


def test_runtime_report(benchmark, write_result, characterization,
                        toggle_fit):
    """Aggregate overhead table (the paper's ~6 % claim)."""
    result = benchmark.pedantic(
        lambda: experiment_runtime(FINFET15, transitions=_TRANSITIONS,
                                   repeats=3,
                                   characterization=characterization,
                                   fit=toggle_fit),
        rounds=1, iterations=1)
    write_result("runtime", result.text)
    for key, overhead in result.overhead_vs_inertial.items():
        benchmark.extra_info[f"overhead_{key}_pct"] = round(
            100 * overhead, 1)
    # The hybrid channel must stay within a small constant factor of
    # the simplest channel.  The paper reports +6 % — but there the
    # baseline includes the whole QuestaSim event loop; our inertial
    # baseline is a bare add-a-constant pass, so the fair statement is
    # "same league, not orders of magnitude" (about 20x here, i.e.
    # ~20 us vs ~1 us per transition).
    assert result.seconds["hm"] < 60 * result.seconds["inertial"]
