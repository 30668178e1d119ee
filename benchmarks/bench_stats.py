"""Statistical-delay benchmarks: MC throughput + surrogate payoff.

Produces ``BENCH_stats.json`` at the repository root with two
sections, tracked across PRs next to the other ``BENCH_*.json``
records:

* **Monte-Carlo throughput** — samples/second of the vectorized
  sampling path (N samples x M Δ-points flattened into one block-
  kernel engine call, :func:`repro.stats.sample_delays`) against the
  honest scalar baseline: one engine Δ-sweep call per sampled
  parameter set (:func:`repro.engine.blocks.block_delays_loop`).
  Acceptance (ISSUE 9): the vectorized path sustains >= 50x the
  scalar-loop samples/second.
* **Surrogate payoff** — the collocation surrogate's model-
  evaluation count vs the reference MC sample count, and its
  relative mean/σ error against a same-seed MC (shared draws, so
  sampling noise cancels and the comparison isolates approximation
  error).  Acceptance: <= 1 % relative moment error at >= 20x fewer
  model evaluations.

The module doubles as a CI smoke check::

    python benchmarks/bench_stats.py --smoke

runs reduced sample counts (no pytest needed) and exits non-zero if
parity, the speedup floor, or the surrogate accuracy is broken.
"""

import argparse
import json
import pathlib
import sys
import time

import numpy as np

from repro.core.parameters import PAPER_TABLE_I
from repro.engine import get_engine
from repro.engine.blocks import block_delays_loop
from repro.stats import (ParameterDistribution, fit_surrogate,
                         monte_carlo, quantize, sample_delays)
from repro.units import PS

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from bench_common import environment_metadata, repeat_median  # noqa: E402

#: ISSUE acceptance: vectorized vs scalar-loop samples/second.
_SPEEDUP_FLOOR = 50.0
#: ISSUE acceptance: surrogate relative moment error vs same-seed MC.
_MOMENT_TOL = 0.01
#: ISSUE acceptance: MC-samples / surrogate-design-points ratio.
_SAMPLE_RATIO_FLOOR = 20.0
#: Machine-readable record tracked across PRs.
_JSON_PATH = pathlib.Path(__file__).parents[1] / "BENCH_stats.json"

#: Full / smoke Monte-Carlo sample counts (throughput section).
FULL_SAMPLES = 4096
SMOKE_SAMPLES = 256
#: Reference MC size of the surrogate-accuracy section.
FULL_MC = 10000
SMOKE_MC = 3000

#: The benchmark distribution: all six R/C parameters at 8 %
#: relative lognormal spread around the paper's Table I fit.
_DISTRIBUTION = ParameterDistribution(
    PAPER_TABLE_I,
    {name: 0.08 for name in ("r1", "r2", "r3", "r4", "cn", "co")})
#: Δ grid spanning both falling branches (negative / zero / positive
#: separation).
_DELTAS = (-20.0 * PS, 0.0, 20.0 * PS)


def measure_throughput(samples: int, seed: int = 7) -> dict:
    """Time vectorized MC sampling against the scalar per-sample loop.

    Both paths evaluate the identical sample block on the identical
    Δ grid; parity of the quantized matrices is part of the payload.
    """
    engine = get_engine()
    deltas = np.asarray(_DELTAS)
    block = _DISTRIBUTION.sample_block(samples, seed)
    grid = np.broadcast_to(deltas, (samples, deltas.shape[0]))
    # Warm the compiled-kernel/eigen caches out of the timed region.
    sample_delays(_DISTRIBUTION, deltas, samples=8, seed=seed)

    start = time.perf_counter()
    fast = sample_delays(_DISTRIBUTION, deltas, samples=samples,
                         seed=seed)
    vectorized_s = time.perf_counter() - start

    start = time.perf_counter()
    slow = quantize(block_delays_loop(engine, "falling", block, grid))
    scalar_s = time.perf_counter() - start

    return {
        "samples": samples,
        "points": len(_DELTAS),
        "vectorized_seconds": vectorized_s,
        "scalar_seconds": scalar_s,
        "samples_per_second_vectorized": samples / vectorized_s,
        "samples_per_second_scalar": samples / scalar_s,
        "speedup": scalar_s / vectorized_s,
        "parity": bool(np.array_equal(fast, slow)),
    }


def measure_surrogate(mc_samples: int, seed: int = 7) -> dict:
    """Fit the collocation surrogate and score it against a
    same-seed reference MC (shared draws: noise cancels)."""
    start = time.perf_counter()
    reference = monte_carlo(_DISTRIBUTION, _DELTAS,
                            samples=mc_samples, seed=seed)
    mc_s = time.perf_counter() - start

    start = time.perf_counter()
    surrogate = fit_surrogate(_DISTRIBUTION, _DELTAS)
    fit_s = time.perf_counter() - start
    summary = surrogate.summarize(samples=mc_samples, seed=seed)

    mean_err = float(np.max(np.abs(summary.mean - reference.mean)
                            / reference.mean))
    std_err = float(np.max(np.abs(summary.std - reference.std)
                           / reference.std))
    return {
        "mc_samples": mc_samples,
        "design_points": surrogate.design_points,
        "sample_ratio": mc_samples / surrogate.design_points,
        "mc_seconds": mc_s,
        "fit_seconds": fit_s,
        "mean_rel_error": mean_err,
        "std_rel_error": std_err,
    }


def measure(samples: int, mc_samples: int) -> dict:
    """The full ``BENCH_stats.json`` payload."""
    return {
        "workload": "statistical delay: vectorized MC sampling vs "
                    "scalar loop + collocation surrogate vs "
                    "same-seed MC (NOR2 falling, 6-parameter 8% "
                    "lognormal spread, 3 Δ-points)",
        **measure_throughput(samples),
        "surrogate": measure_surrogate(mc_samples),
        "environment": environment_metadata(),
    }


def test_stats_mc_throughput(benchmark):
    """Vectorized MC sampling >= 50x the scalar per-sample loop."""
    payload = benchmark.pedantic(
        lambda: repeat_median(
            lambda: measure_throughput(FULL_SAMPLES),
            "vectorized_seconds", repeats=3),
        rounds=1, iterations=1)
    benchmark.extra_info["speedup"] = round(payload["speedup"], 1)
    assert payload["parity"]
    assert payload["speedup"] >= _SPEEDUP_FLOOR


def test_stats_surrogate_accuracy(benchmark):
    """Surrogate moments within 1 % of a same-seed 10k MC at
    >= 20x fewer model evaluations."""
    payload = benchmark.pedantic(
        lambda: measure_surrogate(FULL_MC), rounds=1, iterations=1)
    benchmark.extra_info["sample_ratio"] = round(
        payload["sample_ratio"], 1)
    assert payload["sample_ratio"] >= _SAMPLE_RATIO_FLOOR
    assert payload["mean_rel_error"] <= _MOMENT_TOL
    assert payload["std_rel_error"] <= _MOMENT_TOL


def main(argv=None) -> int:
    """Script entry point (CI smoke mode without pytest)."""
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help=f"reduced sample counts ({SMOKE_SAMPLES}"
                             f" MC / {SMOKE_MC} reference) for fast "
                             "CI checks")
    parser.add_argument("--samples", type=int, default=None,
                        help="override the throughput sample count")
    parser.add_argument("--repeats", type=int, default=1,
                        help="timed runs; the median (by vectorized "
                             "wall time) is recorded (default 1)")
    args = parser.parse_args(argv)
    samples = args.samples or (SMOKE_SAMPLES if args.smoke
                               else FULL_SAMPLES)
    mc_samples = SMOKE_MC if args.smoke else FULL_MC
    payload = repeat_median(
        lambda: measure(samples, mc_samples),
        "vectorized_seconds", repeats=args.repeats)
    _JSON_PATH.write_text(json.dumps(payload, indent=2,
                                     sort_keys=True) + "\n")
    surrogate = payload["surrogate"]
    print(f"{samples} samples x {payload['points']} Δ: vectorized "
          f"{payload['samples_per_second_vectorized']:.0f} "
          f"samples/s, scalar "
          f"{payload['samples_per_second_scalar']:.0f} samples/s, "
          f"speedup {payload['speedup']:.1f}x, parity "
          f"{payload['parity']}")
    print(f"surrogate: {surrogate['design_points']} evaluations vs "
          f"{surrogate['mc_samples']} MC samples "
          f"({surrogate['sample_ratio']:.1f}x fewer), mean err "
          f"{surrogate['mean_rel_error'] * 100:.3f}%, std err "
          f"{surrogate['std_rel_error'] * 100:.3f}%")
    print(f"wrote {_JSON_PATH}")
    if not payload["parity"]:
        print("FAIL: vectorized/scalar sample parity broken",
              file=sys.stderr)
        return 1
    floor = 5.0 if (args.smoke or samples < FULL_SAMPLES) \
        else _SPEEDUP_FLOOR
    if payload["speedup"] < floor:
        print(f"FAIL: speedup {payload['speedup']:.1f}x below "
              f"{floor}x", file=sys.stderr)
        return 1
    if surrogate["sample_ratio"] < _SAMPLE_RATIO_FLOOR:
        print(f"FAIL: sample ratio {surrogate['sample_ratio']:.1f}x "
              f"below {_SAMPLE_RATIO_FLOOR}x", file=sys.stderr)
        return 1
    if (surrogate["mean_rel_error"] > _MOMENT_TOL
            or surrogate["std_rel_error"] > _MOMENT_TOL):
        print("FAIL: surrogate moment error above "
              f"{_MOMENT_TOL * 100:.0f}%", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
