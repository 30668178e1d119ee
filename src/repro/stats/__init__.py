"""Statistical delay modeling: Monte-Carlo + collocation surrogate.

Process variation turns every delay of the hybrid model into a random
variable.  This package treats that, deliberately, as a *throughput*
problem first (ROADMAP item 2; the approach follows the probabilistic
collocation line of arXiv 0710.4634 applied to the DATE-2022 hybrid
model):

* :mod:`~repro.stats.distributions` — seeded, composable parameter
  distributions (normal / lognormal, equicorrelated via Cholesky)
  that draw whole **sample blocks**: structured NumPy arrays with one
  hybrid-model parameter set per record.
* :mod:`~repro.stats.montecarlo` — vectorized Monte-Carlo sampling:
  N samples × M Δ-points flatten into *one* block-kernel engine call
  per direction (:mod:`repro.engine.blocks`), with moment /
  percentile / histogram reductions over a canonically quantized
  sample matrix so every backend produces byte-identical summaries.
* :mod:`~repro.stats.surrogate` — a probabilistic-collocation
  (polynomial-chaos) surrogate fitted on a deterministic
  Gauss-Hermite design, reproducing MC moments at a small fraction
  of the sample count; the design is built once per process.
* :mod:`~repro.stats.timing` — statistical STA: Monte-Carlo
  arrival/slack distributions and timing yield through the
  array-native corner axis of :func:`repro.sta.sweep_corners`.

The ``repro stats`` CLI subcommand and the ``StatsRequest`` /
``StatsResult`` envelope kinds of :mod:`repro.api` expose the same
entry points end-to-end; ``benchmarks/bench_stats.py`` records the
vectorized-vs-scalar throughput and the surrogate error/speedup.

Determinism contract: every public entry point takes an explicit
``seed`` and reduces over :func:`~repro.stats.montecarlo.quantize`-d
samples, so identical seeds give byte-identical results across
processes *and* across the ``reference`` / ``vectorized`` engines
(their raw-delay differences sit ~8 orders of magnitude below the
quantization step).
"""

from .distributions import VARIABLE_PARAMS, ParameterDistribution
from .montecarlo import (QUANT_STEP, DelaySummary, monte_carlo,
                         quantize, sample_delays)
from .surrogate import DelaySurrogate, fit_surrogate
from .timing import TimingYield, timing_yield

__all__ = [
    "QUANT_STEP",
    "VARIABLE_PARAMS",
    "DelaySummary",
    "DelaySurrogate",
    "ParameterDistribution",
    "TimingYield",
    "fit_surrogate",
    "monte_carlo",
    "quantize",
    "sample_delays",
    "timing_yield",
]
