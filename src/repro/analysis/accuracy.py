"""Average modeling-accuracy evaluation (paper Section VI, Fig. 7).

Pipeline per waveform configuration:

1. generate random input traces (LOCAL/GLOBAL, µ/σ);
2. drive the analog NOR with matching edge waveforms and digitize its
   output at ``Vth`` — the golden reference;
3. run every digital delay model on the same input traces;
4. integrate the absolute trace difference ("deviation area") over the
   simulation window;
5. average over repetitions and normalize against the inertial-delay
   baseline.

The standard model suite matches Fig. 7: inertial delay, the IDM
Exp-Channel with an empirical pure delay (20 ps in the paper — there is
no principled parametrization of single-input channels for multi-input
gates, Section VI), and the hybrid model with and without ``δ_min``.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Sequence

import numpy as np

from ..core.charlie import MisCurve
from ..core.hybrid_model import HybridNorModel
from ..core.parameters import NorGateParameters
from ..core.parametrization import CharacteristicTargets
from ..errors import ParameterError
from ..spice.technology import TechnologyCard, build_gate
from ..spice.transient import TransientOptions, transient_analysis
from ..spice.waveforms import EdgeTrain
from ..timing.channels import (ExpChannel, HybridNorChannel,
                               InertialDelayChannel, SingleInputChannel)
from ..timing.digitize import digitize_result
from ..timing.gates import gate_function, zero_time_gate
from ..timing.metrics import deviation_area
from ..timing.trace import DigitalTrace
from ..timing.tracegen import WaveformConfig, generate_traces
from ..units import PS

__all__ = [
    "MODEL_LABELS",
    "ModelRunner",
    "CurveErrors",
    "build_model_suite",
    "model_curve_errors",
    "reference_output",
    "ConfigAccuracy",
    "evaluate_config",
    "run_accuracy_study",
]

#: Reporting labels in the paper's Fig. 7 wording.
MODEL_LABELS: dict[str, str] = {
    "inertial": "inertial delay",
    "exp": "Exp-Channel",
    "hm_no_dmin": "HM without dmin",
    "hm": "HM with dmin",
}

#: A delay model as a trace transformer: (trace_a, trace_b) -> output.
ModelRunner = Callable[[DigitalTrace, DigitalTrace], DigitalTrace]

_NOR = gate_function("nor")


def _single_channel_runner(channel: SingleInputChannel) -> ModelRunner:
    def run(trace_a: DigitalTrace, trace_b: DigitalTrace) -> DigitalTrace:
        return channel.apply(zero_time_gate(_NOR, [trace_a, trace_b]))
    return run


def build_model_suite(targets: CharacteristicTargets,
                      hybrid_params: NorGateParameters,
                      hybrid_params_no_dmin: NorGateParameters | None = None,
                      exp_pure_delay: float = 20.0 * PS,
                      exp_delays: tuple[float, float] | None = None
                      ) -> dict[str, ModelRunner]:
    """The Fig. 7 model suite, parametrized from characteristic delays.

    Single-input channels cannot distinguish which input switched.  The
    inertial baseline gets the *average* of the two SIS delays per
    direction (a well-calibrated standard-cell delay).  For the
    Exp-Channel "there is no proper parametrization of IDM channels
    representing multi-input gates" (paper Section VI, which resorts to
    an empirical ``δ_min = 20 ps``); we emulate the standard
    single-input characterization — toggling input A with B at the
    non-controlling value — i.e. ``δ↑(−∞)`` / ``δ↓(∞)``, which is what
    makes the Exp-Channel degrade on broad pulses in Fig. 7.

    Args:
        targets: measured characteristic delays of the gate.
        hybrid_params: fitted hybrid-model parameters (with ``δ_min``).
        hybrid_params_no_dmin: separately fitted parameters with
            ``δ_min = 0`` (the paper's "HM without δ_min" is its own —
            necessarily imperfect — least-squares fit, cf. Fig. 8).
            Defaults to stripping the pure delay off *hybrid_params*.
        exp_pure_delay: the Exp-Channel's empirical pure delay.
        exp_delays: optional ``(δ↑(∞), δ↓(∞))`` override for the
            Exp-Channel.
    """
    rise_avg = 0.5 * (targets.rising.minus_inf + targets.rising.plus_inf)
    fall_avg = 0.5 * (targets.falling.minus_inf
                      + targets.falling.plus_inf)
    if exp_delays is None:
        exp_delays = (targets.rising.minus_inf, targets.falling.plus_inf)
    if hybrid_params_no_dmin is None:
        hybrid_params_no_dmin = hybrid_params.without_delta_min()
    inertial = InertialDelayChannel(delay_up=rise_avg,
                                    delay_down=fall_avg,
                                    label="inertial")
    exp_up, exp_down = exp_delays
    exp = ExpChannel(delay_up_inf=exp_up, delay_down_inf=exp_down,
                     pure_delay=min(exp_pure_delay,
                                    0.9 * min(exp_up, exp_down)),
                     label="exp")
    hm = HybridNorChannel(hybrid_params, label="hm")
    hm_no = HybridNorChannel(hybrid_params_no_dmin, label="hm_no_dmin")
    return {
        "inertial": _single_channel_runner(inertial),
        "exp": _single_channel_runner(exp),
        "hm_no_dmin": hm_no.simulate,
        "hm": hm.simulate,
    }


@dataclasses.dataclass(frozen=True)
class CurveErrors:
    """Curve-level model-vs-reference errors on a shared Δ grid.

    Attributes:
        mean: mean absolute delay difference, seconds.
        max: maximum absolute delay difference, seconds.
        model_curve: the engine-evaluated hybrid-model curve.
    """

    mean: float
    max: float
    model_curve: MisCurve


def model_curve_errors(reference: MisCurve,
                       params: NorGateParameters,
                       vn_init: float = 0.0,
                       engine=None) -> CurveErrors:
    """Hybrid-model curve errors against a reference MIS curve.

    Evaluates the hybrid model on the reference grid through a batch
    delay engine (:mod:`repro.engine`) and integrates the pointwise
    difference — the curve-level half of the paper's accuracy story
    (Figs. 5/6/8), shared by the ablation and baseline experiments.
    """
    model = HybridNorModel(params)
    if reference.direction == "falling":
        curve = model.falling_curve(reference.deltas, engine=engine)
    else:
        curve = model.rising_curve(reference.deltas, vn_init,
                                   engine=engine)
    return CurveErrors(mean=curve.mean_abs_difference(reference),
                       max=curve.max_abs_difference(reference),
                       model_curve=curve)


def reference_output(tech: TechnologyCard, trace_a: DigitalTrace,
                     trace_b: DigitalTrace, t_end: float,
                     options: TransientOptions | None = None
                     ) -> DigitalTrace:
    """Analog golden output for digital input traces.

    The input traces are rendered as raised-cosine edge trains whose
    ``Vth`` crossings coincide with the trace transition times (the same
    convention the characterization uses), simulated, and digitized.
    """
    wave_a = EdgeTrain(trace_a.transitions, tech.vdd,
                       tech.input_edge_time, initial=trace_a.initial)
    wave_b = EdgeTrain(trace_b.transitions, tech.vdd,
                       tech.input_edge_time, initial=trace_b.initial)
    circuit = build_gate(tech, "nor", (wave_a, wave_b))
    if options is None:
        options = TransientOptions(v_scale=tech.vdd, dt_max=150.0 * PS,
                                   reltol=3e-4)
    result = transient_analysis(circuit, t_end, options)
    return digitize_result(result, "o", tech.vth)


@dataclasses.dataclass(frozen=True)
class ConfigAccuracy:
    """Accuracy results of one waveform configuration.

    Attributes:
        config: the waveform configuration.
        areas: model key -> mean absolute deviation area, seconds.
        repetitions: number of random-seed repetitions averaged.
    """

    config: WaveformConfig
    areas: dict[str, float]
    repetitions: int

    @property
    def normalized(self) -> dict[str, float]:
        """Deviation areas normalized by the inertial baseline."""
        base = self.areas["inertial"]
        if base == 0.0:
            raise ParameterError("inertial baseline area is zero")
        return {key: area / base for key, area in self.areas.items()}

    def rows(self) -> list[tuple[str, float, float]]:
        """``(label, absolute_ps, normalized)`` reporting rows."""
        norm = self.normalized
        return [(MODEL_LABELS.get(key, key), self.areas[key] / PS,
                 norm[key]) for key in self.areas]


def evaluate_config(tech: TechnologyCard,
                    suite: dict[str, ModelRunner],
                    config: WaveformConfig,
                    repetitions: int = 3,
                    seed: int = 0,
                    t_start: float = 300.0 * PS,
                    tail: float = 500.0 * PS,
                    options: TransientOptions | None = None
                    ) -> ConfigAccuracy:
    """Run the accuracy pipeline for one waveform configuration."""
    if repetitions < 1:
        raise ParameterError("repetitions must be >= 1")
    totals = {key: 0.0 for key in suite}
    for repetition in range(repetitions):
        traces = generate_traces(config, ["a", "b"],
                                 seed=seed + repetition,
                                 t_start=t_start)
        trace_a, trace_b = traces["a"], traces["b"]
        last = max([t_start] + list(trace_a.times) + list(trace_b.times))
        t_end = last + tail
        reference = reference_output(tech, trace_a, trace_b, t_end,
                                     options)
        for key, runner in suite.items():
            model_trace = runner(trace_a, trace_b)
            totals[key] += deviation_area(model_trace, reference,
                                          0.0, t_end)
    areas = {key: total / repetitions for key, total in totals.items()}
    return ConfigAccuracy(config=config, areas=areas,
                          repetitions=repetitions)


def run_accuracy_study(tech: TechnologyCard,
                       suite: dict[str, ModelRunner],
                       configs: Sequence[WaveformConfig],
                       repetitions: int = 3,
                       seed: int = 0,
                       options: TransientOptions | None = None
                       ) -> list[ConfigAccuracy]:
    """Evaluate a model suite over several waveform configurations."""
    return [evaluate_config(tech, suite, config,
                            repetitions=repetitions, seed=seed,
                            options=options)
            for config in configs]
