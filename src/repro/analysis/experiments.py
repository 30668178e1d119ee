"""Experiment registry: one entry per table/figure of the paper.

Every experiment returns a structured result object together with a
plain-text rendering whose rows correspond to what the paper's figure
shows.  The benchmark harness (``benchmarks/``) times the heavy kernel
of each experiment and prints this rendering; EXPERIMENTS.md records the
paper-vs-measured comparison.

All experiments accept effort-scaling arguments so the test-suite can
run them in seconds while benchmarks use fuller settings.
"""

from __future__ import annotations

import dataclasses
import math
import time
from collections.abc import Sequence

import numpy as np

from ..core.analytic import (delta_falling_minus_inf, delta_falling_plus_inf,
                             delta_falling_zero, delta_rising)
from ..core.charlie import MisCurve
from ..core.hybrid_model import (SETTLE_FACTOR, HybridNorModel,
                                 settle_time)
from ..core.modes import Mode
from ..core.parameters import PAPER_TABLE_I, NorGateParameters
from ..core.parametrization import FitResult
from ..core.solutions import solve_mode
from ..models.fitted import FinitePointMisModel, QuadraticMisModel
from ..spice.technology import BULK65, FINFET15, TechnologyCard
from ..spice.transient import TransientOptions
from ..timing.channels import HybridNorChannel
from ..timing.trace import DigitalTrace
from ..timing.tracegen import PAPER_CONFIGS, WaveformConfig
from ..units import PS, to_ps
from .accuracy import (MODEL_LABELS, ConfigAccuracy, build_model_suite,
                       model_curve_errors, run_accuracy_study)
from .characterization import (DEFAULT_DELTAS, NorCharacterization,
                               characterize_nor)
from .faithfulness import short_pulse_filtration
from .fitting import fit_from_characterization, fit_from_paper_values
from .reporting import ascii_table, format_bar_chart, format_curves

__all__ = [
    "experiment_fig2",
    "experiment_fig4",
    "experiment_fig5",
    "experiment_fig6",
    "experiment_fig7",
    "experiment_fig8",
    "experiment_table1",
    "experiment_analytic",
    "experiment_engines",
    "experiment_library",
    "experiment_multi_input",
    "experiment_runtime",
    "experiment_sta",
    "experiment_ablation_delta_min",
    "experiment_baseline_fits",
    "experiment_faithfulness",
]


# ----------------------------------------------------------------------
# Fig. 2 — analog characterization
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Fig2Result:
    characterization: NorCharacterization
    text: str


def experiment_fig2(tech: TechnologyCard = FINFET15,
                    deltas: Sequence[float] = DEFAULT_DELTAS,
                    options: TransientOptions | None = None
                    ) -> Fig2Result:
    """Fig. 2: analog MIS delay curves and their annotations."""
    ch = characterize_nor(tech, deltas=deltas, options=options)
    fall_m, fall_p = ch.falling_mis_percent
    rise_m, rise_p = ch.rising_peak_percent
    lines = [
        format_curves([ch.falling], title=f"Fig. 2b: falling output "
                                          f"delay ({tech.name})"),
        f"  MIS effect at delta=0: {fall_m:+.2f} % vs delta=-inf, "
        f"{fall_p:+.2f} % vs delta=+inf  (paper: -28.01 % / -28.43 %)",
        "",
        format_curves([ch.rising], title=f"Fig. 2d: rising output "
                                         f"delay ({tech.name})"),
        f"  MIS peak: {rise_m:+.2f} % vs delta=-inf, {rise_p:+.2f} % vs "
        f"delta=+inf  (paper: +2.08 % / +7.26 %)",
    ]
    return Fig2Result(characterization=ch, text="\n".join(lines))


# ----------------------------------------------------------------------
# Fig. 4 — mode trajectories
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Fig4Result:
    times: np.ndarray
    trajectories: dict[str, np.ndarray]
    text: str


def experiment_fig4(params: NorGateParameters = PAPER_TABLE_I,
                    t_stop: float = 150.0 * PS,
                    points: int = 16) -> Fig4Result:
    """Fig. 4: temporal evolution of all four mode systems.

    Initial values follow the paper: ``V_N(0) = V_O(0) = VDD`` except
    for system (0,0) (both GND) and ``V_N = VDD/2`` for system (1,1).
    """
    vdd = params.vdd
    initial = {
        Mode.BOTH_LOW: (0.0, 0.0),
        Mode.A_LOW_B_HIGH: (vdd, vdd),
        Mode.A_HIGH_B_LOW: (vdd, vdd),
        Mode.BOTH_HIGH: (vdd / 2.0, vdd),
    }
    times = np.linspace(0.0, t_stop, points)
    trajectories: dict[str, np.ndarray] = {}
    for mode, (vn0, vo0) in initial.items():
        solution = solve_mode(mode, params, vn0, vo0)
        trajectories[f"VN{mode}"] = np.array([solution.vn(t)
                                              for t in times])
        trajectories[f"VO{mode}"] = np.array([solution.vo(t)
                                              for t in times])
    headers = ["t [ps]"] + list(trajectories)
    rows = []
    for i, t in enumerate(times):
        rows.append([f"{to_ps(t):6.1f}"]
                    + [f"{trajectories[key][i]:.3f}"
                       for key in trajectories])
    text = ascii_table(headers, rows,
                       title="Fig. 4: mode trajectories [V]")
    return Fig4Result(times=times, trajectories=trajectories, text=text)


# ----------------------------------------------------------------------
# Fig. 5 / Fig. 6 / Fig. 8 — model MIS curves vs analog
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CurveComparisonResult:
    curves: list[MisCurve]
    text: str


def experiment_fig5(params: NorGateParameters = PAPER_TABLE_I,
                    characterization: NorCharacterization | None = None,
                    deltas: Sequence[float] = DEFAULT_DELTAS,
                    engine=None) -> CurveComparisonResult:
    """Fig. 5: hybrid-model falling MIS delays (vs analog if given)."""
    model = HybridNorModel(params)
    curves = [model.falling_curve(deltas, engine=engine)]
    if characterization is not None:
        curves.append(characterization.falling)
    text = format_curves(curves,
                         title="Fig. 5: falling MIS delay, model vs "
                               "analog")
    return CurveComparisonResult(curves=curves, text=text)


def experiment_fig6(params: NorGateParameters = PAPER_TABLE_I,
                    characterization: NorCharacterization | None = None,
                    deltas: Sequence[float] | None = None,
                    engine=None) -> CurveComparisonResult:
    """Fig. 6: rising MIS delays for ``V_N(0) ∈ {GND, VDD/2, VDD}``."""
    if deltas is None:
        deltas = tuple(float(d) * PS for d in
                       (-90, -60, -40, -25, -12, 0, 12, 25, 40, 60, 90))
    model = HybridNorModel(params)
    vdd = params.vdd
    curves = [model.rising_curve(deltas, vn_init=x, engine=engine)
              for x in (0.0, vdd / 2.0, vdd)]
    if characterization is not None:
        curves.append(characterization.rising)
    text = format_curves(curves,
                         title="Fig. 6: rising MIS delay for VN in "
                               "{GND, VDD/2, VDD} (vs analog)")
    return CurveComparisonResult(curves=curves, text=text)


def experiment_fig8(params: NorGateParameters = PAPER_TABLE_I,
                    characterization: NorCharacterization | None = None,
                    deltas: Sequence[float] = DEFAULT_DELTAS,
                    engine=None) -> CurveComparisonResult:
    """Fig. 8: falling matching with and without the pure delay."""
    with_dmin = HybridNorModel(params).falling_curve(deltas,
                                                     engine=engine)
    without = HybridNorModel(
        params.without_delta_min()).falling_curve(deltas, engine=engine)
    with_dmin = MisCurve(with_dmin.deltas, with_dmin.delays, "falling",
                         label="HM with dmin")
    without = MisCurve(without.deltas, without.delays, "falling",
                       label="HM without dmin")
    curves = [with_dmin, without]
    if characterization is not None:
        curves.append(characterization.falling)
    text = format_curves(curves,
                         title="Fig. 8: falling delay, hybrid model "
                               "with/without pure delay")
    return CurveComparisonResult(curves=curves, text=text)


# ----------------------------------------------------------------------
# Table I — parametrization
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Table1Result:
    fit: FitResult
    text: str


def experiment_table1(co: float | None = PAPER_TABLE_I.co
                      ) -> Table1Result:
    """Table I: fit the hybrid model to the paper's Fig. 2 values.

    ``C_O`` is pinned to the paper's value by default because the fit
    manifold is one-dimensional (see
    :mod:`repro.core.parametrization`); pass ``co=None`` to fit it too.
    """
    fit = fit_from_paper_values(co=co)
    rows = []
    for name in ("r1", "r2", "r3", "r4", "cn", "co"):
        fitted = getattr(fit.params, name)
        paper = getattr(PAPER_TABLE_I, name)
        rows.append([name.upper(), f"{fitted:.4g}", f"{paper:.4g}",
                     f"{fitted / paper:.3f}"])
    header = ascii_table(["param", "fitted [SI]", "paper [SI]",
                          "ratio"], rows,
                         title="Table I: fitted parameters vs paper")
    target_rows = [(name, f"{t:.2f}", f"{a:.2f}")
                   for name, t, a in fit.table()]
    targets = ascii_table(["characteristic", "target [ps]",
                           "achieved [ps]"], target_rows)
    dmin = fit.params.delta_min
    text = "\n".join([header, "",
                      f"delta_min = {to_ps(dmin):.2f} ps "
                      "(paper: 18 ps)", targets])
    return Table1Result(fit=fit, text=text)


# ----------------------------------------------------------------------
# Eqs. (8)-(12) — analytic approximations
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class AnalyticResult:
    rows: list[tuple[str, float, float]]
    text: str


def experiment_analytic(params: NorGateParameters = PAPER_TABLE_I
                        ) -> AnalyticResult:
    """Eqs. (8)-(12) against the exact crossing solver."""
    model = HybridNorModel(params)
    rows: list[tuple[str, float, float]] = [
        ("eq (8)  falling(0)", delta_falling_zero(params),
         model.delay_falling_zero()),
        ("eq (9)  falling(-inf)", delta_falling_minus_inf(params),
         model.delay_falling_minus_inf()),
        ("eq (10) falling(+inf)", delta_falling_plus_inf(params),
         model.delay_falling_plus_inf()),
    ]
    for delta in (-40e-12, -10e-12, 0.0, 10e-12, 40e-12):
        rows.append((f"eq (11/12) rising({to_ps(delta):+.0f} ps)",
                     delta_rising(params, delta, vn_init=0.0),
                     model.delay_rising(delta, vn_init=0.0)))
    table_rows = [(name, f"{to_ps(a):.3f}", f"{to_ps(b):.3f}",
                   f"{to_ps(abs(a - b)) * 1000.0:.2f}")
                  for name, a, b in rows]
    text = ascii_table(["formula", "approx [ps]", "exact [ps]",
                        "error [fs]"], table_rows,
                       title="Analytic characteristic delays "
                             "(eqs. 8-12) vs exact")
    return AnalyticResult(rows=rows, text=text)


# ----------------------------------------------------------------------
# Fig. 7 — modeling accuracy
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Fig7Result:
    results: list[ConfigAccuracy]
    fit: FitResult
    characterization: NorCharacterization
    text: str


def _scaled_config(config: WaveformConfig,
                   transitions: int | None) -> WaveformConfig:
    if transitions is None:
        return config
    scaled = min(config.transitions, transitions)
    return WaveformConfig(mu=config.mu, sigma=config.sigma,
                          mode=config.mode, transitions=scaled)


def experiment_fig7(tech: TechnologyCard = FINFET15,
                    configs: Sequence[WaveformConfig] = PAPER_CONFIGS,
                    repetitions: int = 3,
                    transitions: int | None = 100,
                    seed: int = 0,
                    exp_pure_delay: float = 20.0 * PS,
                    protocol: str = "toggle",
                    characterization: NorCharacterization | None = None,
                    fit: FitResult | None = None) -> Fig7Result:
    """Fig. 7: normalized deviation areas of the four delay models.

    Args:
        transitions: per-configuration transition-count cap (the paper
            uses 500/250; the default keeps runtimes sensible — pass
            ``None`` for full size).
        protocol: SIS characterization protocol for the parametrization
            (``'toggle'`` is the paper's "empirically optimal" route,
            see :mod:`repro.analysis.characterization`).
    """
    if characterization is None:
        characterization = characterize_nor(tech)
    if fit is None:
        fit = fit_from_characterization(characterization,
                                        protocol=protocol)
    # The no-pure-delay variant is its own least-squares fit: without
    # δ_min the falling ratio-2 theorem makes the targets infeasible and
    # the optimizer must spread the error across the curve — cf. the
    # systematic mismatch of Fig. 8's lower curve.
    fit_no_dmin = fit_from_characterization(characterization,
                                            delta_min=0.0,
                                            protocol=protocol)
    targets = (characterization.targets_toggle if protocol == "toggle"
               else characterization.targets)
    # The Exp-Channel is parametrized from the textbook Δ-protocol SIS
    # characterization (Fig. 2 convention): being a single-history
    # output channel it has no trace-representative calibration path —
    # its degradation on broad pulses in Fig. 7 follows exactly from
    # this (paper Section VI).
    delta_targets = characterization.targets
    exp_delays = (delta_targets.rising.minus_inf,
                  delta_targets.falling.plus_inf)
    suite = build_model_suite(targets, fit.params,
                              hybrid_params_no_dmin=fit_no_dmin.params,
                              exp_pure_delay=exp_pure_delay,
                              exp_delays=exp_delays)
    scaled = [_scaled_config(config, transitions) for config in configs]
    results = run_accuracy_study(tech, suite, scaled,
                                 repetitions=repetitions, seed=seed)
    blocks = []
    for accuracy in results:
        norm = accuracy.normalized
        labels = [MODEL_LABELS[key] for key in norm]
        blocks.append(format_bar_chart(
            labels, list(norm.values()),
            title=f"{accuracy.config.label} (normalized deviation "
                  f"area, lower is better)"))
    text = "\n\n".join(blocks)
    return Fig7Result(results=results, fit=fit,
                      characterization=characterization, text=text)


# ----------------------------------------------------------------------
# Section VI — runtime overhead
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class RuntimeResult:
    seconds: dict[str, float]
    overhead_vs_inertial: dict[str, float]
    text: str


def experiment_runtime(tech: TechnologyCard = FINFET15,
                       transitions: int = 200,
                       repeats: int = 5,
                       characterization: NorCharacterization | None = None,
                       fit: FitResult | None = None,
                       seed: int = 0) -> RuntimeResult:
    """Section VI: digital-simulation runtime of the channel models."""
    from ..timing.tracegen import generate_traces  # local: avoid cycle
    if characterization is None:
        characterization = characterize_nor(tech)
    if fit is None:
        fit = fit_from_characterization(characterization)
    suite = build_model_suite(characterization.targets, fit.params)
    config = WaveformConfig(mu=100 * PS, sigma=50 * PS, mode="local",
                            transitions=transitions)
    traces = generate_traces(config, ["a", "b"], seed=seed,
                             t_start=300 * PS)
    seconds: dict[str, float] = {}
    for key, runner in suite.items():
        start = time.perf_counter()
        for _ in range(repeats):
            runner(traces["a"], traces["b"])
        seconds[key] = (time.perf_counter() - start) / repeats
    base = seconds["inertial"]
    overhead = {key: value / base - 1.0 for key, value in seconds.items()}
    rows = [(MODEL_LABELS[key], f"{seconds[key] * 1e3:.3f}",
             f"{overhead[key] * 100.0:+.1f}")
            for key in seconds]
    text = ascii_table(["model", "runtime [ms]", "overhead [%]"], rows,
                       title=f"Digital simulation runtime "
                             f"({transitions} transitions; paper "
                             "reports ~6 % hybrid overhead)")
    return RuntimeResult(seconds=seconds,
                         overhead_vs_inertial=overhead, text=text)


# ----------------------------------------------------------------------
# Delay-engine backends (batched sweep evaluation)
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class EngineComparisonResult:
    """Backend parity and throughput of one MIS-sweep workload.

    Attributes:
        points: Δ grid size per direction.
        seconds: backend name -> wall time of a falling+rising sweep.
        points_per_second: backend name -> sweep throughput.
        speedup: reference time / vectorized time.
        max_abs_difference: worst |vectorized − reference| delay, s.
        text: rendered table.
    """

    points: int
    seconds: dict[str, float]
    points_per_second: dict[str, float]
    speedup: float
    max_abs_difference: float
    text: str


def experiment_engines(params: NorGateParameters = PAPER_TABLE_I,
                       points: int = 4096,
                       span: float = 80.0 * PS,
                       repeats: int = 1) -> EngineComparisonResult:
    """Reference-vs-vectorized engine parity and throughput.

    Runs the same falling+rising Δ sweep through every registered
    backend, checks the results against the scalar reference and
    reports points/second — the workload behind the ROADMAP's "as fast
    as the hardware allows" goal (10k-point MIS curves, parameter-grid
    studies, Monte-Carlo sweeps).
    """
    from ..engine import available_engines, get_engine
    from ..errors import ParameterError

    if points < 1:
        raise ParameterError("points must be >= 1")
    deltas = np.linspace(-span, span, points)
    delays: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    seconds: dict[str, float] = {}
    for name in available_engines():
        backend = get_engine(name)
        # Warm the per-parameter-set caches: steady-state throughput is
        # the quantity of interest, not one-off context construction.
        backend.delays_falling(params, deltas[:2])
        backend.delays_rising(params, deltas[:2])
        start = time.perf_counter()
        for _ in range(max(1, repeats)):
            falling = backend.delays_falling(params, deltas)
            rising = backend.delays_rising(params, deltas)
        seconds[name] = ((time.perf_counter() - start)
                         / max(1, repeats))
        delays[name] = (falling, rising)

    reference = delays["reference"]
    worst = 0.0
    for name, (falling, rising) in delays.items():
        worst = max(worst,
                    float(np.max(np.abs(falling - reference[0]))),
                    float(np.max(np.abs(rising - reference[1]))))
    pps = {name: 2.0 * points / s for name, s in seconds.items()}
    speedup = seconds["reference"] / seconds["vectorized"]

    rows = [(name, f"{seconds[name] * 1e3:.2f}", f"{pps[name]:,.0f}",
             f"{seconds['reference'] / seconds[name]:.1f}x")
            for name in sorted(seconds)]
    table = ascii_table(
        ["backend", "sweep [ms]", "points/s", "vs reference"], rows,
        title=f"Delay engines: {points}-point falling+rising MIS "
              "sweep")
    text = "\n".join([
        table,
        f"max |vectorized - reference| = {worst:.3e} s "
        "(parity bound: 1e-12 s)",
    ])
    return EngineComparisonResult(
        points=points, seconds=seconds, points_per_second=pps,
        speedup=speedup, max_abs_difference=worst, text=text)


# ----------------------------------------------------------------------
# Library characterization (batch gate -> table pipeline)
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class LibraryResult:
    """Outcome of a batch library characterization run.

    Attributes:
        library: the characterized :class:`repro.library.GateLibrary`.
        accuracies: per-cell interpolation error vs direct evaluation.
        seconds: wall time of the characterization sweep.
        cells_per_second: characterization throughput.
        text: rendered table.
    """

    library: "GateLibrary"  # noqa: F821 - repro.library, imported lazily
    accuracies: "list[TableAccuracy]"  # noqa: F821
    seconds: float
    cells_per_second: float
    text: str


def experiment_library(params: NorGateParameters = PAPER_TABLE_I,
                       engine=None,
                       jobs=None) -> LibraryResult:
    """Characterize a gate library and audit its table accuracy.

    The ROADMAP's "new workload" scenario: a grid of (gate, parameter
    set) jobs swept through a delay engine into serializable MIS delay
    tables (see :mod:`repro.library`), each table then verified
    against direct engine evaluation on an oversampled probe grid.

    Args:
        params: base parameter set for the default job grid.
        engine: evaluation backend (name, instance, or ``None``).
        jobs: explicit :class:`repro.library.CharacterizationJob`
            sequence; defaults to :func:`repro.library.paper_jobs`.
    """
    from ..library import characterize_library, paper_jobs, verify_table

    if jobs is None:
        jobs = paper_jobs(params)
    jobs = tuple(jobs)
    start = time.perf_counter()
    library = characterize_library(jobs, engine=engine)
    seconds = time.perf_counter() - start

    accuracies = [verify_table(library[job.cell], engine=engine)
                  for job in jobs]
    rows = []
    for job, accuracy in zip(jobs, accuracies):
        table = library[job.cell]
        rows.append([
            job.cell, job.gate,
            str(len(table.falling.axes[0])),
            str(len(table.falling.state_grid)
                + len(table.rising.state_grid)),
            f"{to_ps(accuracy.falling_error) * 1000.0:.2f}",
            f"{to_ps(accuracy.rising_error) * 1000.0:.2f}",
        ])
    worst = max(a.max_error for a in accuracies)
    table_text = ascii_table(
        ["cell", "gate", "deltas", "state rows", "fall err [fs]",
         "rise err [fs]"], rows,
        title="Library characterization: table vs direct evaluation")
    backend = library[jobs[0].cell].engine
    text = "\n".join([
        table_text,
        f"characterized {len(jobs)} cells in {seconds * 1e3:.1f} ms "
        f"via '{backend}'; worst interpolation error "
        f"{to_ps(worst) * 1000.0:.2f} fs (acceptance: <= 100 fs)",
    ])
    return LibraryResult(library=library, accuracies=accuracies,
                         seconds=seconds,
                         cells_per_second=len(jobs) / seconds,
                         text=text)


# ----------------------------------------------------------------------
# Static timing analysis (STA vs full event simulation)
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class StaCrossCheck:
    """One STA-vs-event-simulation comparison point.

    Attributes:
        circuit: name of the test circuit.
        node: the compared ``(signal, transition)`` node, rendered.
        sta_time: STA arrival time, seconds.
        sim_time: event-simulation transition time, seconds.
    """

    circuit: str
    node: str
    sta_time: float
    sim_time: float

    @property
    def error(self) -> float:
        """Absolute STA-vs-simulation disagreement, seconds."""
        return abs(self.sta_time - self.sim_time)


@dataclasses.dataclass(frozen=True)
class StaResultSummary:
    """Outcome of the STA cross-validation experiment.

    Attributes:
        checks: all comparison points.
        max_error: worst |STA − simulation| disagreement, seconds.
        text: rendered table.
    """

    checks: list[StaCrossCheck]
    max_error: float
    text: str


def sta_scenarios(params: NorGateParameters = PAPER_TABLE_I):
    """The cross-validation scenarios on the paper's NOR circuits.

    Each scenario is ``(circuit name, STA input arrivals, input
    traces)`` with one transition per switching input — the regime
    where the MIS-conditioned STA arrivals must coincide with full
    event simulation of the hybrid automaton.  Arrival times are
    offset from 0 so that initial states are settled equilibria.
    """
    t0 = 100.0 * PS
    inf = math.inf
    return (
        # Single NOR, falling output: the paper's Fig. 5 setting.
        ("nor2",
         {"a": (t0, -inf), "b": (t0 + 10.0 * PS, -inf)},
         {"a": DigitalTrace(0, [(t0, 1)]),
          "b": DigitalTrace(0, [(t0 + 10.0 * PS, 1)])}),
        # Single NOR, rising output: the Fig. 6 setting (Δ = 4 ps).
        ("nor2",
         {"a": (inf, t0), "b": (inf, t0 + 4.0 * PS)},
         {"a": DigitalTrace(1, [(t0, 0)]),
          "b": DigitalTrace(1, [(t0 + 4.0 * PS, 0)])}),
        # NOR inverter chain: every stage at the Δ = 0 MIS point.
        ("chain",
         {"a": (t0, -inf)},
         {"a": DigitalTrace(0, [(t0, 1)])}),
        # Two-level NOR tree with staggered input arrivals.
        ("tree",
         {"a": (t0, -inf), "b": (t0 + 8.0 * PS, -inf),
          "c": (t0 + 12.0 * PS, -inf), "d": (t0 + 20.0 * PS, -inf)},
         {"a": DigitalTrace(0, [(t0, 1)]),
          "b": DigitalTrace(0, [(t0 + 8.0 * PS, 1)]),
          "c": DigitalTrace(0, [(t0 + 12.0 * PS, 1)]),
          "d": DigitalTrace(0, [(t0 + 20.0 * PS, 1)])}),
        # Generalized 3-input NOR, falling output (Δ-vector arcs).
        ("nor3",
         {"a": (t0, -inf), "b": (t0 + 7.0 * PS, -inf),
          "c": (t0 + 18.0 * PS, -inf)},
         {"a": DigitalTrace(0, [(t0, 1)]),
          "b": DigitalTrace(0, [(t0 + 7.0 * PS, 1)]),
          "c": DigitalTrace(0, [(t0 + 18.0 * PS, 1)])}),
        # Generalized 3-input NOR, rising output (series stack).
        ("nor3",
         {"a": (inf, t0), "b": (inf, t0 + 5.0 * PS),
          "c": (inf, t0 + 11.0 * PS)},
         {"a": DigitalTrace(1, [(t0, 0)]),
          "b": DigitalTrace(1, [(t0 + 5.0 * PS, 0)]),
          "c": DigitalTrace(1, [(t0 + 11.0 * PS, 0)])}),
        # NOR3 feeding a paper NOR2: mixed Δ-vector / scalar-Δ arcs.
        ("nor3_mixed",
         {"a": (t0, -inf), "b": (t0 + 7.0 * PS, -inf),
          "c": (t0 + 18.0 * PS, -inf), "d": (t0 + 2.0 * PS, -inf)},
         {"a": DigitalTrace(0, [(t0, 1)]),
          "b": DigitalTrace(0, [(t0 + 7.0 * PS, 1)]),
          "c": DigitalTrace(0, [(t0 + 18.0 * PS, 1)]),
          "d": DigitalTrace(0, [(t0 + 2.0 * PS, 1)])}),
    )


def experiment_sta(params: NorGateParameters = PAPER_TABLE_I,
                   engine=None) -> StaResultSummary:
    """STA arrivals vs full event simulation on the NOR circuits.

    Runs every :func:`sta_scenarios` scenario twice — once through
    the MIS-aware static timing analyzer (:mod:`repro.sta`) and once
    through the event-driven simulator — and compares every signal
    transition the simulation produced against the STA arrival of
    the corresponding ``(signal, transition)`` node.  Agreement is
    expected to the root-search tolerance for these single-switching
    scenarios; the test-suite asserts ``max_error <= 0.1 ps``.

    Args:
        params: electrical parameter set for every gate.
        engine: delay-evaluation backend for the STA arcs.
    """
    from ..sta import TimingNode, analyze, build_timing_graph, \
        sta_circuit
    from ..timing.channels.hybrid import HybridNorChannel
    from ..timing.circuit import MultiInputInstance
    from ..timing.event_simulator import simulate_events
    from ..timing.simulator import simulate as simulate_traces

    checks: list[StaCrossCheck] = []
    for name, arrivals, traces in sta_scenarios(params):
        circuit = sta_circuit(name, params)
        graph = build_timing_graph(circuit, engine=engine)
        result = analyze(graph, arrivals=arrivals, top_paths=1)
        t_stop = 100.0 * PS + 4.0 * settle_time(params)
        if any(isinstance(instance, MultiInputInstance)
               and not isinstance(instance.channel, HybridNorChannel)
               for instance in circuit.instances):
            # n-input MIS elements run under the feed-forward
            # trace-transform engine (the event-driven engine keeps
            # its scope at the paper's two-input hybrid automaton).
            simulated = simulate_traces(circuit, traces)
        else:
            simulated = simulate_events(circuit, traces,
                                        t_stop=t_stop)
        for signal in graph.signal_order:
            for time, value in simulated[signal].transitions:
                node = TimingNode(signal,
                                  "rise" if value == 1 else "fall")
                checks.append(StaCrossCheck(
                    circuit=name, node=str(node),
                    sta_time=result.arrivals[node], sim_time=time))
    worst = max(check.error for check in checks)
    rows = [(check.circuit, check.node,
             f"{to_ps(check.sta_time):.4f}",
             f"{to_ps(check.sim_time):.4f}",
             f"{to_ps(check.error) * 1000.0:.3f}")
            for check in checks]
    table = ascii_table(
        ["circuit", "node", "STA [ps]", "event sim [ps]",
         "error [fs]"], rows,
        title="STA arrivals vs full event simulation")
    text = "\n".join([
        table,
        f"worst disagreement {to_ps(worst) * 1000.0:.3f} fs "
        "(acceptance: <= 100 fs)",
    ])
    return StaResultSummary(checks=checks, max_error=worst, text=text)


# ----------------------------------------------------------------------
# n-input generalization (paper Section VII)
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class MultiInputResult:
    """Outcome of the n-input Δ-vector generalization experiment.

    Attributes:
        num_inputs: gate width of the probed NOR.
        reduction_error: worst |generalized − closed-form| delay
            disagreement on the n = 2 sweep, seconds.
        batch_error: worst |batched − scalar| disagreement on the
            n-input Δ-vector grid, seconds.
        speedup: batched-vs-scalar throughput ratio on that grid.
        text: rendered summary.
    """

    num_inputs: int
    reduction_error: float
    batch_error: float
    speedup: float
    text: str


def experiment_multi_input(params: NorGateParameters = PAPER_TABLE_I,
                           num_inputs: int = 3,
                           grid_points: int = 25,
                           engine=None) -> MultiInputResult:
    """The n-input NOR generalization, end to end.

    Three probes on one rendered record:

    * the **n = 2 reduction** — the Δ-vector seam against the paper's
      closed-form two-input path across a dense sweep (the engine
      parity suite asserts ≤ 1e-12 s);
    * the **MIS landscape** of the widened gate — the falling
      speed-up deepens with every additional simultaneously-switching
      input, the rising stack penalty grows with serial depth;
    * **batched vs scalar** — the Δ-vector grid through the batched
      eigen-solver against the per-point loop, with the measured
      speedup (``benchmarks/bench_multi_input.py`` tracks the full-
      size number in ``BENCH_multi_input.json``).

    Args:
        params: 2-input base parameter set, widened through
            :func:`repro.core.multi_input.paper_generalized`.
        num_inputs: gate width of the probed NOR (default 3).
        grid_points: per-axis size of the Δ-vector grid.
        engine: batched evaluation backend (name, instance, or
            ``None`` for the vectorized default).
    """
    from ..core.multi_input import (delta_vector_grid,
                                    generalized_model,
                                    paper_generalized)
    from ..engine import get_engine

    backend = get_engine(engine)
    wide = paper_generalized(num_inputs, params)
    model = generalized_model(wide)
    tau = model.settle_time() / SETTLE_FACTOR

    # n = 2 reduction against the closed-form two-input path.
    narrow = paper_generalized(2, params)
    sweep = np.linspace(-8.0 * tau, 8.0 * tau, 201)
    closed = backend.delays_falling(params, sweep)
    closed_rise = backend.delays_rising(params, sweep, 0.0)
    seam = backend.delays_falling_n(narrow, sweep[:, None])
    seam_rise = backend.delays_rising_n(narrow, sweep[:, None], 0.0)
    reduction = max(float(np.max(np.abs(seam - closed))),
                    float(np.max(np.abs(seam_rise - closed_rise))))

    # MIS landscape of the widened gate.
    far = model.settle_time()
    landscape = []
    for switching in range(1, num_inputs + 1):
        offsets = np.array([0.0] * (switching - 1)
                           + [far] * (num_inputs - switching))
        landscape.append(float(
            backend.delays_falling_n(wide, offsets[None, :])[0]))

    # Batched vs scalar on the standard Δ-vector probe grid.
    rows = delta_vector_grid(wide, grid_points)
    backend.delays_falling_n(wide, rows[:2])  # warm the caches
    start = time.perf_counter()
    batched = backend.delays_falling_n(wide, rows)
    batched_s = time.perf_counter() - start
    reference = get_engine("reference")
    probe = min(rows.shape[0], 64)
    start = time.perf_counter()
    scalar = reference.delays_falling_n(wide, rows[:probe])
    scalar_s = time.perf_counter() - start
    batch_error = float(np.max(np.abs(batched[:probe] - scalar)))
    speedup = ((rows.shape[0] / batched_s) / (probe / scalar_s)
               if batched_s > 0.0 and scalar_s > 0.0 else math.inf)

    gate = f"NOR{num_inputs}"
    lines = [
        f"{gate} Δ-vector generalization "
        f"(engine '{backend.name}')",
        f"n=2 reduction vs closed form : "
        f"{reduction:.2e} s (acceptance <= 1e-12 s)",
    ]
    for switching, delay in enumerate(landscape, start=1):
        lines.append(
            f"falling, {switching}/{num_inputs} inputs together"
            f"  : {to_ps(delay):8.2f} ps")
    lines += [
        f"batched grid ({rows.shape[0]} Δ-vectors) : "
        f"{batched_s * 1e3:.1f} ms "
        f"({rows.shape[0] / batched_s:,.0f} vec/s)",
        f"scalar loop ({probe} probes)   : {scalar_s * 1e3:.1f} ms "
        f"({probe / scalar_s:,.0f} vec/s)",
        f"batched vs scalar parity : {batch_error / PS:.2e} ps, "
        f"speedup {speedup:.1f}x",
    ]
    return MultiInputResult(num_inputs=num_inputs,
                            reduction_error=reduction,
                            batch_error=batch_error,
                            speedup=speedup,
                            text="\n".join(lines))


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class AblationResult:
    rows: list[tuple[str, float]]
    text: str


def experiment_ablation_delta_min(
        characterization: NorCharacterization,
        delta_mins: Sequence[float] | None = None) -> AblationResult:
    """How the choice of ``δ_min`` affects the falling-curve match.

    For each candidate pure delay the model is re-fitted and the mean
    absolute error against the analog falling curve is reported.  The
    ratio-2 value (paper's 18 ps recipe) should be at/near the optimum.
    """
    from ..core.parametrization import infer_delta_min
    inferred = infer_delta_min(characterization.targets.falling)
    if delta_mins is None:
        delta_mins = [0.0, 0.5 * inferred, inferred, 1.25 * inferred]
    rows: list[tuple[str, float]] = []
    for dmin in delta_mins:
        fit = fit_from_characterization(characterization,
                                        delta_min=dmin)
        error = model_curve_errors(characterization.falling,
                                   fit.params).mean
        tag = f"delta_min={to_ps(dmin):5.1f} ps"
        if math.isclose(dmin, inferred, rel_tol=1e-9):
            tag += " (ratio-2 rule)"
        rows.append((tag, error))
    table_rows = [(tag, f"{to_ps(err):.3f}") for tag, err in rows]
    text = ascii_table(["configuration", "mean |model-analog| [ps]"],
                       table_rows,
                       title="Ablation: pure delay choice vs falling "
                             "curve match")
    return AblationResult(rows=rows, text=text)


def experiment_baseline_fits(characterization: NorCharacterization
                             ) -> AblationResult:
    """Literature curve-fit baselines vs the hybrid model (falling).

    All models are granted the same characterization data; the table
    reports the mean absolute error on the analog curve.
    """
    curve = characterization.falling
    fit = fit_from_characterization(characterization)
    finite = FinitePointMisModel.fit(curve, num_points=5)
    quad = QuadraticMisModel.fit(curve)
    rows = [
        ("hybrid ODE model (ours)",
         model_curve_errors(curve, fit.params).mean),
        ("finite-point linear fit [7]",
         finite.curve(curve.deltas).mean_abs_difference(curve)),
        ("quadratic fit [8]",
         quad.curve(curve.deltas).mean_abs_difference(curve)),
    ]
    table_rows = [(tag, f"{to_ps(err):.3f}") for tag, err in rows]
    text = ascii_table(["model", "mean |model-analog| [ps]"], table_rows,
                       title="Baselines: curve-fitting models vs "
                             "hybrid ODE model (falling)")
    return AblationResult(rows=rows, text=text)


def experiment_faithfulness(params: NorGateParameters = PAPER_TABLE_I,
                            widths: Sequence[float] | None = None
                            ) -> AblationResult:
    """Short-pulse filtration behaviour of the hybrid channel."""
    if widths is None:
        widths = [float(w) * PS for w in (200, 100, 60, 40, 30, 25, 20,
                                          15, 10, 5)]
    channel = HybridNorChannel(params)
    responses = short_pulse_filtration(channel.simulate, widths)
    rows = [(f"input {to_ps(r.input_width):6.1f} ps",
             r.output_width) for r in responses]
    table_rows = [(tag, f"{to_ps(w):.3f}") for tag, w in rows]
    text = ascii_table(["stimulus", "output pulse width [ps]"],
                       table_rows,
                       title="Short-pulse filtration of the hybrid "
                             "channel (continuous shrink-to-zero)")
    return AblationResult(rows=rows, text=text)
