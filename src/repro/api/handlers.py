"""Request handlers: one function per request kind.

Each handler takes ``(session, request)``, routes into the existing
core/engine/library/sta machinery, and returns the matching typed
result.  Handlers are **pure** with respect to the session — no file
writes, no globals — which is what makes the per-session result cache
of :meth:`repro.api.Session.run` safe; side effects (writing a library
JSON, writing a result envelope) belong to the callers (the CLI).

Error contract: bad names and malformed inputs raise
:class:`~repro.errors.ReproError` subclasses or :class:`ValueError`
with a one-line message — the CLI turns those into exit code 2.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from .._version import __version__
from ..engine import available_engines, delays_for_direction
from ..errors import ParameterError
from ..library.tables import gate_width
from ..units import PICO, to_ps
from .catalog import EXPERIMENT_DESCRIPTIONS, WORKFLOW_DESCRIPTIONS
from .requests import (CharacterizeRequest, DelayRequest,
                       DescribeRequest, ExperimentRequest,
                       LibraryRequest, Request, StaRequest,
                       StatsRequest, VersionRequest, WireRequest)
from .results import (CharacterizeResult, DelayResult, DescribeResult,
                      ExperimentResult, LibraryInspectResult, Result,
                      StaRunResult, StatsResult, VersionResult,
                      WireResult)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .session import Session

__all__ = ["HANDLERS"]


# ----------------------------------------------------------------------
# describe / version
# ----------------------------------------------------------------------

def _cache_report() -> dict:
    """Persistent-cache status for version/describe results."""
    from .. import cache as disk_cache
    store = disk_cache.get_store()
    if store is None:
        return {"enabled": False}
    return {"enabled": True, **store.info()}


def _describe(session: "Session",
              request: DescribeRequest) -> DescribeResult:
    entries = dict(EXPERIMENT_DESCRIPTIONS)
    entries["characterize"] = WORKFLOW_DESCRIPTIONS["characterize"]
    entries["library"] = (EXPERIMENT_DESCRIPTIONS["library"] + "; "
                          + WORKFLOW_DESCRIPTIONS["library"])
    entries["sta"] = WORKFLOW_DESCRIPTIONS["sta"]
    entries["stats"] = WORKFLOW_DESCRIPTIONS["stats"]
    entries["delay"] = WORKFLOW_DESCRIPTIONS["delay"]
    entries["wire"] = WORKFLOW_DESCRIPTIONS["wire"]
    entries["metrics"] = WORKFLOW_DESCRIPTIONS["metrics"]
    entries["version"] = WORKFLOW_DESCRIPTIONS["version"]
    width = max(len(name) for name in entries)
    text = "\n".join(f"{name:<{width}}  {description}"
                     for name, description in entries.items())
    return DescribeResult(version=__version__,
                          engines=available_engines(),
                          experiments=dict(EXPERIMENT_DESCRIPTIONS),
                          workflows=dict(WORKFLOW_DESCRIPTIONS),
                          text=text,
                          cache=_cache_report())


def _version(session: "Session",
             request: VersionRequest) -> VersionResult:
    return VersionResult(version=__version__,
                         text=f"repro {__version__}",
                         cache=_cache_report())


# ----------------------------------------------------------------------
# delay
# ----------------------------------------------------------------------

def _printed(spec: str, values: np.ndarray) -> list[str]:
    """Each row of the 2-D *values* as its entries printed with the
    ``%``-format *spec*, joined by ``", "``.  One ``%`` prints the
    whole array, so no Python call runs per value."""
    rows, entries = values.shape
    layout = "\n".join([", ".join([spec] * entries)] * rows)
    return (layout % tuple(values.ravel().tolist())).split("\n")


def _delay(session: "Session", request: DelayRequest) -> DelayResult:
    from ..analysis.reporting import ascii_table

    if request.direction not in ("falling", "rising"):
        raise ParameterError(
            f"direction must be 'falling' or 'rising', got "
            f"{request.direction!r}")
    if not request.deltas:
        raise ParameterError("at least one Δ-vector is required")
    width = gate_width(request.gate)
    wanted = width - 1
    for entry in request.deltas:
        if len(entry) != wanted:
            raise ParameterError(
                f"{request.gate} takes {wanted} sibling offset(s) "
                f"per Δ-vector, got {len(entry)}")
    engine = session.engine
    deltas = np.asarray(request.deltas, dtype=float)
    # nor2 runs the closed form on the bound set itself: widening it
    # to an n = 2 set only for the engine to narrow it back would
    # reach the same memoized constants.
    if width == 2:
        params, points = session.parameters, deltas[:, 0]
    else:
        params, points = session.generalized(width), deltas
    delays = delays_for_direction(engine, request.direction, params,
                                  points, request.vn_init)

    # ``/ PICO`` is ``to_ps`` over the whole array: the same division,
    # so the same digits.
    table = ascii_table(
        ["Δ [ps]", "delay [ps]"],
        list(zip(_printed("%+.2f", deltas / PICO),
                 _printed("%.3f", (delays / PICO)[:, None]))),
        title=f"{request.gate} {request.direction} MIS delays via "
              f"'{engine.name}'")
    return DelayResult(gate=request.gate,
                       direction=request.direction,
                       engine=engine.name,
                       deltas=request.deltas,
                       delays=tuple(delays.tolist()),
                       text=table)


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------

def _experiment(session: "Session",
                request: ExperimentRequest) -> ExperimentResult:
    from ..analysis import experiments as exp

    name = request.name
    tech = session.technology
    if name == "fig2":
        text = exp.experiment_fig2(tech).text
    elif name == "fig4":
        text = exp.experiment_fig4().text
    elif name in ("fig5", "fig6", "fig8"):
        characterization = (exp.characterize_nor(tech)
                            if request.with_analog else None)
        runner = {"fig5": exp.experiment_fig5,
                  "fig6": exp.experiment_fig6,
                  "fig8": exp.experiment_fig8}[name]
        text = runner(characterization=characterization,
                      engine=session.engine).text
    elif name == "fig7":
        options = {}
        if request.transitions is not None:
            options["transitions"] = request.transitions
        if request.repetitions is not None:
            options["repetitions"] = request.repetitions
        text = exp.experiment_fig7(tech, seed=request.seed,
                                   **options).text
    elif name == "table1":
        text = exp.experiment_table1().text
    elif name == "analytic":
        text = exp.experiment_analytic().text
    elif name == "runtime":
        text = exp.experiment_runtime(tech).text
    elif name == "faithfulness":
        text = exp.experiment_faithfulness().text
    elif name == "library":
        text = exp.experiment_library(engine=session.engine).text
    elif name == "engines":
        text = exp.experiment_engines(
            params=session.parameters).text
    elif name == "multi_input":
        text = exp.experiment_multi_input(
            params=session.parameters, engine=session.engine).text
    else:
        raise ParameterError(
            f"unknown experiment {name!r}; available: "
            f"{', '.join(EXPERIMENT_DESCRIPTIONS)}")
    return ExperimentResult(name=name, text=text)


# ----------------------------------------------------------------------
# characterize / library inspection
# ----------------------------------------------------------------------

def _characterize(session: "Session",
                  request: CharacterizeRequest) -> CharacterizeResult:
    import dataclasses

    from ..core.multi_input import paper_generalized
    from ..library import (characterize_library, default_delta_grid,
                           default_state_grid,
                           default_vector_delta_grid,
                           generalized_jobs, paper_jobs, verify_table)
    from ..library.characterize import (DEFAULT_CORE_POINTS,
                                        DEFAULT_STATE_POINTS)

    width = gate_width(request.gate)
    if request.fit:
        from ..analysis.characterization import characterize_nor
        from ..analysis.fitting import fit_from_characterization
        params = fit_from_characterization(
            characterize_nor(session.technology)).params
        suffix = session.tech_name
    else:
        params, suffix = session.parameters, "paper"
    if width != 2:
        if request.state_points is not None:
            raise ParameterError(
                f"--state-points applies to the 2-input grid; "
                f"{request.gate} surfaces record one worst-case "
                "chain state")
        wide = paper_generalized(width, params)
        jobs = generalized_jobs(width, wide,
                                technology=session.tech_name,
                                suffix=suffix)
        if request.core_points is not None:
            deltas = tuple(default_vector_delta_grid(
                wide, core_points=request.core_points))
            jobs = tuple(dataclasses.replace(job, deltas=deltas)
                         for job in jobs)
    else:
        jobs = paper_jobs(params, technology=session.tech_name,
                          suffix=suffix)
        if (request.core_points is not None
                or request.state_points is not None):
            deltas = tuple(default_delta_grid(
                params,
                core_points=(DEFAULT_CORE_POINTS
                             if request.core_points is None
                             else request.core_points)))
            states = tuple(default_state_grid(
                params,
                points=(DEFAULT_STATE_POINTS
                        if request.state_points is None
                        else request.state_points)))
            jobs = tuple(dataclasses.replace(job, deltas=deltas,
                                             state_grid=states)
                         for job in jobs)

    engine = session.engine
    library = characterize_library(jobs, engine=engine,
                                   name=request.library_name)
    lines = [f"characterized {len(library)} cells via "
             f"'{engine.name}':"]
    worst = 0.0
    for cell in library.cells:
        accuracy = verify_table(library[cell], engine=engine)
        worst = max(worst, accuracy.max_error)
        lines.append(f"  {library[cell].describe()}")
        lines.append(f"    interpolation error: falling "
                     f"{to_ps(accuracy.falling_error) * 1000.0:.2f} "
                     f"fs, rising "
                     f"{to_ps(accuracy.rising_error) * 1000.0:.2f} fs")
    if width == 2:
        lines.append(f"worst interpolation error "
                     f"{to_ps(worst) * 1000.0:.2f} fs "
                     "(acceptance: <= 100 fs)")
    else:
        lines.append(f"worst interpolation error "
                     f"{to_ps(worst) * 1000.0:.2f} fs "
                     "(multilinear on the tensor grid; raise "
                     "--core-points to tighten)")
    return CharacterizeResult(cells=library.cells,
                              worst_error=worst,
                              engine=engine.name,
                              library=library.to_dict(),
                              text="\n".join(lines))


def _library(session: "Session",
             request: LibraryRequest) -> LibraryInspectResult:
    from ..library import verify_table

    library = session.load_library(request.path)
    lines = [f"library '{library.name}' "
             f"({len(library)} cells)"]
    if library.description:
        lines.append(f"  {library.description}")
    cells = ([request.cell] if request.cell
             else list(library.cells))
    for cell in cells:
        try:
            table = library[cell]
        except KeyError as error:
            raise ValueError(error.args[0]) from None
        lines.append(f"  {table.describe()}")
        if request.cell:
            for direction, label in (("falling", "delta_fall"),
                                     ("rising", "delta_rise")):
                surface = getattr(table, direction)
                delays = surface.characteristic()
                if table.num_inputs == 2:
                    lines.append("    " + delays.describe(label))
                    continue
                axis = surface.axes[0]
                lines.append(
                    f"    {direction}: {len(surface.axes)}-D "
                    f"Δ-vector surface, axes [{to_ps(axis[0]):.0f}, "
                    f"{to_ps(axis[-1]):.0f}] ps, "
                    f"δ(0) {to_ps(delays.zero):.2f} ps")
            lines.append(f"    characterized by engine "
                         f"'{table.engine}'")
        if request.verify:
            accuracy = verify_table(table, engine=session.engine)
            lines.append(
                f"    verify vs '{session.engine.name}': max "
                f"{to_ps(accuracy.max_error) * 1000.0:.2f} fs")
    return LibraryInspectResult(name=library.name,
                                cells=tuple(cells),
                                text="\n".join(lines))


# ----------------------------------------------------------------------
# sta
# ----------------------------------------------------------------------

def _sta(session: "Session", request: StaRequest) -> StaRunResult:
    from ..sta import (TableArcModel, analyze, build_timing_graph,
                       demo_corners, render_report,
                       render_sweep_summary, sta_circuit, sta_payload,
                       sweep_corners)

    if request.validate:
        from ..analysis import experiments as exp
        outcome = exp.experiment_sta(params=session.parameters,
                                     engine=session.engine)
        return StaRunResult(circuit=None,
                            engine=session.engine.name,
                            analysis=None,
                            max_error=outcome.max_error,
                            text=outcome.text)

    engine = session.engine  # fail fast on unknown names
    models = None
    if request.library_path is not None:
        if request.cell is None:
            raise ParameterError(
                "--library needs --cell to pick the table driving "
                "the gates")
        library = session.load_library(request.library_path)
        try:
            table = library[request.cell]
        except KeyError as error:
            raise ValueError(error.args[0]) from None
        circuit = sta_circuit(request.circuit, session.parameters)
        models = {instance.name: TableArcModel(table)
                  for instance in circuit.instances}
        graph = build_timing_graph(circuit, models=models,
                                   engine=engine)
    else:
        # The session's memoized engine-backed graph of the bound
        # parameter set.
        graph = session.timing_graph(request.circuit)
    result = analyze(graph, required=request.required,
                     top_paths=request.top)
    lines = [render_report(result,
                           title=f"STA report: circuit "
                                 f"'{request.circuit}' via "
                                 f"'{engine.name}'")]
    sweep = None
    if request.corners is not None:
        params_axis, corner_arrivals = demo_corners(
            request.corners, [graph.inputs[0]], seed=request.seed,
            base=session.parameters)
        if models is not None:
            # Table arcs are characterized for one parameter set;
            # sweep only the arrival axis for library-backed runs.
            params_axis = None
        sweep = sweep_corners(graph, params=params_axis,
                              arrivals=corner_arrivals,
                              required=request.required)
        lines.append("")
        lines.append(render_sweep_summary(sweep))
    return StaRunResult(circuit=request.circuit,
                        engine=engine.name,
                        analysis=sta_payload(result, sweep),
                        max_error=None,
                        text="\n".join(lines))


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------

def _stats_tuples(array) -> tuple:
    return tuple(float(value) for value in array)


def _stats_result(request: StatsRequest, summary, text: str,
                  **fields) -> StatsResult:
    """The :class:`StatsResult` of one ``DelaySummary``; *fields* holds
    the entries that depend on the method (``samples``, ``deltas``
    and, for ``yield``, the circuit and its yield)."""
    def rows(table):
        return (None if table is None
                else tuple(_stats_tuples(row) for row in table))

    return StatsResult(
        method=request.method, gate=request.gate,
        direction=request.direction,
        mean=_stats_tuples(summary.mean),
        std=_stats_tuples(summary.std),
        minimum=_stats_tuples(summary.minimum),
        maximum=_stats_tuples(summary.maximum),
        percentile_levels=_stats_tuples(summary.percentile_levels),
        percentile_values=rows(summary.percentile_values),
        histogram_edges=rows(summary.histogram_edges),
        histogram_counts=rows(summary.histogram_counts),
        text=text, **fields)


def _render_summary(summary, title: str) -> str:
    from ..analysis.reporting import ascii_table

    headers = ["Δ [ps]", "mean [ps]", "std [ps]"]
    headers += [f"p{level:g} [ps]"
                for level in summary.percentile_levels]
    rows = []
    for j, delta in enumerate(summary.deltas):
        row = [f"{to_ps(delta):+.2f}",
               f"{to_ps(summary.mean[j]):.3f}",
               f"{to_ps(summary.std[j]):.4f}"]
        row += [f"{to_ps(summary.percentile_values[i][j]):.3f}"
                for i in range(len(summary.percentile_levels))]
        rows.append(tuple(row))
    return ascii_table(headers, rows, title=title)


def _stats(session: "Session", request: StatsRequest) -> StatsResult:
    from ..stats import (ParameterDistribution, fit_surrogate,
                         monte_carlo, timing_yield)
    from ..stats.distributions import VARIABLE_PARAMS
    from ..stats.montecarlo import summarize

    if request.method not in ("mc", "surrogate", "yield"):
        raise ParameterError(
            f"unknown stats method {request.method!r}; choose "
            "'mc', 'surrogate' or 'yield'")
    sigma = request.sigma or tuple(
        (name, 0.05) for name in VARIABLE_PARAMS)
    distribution = ParameterDistribution(
        session.parameters, sigma, kind=request.distribution,
        correlation=request.correlation)

    if request.method == "yield":
        graph = session.timing_graph(request.circuit)
        outcome = timing_yield(
            graph, distribution, samples=request.samples,
            seed=request.seed, required=request.required,
            arrival_sigma=request.arrival_sigma,
            per_instance=request.per_instance)
        summary = summarize(outcome.worst_arrival[:, None], [0.0],
                            method="yield",
                            percentiles=request.percentiles,
                            bins=request.bins)
        variation = ("per-instance" if request.per_instance
                     else "shared")
        lines = [f"statistical STA: circuit '{request.circuit}', "
                 f"{request.samples} corners ({variation} "
                 f"variation), seed {request.seed}"]
        stats = outcome.arrival_stats()
        lines.append(f"  worst arrival: mean "
                     f"{to_ps(stats['mean']):.3f} ps, std "
                     f"{to_ps(stats['std']):.4f} ps, range "
                     f"[{to_ps(stats['min']):.3f}, "
                     f"{to_ps(stats['max']):.3f}] ps")
        if request.required is not None:
            lines.append(
                f"  required {to_ps(request.required):.3f} ps -> "
                f"timing yield {outcome.yield_fraction:.4f}")
        else:
            lines.append("  no requirement -> yield 1.0 by "
                         "definition")
        return _stats_result(
            request, summary, "\n".join(lines),
            samples=request.samples, deltas=(),
            circuit=request.circuit,
            yield_fraction=outcome.yield_fraction,
            required=request.required)

    if request.method == "mc":
        summary = monte_carlo(
            distribution, request.deltas, samples=request.samples,
            direction=request.direction, seed=request.seed,
            gate=request.gate, vn_init=request.vn_init,
            engine=session.engine, percentiles=request.percentiles,
            bins=request.bins)
        title = (f"Monte-Carlo delay statistics: {request.gate} "
                 f"{request.direction}, {summary.samples} samples, "
                 f"seed {request.seed}")
    else:
        surrogate = fit_surrogate(
            distribution, request.deltas,
            direction=request.direction, gate=request.gate,
            vn_init=request.vn_init, degree=request.degree,
            engine=session.engine)
        summary = surrogate.summarize(
            samples=request.samples, seed=request.seed,
            percentiles=request.percentiles, bins=request.bins)
        title = (f"collocation-surrogate delay statistics: "
                 f"{request.gate} {request.direction}, "
                 f"{summary.samples} model evaluations "
                 f"(degree {request.degree}), seed {request.seed}")
    return _stats_result(request, summary,
                         _render_summary(summary, title),
                         samples=summary.samples,
                         deltas=_stats_tuples(summary.deltas))


# ----------------------------------------------------------------------
# wire
# ----------------------------------------------------------------------

def _wire_tree(request: WireRequest):
    from ..wire import WireTree

    if request.topology == "line":
        return WireTree.line(segments=request.stages,
                             resistance=request.resistance,
                             capacitance=request.capacitance,
                             load=request.sink_load)
    if request.topology == "fanout":
        return WireTree.fanout(branches=request.branches, stem=1,
                               segments=request.stages,
                               resistance=request.resistance,
                               capacitance=request.capacitance,
                               load=request.sink_load)
    raise ParameterError(
        f"unknown wire topology {request.topology!r}; choose "
        "'line' or 'fanout'")


def _wire_spice_delays(tree, model: str, delays) -> dict[str, float]:
    """Transient ground truth: sink Vdd/2-crossing shifts, seconds.

    Drives the lowered tree with an ideal-source edge matched to the
    model's regime — near-step for ``two_pole`` (its moments match
    the step response), a slow settled ramp for ``elmore`` (whose
    mean-of-impulse-response delay is exact for settled ramps).
    """
    from ..spice.measure import crossing_after
    from ..spice.netlist import Circuit
    from ..spice.transient import transient_analysis
    from ..spice.waveforms import EdgeTrain
    from ..wire import lower_wire

    worst = float(max(delays))
    if model == "elmore":
        edge_time = 50.0 * worst
        shape = "linear"
    else:
        edge_time = worst / 20.0
        shape = "raised-cosine"
    t0 = 0.75 * edge_time
    t_stop = t0 + edge_time + 20.0 * worst
    circuit = Circuit("wire_validate")
    circuit.voltage_source(
        "Vin", "in", "0",
        EdgeTrain([(t0, 1)], vdd=1.0, edge_time=edge_time,
                  shape=shape))
    nodes = lower_wire(circuit, tree, "in")
    circuit.validate()
    result = transient_analysis(circuit, t_stop)
    return {sink: crossing_after(result, nodes[sink], 0.5, 0.0, 1)
            - t0
            for sink in tree.sinks}


def _wire(session: "Session", request: WireRequest) -> WireResult:
    from ..analysis.reporting import ascii_table
    from ..wire import reduce_tree, scaled_delays

    tree = _wire_tree(request)
    timing = reduce_tree(tree, model=request.model)
    elmore, delays, slews = np.array(
        [(entry.elmore, entry.delay, entry.slew)
         for entry in timing.sinks]).T

    measured: dict[str, float] | None = None
    max_error = None
    if request.validate:
        measured = _wire_spice_delays(tree, request.model, delays)
        max_error = float(max(
            abs(measured[sink] - float(delay))
            for sink, delay in zip(tree.sinks, delays)))

    headers = ["sink", "Elmore [ps]", "delay [ps]", "slew [ps]"]
    if measured is not None:
        headers += ["spice [ps]", "error [fs]"]
    rows = []
    for j, sink in enumerate(tree.sinks):
        row = [sink, f"{to_ps(elmore[j]):.3f}",
               f"{to_ps(delays[j]):.3f}", f"{to_ps(slews[j]):.3f}"]
        if measured is not None:
            row += [f"{to_ps(measured[sink]):.3f}",
                    f"{to_ps(abs(measured[sink] - delays[j])) * 1000.0:.2f}"]
        rows.append(tuple(row))
    lines = [ascii_table(
        headers, rows,
        title=f"wire '{request.topology}' ({len(tree.segments)} "
              f"segments, {to_ps(tree.total_capacitance() * 1e3):.3f} fF "
              f"total) via '{request.model}'")]

    corner_min = corner_max = None
    if request.corners > 0:
        rng = np.random.default_rng(request.seed)
        r_scale = rng.uniform(0.8, 1.2, request.corners)
        c_scale = rng.uniform(0.8, 1.2, request.corners)
        worst = scaled_delays(timing, r_scale, c_scale).max(axis=-1)
        corner_min = float(worst.min())
        corner_max = float(worst.max())
        lines.append(
            f"{request.corners} R/C corners (±20 %, seed "
            f"{request.seed}): worst sink delay in "
            f"[{to_ps(corner_min):.3f}, {to_ps(corner_max):.3f}] ps")
    if max_error is not None:
        lines.append(
            f"transient cross-validation: max |model - spice| = "
            f"{to_ps(max_error) * 1000.0:.2f} fs")
    return WireResult(
        topology=request.topology, model=request.model,
        sinks=tuple(tree.sinks),
        elmore=tuple(float(v) for v in elmore),
        delays=tuple(float(v) for v in delays),
        slews=tuple(float(v) for v in slews),
        total_capacitance=float(tree.total_capacitance()),
        corners=int(request.corners),
        corner_delay_min=corner_min, corner_delay_max=corner_max,
        max_error=max_error, text="\n".join(lines))


#: Request type -> handler, consumed by :meth:`Session.run`.
HANDLERS: dict[type[Request],
               Callable[["Session", Request], Result]] = {
    DescribeRequest: _describe,
    VersionRequest: _version,
    DelayRequest: _delay,
    ExperimentRequest: _experiment,
    CharacterizeRequest: _characterize,
    LibraryRequest: _library,
    StaRequest: _sta,
    StatsRequest: _stats,
    WireRequest: _wire,
}
