"""Command-line interface: ``python -m repro <command>``.

Every subcommand is a thin adapter over the session facade of
:mod:`repro.api`: argv is parsed into one typed request object, run
through :meth:`repro.api.Session.run`, and the result rendered —
``result.text`` for humans, the schema-versioned JSON envelope with
``--json``.  Because rendering is uniform, **every** subcommand
supports ``--json`` (bare: print the envelope to stdout; with a path:
write it next to the normal report).

Beyond the experiment registry (``repro list`` enumerates it), the
workflow commands are:

* ``repro delay`` evaluates MIS delays at explicit Δ points;
* ``repro characterize`` sweeps a gate grid through a delay engine
  and writes a serialized :class:`~repro.library.GateLibrary` JSON;
* ``repro library`` inspects (and optionally re-verifies) such a
  file;
* ``repro sta`` runs the MIS-aware static timing analyzer over a
  built-in NOR circuit (report, JSON output, corner sweeps, and the
  STA-vs-event-simulation cross-validation);
* ``repro wire`` reduces a parametric RC wire tree to analytic
  per-sink delays (:mod:`repro.wire`), sweeps R/C corner scale
  factors array-natively, and cross-validates against a transient
  SPICE simulation of the lowered tree with ``--validate``;
* ``repro stats`` runs the statistical delay workloads of
  :mod:`repro.stats`: vectorized Monte-Carlo delay sampling, the
  collocation surrogate, and Monte-Carlo timing yield — seeded, so
  results are byte-identical across processes and engine backends;
* ``repro serve`` runs the long-lived HTTP delay service
  (:mod:`repro.server`): ``POST /v1/run`` plus asynchronous batch
  jobs with a crash-safe on-disk store;
* ``repro metrics`` prints the observability instruments in
  Prometheus text format — the in-process registry, or a running
  server's ``GET /v1/metrics`` with ``--url``;
* ``repro version`` / ``repro --version`` print the package version.

Every workflow subcommand also accepts ``--trace PATH``: the run
executes under the hierarchical span tracer of :mod:`repro.obs` and
the spans are written to *PATH* as JSON lines: a backdated
``cli.startup`` root span covering interpreter + import time, plus
one ``cli.run`` root span covering the whole dispatch with
session/engine/kernel/cache children nested beneath it.

Error contract: unknown gate/engine/library/circuit names and other
bad inputs exit with status 2 and a one-line message on stderr —
never a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections.abc import Sequence

from ._version import __version__
from .api import (CharacterizeRequest, DelayRequest, DescribeRequest,
                  ExperimentRequest, GATE_CHOICES, LibraryRequest,
                  Request, Session, StaRequest, StatsRequest,
                  TECHNOLOGIES, VersionRequest, WireRequest)
from .engine import DEFAULT_ENGINE, available_engines
from .errors import ReproError
from .obs import trace as obs_trace
from .units import FF, PS

__all__ = ["main", "build_parser"]

#: Experiments whose model sweeps route through a delay engine.
_ENGINE_COMMANDS = ("fig5", "fig6", "fig8")


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return number


def _add_json_flag(cmd: argparse.ArgumentParser) -> None:
    """The uniform ``--json [PATH]`` mode every subcommand carries."""
    cmd.add_argument("--json", nargs="?", const="-", default=None,
                     metavar="PATH",
                     help="emit the result as a schema-versioned "
                          "JSON envelope: bare --json prints it to "
                          "stdout, --json PATH writes it alongside "
                          "the normal report")
    _add_trace_flag(cmd)


def _add_trace_flag(cmd: argparse.ArgumentParser) -> None:
    """The uniform ``--trace PATH`` profiling mode."""
    cmd.add_argument("--trace", default=None, metavar="PATH",
                     help="record a hierarchical span trace of this "
                          "run as JSON lines at PATH (one object per "
                          "span: name, id, parent, start, duration, "
                          "attributes)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro`` argument parser (all subcommands)."""
    from .api import EXPERIMENT_DESCRIPTIONS, WORKFLOW_DESCRIPTIONS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction experiments for 'A Simple Hybrid "
                    "Model for Accurate Delay Modeling of a "
                    "Multi-Input Gate' (DATE 2022)")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("list", help="list available experiments")
    _add_json_flag(cmd)

    cmd = sub.add_parser("version",
                         help=WORKFLOW_DESCRIPTIONS["version"])
    _add_json_flag(cmd)

    for name, description in EXPERIMENT_DESCRIPTIONS.items():
        cmd = sub.add_parser(name, help=description)
        _add_json_flag(cmd)
        cmd.add_argument("--tech", choices=sorted(TECHNOLOGIES),
                         default="finfet15",
                         help="technology card (analog experiments)")
        if name in _ENGINE_COMMANDS:
            cmd.add_argument("--with-analog", action="store_true",
                             help="also run the analog golden sweep "
                                  "(slower)")
            cmd.add_argument("--engine", choices=available_engines(),
                             default=DEFAULT_ENGINE,
                             help="delay evaluation backend for the "
                                  "model sweeps")
        if name == "library":
            cmd.add_argument("path", nargs="?", default=None,
                             help="characterized library JSON to "
                                  "inspect (omit to run the "
                                  "characterization-accuracy "
                                  "experiment)")
            cmd.add_argument("--engine", choices=available_engines(),
                             default=DEFAULT_ENGINE,
                             help="evaluation backend")
            cmd.add_argument("--cell", default=None,
                             help="restrict inspection to one cell")
            cmd.add_argument("--verify", action="store_true",
                             help="re-measure the interpolation "
                                  "error of every table against the "
                                  "engine")
        if name == "fig7":
            cmd.add_argument("--transitions", type=int, default=60,
                             help="transitions per configuration "
                                  "(paper: 500/250)")
            cmd.add_argument("--repetitions", type=int, default=2,
                             help="random repetitions (paper: 20)")
            cmd.add_argument("--seed", type=int, default=0)
        if name == "multi_input":
            cmd.add_argument("--engine", choices=available_engines(),
                             default=DEFAULT_ENGINE,
                             help="batched evaluation backend")

    cmd = sub.add_parser("delay", help=WORKFLOW_DESCRIPTIONS["delay"])
    _add_json_flag(cmd)
    cmd.add_argument("--delta", action="append", required=True,
                     metavar="PS[,PS...]", dest="deltas",
                     help="input separation in ps; repeatable; "
                          "comma-separate n-1 sibling offsets for "
                          "nor3/nor4 (use --delta=-10,5 when the "
                          "first offset is negative)")
    cmd.add_argument("--direction", choices=("falling", "rising"),
                     default="falling",
                     help="output transition (default: falling)")
    cmd.add_argument("--gate", choices=GATE_CHOICES, default="nor2",
                     help="gate width (default: nor2)")
    cmd.add_argument("--vn-init", type=float, default=0.0,
                     metavar="V",
                     help="initial internal-node voltage in volts "
                          "(rising direction; default 0.0)")
    cmd.add_argument("--engine", choices=available_engines(),
                     default=DEFAULT_ENGINE,
                     help="delay evaluation backend")

    cmd = sub.add_parser("characterize",
                         help=WORKFLOW_DESCRIPTIONS["characterize"])
    _add_json_flag(cmd)
    cmd.add_argument("--out", default="gate_library.json",
                     help="output JSON path (default: "
                          "gate_library.json)")
    cmd.add_argument("--gate", choices=GATE_CHOICES,
                     default="nor2",
                     help="gate width: nor2 runs the paper's four-"
                          "cell NOR2/NAND2 grid, nor3/nor4 the "
                          "n-input Δ-vector flow")
    cmd.add_argument("--engine", choices=available_engines(),
                     default=DEFAULT_ENGINE,
                     help="delay evaluation backend")
    cmd.add_argument("--tech", choices=sorted(TECHNOLOGIES),
                     default="finfet15",
                     help="technology label (and card, with --fit)")
    cmd.add_argument("--fit", action="store_true",
                     help="fit gate parameters from an analog "
                          "characterization of --tech instead of "
                          "using the paper's Table I (slower)")
    cmd.add_argument("--core-points", type=_positive_int, default=None,
                     help="uniform Δ samples across the MIS core "
                          "(defaults to the library's standard grid)")
    cmd.add_argument("--state-points", type=_positive_int, default=None,
                     help="internal-node voltage grid size (defaults "
                          "to the library's standard grid)")
    cmd.add_argument("--name", default="repro-hybrid",
                     help="library name stored in the JSON header")

    cmd = sub.add_parser("serve", help=WORKFLOW_DESCRIPTIONS["serve"])
    cmd.add_argument("--host", default="127.0.0.1",
                     help="bind address (default: 127.0.0.1)")
    cmd.add_argument("--port", type=int, default=8080,
                     help="bind port; 0 picks a random free port "
                          "(default: 8080)")
    cmd.add_argument("--engine", choices=available_engines(),
                     default=None,
                     help="delay evaluation backend shared by every "
                          f"request (default: {DEFAULT_ENGINE})")
    cmd.add_argument("--tech", choices=sorted(TECHNOLOGIES),
                     default="finfet15",
                     help="technology card bound to the session")
    cmd.add_argument("--jobs-dir", default="repro_jobs",
                     metavar="DIR",
                     help="crash-safe batch-job store root; "
                          "incomplete jobs found here resume on "
                          "startup (default: repro_jobs)")
    cmd.add_argument("--run-workers", type=_positive_int, default=8,
                     metavar="N",
                     help="bound on concurrently executing /v1/run "
                          "memo misses; hits take no worker "
                          "(default: 8)")
    cmd.add_argument("--batch-workers", type=_positive_int, default=2,
                     metavar="N",
                     help="bound on concurrently executing batch "
                          "jobs (default: 2)")
    cmd.add_argument("--timeout", type=float, default=30.0,
                     metavar="S",
                     help="service timeout of a /v1/run memo miss "
                          "in seconds (default: 30)")
    cmd.add_argument("--access-log", action="store_true",
                     help="emit one structured JSON log line per "
                          "request on stderr")
    _add_trace_flag(cmd)

    cmd = sub.add_parser("metrics",
                         help=WORKFLOW_DESCRIPTIONS["metrics"])
    cmd.add_argument("--url", default=None, metavar="URL",
                     help="scrape GET /v1/metrics of a running repro "
                          "server at this base URL instead of "
                          "rendering the in-process registry")

    cmd = sub.add_parser("stats", help=WORKFLOW_DESCRIPTIONS["stats"])
    _add_json_flag(cmd)
    cmd.add_argument("--method", choices=("mc", "surrogate", "yield"),
                     default="mc",
                     help="statistical method (default: mc)")
    cmd.add_argument("--delta", action="append", default=None,
                     metavar="PS", dest="deltas", type=float,
                     help="input separation in ps, one statistics "
                          "row each; repeatable (default: 0)")
    cmd.add_argument("--samples", type=_positive_int, default=1024,
                     help="Monte-Carlo sample count / surrogate "
                          "resample count (default: 1024)")
    cmd.add_argument("--seed", type=int, default=0,
                     help="draw seed (default: 0)")
    cmd.add_argument("--sigma", action="append", default=None,
                     metavar="NAME=REL",
                     help="relative spread of one parameter, e.g. "
                          "r1=0.1; repeatable (default: all six R/C "
                          "parameters at 0.05)")
    cmd.add_argument("--distribution",
                     choices=("lognormal", "normal"),
                     default="lognormal",
                     help="marginal family (default: lognormal)")
    cmd.add_argument("--correlation", type=float, default=0.0,
                     metavar="RHO",
                     help="equicorrelation between varied "
                          "parameters, 0 <= rho < 1 (default: 0)")
    cmd.add_argument("--direction", choices=("falling", "rising"),
                     default="falling",
                     help="output transition (default: falling)")
    cmd.add_argument("--gate", choices=GATE_CHOICES, default="nor2",
                     help="gate width (default: nor2)")
    cmd.add_argument("--vn-init", type=float, default=0.0,
                     metavar="V",
                     help="initial internal-node voltage in volts "
                          "(rising direction; default 0.0)")
    cmd.add_argument("--percentile", action="append", default=None,
                     metavar="P", dest="percentiles", type=float,
                     help="reported percentile level in percent; "
                          "repeatable (default: 1, 50, 99)")
    cmd.add_argument("--bins", type=int, default=0,
                     help="histogram bins per Δ in the JSON "
                          "envelope (default: 0, disabled)")
    cmd.add_argument("--degree", type=_positive_int, default=3,
                     help="surrogate polynomial degree, 1-5 "
                          "(default: 3)")
    cmd.add_argument("--circuit", default="tree",
                     help="built-in test circuit for --method yield "
                          "(default: tree)")
    cmd.add_argument("--required", type=float, default=None,
                     metavar="PS",
                     help="endpoint requirement in ps for --method "
                          "yield (enables the yield fraction)")
    cmd.add_argument("--arrival-sigma", type=float, default=0.0,
                     metavar="PS",
                     help="Gaussian input-arrival jitter sigma in ps "
                          "for --method yield (default: 0)")
    cmd.add_argument("--per-instance", action="store_true",
                     dest="per_instance",
                     help="draw an independent parameter sample per "
                          "circuit instance for --method yield "
                          "(uncorrelated local variation; default: "
                          "one shared sample per corner)")
    cmd.add_argument("--engine", choices=available_engines(),
                     default=DEFAULT_ENGINE,
                     help="delay evaluation backend (results are "
                          "byte-identical across backends)")

    cmd = sub.add_parser("sta", help=WORKFLOW_DESCRIPTIONS["sta"])
    _add_json_flag(cmd)
    cmd.add_argument("--circuit", default="tree",
                     help="built-in test circuit (see repro.sta."
                          "STA_CIRCUITS; default: tree)")
    cmd.add_argument("--engine", default=None,
                     help="delay evaluation backend (default: "
                          f"{DEFAULT_ENGINE})")
    cmd.add_argument("--library", default=None, metavar="PATH",
                     help="characterized library JSON; gates use "
                          "table lookups instead of direct "
                          "evaluation")
    cmd.add_argument("--cell", default=None,
                     help="cell of --library to drive the gates "
                          "with (required with --library)")
    cmd.add_argument("--required", type=float, default=None,
                     metavar="PS",
                     help="endpoint required arrival time in ps "
                          "(enables slack)")
    cmd.add_argument("--top", type=_positive_int, default=3,
                     help="number of ranked critical paths "
                          "(default: 3)")
    cmd.add_argument("--corners", type=_positive_int, default=None,
                     metavar="N",
                     help="also run an N-corner vectorized sweep "
                          "(random parameter/arrival corners)")
    cmd.add_argument("--seed", type=int, default=0,
                     help="corner-sampling seed (default: 0)")
    cmd.add_argument("--validate", action="store_true",
                     help="run the STA-vs-event-simulation "
                          "cross-validation instead of a report")

    cmd = sub.add_parser("wire", help=WORKFLOW_DESCRIPTIONS["wire"])
    _add_json_flag(cmd)
    cmd.add_argument("--topology", choices=("line", "fanout"),
                     default="line",
                     help="wire tree shape (default: line)")
    cmd.add_argument("--stages", type=_positive_int, default=3,
                     help="segments per line / per fanout branch "
                          "(default: 3)")
    cmd.add_argument("--branches", type=_positive_int, default=2,
                     help="fanout branch count (default: 2)")
    cmd.add_argument("--resistance", type=float, default=2.0,
                     metavar="KOHM",
                     help="per-segment resistance in kΩ "
                          "(default: 2)")
    cmd.add_argument("--capacitance", type=float, default=0.4,
                     metavar="FF",
                     help="per-segment capacitance in fF "
                          "(default: 0.4)")
    cmd.add_argument("--sink-load", type=float, default=0.0,
                     metavar="FF",
                     help="extra lumped load per sink in fF, e.g. "
                          "the receiver's input capacitance "
                          "(default: 0)")
    cmd.add_argument("--model", choices=("elmore", "two_pole"),
                     default="two_pole",
                     help="reduced-order delay model "
                          "(default: two_pole)")
    cmd.add_argument("--corners", type=_positive_int, default=None,
                     metavar="N",
                     help="also sweep N random R/C corner scale "
                          "factors through the vectorized reduction")
    cmd.add_argument("--seed", type=int, default=0,
                     help="corner-sampling seed (default: 0)")
    cmd.add_argument("--validate", action="store_true",
                     help="lower the tree to R/C devices and "
                          "cross-validate the analytic delays "
                          "against transient SPICE")
    return parser


def _parse_delta_vectors(specs: Sequence[str]
                         ) -> tuple[tuple[float, ...], ...]:
    """``--delta`` values (ps, comma-separated) -> Δ-vectors in s."""
    vectors = []
    for spec in specs:
        try:
            vectors.append(tuple(float(part) * PS
                                 for part in spec.split(",")))
        except ValueError:
            raise ValueError(
                f"bad --delta value {spec!r}: expected ps numbers, "
                "comma-separated for sibling offsets") from None
    return tuple(vectors)


def request_from_args(args: argparse.Namespace) -> Request:
    """Map one parsed subcommand invocation to its request object."""
    command = args.command
    if command == "list":
        return DescribeRequest()
    if command == "version":
        return VersionRequest()
    if command == "delay":
        return DelayRequest(direction=args.direction,
                            deltas=_parse_delta_vectors(args.deltas),
                            gate=args.gate,
                            vn_init=args.vn_init)
    if command == "characterize":
        return CharacterizeRequest(gate=args.gate, fit=args.fit,
                                   core_points=args.core_points,
                                   state_points=args.state_points,
                                   library_name=args.name)
    if command == "library" and args.path is not None:
        return LibraryRequest(path=args.path, cell=args.cell,
                              verify=args.verify)
    if command == "stats":
        sigma = []
        for spec in (args.sigma or ()):
            name, separator, value = spec.partition("=")
            if not separator:
                raise ValueError(
                    f"bad --sigma value {spec!r}: expected NAME=REL, "
                    "e.g. r1=0.1")
            try:
                sigma.append((name, float(value)))
            except ValueError:
                raise ValueError(
                    f"bad --sigma value {spec!r}: {value!r} is not "
                    "a number") from None
        return StatsRequest(
            method=args.method,
            gate=args.gate,
            direction=args.direction,
            deltas=tuple(value * PS
                         for value in (args.deltas or [0.0])),
            samples=args.samples,
            seed=args.seed,
            sigma=tuple(sigma),
            distribution=args.distribution,
            correlation=args.correlation,
            vn_init=args.vn_init,
            percentiles=(tuple(args.percentiles)
                         if args.percentiles else (1.0, 50.0, 99.0)),
            bins=args.bins,
            degree=args.degree,
            circuit=args.circuit,
            required=(args.required * PS
                      if args.required is not None else None),
            arrival_sigma=args.arrival_sigma * PS,
            per_instance=args.per_instance)
    if command == "sta":
        required = (args.required * PS if args.required is not None
                    else None)
        return StaRequest(circuit=args.circuit,
                          library_path=args.library,
                          cell=args.cell,
                          required=required,
                          top=args.top,
                          corners=args.corners,
                          seed=args.seed,
                          validate=args.validate)
    if command == "wire":
        return WireRequest(topology=args.topology,
                           stages=args.stages,
                           branches=args.branches,
                           resistance=args.resistance * 1e3,
                           capacitance=args.capacitance * FF,
                           sink_load=args.sink_load * FF,
                           model=args.model,
                           corners=args.corners or 0,
                           seed=args.seed,
                           validate=args.validate)
    return ExperimentRequest(
        name=command,
        with_analog=getattr(args, "with_analog", False),
        transitions=getattr(args, "transitions", None),
        repetitions=getattr(args, "repetitions", None),
        seed=getattr(args, "seed", 0))


def _metrics_command(args: argparse.Namespace) -> int:
    """``repro metrics``: print Prometheus text exposition."""
    if args.url is None:
        from .obs import metrics as obs_metrics
        sys.stdout.write(obs_metrics.render_prometheus(
            obs_metrics.registry()))
        return 0
    import urllib.request
    url = args.url.rstrip("/") + "/v1/metrics"
    try:
        with urllib.request.urlopen(url, timeout=10.0) as response:
            sys.stdout.write(response.read().decode("utf-8"))
    except (OSError, UnicodeDecodeError) as error:
        print(f"repro metrics: {url}: {error}", file=sys.stderr)
        return 2
    return 0


def _startup_span_bounds() -> "tuple[float, float]":
    """(wall-clock start, duration) of the process-startup phase.

    The baseline is the import-time stamp taken at the top of the
    package (importing numpy and the package's own modules dominates
    CLI startup; scipy loads only inside the oracles and the fit); on
    Linux it is widened to the kernel's process start time from
    ``/proc/self/stat``, so interpreter bootstrap is covered too.
    """
    from . import _BOOT_T0, _BOOT_TS
    duration_s = time.perf_counter() - _BOOT_T0
    start_ts = _BOOT_TS
    try:
        with open("/proc/self/stat") as handle:
            start_ticks = float(
                handle.read().rsplit(") ", 1)[1].split()[19])
        with open("/proc/uptime") as handle:
            uptime_s = float(handle.read().split()[0])
        ticks_per_s = os.sysconf("SC_CLK_TCK")
        since_exec = uptime_s - start_ticks / ticks_per_s
    except (OSError, ValueError, IndexError):
        return start_ts, duration_s
    if duration_s < since_exec < duration_s + 60.0:
        start_ts -= since_exec - duration_s
        duration_s = since_exec
    return start_ts, duration_s


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Bad inputs (unknown gate/engine/library/circuit names, malformed
    values) exit with status 2 and a one-line message on stderr.
    With ``--trace PATH`` the whole dispatch runs under a ``cli.run``
    root span and the span records are written to *PATH* as JSON
    lines before exit.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_spec = getattr(args, "trace", None)
    if trace_spec is None:
        return _execute(args)
    tracer = obs_trace.configure(trace_spec)
    try:
        if tracer is not None:
            # Backdate a root span over interpreter bootstrap and
            # package import, so the trace accounts for the whole
            # process wall time rather than just post-parse work.
            start_ts, duration_s = _startup_span_bounds()
            tracer.record("cli.startup", start_ts, duration_s)
        with obs_trace.span("cli.run", command=args.command):
            code = _execute(args)
        tracer = obs_trace.active_tracer()
        if tracer is not None:
            tracer.flush()
            if tracer.sink is not None:
                print(f"repro: wrote trace spans to {tracer.sink}",
                      file=sys.stderr)
        return code
    finally:
        obs_trace.unconfigure()


def _execute(args: argparse.Namespace) -> int:
    """Run one parsed subcommand (the body of :func:`main`)."""
    if args.command == "metrics":
        return _metrics_command(args)
    if args.command == "serve":
        from .server import serve
        try:
            return serve(host=args.host, port=args.port,
                         tech=args.tech, engine=args.engine,
                         job_dir=args.jobs_dir,
                         run_workers=args.run_workers,
                         batch_workers=args.batch_workers,
                         request_timeout=args.timeout,
                         log_stream=(sys.stderr if args.access_log
                                     else None))
        except (ReproError, ValueError) as error:
            print(f"repro serve: {error}", file=sys.stderr)
            return 2
    json_spec = getattr(args, "json", None)
    try:
        session = Session(tech=getattr(args, "tech", "finfet15"),
                          engine=getattr(args, "engine", None))
        request = request_from_args(args)
        result = session.run(request)
        extra_lines = []
        if args.command == "characterize":
            from .library import GateLibrary
            out = GateLibrary.from_dict(result.library).save(args.out)
            extra_lines.append(f"wrote {out}")
        if json_spec not in (None, "-"):
            with open(json_spec, "w") as handle:
                handle.write(result.to_json(indent=2) + "\n")
            extra_lines.append(f"wrote {json_spec}")
    except (ReproError, ValueError) as error:
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 2
    if json_spec == "-":
        print(result.to_json(indent=2))
        # Keep stdout pure JSON; file-write notices (e.g. the
        # characterize --out library) go to stderr.
        for line in extra_lines:
            print(line, file=sys.stderr)
        return 0
    print("\n".join([result.text, *extra_lines]))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
