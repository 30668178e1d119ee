"""repro — reproduction of "A Simple Hybrid Model for Accurate Delay
Modeling of a Multi-Input Gate" (Ferdowsi, Maier, Öhlinger, Schmid;
DATE 2022, arXiv:2111.11182).

Package layout (``docs/index.md`` has the full inventory):

* :mod:`repro.api` — the unified session facade: a :class:`Session`
  binding technology, engine and parameters, typed JSON-round-trippable
  request/result objects, and one ``session.run(request)`` dispatch
  seam the CLI, experiments and benchmarks all route through.
* :mod:`repro.core` — the hybrid four-mode ODE model of a CMOS NOR gate,
  its closed-form solutions, MIS delay functions, the analytic
  characteristic-delay formulas (paper eqs. 8–12) and the δ_min-based
  parametrization (Table I).
* :mod:`repro.engine` — the two array-native evaluation backends of
  MIS delay sweeps: a scalar ``reference`` backend and a NumPy
  ``vectorized`` backend (the default), selected with the ``engine=``
  keyword of every sweep API or the CLI's ``--engine`` flag.
* :mod:`repro.library` — batch timing-library characterization:
  sweeps gate/parameter grids through an engine into serializable
  per-gate MIS delay tables (JSON) with multilinear interpolated lookup,
  consumed by :class:`repro.timing.TableDelayChannel`.
* :mod:`repro.sta` — MIS-aware static timing analysis: circuits
  lowered into pin-to-pin timing arcs (engine / table / fixed delay
  models), arrival propagation with sibling-Δ conditioning, slack,
  ranked critical paths, and vectorized corner sweeps.
* :mod:`repro.spice` — an MNA-based analog transient simulator with a
  square-law MOSFET model and synthetic 15 nm / 65 nm technology cards;
  the golden reference replacing the paper's Spectre setup.
* :mod:`repro.timing` — digital traces, delay channels (pure, inertial,
  IDM involution, hybrid NOR), deviation-area metrics, random trace
  generation and a timing simulator; the Involution Tool replacement.
* :mod:`repro.models` — literature curve-fitting MIS baselines.
* :mod:`repro.analysis` — experiment pipelines regenerating every
  figure and table of the paper.

Quickstart::

    from repro import Session
    from repro.api import DelayRequest
    session = Session()
    result = session.run(DelayRequest(deltas=((10e-12,),)))
    print(result.delays[0])              # MIS delay at Δ = 10 ps

or, one layer down, directly against the model::

    from repro import HybridNorModel, PAPER_TABLE_I
    model = HybridNorModel(PAPER_TABLE_I)
    print(model.delay_falling(10e-12))   # MIS delay at Δ = 10 ps
"""

import time as _time

#: Wall-clock / monotonic stamps taken before any heavy import; the
#: CLI's ``--trace`` mode uses them to record a ``cli.startup`` span
#: covering interpreter bootstrap and package import time, so traces
#: account for (nearly) the whole process wall time.
_BOOT_TS = _time.time()
_BOOT_T0 = _time.perf_counter()

from ._version import __version__
from .core import (
    PAPER_DELTA_MIN,
    PAPER_TABLE_I,
    CharacteristicDelays,
    CharacteristicTargets,
    HybridNorModel,
    MisCurve,
    Mode,
    NorGateParameters,
    PiecewiseTrajectory,
    fit_nor_parameters,
    infer_delta_min,
    solve_mode,
)
from .engine import (
    DEFAULT_ENGINE,
    DelayEngine,
    available_engines,
    get_engine,
)
from .library import (
    CharacterizationJob,
    GateDelayTable,
    GateLibrary,
    characterize_gate,
    characterize_library,
    paper_jobs,
)
from .sta import (
    StaResult,
    TimingGraph,
    analyze,
    build_timing_graph,
    sta_circuit,
    sweep_corners,
)
from .errors import (
    ConvergenceError,
    FittingError,
    NetlistError,
    NoCrossingError,
    ParameterError,
    ReproError,
    SimulationError,
    TraceError,
)
from .api import Session

__all__ = [
    "CharacterizationJob",
    "CharacteristicDelays",
    "CharacteristicTargets",
    "ConvergenceError",
    "DEFAULT_ENGINE",
    "DelayEngine",
    "FittingError",
    "GateDelayTable",
    "GateLibrary",
    "HybridNorModel",
    "MisCurve",
    "Mode",
    "NetlistError",
    "NoCrossingError",
    "NorGateParameters",
    "PAPER_DELTA_MIN",
    "PAPER_TABLE_I",
    "ParameterError",
    "PiecewiseTrajectory",
    "ReproError",
    "Session",
    "SimulationError",
    "StaResult",
    "TimingGraph",
    "TraceError",
    "analyze",
    "available_engines",
    "build_timing_graph",
    "characterize_gate",
    "characterize_library",
    "fit_nor_parameters",
    "get_engine",
    "infer_delta_min",
    "paper_jobs",
    "solve_mode",
    "sta_circuit",
    "sweep_corners",
    "__version__",
]
