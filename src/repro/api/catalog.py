"""The capability catalog shared by the session and the CLI.

One place for the name -> description tables and name -> object
registries the front ends render: experiment descriptions, workflow
descriptions, technology cards and gate-width choices.  The CLI builds
its parsers from these, the :class:`~repro.api.Session` dispatcher
validates against them — so the two can never drift apart.
"""

from __future__ import annotations

from ..library.tables import GATE_CHOICES
from ..spice.technology import BULK65, FINFET15, TechnologyCard

__all__ = [
    "EXPERIMENT_DESCRIPTIONS",
    "GATE_CHOICES",
    "TECHNOLOGIES",
    "WORKFLOW_DESCRIPTIONS",
    "experiment_names",
]

#: Technology cards selectable by name (the CLI's ``--tech``).
TECHNOLOGIES: dict[str, TechnologyCard] = {
    "finfet15": FINFET15,
    "bulk65": BULK65,
}

#: Experiment name -> one-line description (``repro list``).
EXPERIMENT_DESCRIPTIONS: dict[str, str] = {
    "fig2": "analog MIS characterization (delay vs input separation)",
    "fig4": "mode-system trajectories",
    "fig5": "model vs analog falling MIS delays",
    "fig6": "model rising MIS delays for VN in {GND, VDD/2, VDD}",
    "fig7": "normalized deviation areas on random traces",
    "fig8": "falling matching with/without the pure delay",
    "table1": "least-squares parametrization (Table I)",
    "analytic": "eqs. (8)-(12) vs exact crossings",
    "engines": "delay-engine backends: parity and sweep throughput",
    "library": "batch library characterization accuracy",
    "multi_input": "n-input NOR generalization: Δ-vector batch vs "
                   "scalar, n=2 reduction",
    "runtime": "digital-simulation runtime comparison",
    "faithfulness": "short-pulse filtration probe",
}

#: Workflow command name -> one-line description (``repro list``).
WORKFLOW_DESCRIPTIONS: dict[str, str] = {
    "characterize": "characterize a gate library into a JSON file",
    "library": "inspect / verify a characterized library JSON "
               "(with a path)",
    "sta": "MIS-aware static timing analysis (report, corner "
           "sweeps, cross-validation)",
    "stats": "statistical delay: vectorized Monte-Carlo, "
             "collocation surrogate, timing yield",
    "delay": "evaluate MIS delays at explicit input separations",
    "wire": "reduce an RC wire tree to analytic delays (corner "
            "sweeps, SPICE cross-validation)",
    "serve": "run the HTTP delay service (POST /v1/run + async "
             "batch jobs)",
    "metrics": "print Prometheus metrics (in-process, or scraped "
               "from a running server with --url)",
    "version": "print the package version",
}

def experiment_names() -> tuple[str, ...]:
    """Names :class:`~repro.api.ExperimentRequest` (and the CLI
    experiment subcommands) accept, in listing order."""
    return tuple(EXPERIMENT_DESCRIPTIONS)
