"""Timing-library characterization: gates -> interpolated delay tables.

This package turns the hybrid model into what downstream digital flows
actually consume — a *characterized library*, in the spirit of
NLDM-style standard-cell libraries but with the input-separation axis
``Δ`` the paper shows multi-input gates need:

* :mod:`repro.library.characterize` sweeps a grid of
  ``(gate, parameters, Δ range, state grid)`` jobs through a delay
  engine (:mod:`repro.engine`);
* :func:`gate_kind` is the one reading of a gate name (``"nor2"``,
  ``"nand2"``, ``"nor<n>"``): its width, which output direction the
  parallel and the series network drive, the controlling input value
  and whether the NAND mirror applies; :func:`gate_delays` evaluates
  a gate's delay functions through those conventions;
* :mod:`repro.library.tables` holds the resulting
  :class:`GateDelayTable` entries — one multilinear
  :class:`DelaySurface` per output direction over
  ``(state, Δ₁ … Δₙ₋₁)``, one Δ axis for the paper's 2-input cells and
  ``n − 1`` for n-input NOR cells — with a versioned JSON on-disk
  format;
* :class:`repro.timing.channels.TableDelayChannel` replays a table in
  event-driven simulation, replacing the closed-form model with pure
  lookups.

Quickstart::

    from repro.library import (characterize_library, paper_jobs,
                               GateLibrary)
    lib = characterize_library(paper_jobs(), engine="vectorized")
    lib.save("paper_gates.json")
    table = GateLibrary.load("paper_gates.json")["nor2_paper"]
    table.delay_falling(10e-12)     # interpolated MIS delay, seconds

The CLI front-end is ``repro characterize`` / ``repro library`` —
both thin adapters over the session facade
(:class:`repro.api.Session` running a
:class:`~repro.api.CharacterizeRequest` /
:class:`~repro.api.LibraryRequest`), whose results embed the
serialized library payload for transport.
"""

from .characterize import (CharacterizationJob, TableAccuracy,
                           characterize_gate, characterize_library,
                           default_delta_grid, default_state_grid,
                           default_vector_delta_grid, gate_delays,
                           generalized_jobs, paper_jobs, verify_table)
from .tables import (LIBRARY_FORMAT, LIBRARY_FORMAT_VERSION,
                     DelaySurface, GateDelayTable, GateKind, GateLibrary,
                     gate_kind, mis_gate_inputs)

__all__ = [
    "CharacterizationJob",
    "DelaySurface",
    "GateDelayTable",
    "GateKind",
    "GateLibrary",
    "LIBRARY_FORMAT",
    "LIBRARY_FORMAT_VERSION",
    "TableAccuracy",
    "characterize_gate",
    "characterize_library",
    "default_delta_grid",
    "default_state_grid",
    "default_vector_delta_grid",
    "gate_delays",
    "gate_kind",
    "generalized_jobs",
    "mis_gate_inputs",
    "paper_jobs",
    "verify_table",
]
