"""Pluggable evaluation backends for MIS delay sweeps.

The hybrid model is analytic, so evaluating it over thousands of input
separations should run at array speed.  This package provides the
backend seam that makes that a deployment choice instead of a rewrite:

* :data:`~repro.engine.base.DEFAULT_ENGINE` (``"vectorized"``) —
  NumPy batch evaluation of the closed-form mode chains through the
  parameter-block kernels, with per-parameter-set memoized constants;
* ``"reference"`` — the scalar per-Δ trajectory computation, kept as
  the parity baseline.

Every backend serves both arities of the protocol: scalar-Δ entry
points (``delays_falling`` / ``delays_rising``) for the paper's
2-input cells, and Δ-vector entry points (``delays_falling_n`` /
``delays_rising_n``, trailing axis of n−1 sibling offsets) for the
generalized n-input NOR of :mod:`repro.core.multi_input`.  A third
axis batches over *parameter sets*: a sample block (one structured
record per parameter set) gives every lane its own set — the 2-input
block entry points (``delays_falling_block`` /
``delays_rising_block``, see :mod:`repro.engine.blocks`) and the
Δ-vector entry points evaluate N Monte-Carlo samples × M Δ-points in
one call.  :func:`~repro.engine.base.delays_for_direction` dispatches
every such evaluation by direction and gate width, with a per-sample
loop fallback for backends without native block kernels.

Sweeps throughout the package accept ``engine=`` (a name, an instance,
or ``None`` for the default) and the CLI exposes ``--engine``::

    from repro.engine import get_engine
    delays = get_engine().delays_falling(PAPER_TABLE_I, deltas)

The session facade (:class:`repro.api.Session`) binds a backend once
for a whole workflow — prefer ``Session(engine=...)`` over threading
``engine=`` keywords through multi-layer code.

New backends implement :class:`~repro.engine.base.DelayEngine` and call
:func:`~repro.engine.base.register_engine`.
"""

from .base import (DEFAULT_ENGINE, DelayEngine, available_engines,
                   delays_for_direction, get_engine, register_engine)
from .blocks import BLOCK_DTYPE, block_from_parameters, parameters_at
from .reference import ReferenceEngine
from .vectorized import VectorizedEngine

__all__ = [
    "BLOCK_DTYPE",
    "DEFAULT_ENGINE",
    "DelayEngine",
    "ReferenceEngine",
    "VectorizedEngine",
    "available_engines",
    "block_from_parameters",
    "delays_for_direction",
    "get_engine",
    "parameters_at",
    "register_engine",
]
