"""The two evaluation backends of MIS delay sweeps.

The hybrid model is analytic, so evaluating it over thousands of input
separations should run at array speed.  This package serves it through
two backends behind one protocol:

* :data:`~repro.engine.base.DEFAULT_ENGINE` (``"vectorized"``) —
  NumPy batch evaluation of the closed-form mode chains through the
  parameter-block kernels, with per-parameter-set memoized constants;
* ``"reference"`` — the scalar per-Δ trajectory computation, kept as
  the parity baseline.

Both backends serve both arities of the protocol: scalar-Δ entry
points (``delays_falling`` / ``delays_rising``) for the paper's
2-input cells, and Δ-vector entry points (``delays_falling_n`` /
``delays_rising_n``, trailing axis of n−1 sibling offsets) for the
generalized n-input NOR of :mod:`repro.core.multi_input`.  A third
axis batches over *parameter sets*: a sample block (one structured
record per parameter set, packed by :func:`block_from_parameters` and
read back by :func:`parameters_at`) gives every lane its own set —
the 2-input block entry points (``delays_falling_block`` /
``delays_rising_block``, see :mod:`repro.engine.blocks`) and the
Δ-vector entry points evaluate N Monte-Carlo samples × M Δ-points in
one call.  :func:`~repro.engine.base.delays_for_direction` dispatches
every such evaluation by direction and gate width.

Sweeps throughout the package accept ``engine=`` (a name, an instance,
or ``None`` for the default) and the CLI exposes ``--engine``::

    from repro.engine import get_engine
    delays = get_engine().delays_falling(PAPER_TABLE_I, deltas)

The session facade (:class:`repro.api.Session`) binds a backend once
for a whole workflow — prefer ``Session(engine=...)`` over threading
``engine=`` keywords through multi-layer code.
"""

from ..core.multi_input import block_from_parameters, parameters_at
from ..core.parameters import BLOCK_DTYPE
from .base import (DEFAULT_ENGINE, DelayEngine, available_engines,
                   delays_for_direction, get_engine)
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
]
