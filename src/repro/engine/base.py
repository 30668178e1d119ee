"""The evaluation-backend seam of the delay model.

A :class:`DelayEngine` answers one question — "what are the MIS delays
of this gate for these input separations?" — array-in/array-out.  The
closed-form mode solutions of :mod:`repro.core.solutions` make the
answer embarrassingly parallel over Δ, so the same protocol can be
served by very different implementations:

* ``reference`` — the scalar per-Δ trajectory computation of
  :class:`repro.core.hybrid_model.HybridNorModel`, one exact
  root-search per point.  Slow, but the ground truth.
* ``vectorized`` — NumPy evaluation of whole Δ arrays at once
  (:mod:`repro.engine.vectorized`), bit-tight against the reference.

Engines register themselves by name; sweeps all over the package accept
an ``engine=`` keyword (and the CLI an ``--engine`` flag) that is
resolved here.  A new backend only needs to implement the protocol and
call :func:`register_engine`.
"""

from __future__ import annotations

import functools
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from ..core.multi_input import GeneralizedNorParameters, parameter_width
from ..core.parameters import BLOCK_DTYPE, NorGateParameters
from ..errors import ParameterError
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .blocks import block_delays_loop

__all__ = [
    "DEFAULT_ENGINE",
    "DelayEngine",
    "available_engines",
    "delays_for_direction",
    "get_engine",
    "register_engine",
    "traced_entry_point",
]

#: Engine used when callers do not specify one.
DEFAULT_ENGINE = "vectorized"


@runtime_checkable
class DelayEngine(Protocol):
    """Array-native evaluator of the hybrid NOR MIS delay functions.

    Implementations must be pure functions of ``(params, deltas)``:
    the same inputs always give the same delays, which is what makes
    per-parameter-set caching safe.

    The Δ-vector entry points take one parameter set, or an n-input
    sample block with one set per lane (see
    :func:`~repro.core.multi_input.nor_delays`).  Backends may
    additionally expose 2-input *sample-block* entry points
    (``delays_falling_block(block, deltas)`` /
    ``delays_rising_block(block, deltas, vn_init)``) that batch over
    the parameter axis — one structured record per parameter set, see
    :mod:`repro.engine.blocks`.  They are optional:
    :func:`delays_for_direction` calls them when present and falls
    back to the per-sample loop
    :func:`~repro.engine.blocks.block_delays_loop` otherwise, so the
    protocol's required surface stays the four Δ-batched methods
    below.
    """

    #: Registry name of the backend.
    name: str

    def delays_falling(self, params: NorGateParameters,
                       deltas) -> np.ndarray:
        """Falling-output MIS delays ``δ↓_M(Δ)`` for an array of Δ.

        Parameters
        ----------
        params : NorGateParameters
            Electrical parameter set (SI units).
        deltas : array_like of float
            Input separations ``Δ = t_B − t_A`` in seconds; any
            shape, ``±inf`` (SIS limits) and ``0`` allowed.

        Returns
        -------
        numpy.ndarray
            Delays in seconds, same shape as *deltas*, including the
            pure delay ``δ_min``.
        """
        ...

    def delays_rising(self, params: NorGateParameters, deltas,
                      vn_init: float = 0.0) -> np.ndarray:
        """Rising-output MIS delays ``δ↑_M(Δ)`` for an array of Δ.

        Parameters
        ----------
        params : NorGateParameters
            Electrical parameter set (SI units).
        deltas : array_like of float
            Input separations in seconds; any shape, ``±inf``
            allowed.
        vn_init : float, optional
            Internal-node voltage ``X`` of mode (1,1) in volts
            (paper Section IV; default 0.0, the GND worst case).

        Returns
        -------
        numpy.ndarray
            Delays in seconds, same shape as *deltas*, including
            ``δ_min``.
        """
        ...

    def delays_falling_n(self, params: GeneralizedNorParameters,
                         deltas) -> np.ndarray:
        """Falling n-input MIS delays over a Δ-vector grid.

        The Δ-vector generalization of :meth:`delays_falling`: input
        0 rises at ``t = 0`` and sibling ``j`` at
        ``deltas[..., j-1]``; the delay is referenced to the
        *earliest* input.  For ``n = 2`` the single-column grid
        reproduces :meth:`delays_falling` to well below a picosecond
        (the engine parity suite asserts ≤ 1e-12 s).

        Parameters
        ----------
        params : GeneralizedNorParameters
            n-input electrical parameter set (SI units).
        deltas : array_like of float
            Sibling offsets, shape ``(..., n−1)``; ``±inf`` clips to
            the SIS plateaus, NaN is rejected.

        Returns
        -------
        numpy.ndarray
            Delays in seconds (``δ_min`` included), shape
            ``deltas.shape[:-1]``.
        """
        ...

    def delays_rising_n(self, params: GeneralizedNorParameters,
                        deltas, internal_init: float = 0.0
                        ) -> np.ndarray:
        """Rising n-input MIS delays over a Δ-vector grid.

        The Δ-vector generalization of :meth:`delays_rising`: input 0
        falls at ``t = 0`` and sibling ``j`` at ``deltas[..., j-1]``;
        the delay is referenced to the *latest* input.

        Parameters
        ----------
        params : GeneralizedNorParameters
            n-input electrical parameter set (SI units).
        deltas : array_like of float
            Sibling offsets, shape ``(..., n−1)``; ``±inf`` clips to
            the SIS plateaus, NaN is rejected.
        internal_init : float, optional
            Initial voltage of every internal chain node in volts
            (default 0.0, the paper's GND worst case).

        Returns
        -------
        numpy.ndarray
            Delays in seconds (``δ_min`` included), shape
            ``deltas.shape[:-1]``.
        """
        ...


def delays_for_direction(engine: "DelayEngine", direction: str,
                         params, deltas, state=0.0) -> np.ndarray:
    """Dispatch a delay evaluation by direction, gate width and lanes.

    The single place the ``falling``/``rising`` branch and the
    2-input-vs-n-input entry-point choice live: the STA timing arcs of
    :mod:`repro.sta`, Monte-Carlo and the surrogate, characterization
    and the pairwise sweeps of :mod:`repro.core.multi_input` route
    through here.  2-input lanes go to the closed form, n-input lanes
    to the compiled kernel.

    Parameters
    ----------
    engine : DelayEngine
        Backend instance the evaluation runs on.
    direction : str
        ``"falling"`` or ``"rising"`` (the output transition).
    params : parameter set or sample block
        One set shared by every lane — :class:`NorGateParameters`, or
        :class:`GeneralizedNorParameters` for the Δ-vector entry
        points — or one set per lane: a sample block (dtype
        :data:`~repro.core.parameters.BLOCK_DTYPE` or
        :func:`~repro.core.multi_input.generalized_dtype`) whose
        record ``i`` applies to ``deltas[i]``.  2-input n-input sets
        (``n = 2``) run the closed form on their one sibling offset.
    deltas : array_like of float
        Input separations in seconds — any shape for a 2-input set,
        ``(N,)`` or ``(N, M)`` for a 2-input block, and shape
        ``(..., n−1)`` for n-input sets (``(N, ..., n−1)`` for a
        block); ``±inf`` allowed.
    state : float or array_like of float, optional
        Initial internal-node voltage in volts, used by the rising
        direction only (default 0.0, the GND worst case): ``V_N`` of
        mode (1,1) for 2-input parameters (one value, or one per
        record of a 2-input block), every chain node for n-input ones.

    Returns
    -------
    numpy.ndarray
        Delays in seconds — the shape of *deltas* (2-input) or
        ``deltas.shape[:-1]`` (n-input).

    Raises
    ------
    ParameterError
        If *direction* is neither ``"falling"`` nor ``"rising"``, or
        *params* is no parameter set or sample block.
    """
    if direction not in ("falling", "rising"):
        raise ParameterError(f"direction must be 'falling' or "
                             f"'rising', got {direction!r}")
    two_input = isinstance(params, NorGateParameters) or (
        isinstance(params, np.ndarray) and params.dtype == BLOCK_DTYPE)
    if not two_input and parameter_width(params) == 2:
        # An n = 2 set is the paper's gate: its one sibling offset
        # runs the closed form.
        d = np.asarray(deltas, dtype=float)
        if d.ndim == 0 or d.shape[-1] != 1:
            raise ParameterError(f"a 2-input gate takes one sibling "
                                 f"offset per Δ-vector, got {d.shape}")
        params, deltas, two_input = _two_input(params), d[..., 0], True
    if not two_input:
        method = getattr(engine, f"delays_{direction}_n")
    elif isinstance(params, NorGateParameters):
        method = getattr(engine, f"delays_{direction}")
    else:
        method = getattr(engine, f"delays_{direction}_block", None)
        if method is None:
            return block_delays_loop(engine, direction, params, deltas,
                                     state)
    if direction == "falling":
        return method(params, deltas)
    return method(params, deltas, state)


def _two_input(params):
    """The closed-form kind of an ``n = 2`` set or sample block."""
    if isinstance(params, GeneralizedNorParameters):
        return params.to_two_input()
    block = np.empty(params.shape, BLOCK_DTYPE)
    block["r1"], block["r2"] = params["r_pullup"].T
    block["r3"], block["r4"] = params["r_pulldown"].T
    block["cn"] = params["c_internal"][:, 0]
    for name in ("co", "vdd", "delta_min"):
        block[name] = params[name]
    return block


#: Memoized (engine, direction) -> call counter, so the per-call
#: metrics cost is one dict lookup plus a locked increment.
_CALL_COUNTERS: dict = {}


def _call_counter(engine_name: str, direction: str):
    key = (engine_name, direction)
    counter = _CALL_COUNTERS.get(key)
    if counter is None:
        counter = _metrics.registry().counter(
            "repro_engine_calls_total",
            "delay-engine batch invocations",
            labels={"engine": engine_name, "direction": direction})
        _CALL_COUNTERS[key] = counter
    return counter


def traced_entry_point(span_name: str, direction: str):
    """Instrument an engine entry point (decorator factory).

    Wraps a ``delays_*`` method so every batch invocation increments
    the ``repro_engine_calls_total{engine,direction}`` counter and —
    when tracing is enabled — runs inside a span carrying the engine
    name, direction, batch size, and (for n-input entry points) the
    gate width.  Both backends decorate their public methods
    with this, so traces and metrics stay uniform across engines.

    Parameters
    ----------
    span_name : str
        Span name, ``"engine.delays"`` (2-input entry points) or
        ``"engine.delays_n"`` (Δ-vector entry points).
    direction : str
        ``"falling"`` or ``"rising"`` (a span/label attribute).

    Returns
    -------
    callable
        The method decorator.
    """
    def decorate(method):
        @functools.wraps(method)
        def wrapper(self, params, deltas, *args, **kwargs):
            _call_counter(self.name, direction).inc()
            tracer = _trace.active_tracer()
            if tracer is None:
                # Disabled path: the counter bump above and this
                # check are the whole overhead (no attrs computed,
                # nothing allocated).
                return method(self, params, deltas, *args, **kwargs)
            with tracer.span(span_name, engine=self.name,
                             direction=direction,
                             points=int(np.size(deltas)),
                             n=parameter_width(params)):
                return method(self, params, deltas, *args, **kwargs)
        return wrapper
    return decorate


_FACTORIES: dict[str, Callable[[], DelayEngine]] = {}
_INSTANCES: dict[str, DelayEngine] = {}


def register_engine(name: str,
                    factory: Callable[[], DelayEngine]) -> None:
    """Register an engine factory under a name (last wins).

    Parameters
    ----------
    name : str
        Registry key later accepted by :func:`get_engine` and the
        CLI's ``--engine`` flag.
    factory : callable
        Zero-argument callable producing a :class:`DelayEngine`;
        invoked lazily on first :func:`get_engine` resolution.
    """
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def available_engines() -> tuple[str, ...]:
    """Names of all registered backends, sorted.

    Returns
    -------
    tuple of str
        The registry keys, e.g. ``('reference', 'vectorized')``.
    """
    return tuple(sorted(_FACTORIES))


def get_engine(engine: str | DelayEngine | None = None) -> DelayEngine:
    """Resolve an engine specification to a backend instance.

    Parameters
    ----------
    engine : str or DelayEngine or None, optional
        A registry name, an engine instance (returned as-is), or
        ``None`` for :data:`DEFAULT_ENGINE`.

    Returns
    -------
    DelayEngine
        The resolved backend.  Instances are cached per name so that
        engine-level solution caches are shared across callers.

    Raises
    ------
    ValueError
        If *engine* is a name with no registered backend.
    """
    if engine is None:
        engine = DEFAULT_ENGINE
    if not isinstance(engine, str):
        return engine
    try:
        factory = _FACTORIES[engine]
    except KeyError:
        raise ValueError(
            f"unknown delay engine {engine!r}; available: "
            f"{', '.join(available_engines())}") from None
    if engine not in _INSTANCES:
        _INSTANCES[engine] = factory()
    return _INSTANCES[engine]
