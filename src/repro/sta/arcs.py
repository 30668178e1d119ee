"""Pin-to-pin arc delay models of the STA subsystem.

A timing arc answers "how long from this input transition to that
output transition, given the sibling-input separation Δ?" — the same
question the paper's two-input delay functions ``δ↓(Δ)`` / ``δ↑(Δ)``
answer, packaged behind one small protocol so that a
:class:`~repro.sta.graph.TimingGraph` can mix

* **direct model evaluation** (:class:`EngineArcModel`) — the hybrid
  NOR/NAND closed forms through the :mod:`repro.engine` seam; the only
  model kind that can be *re-targeted* to other parameter corners,
  which is what the vectorized corner sweeps of :mod:`repro.sta.sweep`
  batch over;
* **characterized-table lookup** (:class:`TableArcModel`) —
  multilinear ``(state, Δ)`` interpolation on a
  :class:`~repro.library.GateDelayTable`, exactly what an NLDM-style
  flow would read from a library JSON;
* **fixed delays** (:class:`FixedArcModel`) — the Δ-independent
  fallback for gates driven by single-input channels (pure, inertial,
  involution), read off the channel's stable-history delay.

All models are array-native: ``delays(direction, deltas)`` takes the
sibling separations of many lanes — ``(lanes,)`` for 2-pin and
single-input arcs, ``(lanes, n−1)`` Δ-vectors for wider gates — and
returns one delay per lane.  The level plan of
:class:`~repro.sta.graph.TimingGraph` groups the arcs of one level by
:func:`batch_key`, and :func:`arc_batch` turns each group into one
call: every engine-backed arc of a level, direction and gate width
shares one engine call over all its instances and corners, and fixed
and wire arcs, whose delays depend on neither Δ nor the corner, are
read once when the plan is built.
"""

from __future__ import annotations

import math
from typing import Protocol, runtime_checkable

import numpy as np

from ..core.multi_input import (generalized_block, paper_generalized,
                                parameter_width)
from ..core.parameters import BLOCK_DTYPE, NorGateParameters
from ..engine import block_from_parameters, get_engine
from ..errors import ParameterError
from ..library.characterize import gate_delays
from ..library.tables import GateDelayTable, gate_kind, gate_params
from ..obs.trace import span

__all__ = [
    "ArcDelayModel",
    "EngineArcModel",
    "FixedArcModel",
    "TableArcModel",
    "WireArcModel",
    "arc_batch",
    "batch_key",
]

@runtime_checkable
class ArcDelayModel(Protocol):
    """Delay model of one timing arc (array-in/array-out).

    Implementations must be pure functions of
    ``(direction, deltas, params)`` so that arc evaluations can be
    batched, cached and re-ordered freely by the analyzer.
    """

    #: Reporting name of the model kind.
    name: str

    #: Whether :meth:`delays` honours a *params* override — the corner
    #: sweep only re-targets retargetable models.
    retargetable: bool

    def delays(self, direction: str, deltas,
               params=None) -> np.ndarray:
        """MIS delays of the arc's output transition, one per lane.

        Parameters
        ----------
        direction : str
            ``"falling"`` or ``"rising"`` — the output transition the
            arc drives.
        deltas : array_like of float
            Sibling-input separations in seconds, one row per lane:
            shape ``(lanes,)`` holding ``Δ = t_B − t_A`` for 2-pin
            (and single-input) arcs, ``(lanes, n−1)`` holding the
            offsets relative to pin 0 for n-input gates; ``±inf``
            selects the SIS plateaus.  Δ-independent models read
            only the lane count.
        params : parameter set or sample block, optional
            Corner override — one set, or a sample block with one set
            per lane; only honoured when :attr:`retargetable` is
            true.

        Returns
        -------
        numpy.ndarray
            Delays in seconds, shape ``(lanes,)``.
        """
        ...


class EngineArcModel:
    """Direct hybrid-model arc evaluation through the engine seam.

    The paper's closed-form MIS delay functions, evaluated by a
    :class:`~repro.engine.DelayEngine` backend.  NAND arcs use the
    CMOS mirror duality of :mod:`repro.core.duality`: the NAND falling
    surface is the NOR rising one with the internal-node state
    mirrored, and the NAND rising surface is the NOR falling one.

    Parameters
    ----------
    params : NorGateParameters or GeneralizedNorParameters
        Electrical parameters (mirrored reading for NAND); an n-input
        set for ``nor<n>``.  A 2-input generalized set for ``nor2``
        runs as the paper's closed-form set (see
        :func:`repro.library.tables.gate_params`).
    gate : str, optional
        ``"nor2"`` (default) or ``"nand2"``.
    engine : str or DelayEngine, optional
        Evaluation backend (name, instance, or ``None`` for the
        vectorized default).
    state : float, optional
        Initial internal-node voltage in volts for the
        state-dependent direction; ``None`` (default) selects the
        paper's worst case (``V_N = 0`` for NOR, ``V_M = VDD`` for
        NAND).
    """

    name = "engine"
    retargetable = True

    def __init__(self, params, gate: str = "nor2",
                 engine=None, state: float | None = None):
        self.params = gate_params(gate, params)
        self.num_inputs = gate_kind(gate).inputs
        self.gate = gate
        self.engine = get_engine(engine)
        self.state = None if state is None else float(state)

    def _resolve(self, params):
        """Resolve a corner override onto this arc's gate width.

        *params* is one set or a sample block with one set per lane.
        2-input corner sets re-target n-input arcs through the
        :func:`~repro.core.multi_input.paper_generalized`
        extrapolation (rail stage keeps ``R1``, further stages repeat
        ``R2``/``R4``/``CN``) — so one process-corner axis drives
        mixed-width circuits.
        """
        if params is None:
            return self.params
        width = parameter_width(params)
        two_input = isinstance(params, NorGateParameters) or (
            isinstance(params, np.ndarray) and params.dtype == BLOCK_DTYPE)
        if self.num_inputs == 2:
            if not two_input:
                raise ParameterError(
                    f"{self.gate!r} arcs re-target to "
                    "NorGateParameters corners only")
            return params
        if two_input:
            return paper_generalized(self.num_inputs, params)
        if width != self.num_inputs:
            raise ParameterError(
                f"corner parameter set has {width} inputs; "
                f"{self.gate!r} arcs need {self.num_inputs}")
        return params

    def delays(self, direction: str, deltas,
               params=None) -> np.ndarray:
        """Evaluate ``δ(Δ)`` for the arc's output *direction*.

        See :meth:`ArcDelayModel.delays`; *params* re-targets the
        evaluation to one corner, or to one corner per lane (2-input
        corner sets are widened through ``paper_generalized`` for
        n-input arcs); NAND arcs mirror through
        :func:`repro.library.gate_delays`.
        """
        return gate_delays(self.engine, self.gate, self._resolve(params),
                           direction, deltas, self.state)

    def __repr__(self) -> str:
        return (f"EngineArcModel(gate={self.gate!r}, "
                f"engine={self.engine.name!r})")


class TableArcModel:
    """Characterized-library arc lookup.

    Replays a :class:`~repro.library.GateDelayTable` — the consumer
    side of ``repro characterize`` — with the same clamped multilinear
    interpolation the :class:`~repro.timing.channels.TableDelayChannel`
    uses, so STA and event simulation read identical numbers.

    Parameters
    ----------
    table : GateDelayTable
        Characterized delay surfaces (``table.gate`` fixes the
        conventions).
    state : float, optional
        Internal-node voltage for state-dependent surface lookups;
        ``None`` (default) selects the worst case (0 V for NOR,
        ``VDD`` for NAND), matching the table channel.
    """

    name = "table"
    retargetable = False

    def __init__(self, table: GateDelayTable,
                 state: float | None = None):
        self.table = table
        #: Gate type and input count of the backing table.
        self.gate = table.gate
        self.num_inputs = table.num_inputs
        if state is None:
            state = gate_kind(table.gate).worst_state(table.params.vdd)
        self.state = float(state)

    def delays(self, direction: str, deltas,
               params=None) -> np.ndarray:
        """Interpolated ``δ(Δ)`` from the characterized surfaces.

        Clamped multilinear ``(state, Δ)`` lookups at the arc's
        state; see :meth:`ArcDelayModel.delays`.

        Raises
        ------
        ParameterError
            If a *params* corner override is requested — tables are
            characterized for one parameter set; re-characterize a
            library per corner instead — or the arc's state is not
            finite.
        """
        if params is not None and params != self.table.params:
            raise ParameterError(
                f"table-backed arc ({self.table.cell!r}) cannot be "
                "re-targeted to another parameter corner; "
                "characterize a library for that corner instead")
        if direction == "falling":
            surface = self.table.falling
        elif direction == "rising":
            surface = self.table.rising
        else:
            raise ParameterError(f"direction must be 'falling' or "
                                 f"'rising', got {direction!r}")
        return surface.delays_at(deltas, self.state, clamp=True)

    def __repr__(self) -> str:
        return f"TableArcModel({self.table.cell!r})"


class FixedArcModel:
    """Δ-independent arc delays (the non-characterized fallback).

    Used for gates behind single-input channels, whose delay does not
    depend on a sibling input.  :meth:`from_channel` reads the
    channel's stable-history delays (``δ(∞)``), which is exact for
    pure/inertial channels and the settled-history limit for
    involution channels.

    Parameters
    ----------
    delay_rise : float
        Delay of output-rising arcs, seconds (non-negative).
    delay_fall : float
        Delay of output-falling arcs, seconds (non-negative).
    """

    name = "fixed"
    retargetable = False

    def __init__(self, delay_rise: float, delay_fall: float):
        if not (math.isfinite(delay_rise) and delay_rise >= 0.0
                and math.isfinite(delay_fall) and delay_fall >= 0.0):
            raise ParameterError("fixed arc delays must be finite and "
                                 "non-negative")
        self.delay_rise = float(delay_rise)
        self.delay_fall = float(delay_fall)

    @classmethod
    def from_channel(cls, channel) -> "FixedArcModel":
        """Read the stable-history delays off a single-input channel.

        Parameters
        ----------
        channel : SingleInputChannel
            Any channel implementing ``delay(value, history)``;
            probed at ``history = inf`` (output stable forever).

        Raises
        ------
        ParameterError
            If the channel declines to produce a delay even for an
            infinitely-settled history.
        """
        rise = channel.delay(1, math.inf)
        fall = channel.delay(0, math.inf)
        if rise is None or fall is None:
            raise ParameterError(
                f"channel {channel!r} has no stable-history delay; "
                "provide an explicit FixedArcModel")
        return cls(delay_rise=rise, delay_fall=fall)

    def delays(self, direction: str, deltas,
               params=None) -> np.ndarray:
        """The constant delay, once per lane of *deltas*."""
        if direction == "falling":
            value = self.delay_fall
        elif direction == "rising":
            value = self.delay_rise
        else:
            raise ParameterError(f"direction must be 'falling' or "
                                 f"'rising', got {direction!r}")
        return np.full(np.shape(deltas)[:1], value)

    def __repr__(self) -> str:
        return (f"FixedArcModel(rise={self.delay_rise!r}, "
                f"fall={self.delay_fall!r})")


class WireArcModel:
    """RC-interconnect arc: one sink of a reduced wire tree.

    Wires are linear, so the arc is Δ-independent, positive-unate
    (rise propagates as rise, fall as fall) and direction-symmetric —
    a single delay serves both transitions.  The delay comes from the
    reduced-order models of :mod:`repro.wire.model`
    (:meth:`TimingCircuit.add_wire` builds these arcs), and the sink
    slew rides along as reporting metadata.

    Parameters
    ----------
    delay : float
        Sink delay, seconds (finite, non-negative; any slew-derate
        penalty already folded in).
    slew : float, optional
        10–90 % step-response slew at the sink, seconds.
    sink : str, optional
        Sink node name (span/report labeling).
    model : str, optional
        Reduced-order model the delay came from.
    """

    name = "wire"
    retargetable = False

    def __init__(self, delay: float, slew: float = 0.0,
                 sink: str = "", model: str = "elmore"):
        if not (math.isfinite(delay) and delay >= 0.0):
            raise ParameterError("wire arc delay must be finite and "
                                 "non-negative")
        if not (math.isfinite(slew) and slew >= 0.0):
            raise ParameterError("wire arc slew must be finite and "
                                 "non-negative")
        self.delay = float(delay)
        self.slew = float(slew)
        self.sink = sink
        self.model = model

    @classmethod
    def from_instance(cls, instance) -> "WireArcModel":
        """Build the arc from a
        :class:`~repro.timing.circuit.WireInstance`."""
        return cls(delay=instance.delay, slew=instance.slew,
                   sink=instance.sink, model=instance.delay_model)

    def delays(self, direction: str, deltas,
               params=None) -> np.ndarray:
        """The sink delay, once per lane of *deltas*."""
        if direction not in ("falling", "rising"):
            raise ParameterError(f"direction must be 'falling' or "
                                 f"'rising', got {direction!r}")
        with span("sta.wire_arc", sink=self.sink,
                  model=self.model, direction=direction):
            return np.full(np.shape(deltas)[:1], self.delay)

    def __repr__(self) -> str:
        return (f"WireArcModel(sink={self.sink!r}, "
                f"delay={self.delay!r}, model={self.model!r})")


# ----------------------------------------------------------------------
# batched evaluation of many arcs in one call
# ----------------------------------------------------------------------

def batch_key(model, instance: str) -> tuple:
    """The key under which arcs of one level share one delay call.

    Engine-backed arcs batch across instances when they share the
    engine, gate and state; fixed and wire arcs are constants; any
    other model evaluates its own lanes (per instance when it honours
    corner overrides, since each instance may carry its own axis).
    """
    if isinstance(model, EngineArcModel):
        return ("engine", model.engine, model.gate, model.state)
    if isinstance(model, (FixedArcModel, WireArcModel)):
        return ("constant",)
    return ("model", id(model), instance if model.retargetable else None)


def arc_batch(models, instances, direction: str):
    """The evaluator of one plan group of arcs sharing a
    :func:`batch_key`, in evaluation order.

    Its ``delays(deltas, valid, corner_params, corners)`` returns the
    delays of the *valid* lanes, where lanes run evaluation-major with
    the *corners* of each evaluation inside, and *corner_params* is
    the sweep's corner axis as :func:`repro.sta.sweep_corners`
    resolves it (``None``, one set, a block, or a per-instance dict).
    """
    kind = batch_key(models[0], instances[0])[0]
    if kind == "engine":
        return _EngineBatch(models, instances, direction)
    if kind == "constant":
        return _ConstantBatch(models, direction)
    return _ModelBatch(models[0], instances[0], len(models), direction)


def _as_block(params) -> np.ndarray:
    """A parameter set as a one-record block; blocks pass through."""
    if isinstance(params, np.ndarray):
        return params
    if isinstance(params, NorGateParameters):
        return block_from_parameters([params])
    return generalized_block([params])


class _EngineBatch:
    """Engine-backed arcs of one kind: one engine call for all lanes.

    Each lane carries its instance's own parameter set (analysis), a
    corner of a shared axis tiled once per instance, or a corner of
    its instance's own axis; the representative model applies the
    NAND mirror and the n-input widening to them all.
    """

    kind = "engine"

    def __init__(self, models, instances, direction: str):
        self.model = models[0]
        self.direction = direction
        self.instances = tuple(instances)
        self.sets = tuple(model.params for model in models)
        first = self.sets[0]
        self.own = (first if all(p == first for p in self.sets)
                    else (block_from_parameters(self.sets)
                          if isinstance(first, NorGateParameters)
                          else generalized_block(self.sets)))

    def _lanes(self, corner_params, corners: int):
        """One set for every lane, or a block with one set per lane."""
        if corner_params is None:
            if isinstance(self.own, np.ndarray):
                return np.repeat(self.own, corners)
            return self.own
        resolve = self.model._resolve
        if isinstance(corner_params, dict):
            return np.concatenate([
                np.resize(_as_block(resolve(corner_params.get(name, own))),
                          corners)
                for name, own in zip(self.instances, self.sets)])
        resolved = resolve(corner_params)
        if isinstance(resolved, np.ndarray):
            return np.tile(resolved, len(self.instances))
        return resolved

    def delays(self, deltas, valid, corner_params,
               corners: int) -> np.ndarray:
        params = self._lanes(corner_params, corners)
        if isinstance(params, np.ndarray):
            params = params[valid]
        return self.model.delays(self.direction, deltas, params=params)


class _ConstantBatch:
    """Fixed and wire arcs: delays read once, when the plan is built."""

    kind = "constant"

    def __init__(self, models, direction: str):
        self.values = np.array([model.delays(direction, np.zeros(1))[0]
                                for model in models])

    def delays(self, deltas, valid, corner_params,
               corners: int) -> np.ndarray:
        return np.repeat(self.values, corners)[valid]


class _ModelBatch:
    """Any other arc model: one ``delays`` call for its lanes."""

    kind = "model"

    def __init__(self, model, instance: str, size: int, direction: str):
        self.model = model
        self.instance = instance
        self.size = size
        self.direction = direction

    def delays(self, deltas, valid, corner_params,
               corners: int) -> np.ndarray:
        params = None
        if self.model.retargetable:
            params = (corner_params.get(self.instance)
                      if isinstance(corner_params, dict)
                      else corner_params)
            if isinstance(params, np.ndarray):
                params = np.tile(params, self.size)[valid]
        return self.model.delays(self.direction, deltas, params=params)
