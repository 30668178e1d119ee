"""Generalized n-input NOR hybrid model (paper Section VII future work).

The paper's model is a 2-input NOR; its construction generalizes
directly to n inputs:

* the pull-up network is a *series chain* of n pMOS switches from VDD
  to the output with n−1 internal nodes (each with a parasitic
  capacitance),
* the pull-down network is n *parallel* nMOS switches,
* every input state selects one linear RC network, i.e. one
  n-dimensional ODE system ``C V' = −G V + b``.

For n = 2 this reduces — exactly, as the test-suite verifies — to the
closed-form model of :mod:`repro.core.hybrid_model`.  For general n the
per-mode systems are solved by eigendecomposition of the augmented
system matrix (RC networks have real, non-positive eigenvalues), giving
each node voltage as a sum of up to n real exponentials; the scalar
trace interface locates output threshold crossings by dense sampling
plus Brent refinement, the independent reference of the batched path.

Conventions mirror the 2-input model: input ``i`` gates the i-th pMOS
of the chain counted *from the rail* and the i-th parallel nMOS;
``delta_min`` defers mode switches; internal nodes rest at the paper's
worst case (GND) when their analog history is unknown.

Besides the scalar trace interface, the model is *array-native*: a
:class:`CompiledNorKernel` evaluates whole ``(..., n−1)`` grids of
sibling offsets, each row on its own parameter set if asked
(:func:`nor_delays`).  It decomposes the ``2^n`` mode systems of all
its parameter sets in one batched eigensolve, gives every
``(row, segment)`` its mode id from one cumulative sum over the event
ordering, and walks all rows segment-lockstep with batched einsums;
:func:`~repro.core.solutions.exp_sum_crossing` finds every first
threshold crossing by exact root isolation and a safeguarded Newton
iteration, without sampling.  This is the engine behind the
``delays_falling_n`` / ``delays_rising_n`` entry points of
:mod:`repro.engine`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections.abc import Sequence

import numpy as np

from ..errors import NoCrossingError, ParameterError
from ..obs.trace import span as _span
from .hybrid_model import SETTLE_FACTOR
from .parameters import (BLOCK_DTYPE, PAPER_TABLE_I, NorGateParameters,
                         check_node_voltage, finite_voltage)
from .solutions import ExpSum, exp_sum_crossing

__all__ = ["CompiledNorKernel", "GeneralizedNorParameters",
           "GeneralizedNorModel", "compiled_nor_kernel",
           "delta_vector_grid", "generalized_block", "generalized_dtype",
           "generalized_model", "generalized_record", "lane_sets",
           "nor_delays", "paper_generalized", "parameter_width",
           "sibling_offsets", "validate_block"]

#: Relative eigenvalue imaginary part treated as numerical noise.
_IMAG_TOL = 1e-8
#: Samples used to bracket output crossings per segment.
_CROSSING_SAMPLES = 1024
#: Δ-vector rows per block of a kernel evaluation: a larger call runs
#: block by block, so its temporaries stay the size of one block.
_BLOCK_ROWS = 4096
#: (row, segment) pairs per solver call within a block: the segments
#: of a small block reach the solver together, in one call instead of
#: one per segment.
_SOLVE_PAIRS = 4096
#: Finite stand-in span for ``±inf`` sibling offsets, seconds.  One
#: second is ~9 orders of magnitude beyond any gate's settling region,
#: so clipping offsets to ``reference ± _OFFSET_SPAN`` lands on the
#: SIS plateaus without ever producing ``inf − inf`` artifacts.
_OFFSET_SPAN = 1.0


def sibling_offsets(times, reference, span: float = _OFFSET_SPAN
                    ) -> np.ndarray:
    """Δ-vector of per-input event times relative to input 0.

    The engine entry points take ``(n−1)`` sibling offsets
    ``Δ_j = t_{j+1} − t_0``; callers that carry *absolute* event times
    (the STA propagation, the table replay channel) may hold ``±inf``
    entries per the never/long-ago arrival conventions.  Differencing
    those naively produces ``inf − inf = NaN``, so every time is first
    clipped to ``reference ± span`` — beyond the settling region the
    model sits on its SIS plateaus, so the clip does not change any
    delay.

    Parameters
    ----------
    times : array_like of float
        Per-input event times, seconds; leading axis is the input
        index (length n), trailing axes broadcast.  ``±inf`` allowed.
    reference : array_like of float
        Finite reference time(s) the offsets are anchored around
        (the earlier/later input per the direction conventions).
    span : float, optional
        Clip half-width in seconds (default 1.0 — far beyond any
        settling time).

    Returns
    -------
    numpy.ndarray
        Finite offsets ``t_j − t_0`` with the input axis moved last:
        shape ``times.shape[1:] + (n−1,)``.
    """
    t = np.asarray(times, dtype=float)
    ref = np.asarray(reference, dtype=float)
    clipped = np.clip(t, ref - span, ref + span)
    return np.moveaxis(clipped[1:] - clipped[0], 0, -1)


def offset_rows(num_inputs: int, deltas
                ) -> tuple[np.ndarray, tuple[int, ...]]:
    """Validate and flatten a Δ-vector grid to ``(rows, n−1)``.

    The shared input contract of every Δ-vector entry point (the
    batched model solver and all engine backends): the trailing axis
    must carry one offset per sibling input and NaN is rejected;
    ``±inf`` entries pass through (callers clip them onto the
    settling region).

    Parameters
    ----------
    num_inputs : int
        Gate width ``n``.
    deltas : array_like of float
        Sibling offsets, shape ``(..., n−1)``.

    Returns
    -------
    tuple
        ``(rows, shape)`` — the flattened ``(rows, n−1)`` float
        array and the leading shape ``deltas.shape[:-1]`` results
        reshape back to.

    Raises
    ------
    ParameterError
        On a wrong trailing axis or NaN entries.
    """
    d = np.asarray(deltas, dtype=float)
    if d.ndim == 0 or d.shape[-1] != num_inputs - 1:
        raise ParameterError(
            f"delta vectors must have a trailing axis of length "
            f"{num_inputs - 1} (one offset per sibling input), got "
            f"shape {d.shape}")
    flat = d.reshape(-1, num_inputs - 1)
    if np.isnan(flat).any():
        raise ParameterError("sibling offsets must not be NaN")
    return flat, d.shape[:-1]


def _check_times(times: Sequence[float], num_inputs: int,
                 name: str) -> None:
    """Reject event times of the wrong count or with NaN or ``±inf``."""
    if len(times) != num_inputs:
        raise ParameterError(f"expected {num_inputs} {name}")
    if not all(math.isfinite(t) for t in times):
        raise ParameterError(f"{name} must be finite, got {list(times)}")


@dataclasses.dataclass(frozen=True)
class GeneralizedNorParameters:
    """Electrical parameters of an n-input NOR (SI units).

    Attributes:
        r_pullup: on-resistances of the series pMOS chain, rail side
            first (length n).
        r_pulldown: on-resistances of the parallel nMOS (length n).
        c_internal: capacitances of the n−1 internal chain nodes.
        co: output capacitance.
        vdd: supply voltage.
        delta_min: pure delay deferring mode switches.
    """

    r_pullup: tuple[float, ...]
    r_pulldown: tuple[float, ...]
    c_internal: tuple[float, ...]
    co: float
    vdd: float = 0.8
    delta_min: float = 0.0

    def __post_init__(self) -> None:
        # Coerce sequence fields to tuples so instances built from
        # JSON payloads (lists) stay hashable / cacheable.
        for name in ("r_pullup", "r_pulldown", "c_internal"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name,
                                   tuple(float(v) for v in value))
        n = len(self.r_pullup)
        if n < 2:
            raise ParameterError("need at least two inputs")
        if len(self.r_pulldown) != n:
            raise ParameterError("r_pulldown must match r_pullup")
        if len(self.c_internal) != n - 1:
            raise ParameterError("need exactly n-1 internal "
                                 "capacitances")
        for value in (*self.r_pullup, *self.r_pulldown,
                      *self.c_internal, self.co, self.vdd):
            if not math.isfinite(value) or value <= 0.0:
                raise ParameterError("all electrical parameters must "
                                     "be positive and finite")
        if self.delta_min < 0.0:
            raise ParameterError("delta_min must be non-negative")

    @property
    def num_inputs(self) -> int:
        return len(self.r_pullup)

    @property
    def vth(self) -> float:
        return self.vdd / 2.0

    @classmethod
    def from_two_input(cls, params: NorGateParameters
                       ) -> "GeneralizedNorParameters":
        """Map the paper's 2-input parameters onto the general form."""
        return cls(r_pullup=(params.r1, params.r2),
                   r_pulldown=(params.r3, params.r4),
                   c_internal=(params.cn,),
                   co=params.co, vdd=params.vdd,
                   delta_min=params.delta_min)

    def to_two_input(self) -> NorGateParameters:
        """Inverse of :meth:`from_two_input` (2-input gates only).

        Raises:
            ParameterError: if the gate has more than two inputs.
        """
        if self.num_inputs != 2:
            raise ParameterError(
                f"cannot reduce a {self.num_inputs}-input gate to the "
                "paper's 2-input parameter set")
        return NorGateParameters(
            r1=self.r_pullup[0], r2=self.r_pullup[1],
            r3=self.r_pulldown[0], r4=self.r_pulldown[1],
            cn=self.c_internal[0], co=self.co, vdd=self.vdd,
            delta_min=self.delta_min)

    def replace(self, **changes) -> "GeneralizedNorParameters":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def without_delta_min(self) -> "GeneralizedNorParameters":
        """Return a copy with the pure delay removed."""
        return self.replace(delta_min=0.0)

    def as_dict(self) -> dict:
        """Plain-JSON representation (tuples rendered as lists)."""
        return {
            "r_pullup": list(self.r_pullup),
            "r_pulldown": list(self.r_pulldown),
            "c_internal": list(self.c_internal),
            "co": self.co,
            "vdd": self.vdd,
            "delta_min": self.delta_min,
        }


def paper_generalized(num_inputs: int,
                      params: NorGateParameters = PAPER_TABLE_I):
    """An n-input NOR parameter set extrapolated from a 2-input one.

    Extends the paper's Table I conventions to a taller stack: the
    rail-side pMOS keeps ``R1`` and every further chain stage repeats
    ``R2``; every parallel nMOS beyond the first pair repeats ``R4``;
    every internal chain node repeats ``CN``.

    Parameters
    ----------
    num_inputs : int
        Gate width ``n >= 2``.
    params : NorGateParameters or numpy.ndarray, optional
        The 2-input base set (default: the paper's Table I), or a
        sample block of dtype
        :data:`~repro.core.parameters.BLOCK_DTYPE` widened record by
        record.

    Returns
    -------
    GeneralizedNorParameters or numpy.ndarray
        The extrapolated n-input set (for ``n = 2`` it equals
        :meth:`GeneralizedNorParameters.from_two_input`), or for a
        block an n-input block of dtype :func:`generalized_dtype`.
    """
    if num_inputs < 2:
        raise ParameterError("need at least two inputs")
    if isinstance(params, np.ndarray):
        if parameter_width(params) != 2:
            raise ParameterError("paper_generalized widens 2-input "
                                 "blocks only")
        block = np.empty(params.shape, generalized_dtype(num_inputs))
        for name, first, rest in (("r_pullup", "r1", "r2"),
                                  ("r_pulldown", "r3", "r4")):
            block[name] = np.stack(
                [params[first]] + [params[rest]] * (num_inputs - 1),
                axis=-1)
        block["c_internal"] = params["cn"][..., None]
        for name in ("co", "vdd", "delta_min"):
            block[name] = params[name]
        return block
    extra = num_inputs - 2
    return GeneralizedNorParameters(
        r_pullup=(params.r1, params.r2) + (params.r2,) * extra,
        r_pulldown=(params.r3, params.r4) + (params.r4,) * extra,
        c_internal=(params.cn,) * (num_inputs - 1),
        co=params.co, vdd=params.vdd, delta_min=params.delta_min)


# ----------------------------------------------------------------------
# n-input sample blocks: one parameter set per record
# ----------------------------------------------------------------------

def generalized_dtype(num_inputs: int) -> np.dtype:
    """Structured dtype of an n-input sample block: one record per
    :class:`GeneralizedNorParameters` set, the twin of
    :data:`~repro.core.parameters.BLOCK_DTYPE`."""
    return np.dtype([("r_pullup", np.float64, (num_inputs,)),
                     ("r_pulldown", np.float64, (num_inputs,)),
                     ("c_internal", np.float64, (num_inputs - 1,)),
                     ("co", np.float64), ("vdd", np.float64),
                     ("delta_min", np.float64)])


def generalized_block(params) -> np.ndarray:
    """Pack :class:`GeneralizedNorParameters` sets of one width into a
    sample block (``ParameterError`` on anything else)."""
    params = list(params)
    widths = {getattr(p, "num_inputs", None) for p in params}
    if not params or not all(isinstance(p, GeneralizedNorParameters)
                             for p in params) or len(widths) != 1:
        raise ParameterError("an n-input sample block packs one or more "
                             "GeneralizedNorParameters sets of one width")
    block = np.empty(len(params), generalized_dtype(widths.pop()))
    for i, p in enumerate(params):
        block[i] = (p.r_pullup, p.r_pulldown, p.c_internal, p.co, p.vdd,
                    p.delta_min)
    return block


def generalized_record(block: np.ndarray,
                       index: int) -> GeneralizedNorParameters:
    """Materialize one n-input block record as a (validated) set."""
    row = block[index]
    return GeneralizedNorParameters(
        r_pullup=row["r_pullup"].tolist(),
        r_pulldown=row["r_pulldown"].tolist(),
        c_internal=row["c_internal"].tolist(), co=float(row["co"]),
        vdd=float(row["vdd"]), delta_min=float(row["delta_min"]))


def parameter_width(params) -> int:
    """Gate width of a parameter set or of a sample block's records
    (``ParameterError`` if *params* is neither)."""
    if isinstance(params, (NorGateParameters, GeneralizedNorParameters)):
        return getattr(params, "num_inputs", 2)
    if isinstance(params, np.ndarray):
        if params.dtype == BLOCK_DTYPE:
            return 2
        if "r_pullup" in (params.dtype.names or ()):
            n = params.dtype["r_pullup"].shape[0]
            if params.dtype == generalized_dtype(n):
                return n
    raise ParameterError(f"expected a parameter set or a sample block, "
                         f"got {type(params).__name__}")


def validate_block(block) -> np.ndarray:
    """Check a 1-D sample block of either dtype record by record, the
    way the parameter constructors check one set.

    Raises
    ------
    ParameterError
        On an unknown dtype, a block that is not 1-D, a non-positive or
        non-finite electrical value, or a negative ``delta_min``.
    """
    parameter_width(block)
    if block.ndim != 1:
        raise ParameterError("sample block must be 1-D")
    for name in block.dtype.names:
        low = name == "delta_min"
        values = block[name]
        if not np.all(np.isfinite(values)
                      & (values >= 0.0 if low else values > 0.0)):
            raise ParameterError(
                f"{name} must be {'non-negative' if low else 'positive'}"
                " and finite in every block record")
    return block


def lane_sets(block: np.ndarray, deltas
              ) -> tuple[np.ndarray, np.ndarray]:
    """Distinct records of a validated per-lane n-input block, and the
    index into them of every Δ-vector row.

    Record ``i`` applies to ``deltas[i]``: one Δ-vector (*deltas* of
    shape ``(N, n−1)``) or a grid of them (``(N, ..., n−1)``).  Lanes
    sharing a set share its record, hence its kernel tensors.  The
    index has shape ``deltas.shape[:-1]``.
    """
    shape = np.shape(deltas)
    validate_block(block)
    if len(shape) < 2 or shape[0] != block.shape[0]:
        raise ParameterError(
            f"per-lane parameters need one record per leading row of "
            f"the Δ-vectors: {block.shape[0]} records, Δ-vectors of "
            f"shape {shape}")
    raw = np.ascontiguousarray(block).view(
        np.dtype((np.void, block.dtype.itemsize)))
    _, first, inverse = np.unique(raw, return_index=True,
                                  return_inverse=True)
    index = inverse.reshape((-1,) + (1,) * (len(shape) - 2))
    return block[first], np.broadcast_to(index, shape[:-1])


def _mode_systems(block: np.ndarray) -> np.ndarray:
    """Augmented mode systems ``[[A, f], [0, 0]]`` (``A = −C⁻¹G``,
    ``f = C⁻¹b``) of every input state of P sets, ``(P, 2^n, n+1,
    n+1)``; nodes run rail side first, output last.  Conductances are
    stamped in netlist order, so each entry is the sum a one-mode
    assembly forms."""
    n = parameter_width(block)
    modes = 1 << n
    high = (np.arange(modes)[:, None] >> np.arange(n)) & 1
    # Series pMOS chain: resistor i connects node i-1 to node i (node
    # -1 is the VDD rail, node n-1 the output), present when input i
    # is low.
    series = (1.0 / block["r_pullup"])[:, None, :] * (1 - high)
    g = np.zeros((block.shape[0], modes, n, n))
    node = np.arange(n)
    g[..., node, node] = series
    g[..., node[:-1], node[:-1]] += series[..., 1:]
    g[..., node[:-1], node[1:]] = 0.0 - series[..., 1:]
    g[..., node[1:], node[:-1]] = 0.0 - series[..., 1:]
    # Parallel nMOS on the output node, present when the input is high.
    for i in range(n):
        g[..., n - 1, n - 1] += ((1.0 / block["r_pulldown"][:, i, None])
                                 * high[:, i])
    caps = np.concatenate([block["c_internal"], block["co"][:, None]],
                          axis=1)[:, None, :]
    systems = np.zeros((block.shape[0], modes, n + 1, n + 1))
    systems[..., :n, :n] = -g / caps[..., None]
    systems[..., 0, n] = (series[..., 0] * block["vdd"][:, None]
                          / caps[..., 0])
    return systems


def _eigensystems(systems: np.ndarray) -> tuple:
    """One batched eigendecomposition of a stack of mode systems:
    ``(rates, vectors, inverse, slowest_tau)`` over its leading axes
    (``ParameterError`` on complex eigenvalues or a defective system).
    """
    values, vectors = np.linalg.eig(systems)
    scale = np.maximum(1.0, np.abs(values.real).max(axis=-1))
    if np.any(np.abs(values.imag).max(axis=-1) > _IMAG_TOL * scale):
        raise ParameterError("complex eigenvalues in RC network")
    rates = values.real
    vectors = vectors.real
    try:
        inverse = np.linalg.inv(vectors)
    except np.linalg.LinAlgError:
        raise ParameterError(
            "defective mode system (repeated eigenvalues without "
            "a full eigenbasis)") from None
    # Conserved directions (the affine constant, and the total charge
    # of rail-disconnected chain islands in partially-open modes) are
    # exact zero eigenvalues that np.linalg.eig may report as numerical
    # dust (|λ| ~ 1e-17 of the spectral radius).  Left in place they
    # masquerade as astronomically slow time constants and poison the
    # settle time; snap them to zero — physical RC rates sit many
    # orders above the threshold.
    tol = 1e-9 * np.abs(rates).max(axis=-1, keepdims=True)
    rates = np.where(np.abs(rates) < tol, 0.0, rates)
    with np.errstate(divide="ignore"):
        slowest = np.where(rates < 0.0, 1.0 / np.abs(rates),
                           0.0).max(axis=-1)
    return rates, vectors, inverse, np.where(slowest > 0.0, slowest,
                                             1e-12)


@dataclasses.dataclass(frozen=True)
class _SegmentSolution:
    """Node voltages of one mode segment as per-node ExpSums."""

    nodes: tuple[ExpSum, ...]
    slowest_tau: float

    @property
    def output(self) -> ExpSum:
        return self.nodes[-1]

    def state_at(self, t: float) -> np.ndarray:
        return np.array([node(t) for node in self.nodes])


class GeneralizedNorModel:
    """MIS-aware delay model of an n-input CMOS NOR gate."""

    def __init__(self, params: GeneralizedNorParameters):
        self.params = params
        self._n = params.num_inputs
        self._kernel: "CompiledNorKernel | None" = None

    # ------------------------------------------------------------------
    # per-mode linear systems
    # ------------------------------------------------------------------

    def _mode(self, inputs: Sequence[int]) -> int:
        """Mode id (bit ``i`` = input ``i``) of an input combination."""
        return sum(int(bool(v)) << i for i, v in enumerate(inputs))

    def _solve_segment(self, inputs: tuple[int, ...],
                       state0: np.ndarray) -> _SegmentSolution:
        """Solve one mode from the given initial state on the kernel's
        eigendecomposition of that mode."""
        kernel = self.kernel()
        mode = self._mode(inputs)
        rates = kernel._rates[mode]
        eigenvectors = kernel._vectors[mode]
        n = self._n
        extended = np.append(state0, 1.0)
        coefficients = np.linalg.solve(eigenvectors, extended)

        nodes: list[ExpSum] = []
        for node in range(n):
            terms = []
            offset = 0.0
            for k, rate in enumerate(rates):
                weight = coefficients[k] * eigenvectors[node, k]
                if abs(weight) < 1e-15:
                    continue
                if rate == 0.0:
                    offset += weight
                else:
                    terms.append((weight, rate))
            nodes.append(ExpSum.build(offset, terms))
        return _SegmentSolution(nodes=tuple(nodes),
                                slowest_tau=float(kernel._slow[mode]))

    # ------------------------------------------------------------------
    # resting states
    # ------------------------------------------------------------------

    def resting_state(self, inputs: Sequence[int],
                      floating_value: float = 0.0) -> np.ndarray:
        """Steady-state node voltages for a held input combination.

        Floating internal nodes (cut off by conducting-side switches)
        have no defined equilibrium; they take *floating_value* — GND by
        default, the paper's worst case.
        """
        n = self._n
        system = self.kernel()._systems[self._mode(inputs)]
        a, f = system[:n, :n], system[:n, n]
        # Nodes that participate in dynamics reach A V + f = 0 on their
        # connected component; lstsq handles the singular (floating)
        # directions, which we then overwrite explicitly.
        solution, *_ = np.linalg.lstsq(a, -f, rcond=None)
        return np.where(np.any(np.abs(a) > 0.0, axis=1), solution,
                        float(floating_value))

    # ------------------------------------------------------------------
    # batched Δ-vector evaluation
    # ------------------------------------------------------------------

    def settle_time(self) -> float:
        """Time after which every mode has settled, seconds.

        ``SETTLE_FACTOR`` times the slowest RC time constant over all
        ``2^n`` input states — sibling offsets beyond
        ``±settle_time()`` are indistinguishable from ``±inf`` (the
        SIS plateaus), which is what the batched entry points clip
        them to.
        """
        return float(self.kernel()._settle[0])

    def kernel(self) -> "CompiledNorKernel":
        """The batch evaluator of this parameter set, compiled once;
        the scalar paths read their mode systems and eigensystems
        from it too."""
        if self._kernel is None:
            self._kernel = CompiledNorKernel(self.params)
        return self._kernel

    def delays_falling_batch(self, deltas) -> np.ndarray:
        """Falling MIS delays for a grid of sibling offset vectors.

        All inputs start low; input 0 rises at ``t = 0`` and sibling
        ``j`` at ``deltas[..., j-1]`` (shape ``(..., n−1)``, ``±inf``
        clips to the SIS plateaus, NaN rejected).  Delays, shape
        ``deltas.shape[:-1]``, are referenced to the *earliest* input
        and include ``δ_min``, matching :meth:`delay_falling`.
        """
        return self.kernel().evaluate(deltas, "falling")

    def delays_rising_batch(self, deltas,
                            internal_init: float = 0.0) -> np.ndarray:
        """Rising MIS delays for a grid of sibling offset vectors.

        All inputs start high, every internal chain node at
        *internal_init* volts (default the paper's GND worst case);
        input 0 falls at ``t = 0`` and sibling ``j`` at
        ``deltas[..., j-1]``.  Delays are referenced to the *latest*
        input and include ``δ_min``, matching :meth:`delay_rising`.
        """
        return self.kernel().evaluate(deltas, "rising", internal_init)

    # ------------------------------------------------------------------
    # crossings
    # ------------------------------------------------------------------

    @staticmethod
    def _segment_crossings(expsum: ExpSum, threshold: float,
                           t_end: float) -> list[float]:
        """Crossings of a many-exponential sum via sampling + Brent."""
        from scipy.optimize import brentq
        if not expsum.coeffs:
            return []
        grid = np.linspace(0.0, t_end, _CROSSING_SAMPLES)
        values = expsum(grid) - threshold
        # A sum can cross and recross the threshold between two samples
        # on one side of it (a glitch narrower than the grid): sample
        # each extremum that lies between two such samples too.
        slope = expsum.derivative()
        slopes = slope(grid)
        peaks = np.nonzero((slopes[1:] * slopes[:-1] < 0.0)
                           & (values[1:] * values[:-1] > 0.0))[0]
        if peaks.size:
            grid = np.sort(np.concatenate([grid, [
                brentq(slope, grid[i], grid[i + 1], xtol=1e-20)
                for i in peaks]]))
            values = expsum(grid) - threshold
        crossings: list[float] = []
        signs = np.sign(values)
        for i in np.nonzero(signs[1:] * signs[:-1] < 0)[0]:
            root = brentq(lambda t: expsum(t) - threshold,
                          grid[i], grid[i + 1], xtol=1e-20)
            crossings.append(float(root))
        for i in np.nonzero(signs == 0)[0]:
            crossings.append(float(grid[i]))
        return sorted(crossings)

    # ------------------------------------------------------------------
    # trace-level interface
    # ------------------------------------------------------------------

    def output_crossings_for_inputs(
            self, events_by_input: Sequence[Sequence[tuple[float, int]]],
            initial_inputs: Sequence[int] | None = None,
            initial_state: np.ndarray | None = None,
            t_max: float | None = None) -> list[tuple[float, int]]:
        """Digitized output for per-input transition streams.

        Args:
            events_by_input: one sorted ``(time, value)`` list per input.
            initial_inputs: input values before the first events
                (inferred from the first transitions by default).
            initial_state: node voltages at ``t = 0`` (resting state of
                the initial mode by default).
            t_max: stop searching for crossings at this time.
        """
        if len(events_by_input) != self._n:
            raise ParameterError(f"expected {self._n} input event "
                                 "streams")
        p = self.params
        if initial_inputs is None:
            initial_inputs = [1 - events[0][1] if events else 0
                              for events in events_by_input]
        values = [int(bool(v)) for v in initial_inputs]

        merged: list[tuple[float, int, int]] = []
        for index, events in enumerate(events_by_input):
            for t, v in events:
                if t < 0.0:
                    raise ParameterError("input events must have "
                                         "t >= 0")
                merged.append((t, index, int(v)))
        merged.sort()

        switches: list[tuple[float, tuple[int, ...]]] = []
        for t, index, value in merged:
            values[index] = value
            switches.append((t + p.delta_min, tuple(values)))

        mode = tuple(int(bool(v)) for v in initial_inputs)
        if initial_state is None:
            state = self.resting_state(mode)
        else:
            state = np.asarray(initial_state, dtype=float)

        crossings: list[tuple[float, int]] = []
        t_now = 0.0
        segment = self._solve_segment(mode, state)
        horizon = t_max if t_max is not None else math.inf
        pending = switches + [(None, None)]
        for switch_time, next_mode in pending:
            t_end = (switch_time if switch_time is not None
                     else min(horizon, t_now + SETTLE_FACTOR *
                              segment.slowest_tau + 1e-15))
            local_end = max(t_end - t_now, 0.0)
            vo = segment.output
            derivative = vo.derivative()
            for local_t in self._segment_crossings(vo, p.vth,
                                                   local_end):
                t_cross = t_now + local_t
                if t_cross > horizon:
                    continue
                direction = 1 if derivative(local_t) > 0 else 0
                if crossings and math.isclose(crossings[-1][0], t_cross,
                                              rel_tol=1e-9,
                                              abs_tol=1e-18):
                    continue
                crossings.append((t_cross, direction))
            if switch_time is None:
                break
            state = segment.state_at(switch_time - t_now)
            segment = self._solve_segment(next_mode, state)
            t_now = switch_time

        # Enforce alternation against the initial logical output.
        initial_output = int(not any(mode))
        cleaned: list[tuple[float, int]] = []
        current = initial_output
        for t, v in crossings:
            if v == current:
                continue
            cleaned.append((t, v))
            current = v
        return cleaned

    # ------------------------------------------------------------------
    # delays
    # ------------------------------------------------------------------

    def delay_falling(self, rise_times: Sequence[float]) -> float:
        """Falling-output MIS delay for per-input rise times.

        All inputs start low (gate resting high); input ``i`` rises at
        ``rise_times[i]``.  The delay is referenced to the earliest
        input, per the paper's convention.

        Raises:
            ParameterError: on a wrong count, or a NaN or ``±inf`` time
                (clip never/long-ago arrivals onto the settling region
                first, as :func:`sibling_offsets` does).
        """
        _check_times(rise_times, self._n, "rise times")
        earliest = min(rise_times)
        shift = -earliest if earliest < 0 else 0.0
        events = [[(t + shift, 1)] for t in rise_times]
        crossings = self.output_crossings_for_inputs(
            events, initial_inputs=[0] * self._n)
        # Mode switches are δ_min-deferred inside the crossing engine,
        # so the returned delay includes the pure delay already.
        for t, value in crossings:
            if value == 0:
                return t - (earliest + shift)
        raise NoCrossingError("output never falls")

    # ------------------------------------------------------------------
    # pairwise MIS sweeps (Δ between the first two inputs)
    # ------------------------------------------------------------------

    def _sweep(self, deltas, direction: str, engine) -> np.ndarray:
        """Pairwise MIS delays over ``Δ = t₁ − t₀`` of inputs 0 and 1.

        Routed through the delay-engine seam of :mod:`repro.engine`
        in both arities — the deferred-switch and added-``δ_min``
        delay conventions are exactly equivalent there because the
        resting first segment absorbs the deferral.  The remaining
        inputs switch together with the *earlier* of the pair; the
        2-input gate runs the closed-form batch path, wider gates the
        Δ-vector entry points (``±inf`` separations clip to the SIS
        plateaus).
        """
        # Local import: repro.engine imports this module.
        from ..engine import delays_for_direction, get_engine
        d = np.asarray(deltas, dtype=float)
        # Absolute switch times (0, Δ, 0, …, 0) relative to input 0:
        # the trailing inputs follow the earlier of the pair, i.e.
        # their offsets are min(0, Δ).
        with np.errstate(invalid="ignore"):
            rest = np.minimum(0.0, d)
        matrix = np.stack([d] + [rest] * (self._n - 2), axis=-1)
        return delays_for_direction(get_engine(engine), direction,
                                    self.params, matrix)

    def delays_falling_sweep(self, deltas, engine=None) -> np.ndarray:
        """Falling MIS delays for an array of pairwise separations."""
        return self._sweep(deltas, "falling", engine)

    def delays_rising_sweep(self, deltas, engine=None) -> np.ndarray:
        """Rising MIS delays for an array of pairwise separations."""
        return self._sweep(deltas, "rising", engine)

    def delay_rising(self, fall_times: Sequence[float],
                     internal_init: Sequence[float] | None = None
                     ) -> float:
        """Rising-output MIS delay for per-input fall times.

        All inputs start high (gate resting low); input ``i`` falls at
        ``fall_times[i]``.  Referenced to the latest input.  Internal
        chain nodes rest at *internal_init* (GND worst case).  NaN and
        ``±inf`` times and voltages, and voltages outside ``[0, VDD]``,
        are rejected with :class:`ParameterError`.
        """
        _check_times(fall_times, self._n, "fall times")
        earliest = min(fall_times)
        shift = -earliest if earliest < 0 else 0.0
        events = [[(t + shift, 0)] for t in fall_times]
        if internal_init is None:
            internal_init = [0.0] * (self._n - 1)
        state0 = np.array([finite_voltage(v, "internal_init")
                           for v in internal_init] + [0.0])
        check_node_voltage(state0, self.params.vdd)
        crossings = self.output_crossings_for_inputs(
            events, initial_inputs=[1] * self._n,
            initial_state=state0)
        latest = max(fall_times) + shift
        for t, value in crossings:
            if value == 1:
                return t - latest
        raise NoCrossingError("output never rises")


class CompiledNorKernel:
    """Flattened, mode-stacked evaluator of the batched Δ-vector path.

    Built from one :class:`GeneralizedNorParameters` set or a sample
    block of P sets (dtype :func:`generalized_dtype`): the ``2^n`` mode
    systems of every set are decomposed in one batched eigensolve and
    one batched inverse into dense tensors indexed by
    ``set · 2^n + mode`` (bit ``i`` of a mode id is input ``i``)::

        systems, vectors, inverse  (P·2^n, n+1, n+1)
        rates, out                 (P·2^n, n+1)   eigenrates, output row
        slow                       (P·2^n,)       slowest time constant

    plus, per set, the settle cut-off, Vth, δ_min and the falling start
    state.  :meth:`evaluate` gathers each Δ-vector row's tensors by its
    set and the mode of each segment, so no Python loop runs per set,
    per mode or per event ordering.
    """

    def __init__(self, params):
        block = (generalized_block([params])
                 if isinstance(params, GeneralizedNorParameters)
                 else validate_block(params))
        n = parameter_width(block)
        sets, modes = block.shape[0], 1 << n
        with _span("kernel.eig", n=n, modes=modes, sets=sets):
            systems = _mode_systems(block)
            rates, vectors, inverse, slow = _eigensystems(systems)
        self.num_inputs = n
        self._modes = modes
        flat = (sets * modes,)
        self._systems = systems.reshape(flat + systems.shape[2:])
        self._rates = rates.reshape(flat + rates.shape[2:])
        self._vectors = vectors.reshape(flat + vectors.shape[2:])
        self._inverse = inverse.reshape(flat + inverse.shape[2:])
        self._out = np.ascontiguousarray(self._vectors[:, n - 1, :])
        self._slow = slow.reshape(flat)
        self._settle = SETTLE_FACTOR * slow.max(axis=1)
        self._vth = block["vdd"] / 2.0
        self._delta_min = block["delta_min"].copy()
        # All inputs low: the pull-up chain conducts and the pull-down
        # network is open, so every node rests at VDD.
        self._rest = np.repeat(block["vdd"][:, None], n, axis=1)

    def evaluate(self, deltas, direction: str,
                 internal_init: float = 0.0, sets=None) -> np.ndarray:
        """Batched MIS delays over a grid of sibling offset vectors.

        The array-native core behind
        :meth:`GeneralizedNorModel.delays_falling_batch` /
        :meth:`~GeneralizedNorModel.delays_rising_batch` and
        :func:`nor_delays`; see the former for the per-direction event
        conventions.

        Parameters
        ----------
        deltas : array_like of float
            Sibling offsets, shape ``(..., n−1)``; ``±inf`` clips to
            the SIS plateaus, NaN rejected.
        direction : {'falling', 'rising'}
            Output transition searched for.
        internal_init : float, optional
            Rising-only: initial voltage of every internal chain
            node, volts; NaN and ``±inf`` rejected, and so is a value
            outside any lane's ``[0, VDD]``.
        sets : array_like of int, optional
            Parameter set (record index) of every Δ-vector row,
            broadcast against ``deltas.shape[:-1]``; default set 0.

        Returns
        -------
        numpy.ndarray
            Delays in seconds (``δ_min`` included), shape
            ``deltas.shape[:-1]``.
        """
        n = self.num_inputs
        if direction == "rising":
            internal_init = finite_voltage(internal_init,
                                           "internal_init")
            # Every lane's VDD: the rows of one call share the value.
            check_node_voltage(internal_init, self._rest[:, 0])
        elif direction != "falling":
            raise ParameterError(
                f"direction must be 'falling' or 'rising', got "
                f"{direction!r}")
        flat, shape = offset_rows(n, deltas)
        rows = (np.zeros(flat.shape[0], dtype=np.intp) if sets is None
                else np.broadcast_to(sets, shape).reshape(-1))
        out = np.empty(flat.shape[0])
        with _span("kernel.evaluate", n=n, direction=direction,
                   rows=int(flat.shape[0])):
            # Rows are independent: blocks of _BLOCK_ROWS bound the
            # temporaries, and a call of one block runs as it is.
            for start in range(0, flat.shape[0], _BLOCK_ROWS):
                block = slice(start, start + _BLOCK_ROWS)
                out[block] = self._evaluate_inner(
                    flat[block], rows[block], direction, internal_init)
        return out.reshape(shape)

    def _evaluate_inner(self, flat, sets, direction, internal_init):
        n = self.num_inputs
        settle = self._settle[sets][:, None]
        offsets = np.clip(flat, -settle, settle)
        rows = offsets.shape[0]
        times = np.concatenate(
            [np.zeros((rows, 1)), offsets], axis=1)
        times -= times.min(axis=1, keepdims=True)

        downward = direction == "falling"
        if downward:
            state = self._rest[sets]
            reference = np.zeros(rows)
        else:
            state = np.full((rows, n), float(internal_init))
            state[:, -1] = 0.0
            reference = times.max(axis=1)

        order = np.argsort(times, axis=1, kind="stable")
        sorted_times = np.take_along_axis(times, order, axis=1)
        # Mode id of segment k = input state once the first k+1 events
        # have fired: falling starts all-zero and each event sets a
        # bit, rising starts all-one and each event clears one.
        flipped = np.cumsum(1 << order, axis=1)
        mode_ids = flipped if downward else ((1 << n) - 1) - flipped
        base = sets * self._modes
        vth = self._vth[sets]

        # A row whose output passed Vth by a segment start crossed in an
        # earlier one.  Segments reach the solver in _SOLVE_PAIRS batches.
        result = np.full(rows, math.nan)
        batch = []
        for k in range(n):
            index = base + mode_ids[:, k]
            aug = np.concatenate([state, np.ones((rows, 1))], axis=1)
            coeffs = np.einsum("rj,rij->ri", aug, self._inverse[index])
            rates_k = self._rates[index]
            last = k + 1 == n
            # The last segment runs until every mode has settled.
            duration = (SETTLE_FACTOR * self._slow[index] + 1e-15 if last
                        else sorted_times[:, k + 1] - sorted_times[:, k])
            out = state[:, -1]
            open_ = np.nonzero(np.isnan(result) & (
                out >= vth if downward else out <= vth))[0]
            batch.append((k * rows + open_,
                          (coeffs[open_] * self._out[index[open_]]).T,
                          rates_k[open_].T, duration[open_], vth[open_]))
            if last or sum(b[0].size for b in batch) >= _SOLVE_PAIRS:
                pairs, weights, rates, windows, levels = (
                    np.concatenate(part, axis=-1) for part in zip(*batch))
                batch = []
                segment, owner = np.divmod(pairs, rows)
                with _span("kernel.crossings", rows=int(owner.size)):
                    local = exp_sum_crossing(weights, rates, levels,
                                             downward, windows)
                crossed = np.nonzero(~np.isnan(local))[0]
                # Pairs run in segment order: a row's first hit is its delay.
                hit, first = np.unique(owner[crossed], return_index=True)
                pick = crossed[first]
                result[hit] = sorted_times[hit, segment[pick]] + local[pick]
            if not last:
                growth = np.exp(duration[:, None] * rates_k)
                state = np.einsum("ri,rji->rj", coeffs * growth,
                                  self._vectors[index])[:, :n]
        if np.isnan(result).any():  # pragma: no cover - defensive
            raise NoCrossingError("batched crossing search exhausted all "
                                  "segments without an output transition")
        return result - reference + self._delta_min[sets]


def compiled_nor_kernel(params: GeneralizedNorParameters
                        ) -> CompiledNorKernel:
    """The shared :class:`CompiledNorKernel` of a parameter set.

    Resolves through :func:`generalized_model` so every caller — the
    engine backends, characterization — shares one
    compiled kernel (and its stacked eigen tensors) per parameter set.
    """
    return generalized_model(params).kernel()


def nor_delays(params, deltas, direction: str,
               internal_init: float) -> np.ndarray:
    """n-input MIS delays (``δ_min`` included, shape
    ``deltas.shape[:-1]``) with one parameter set, or one per lane.

    *params* is one :class:`GeneralizedNorParameters` set shared by
    every row of *deltas* (its kernel comes from the
    :func:`generalized_model` cache), or a sample block of dtype
    :func:`generalized_dtype` whose record ``i`` applies to
    ``deltas[i]`` (see :func:`lane_sets`); one kernel then serves the
    block's distinct sets.  *direction* and *internal_init* are as in
    :meth:`CompiledNorKernel.evaluate`.
    """
    if isinstance(params, GeneralizedNorParameters):
        return compiled_nor_kernel(params).evaluate(deltas, direction,
                                                    internal_init)
    sets, index = lane_sets(params, deltas)
    kernel = (compiled_nor_kernel(generalized_record(sets, 0))
              if sets.shape[0] == 1 else CompiledNorKernel(sets))
    return kernel.evaluate(deltas, direction, internal_init, index)


def delta_vector_grid(params: GeneralizedNorParameters,
                      axis_points: int,
                      span_taus: float = 4.0) -> np.ndarray:
    """Uniform Δ-vector rows across the gate's MIS core.

    The standard probe grid of the n-input benchmarks, experiments and
    :class:`repro.api.Session`: one uniform axis of *axis_points*
    samples per sibling input, spanning ``±span_taus`` of the gate's
    core scale ``settle_time() / SETTLE_FACTOR``, meshed and flattened
    to ``(axis_points**(n-1), n-1)`` rows of offsets in seconds.
    """
    model = generalized_model(params)
    tau = model.settle_time() / SETTLE_FACTOR
    axis = np.linspace(-span_taus * tau, span_taus * tau, axis_points)
    mesh = np.stack(np.meshgrid(*([axis] * (params.num_inputs - 1)),
                                indexing="ij"), axis=-1)
    return mesh.reshape(-1, params.num_inputs - 1)


@functools.lru_cache(maxsize=128)
def generalized_model(params: GeneralizedNorParameters
                      ) -> GeneralizedNorModel:
    """Shared per-parameter-set model cache.

    The model instance owns the compiled kernel of its parameter set,
    so the engine backends resolve single-set calls through this
    function to share it across calls.
    """
    return GeneralizedNorModel(params)
