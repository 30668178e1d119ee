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

Besides the scalar trace interface, the model is *array-native* over
Δ-vectors: :meth:`GeneralizedNorModel.delays_falling_batch` /
:meth:`~GeneralizedNorModel.delays_rising_batch` evaluate whole
``(..., n−1)`` grids of sibling offsets at once through a
:class:`CompiledNorKernel`.  The kernel stacks the per-input-state
eigendecompositions into dense ``(2^n, ...)`` tensors (persisted
across processes via :mod:`repro.cache` when a cache directory is
configured), assigns every ``(row, segment)`` its mode id with one
vectorized cumulative sum over the event ordering, and walks all rows
segment-lockstep: state propagation and eigen-projection are batched
einsums over the per-row mode tensors, and
:func:`~repro.core.solutions.exp_sum_crossing`, called on batches of
segments, finds the first threshold crossing of every row by exact root
isolation and a safeguarded Newton iteration, without sampling.  This is the engine
behind the ``delays_falling_n`` / ``delays_rising_n`` entry points of
:mod:`repro.engine`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections.abc import Sequence

import numpy as np
from scipy.optimize import brentq

from ..errors import NoCrossingError, ParameterError
from ..obs.trace import span as _span
from .parameters import PAPER_TABLE_I, NorGateParameters, finite_voltage
from .solutions import ExpSum, exp_sum_crossing

__all__ = ["CompiledNorKernel", "GeneralizedNorParameters",
           "GeneralizedNorModel", "compiled_nor_kernel",
           "delta_vector_grid", "generalized_model",
           "paper_generalized", "sibling_offsets"]

#: Relative eigenvalue imaginary part treated as numerical noise.
_IMAG_TOL = 1e-8
#: Samples used to bracket output crossings per segment.
_CROSSING_SAMPLES = 1024
#: (row, segment) pairs per solver call of a kernel evaluation: a small
#: batch solves all its segments at once, a large one bounds temporaries.
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
                      params: NorGateParameters = PAPER_TABLE_I
                      ) -> GeneralizedNorParameters:
    """An n-input NOR parameter set extrapolated from a 2-input one.

    Extends the paper's Table I conventions to a taller stack: the
    rail-side pMOS keeps ``R1`` and every further chain stage repeats
    ``R2``; every parallel nMOS beyond the first pair repeats ``R4``;
    every internal chain node repeats ``CN``.

    Parameters
    ----------
    num_inputs : int
        Gate width ``n >= 2``.
    params : NorGateParameters, optional
        The 2-input base set (default: the paper's Table I).

    Returns
    -------
    GeneralizedNorParameters
        The extrapolated n-input set; for ``n = 2`` it equals
        :meth:`GeneralizedNorParameters.from_two_input`.
    """
    if num_inputs < 2:
        raise ParameterError("need at least two inputs")
    extra = num_inputs - 2
    return GeneralizedNorParameters(
        r_pullup=(params.r1, params.r2) + (params.r2,) * extra,
        r_pulldown=(params.r3, params.r4) + (params.r4,) * extra,
        c_internal=(params.cn,) * (num_inputs - 1),
        co=params.co, vdd=params.vdd, delta_min=params.delta_min)


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
        #: Per-input-state eigendecompositions.  A plain dict rather
        #: than an lru_cache: an n-input gate has 2^n modes and the
        #: batched solver revisits all of them, so a bounded cache
        #: would thrash for wide gates (and a cache on the *method*
        #: would pin every model instance alive globally).
        self._eig_cache: dict[tuple[int, ...], tuple] = {}
        self._settle: float | None = None
        self._kernel: "CompiledNorKernel | None" = None

    # ------------------------------------------------------------------
    # per-mode linear systems
    # ------------------------------------------------------------------

    def _mode_matrices(self, inputs: tuple[int, ...]
                       ) -> tuple[np.ndarray, np.ndarray]:
        """System matrix ``A = −C⁻¹G`` and forcing ``f = C⁻¹b``.

        States are the chain nodes rail-side first, output last.  Not
        cached: a rebuild takes microseconds, and the eigendecompositions
        built from it are cached in ``_eig_cache``.
        """
        p = self.params
        n = self._n
        g = np.zeros((n, n))
        b = np.zeros(n)
        # Series pMOS chain: resistor i connects node i-1 to node i
        # (node -1 is the VDD rail, node n-1 is the output), present
        # when input i is low.
        for i, (resistance, value) in enumerate(zip(p.r_pullup, inputs)):
            if value:
                continue
            conductance = 1.0 / resistance
            if i == 0:
                g[0, 0] += conductance
                b[0] += conductance * p.vdd
            else:
                g[i - 1, i - 1] += conductance
                g[i, i] += conductance
                g[i - 1, i] -= conductance
                g[i, i - 1] -= conductance
        # Parallel nMOS on the output node, present when the input is
        # high.
        for resistance, value in zip(p.r_pulldown, inputs):
            if value:
                g[n - 1, n - 1] += 1.0 / resistance
        caps = np.array(list(p.c_internal) + [p.co])
        return -g / caps[:, None], b / caps

    def _solve_segment(self, inputs: tuple[int, ...],
                       state0: np.ndarray) -> _SegmentSolution:
        """Solve one mode from the given initial state on its cached
        eigendecomposition (:meth:`_mode_eig`)."""
        rates, eigenvectors, _, slowest = self._mode_eig(inputs)
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
        return _SegmentSolution(nodes=tuple(nodes), slowest_tau=slowest)

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
        inputs = tuple(int(bool(v)) for v in inputs)
        a, f = self._mode_matrices(inputs)
        n = self._n
        state = np.full(n, float(floating_value))
        # Nodes that participate in dynamics reach A V + f = 0 on their
        # connected component; lstsq handles the singular (floating)
        # directions, which we then overwrite explicitly.
        solution, *_ = np.linalg.lstsq(a, -f, rcond=None)
        for node in range(n):
            if np.any(np.abs(a[node]) > 0.0):
                state[node] = solution[node]
            else:
                state[node] = float(floating_value)
        return state

    # ------------------------------------------------------------------
    # batched Δ-vector evaluation
    # ------------------------------------------------------------------

    def _mode_eig(self, inputs: tuple[int, ...]
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Cached eigendecomposition of one mode's augmented system.

        Returns ``(rates, vectors, inverse, slowest_tau)`` of the
        autonomous matrix ``M = [[A, f], [0, 0]]`` — the per-
        ``(params, input-state)`` solution every batched segment of
        that mode reuses.
        """
        cached = self._eig_cache.get(inputs)
        if cached is not None:
            return cached
        a, f = self._mode_matrices(inputs)
        n = self._n
        m = np.zeros((n + 1, n + 1))
        m[:n, :n] = a
        m[:n, n] = f
        eigenvalues, eigenvectors = np.linalg.eig(m)
        if np.max(np.abs(eigenvalues.imag)) > _IMAG_TOL * max(
                1.0, float(np.max(np.abs(eigenvalues.real)))):
            raise ParameterError("complex eigenvalues in RC network")
        rates = eigenvalues.real
        vectors = eigenvectors.real
        try:
            inverse = np.linalg.inv(vectors)
        except np.linalg.LinAlgError:
            raise ParameterError(
                "defective mode system (repeated eigenvalues without "
                "a full eigenbasis)") from None
        # Conserved directions (the affine constant, and the total
        # charge of rail-disconnected chain islands in partially-open
        # modes) are exact zero eigenvalues that np.linalg.eig may
        # report as numerical dust (|λ| ~ 1e-17 of the spectral
        # radius).  Left in place they masquerade as astronomically
        # slow time constants and poison :meth:`settle_time`; snap
        # them to zero — physical RC rates sit many orders above the
        # threshold.
        tol = 1e-9 * float(np.max(np.abs(rates)))
        rates = np.where(np.abs(rates) < tol, 0.0, rates)
        slowest = 0.0
        for rate in rates:
            if rate < 0.0:
                slowest = max(slowest, 1.0 / abs(rate))
        result = (rates, vectors, inverse, slowest or 1e-12)
        self._eig_cache[inputs] = result
        return result

    def settle_time(self) -> float:
        """Time after which every mode has settled, seconds.

        ``60x`` the slowest RC time constant over all ``2^n`` input
        states — sibling offsets beyond ``±settle_time()`` are
        indistinguishable from ``±inf`` (the SIS plateaus), which is
        what the batched entry points clip them to.  Computed once
        per model and cached.
        """
        if self._settle is None:
            slowest = 0.0
            for state in range(2 ** self._n):
                inputs = tuple((state >> i) & 1
                               for i in range(self._n))
                slowest = max(slowest, self._mode_eig(inputs)[3])
            self._settle = 60.0 * slowest
        return self._settle

    def kernel(self) -> "CompiledNorKernel":
        """The flattened batch evaluator, compiled once per model.

        Building the kernel stacks (or loads from the persistent
        :mod:`repro.cache` store) the eigendecompositions of all
        ``2^n`` input states; both batched delay entry points
        delegate to it.
        """
        if self._kernel is None:
            self._kernel = CompiledNorKernel(self)
        return self._kernel

    def _delays_batch(self, deltas, direction: str,
                      internal_init: float = 0.0) -> np.ndarray:
        """Batched MIS delays over a grid of sibling offset vectors.

        See :meth:`delays_falling_batch` / :meth:`delays_rising_batch`
        for the per-direction conventions.
        """
        return self.kernel().evaluate(deltas, direction, internal_init)

    def delays_falling_batch(self, deltas) -> np.ndarray:
        """Falling MIS delays for a grid of sibling offset vectors.

        All inputs start low; input 0 rises at ``t = 0`` and sibling
        ``j`` at ``deltas[..., j-1]`` (``±inf`` clips to the SIS
        plateaus).  Delays are referenced to the *earliest* input and
        include ``δ_min``, matching :meth:`delay_falling`.

        Parameters
        ----------
        deltas : array_like of float
            Sibling offsets, shape ``(..., n−1)``; NaN rejected.

        Returns
        -------
        numpy.ndarray
            Delays in seconds, shape ``deltas.shape[:-1]``.
        """
        return self._delays_batch(deltas, "falling")

    def delays_rising_batch(self, deltas,
                            internal_init: float = 0.0) -> np.ndarray:
        """Rising MIS delays for a grid of sibling offset vectors.

        All inputs start high; input 0 falls at ``t = 0`` and sibling
        ``j`` at ``deltas[..., j-1]``.  Delays are referenced to the
        *latest* input and include ``δ_min``, matching
        :meth:`delay_rising`.

        Parameters
        ----------
        deltas : array_like of float
            Sibling offsets, shape ``(..., n−1)``; NaN rejected.
        internal_init : float, optional
            Initial voltage of every internal chain node, volts
            (default 0.0, the paper's GND worst case).

        Returns
        -------
        numpy.ndarray
            Delays in seconds, shape ``deltas.shape[:-1]``.
        """
        return self._delays_batch(deltas, "rising",
                                  float(internal_init))

    # ------------------------------------------------------------------
    # crossings
    # ------------------------------------------------------------------

    @staticmethod
    def _segment_crossings(expsum: ExpSum, threshold: float,
                           t_end: float) -> list[float]:
        """Crossings of a many-exponential sum via sampling + Brent."""
        if not expsum.coeffs:
            return []
        grid = np.linspace(0.0, t_end, _CROSSING_SAMPLES)
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
                     else min(horizon, t_now + 60.0 *
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
        resting first segment absorbs the deferral.  For the 2-input
        gate this is the closed-form batch path; for wider gates the
        remaining inputs switch together with the *earlier* of the
        pair and the Δ-vector entry points evaluate the grid
        (``±inf`` separations clip to the SIS plateaus).
        """
        # Local import: repro.engine imports this module.
        from ..engine import delays_for_direction, get_engine
        d = np.asarray(deltas, dtype=float)
        backend = get_engine(engine)
        if self._n == 2:
            return delays_for_direction(backend, direction,
                                        self.params.to_two_input(), d)
        # Absolute switch times (0, Δ, 0, …, 0) relative to input 0:
        # the trailing inputs follow the earlier of the pair, i.e.
        # their offsets are min(0, Δ).
        with np.errstate(invalid="ignore"):
            rest = np.minimum(0.0, d)
        matrix = np.stack([d] + [rest] * (self._n - 2), axis=-1)
        return delays_for_direction(backend, direction, self.params,
                                    matrix)

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
        ``±inf`` times and voltages are rejected with
        :class:`ParameterError`.
        """
        _check_times(fall_times, self._n, "fall times")
        earliest = min(fall_times)
        shift = -earliest if earliest < 0 else 0.0
        events = [[(t + shift, 0)] for t in fall_times]
        if internal_init is None:
            internal_init = [0.0] * (self._n - 1)
        state0 = np.array([finite_voltage(v, "internal_init")
                           for v in internal_init] + [0.0])
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

    Compiling the kernel materializes the eigendecompositions of all
    ``2^n`` input states of one :class:`GeneralizedNorModel` into
    dense tensors indexed by *mode id* (the integer whose bit ``i`` is
    the value of input ``i``)::

        rates    (2^n, n+1)        eigenrates of the augmented system
        vectors  (2^n, n+1, n+1)   eigenvectors (columns)
        inverse  (2^n, n+1, n+1)   eigenvector inverses
        out      (2^n, n+1)        output row of ``vectors``
        slow     (2^n,)            slowest time constant per mode

    With the per-mode data stacked, :meth:`evaluate` needs no
    per-event-ordering Python grouping: each ``(row, segment)`` pair
    gets its mode id from one cumulative sum over the sorted event
    bits, and eigen-projection and state propagation are batched
    einsums over the per-row mode tensors.  Every segment's output is a
    constant plus up to n exponentials, whose Vth crossings
    :func:`~repro.core.solutions.exp_sum_crossing` finds for batches of
    ``(row, segment)`` pairs, with rates gathered per pair from ``rates``.

    When a persistent store is active (see :mod:`repro.cache`), the
    stacked eigen tensors are loaded from / saved to disk keyed on the
    parameter content, so any process sharing the cache directory
    skips the ``2^n`` eigendecompositions entirely.
    """

    def __init__(self, model: GeneralizedNorModel):
        self._model = model
        self.num_inputs = model._n
        self._vth = model.params.vth
        n = model._n
        modes = 1 << n
        bundle = self._load(modes)
        if bundle is None:
            rates = np.empty((modes, n + 1))
            vectors = np.empty((modes, n + 1, n + 1))
            inverse = np.empty((modes, n + 1, n + 1))
            slow = np.empty(modes)
            with _span("kernel.eig", n=n, modes=modes):
                for mode in range(modes):
                    inputs = tuple((mode >> i) & 1
                                   for i in range(n))
                    (rates[mode], vectors[mode], inverse[mode],
                     slow[mode]) = model._mode_eig(inputs)
            self._store(rates, vectors, inverse, slow)
        else:
            rates, vectors, inverse, slow = bundle
            # Seed the model's per-mode cache so the scalar paths and
            # settle_time() share the loaded decompositions.
            for mode in range(modes):
                inputs = tuple((mode >> i) & 1 for i in range(n))
                model._eig_cache.setdefault(
                    inputs, (rates[mode], vectors[mode],
                             inverse[mode], float(slow[mode])))
        self._rates = rates
        self._vectors = vectors
        self._inverse = inverse
        self._out = np.ascontiguousarray(vectors[:, n - 1, :])
        self._slow = slow

    # ------------------------------------------------------------------
    # persistent eigendecomposition cache
    # ------------------------------------------------------------------

    def _cache_key(self) -> str:
        from .. import cache
        return cache.content_key({
            "kind": "nor-eig",
            "schema": cache.SCHEMA_VERSION,
            "params": self._model.params.as_dict(),
        })

    def _load(self, modes: int):
        from .. import cache
        store = cache.get_store()
        if store is None:
            return None
        bundle = store.get_arrays(self._cache_key())
        if bundle is None:
            return None
        n = self.num_inputs
        try:
            rates = bundle["rates"]
            vectors = bundle["vectors"]
            inverse = bundle["inverse"]
            slow = bundle["slow"]
        except KeyError:
            return None
        if (rates.shape != (modes, n + 1)
                or vectors.shape != (modes, n + 1, n + 1)
                or inverse.shape != (modes, n + 1, n + 1)
                or slow.shape != (modes,)):
            return None
        return rates, vectors, inverse, slow

    def _store(self, rates, vectors, inverse, slow) -> None:
        from .. import cache
        store = cache.get_store()
        if store is None:
            return
        store.put_arrays(self._cache_key(), {
            "rates": rates, "vectors": vectors,
            "inverse": inverse, "slow": slow,
        })

    # ------------------------------------------------------------------
    # the flattened segment walk
    # ------------------------------------------------------------------

    def evaluate(self, deltas, direction: str,
                 internal_init: float = 0.0) -> np.ndarray:
        """Batched MIS delays over a grid of sibling offset vectors.

        The array-native core behind
        :meth:`GeneralizedNorModel.delays_falling_batch` /
        :meth:`~GeneralizedNorModel.delays_rising_batch`; see those
        for the per-direction event conventions.

        Parameters
        ----------
        deltas : array_like of float
            Sibling offsets, shape ``(..., n−1)``; ``±inf`` clips to
            the SIS plateaus, NaN rejected.
        direction : {'falling', 'rising'}
            Output transition searched for.
        internal_init : float, optional
            Rising-only: initial voltage of every internal chain
            node, volts; NaN and ``±inf`` rejected.

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
        flat, shape = offset_rows(n, deltas)
        with _span("kernel.evaluate", n=n, direction=direction,
                   rows=int(flat.shape[0])):
            return self._evaluate_inner(flat, shape, direction,
                                        internal_init)

    def _evaluate_inner(self, flat, shape, direction,
                        internal_init):
        model = self._model
        n = self.num_inputs
        settle = model.settle_time()
        offsets = np.clip(flat, -settle, settle)
        rows = offsets.shape[0]
        times = np.concatenate(
            [np.zeros((rows, 1)), offsets], axis=1)
        times -= times.min(axis=1, keepdims=True)

        if direction == "falling":
            downward = True
            state0 = model.resting_state((0,) * n)
            reference = np.zeros(rows)
        elif direction == "rising":
            downward = False
            state0 = np.array([float(internal_init)] * (n - 1) + [0.0])
            reference = times.max(axis=1)
        else:
            raise ParameterError(
                f"direction must be 'falling' or 'rising', got "
                f"{direction!r}")

        order = np.argsort(times, axis=1, kind="stable")
        sorted_times = np.take_along_axis(times, order, axis=1)
        # Mode id of segment k = input state once the first k+1 events
        # have fired: falling starts all-zero and each event sets a
        # bit, rising starts all-one and each event clears one.
        flipped = np.cumsum(1 << order, axis=1)
        mode_ids = flipped if downward else ((1 << n) - 1) - flipped

        # A row whose output passed Vth by a segment start crossed in an
        # earlier one.  Segments reach the solver in _SOLVE_PAIRS batches.
        result = np.full(rows, math.nan)
        batch = []
        state = np.broadcast_to(state0, (rows, n)).astype(float)
        for k in range(n):
            modes_k = mode_ids[:, k]
            aug = np.concatenate([state, np.ones((rows, 1))], axis=1)
            coeffs = np.einsum("rj,rij->ri", aug, self._inverse[modes_k])
            rates_k = self._rates[modes_k]
            last = k + 1 == n
            # The last segment runs until every mode has settled.
            duration = (60.0 * self._slow[modes_k] + 1e-15 if last
                        else sorted_times[:, k + 1] - sorted_times[:, k])
            out = state[:, -1]
            open_ = np.nonzero(np.isnan(result) & (
                out >= self._vth if downward else out <= self._vth))[0]
            batch.append((k * rows + open_,
                          (coeffs[open_] * self._out[modes_k[open_]]).T,
                          rates_k[open_].T, duration[open_]))
            if last or sum(b[0].size for b in batch) >= _SOLVE_PAIRS:
                pairs, weights, rates, windows = (
                    np.concatenate(part, axis=-1) for part in zip(*batch))
                batch = []
                segment, owner = np.divmod(pairs, rows)
                with _span("kernel.crossings", rows=int(owner.size)):
                    local = exp_sum_crossing(weights, rates, self._vth,
                                             downward, windows)
                crossed = np.nonzero(~np.isnan(local))[0]
                # Pairs run in segment order: a row's first hit is its delay.
                hit, first = np.unique(owner[crossed], return_index=True)
                pick = crossed[first]
                result[hit] = sorted_times[hit, segment[pick]] + local[pick]
            if not last:
                growth = np.exp(duration[:, None] * rates_k)
                state = np.einsum("ri,rji->rj", coeffs * growth,
                                  self._vectors[modes_k])[:, :n]
        if np.isnan(result).any():  # pragma: no cover - defensive
            raise NoCrossingError("batched crossing search exhausted all "
                                  "segments without an output transition")
        delays = result - reference + model.params.delta_min
        return delays.reshape(shape)


def compiled_nor_kernel(params: GeneralizedNorParameters
                        ) -> CompiledNorKernel:
    """The shared :class:`CompiledNorKernel` of a parameter set.

    Resolves through :func:`generalized_model` so every caller — the
    engine backends, characterization — shares one
    compiled kernel (and its stacked eigen tensors) per parameter set.
    """
    return generalized_model(params).kernel()


def delta_vector_grid(params: GeneralizedNorParameters,
                      axis_points: int,
                      span_taus: float = 4.0) -> np.ndarray:
    """Uniform Δ-vector rows across the gate's MIS core.

    The standard probe grid of the n-input benchmarks and experiments:
    one uniform axis per sibling input, spanning ``±span_taus`` of the
    gate's settle-time-derived core scale, meshed and flattened to
    evaluation-ready rows.  The ``multi_input`` experiment, the
    Δ-vector benchmarks and :class:`repro.api.Session` all build their
    grids here so grid conventions cannot drift apart.

    Parameters
    ----------
    params : GeneralizedNorParameters
        n-input electrical parameter set.
    axis_points : int
        Samples per sibling axis (the grid has
        ``axis_points**(n-1)`` rows).
    span_taus : float, optional
        Half-width of each axis in units of ``settle_time() / 60``
        (default 4.0, the MIS core).

    Returns
    -------
    numpy.ndarray
        Shape ``(axis_points**(n-1), n-1)`` array of sibling offsets
        in seconds.
    """
    model = generalized_model(params)
    tau = model.settle_time() / 60.0
    axis = np.linspace(-span_taus * tau, span_taus * tau, axis_points)
    mesh = np.stack(np.meshgrid(*([axis] * (params.num_inputs - 1)),
                                indexing="ij"), axis=-1)
    return mesh.reshape(-1, params.num_inputs - 1)


@functools.lru_cache(maxsize=128)
def generalized_model(params: GeneralizedNorParameters
                      ) -> GeneralizedNorModel:
    """Shared per-parameter-set model cache.

    The model instance owns the per-``(params, input-state)``
    eigendecomposition caches of the batched Δ-vector evaluation, so
    the engine backends resolve their models through this function to
    share them across calls.
    """
    return GeneralizedNorModel(params)
