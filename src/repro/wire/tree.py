"""RC interconnect trees: segments, topology, and exact moments.

A wire is modeled as a rooted tree of lumped RC segments — the
standard reduced-order abstraction of on-chip interconnect.  The
*root* is the driving point (a gate output); every
:class:`WireSegment` adds one resistance in series from its parent
node and one capacitance to ground at its far end; *sinks* are the
tapped nodes that feed downstream gate inputs and may carry an extra
``load`` capacitance for the receiver.

The tree knows its exact first and second voltage-transfer moments,
computed with the classic two-pass (RICE-style) traversal:

* ``m1(i) = −Σ_j R(path(i) ∩ path(j)) · C_j`` — the negated *Elmore
  delay* ``T_D(i)``;
* ``m2(i) = Σ_j R(path(i) ∩ path(j)) · C_j · T_D(j)``.

Both feed the reduced-order delay models of :mod:`repro.wire.model`
(Elmore and the two-pole moment match).  All quantities are SI (ohms,
farads, seconds).
"""

from __future__ import annotations

import dataclasses
import math

from ..errors import NetlistError, ParameterError

__all__ = ["WireSegment", "WireTree"]

#: Name of the tree's driving-point node.
ROOT = "root"


@dataclasses.dataclass(frozen=True)
class WireSegment:
    """One lumped RC stage of a wire tree.

    The segment hangs off *parent* (the root or another segment's
    name) and creates a new node named after itself at the far end,
    where its capacitance (and any sink *load*) is lumped to ground.

    Parameters
    ----------
    name : str
        Node name created at the segment's far end (unique per tree).
    parent : str
        Name of the node the segment starts at — ``"root"`` or a
        previously declared segment.
    resistance : float
        Series resistance of the segment, ohms (positive).
    capacitance : float
        Capacitance lumped at the far node, farads (non-negative).
    load : float, optional
        Extra sink load at the far node (receiver input capacitance),
        farads (non-negative, default 0).
    """

    name: str
    parent: str
    resistance: float
    capacitance: float
    load: float = 0.0

    def __post_init__(self) -> None:
        if not self.name or self.name == ROOT:
            raise ParameterError(
                f"segment name must be non-empty and not {ROOT!r}")
        if not (math.isfinite(self.resistance)
                and self.resistance > 0.0):
            raise ParameterError(
                f"segment {self.name!r}: resistance must be positive "
                f"and finite, got {self.resistance!r}")
        for field in ("capacitance", "load"):
            value = getattr(self, field)
            if not (math.isfinite(value) and value >= 0.0):
                raise ParameterError(
                    f"segment {self.name!r}: {field} must be "
                    f"non-negative and finite, got {value!r}")


@dataclasses.dataclass(frozen=True)
class WireTree:
    """A rooted RC tree with explicit sink taps.

    Parameters
    ----------
    segments : tuple of WireSegment
        The RC stages, declared parent-before-child; each name is
        unique and each parent is ``"root"`` or an earlier segment.
    sinks : tuple of str, optional
        Tapped node names feeding downstream gates.  Empty (default)
        taps every *leaf* segment.

    Raises
    ------
    NetlistError
        On duplicate names, unknown/forward parents, or a sink that
        names no segment.
    """

    segments: tuple[WireSegment, ...]
    sinks: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.segments:
            raise NetlistError("a wire tree needs at least one "
                               "segment")
        object.__setattr__(self, "segments", tuple(self.segments))
        seen: set[str] = set()
        for segment in self.segments:
            if segment.name in seen:
                raise NetlistError(
                    f"duplicate wire segment name {segment.name!r}")
            if segment.parent != ROOT and segment.parent not in seen:
                raise NetlistError(
                    f"segment {segment.name!r}: parent "
                    f"{segment.parent!r} is not declared before it")
            seen.add(segment.name)
        if not self.sinks:
            parents = {segment.parent for segment in self.segments}
            object.__setattr__(
                self, "sinks",
                tuple(segment.name for segment in self.segments
                      if segment.name not in parents))
        else:
            object.__setattr__(self, "sinks", tuple(self.sinks))
            unknown = set(self.sinks) - seen
            if unknown:
                raise NetlistError(
                    f"sink(s) {sorted(unknown)} name no wire segment")
            if len(set(self.sinks)) != len(self.sinks):
                raise NetlistError("duplicate sink names")

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def line(cls, segments: int = 4, resistance: float = 2e3,
             capacitance: float = 0.4e-15, load: float = 0.0,
             prefix: str = "n") -> "WireTree":
        """A uniform RC ladder — the distributed-line approximation.

        Parameters
        ----------
        segments : int, optional
            Number of lumped stages (>= 1; more stages approximate a
            distributed line more closely).
        resistance, capacitance : float, optional
            Per-*segment* series resistance (ohms) and shunt
            capacitance (farads).
        load : float, optional
            Receiver load at the single sink (the far end), farads.
        prefix : str, optional
            Node-name prefix (nodes are ``n1 … n<segments>``).
        """
        if segments < 1:
            raise ParameterError("line needs at least 1 segment")
        stages = []
        parent = ROOT
        for index in range(1, segments + 1):
            name = f"{prefix}{index}"
            stages.append(WireSegment(
                name=name, parent=parent, resistance=resistance,
                capacitance=capacitance,
                load=load if index == segments else 0.0))
            parent = name
        return cls(segments=tuple(stages))

    @classmethod
    def fanout(cls, branches: int = 2, stem: int = 1,
               segments: int = 2, resistance: float = 2e3,
               capacitance: float = 0.4e-15,
               load: float = 0.0) -> "WireTree":
        """A stem splitting into identical branches (fanout tree).

        Parameters
        ----------
        branches : int, optional
            Number of branches after the stem (>= 1); each branch end
            is a sink.
        stem : int, optional
            RC stages shared by all branches before the split
            (>= 0).
        segments : int, optional
            RC stages per branch (>= 1).
        resistance, capacitance : float, optional
            Per-segment series resistance (ohms) and shunt
            capacitance (farads).
        load : float, optional
            Receiver load at every branch end, farads.
        """
        if branches < 1:
            raise ParameterError("fanout needs at least 1 branch")
        if stem < 0 or segments < 1:
            raise ParameterError(
                "fanout needs stem >= 0 and segments >= 1")
        stages = []
        parent = ROOT
        for index in range(1, stem + 1):
            name = f"s{index}"
            stages.append(WireSegment(
                name=name, parent=parent, resistance=resistance,
                capacitance=capacitance))
            parent = name
        split = parent
        for branch in range(1, branches + 1):
            parent = split
            for index in range(1, segments + 1):
                name = f"b{branch}_{index}"
                stages.append(WireSegment(
                    name=name, parent=parent, resistance=resistance,
                    capacitance=capacitance,
                    load=load if index == segments else 0.0))
                parent = name
        return cls(segments=tuple(stages))

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    @property
    def root(self) -> str:
        """Name of the driving-point node (always ``"root"``)."""
        return ROOT

    @property
    def nodes(self) -> tuple[str, ...]:
        """All node names, root first, parent-before-child."""
        return (ROOT,) + tuple(s.name for s in self.segments)

    def total_capacitance(self) -> float:
        """Total capacitance the tree presents, sink loads included,
        farads — the effective load added to the driving gate."""
        return sum(s.capacitance + s.load for s in self.segments)

    def children(self) -> dict[str, list[WireSegment]]:
        """Parent node name -> list of child segments."""
        out: dict[str, list[WireSegment]] = {}
        for segment in self.segments:
            out.setdefault(segment.parent, []).append(segment)
        return out

    # ------------------------------------------------------------------
    # moments
    # ------------------------------------------------------------------

    def downstream_capacitance(self) -> dict[str, float]:
        """Per-node capacitance of the subtree hanging below it,
        the node's own capacitance and load included, farads."""
        children = self.children()
        down: dict[str, float] = {}
        for segment in reversed(self.segments):
            subtree = segment.capacitance + segment.load
            subtree += sum(down[child.name]
                           for child in children.get(segment.name, []))
            down[segment.name] = subtree
        return down

    def elmore_delays(self) -> dict[str, float]:
        """Elmore delay ``T_D(i) = Σ_j R(path∩path) C_j`` per node,
        seconds — the negated first transfer moment, and the exact
        threshold-crossing shift in the slow-input (ramp) limit."""
        down = self.downstream_capacitance()
        delay: dict[str, float] = {ROOT: 0.0}
        for segment in self.segments:
            delay[segment.name] = (delay[segment.parent]
                                   + segment.resistance
                                   * down[segment.name])
        return delay

    def moments(self) -> tuple[dict[str, float], dict[str, float]]:
        """Exact first/second transfer moments per node.

        Returns
        -------
        tuple of dict
            ``(elmore, m2)`` where *elmore* maps node name to
            ``T_D(i) = −m1(i)`` and *m2* to the second moment
            ``m2(i) = Σ_j R(path(i) ∩ path(j)) C_j T_D(j)``, the
            inputs of the two-pole match of
            :mod:`repro.wire.model`.
        """
        elmore = self.elmore_delays()
        children = self.children()
        weighted: dict[str, float] = {}
        for segment in reversed(self.segments):
            total = ((segment.capacitance + segment.load)
                     * elmore[segment.name])
            total += sum(weighted[child.name]
                         for child in children.get(segment.name, []))
            weighted[segment.name] = total
        m2: dict[str, float] = {ROOT: 0.0}
        for segment in self.segments:
            m2[segment.name] = (m2[segment.parent]
                                + segment.resistance
                                * weighted[segment.name])
        return elmore, m2

    def describe(self) -> str:
        """One-line structural summary."""
        return (f"wire tree: {len(self.segments)} segments, "
                f"{len(self.sinks)} sink(s) "
                f"({', '.join(self.sinks)}), total "
                f"{self.total_capacitance() * 1e15:.3f} fF")
