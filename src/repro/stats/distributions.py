"""Seeded parameter distributions drawing whole sample blocks.

A :class:`ParameterDistribution` describes how the electrical
parameters of the hybrid NOR model vary around a nominal set: each
varied parameter carries a *relative* spread, the family is
``lognormal`` (mean-preserving, always positive — the default for
R/C process spread) or ``normal``, and a single equicorrelation
coefficient models a shared process gradient across parameters
(applied through the Cholesky factor of the equicorrelation matrix).

Draws are **blocks**, not objects: ``sample_block(n, seed)`` returns
a structured array of dtype :data:`repro.engine.blocks.BLOCK_DTYPE`
with one parameter set per record, ready for the block kernels of
:mod:`repro.engine.blocks` without any Python-object round trip.

Everything is a deterministic function of ``(distribution, seed)``:
draws use :class:`numpy.random.default_rng` (PCG64, stable across
processes and platforms), and the whole map from standard-normal
variables to parameter values is exposed as :meth:`transform` so the
collocation surrogate of :mod:`repro.stats.surrogate` can evaluate
the *same* map on deterministic quadrature nodes instead of random
draws.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..core.parameters import NorGateParameters
from ..engine.blocks import BLOCK_DTYPE, PARAM_FIELDS
from ..errors import ParameterError

__all__ = ["VARIABLE_PARAMS", "ParameterDistribution"]

#: Parameters a distribution may vary — the electrical R/C values.
#: ``vdd`` and ``delta_min`` stay at their nominal values (supply
#: variation changes the threshold semantics, not just the samples).
VARIABLE_PARAMS = ("r1", "r2", "r3", "r4", "cn", "co")

#: Relative floor applied to ``normal``-family draws so a deep
#: negative tail cannot produce a non-positive R/C value.
_NORMAL_FLOOR = 1e-6


@dataclasses.dataclass(frozen=True)
class ParameterDistribution:
    """A seeded distribution over hybrid-model parameter sets.

    Parameters
    ----------
    nominal : NorGateParameters
        The center of the distribution (SI units).
    sigma : mapping or sequence of (str, float)
        Relative spread per varied parameter, e.g. ``{"r1": 0.1,
        "co": 0.05}``.  Keys must come from :data:`VARIABLE_PARAMS`;
        values are fractions of the nominal value (``0.1`` = 10 %).
        Parameters not listed stay at nominal.  Normalized to a
        tuple of pairs in :data:`VARIABLE_PARAMS` order, so equal
        distributions compare (and hash) equal.
    kind : str, optional
        ``"lognormal"`` (default) — mean-preserving multiplicative
        spread, always positive — or ``"normal"`` — additive
        relative spread, floored at a tiny positive fraction of
        nominal.
    correlation : float, optional
        Equicorrelation coefficient ρ between every pair of varied
        parameters' underlying normals, ``0 ≤ ρ < 1`` (default 0.0,
        independent).  Applied via the Cholesky factor of the
        equicorrelation matrix, so ``transform`` maps *independent*
        standard normals.

    Raises
    ------
    ParameterError
        On unknown parameter names, invalid spreads, an unknown
        family, an out-of-range correlation, or an empty ``sigma``.
    """

    nominal: NorGateParameters
    sigma: tuple
    kind: str = "lognormal"
    correlation: float = 0.0

    def __post_init__(self):
        spec = self.sigma
        if hasattr(spec, "items"):
            spec = spec.items()
        table = {}
        for name, rel in spec:
            if name not in VARIABLE_PARAMS:
                raise ParameterError(
                    f"unknown distribution parameter {name!r}; "
                    f"choose from {', '.join(VARIABLE_PARAMS)}")
            rel = float(rel)
            if not math.isfinite(rel) or rel <= 0.0:
                raise ParameterError(
                    f"relative sigma for {name!r} must be positive "
                    f"and finite, got {rel}")
            if name in table:
                raise ParameterError(
                    f"duplicate sigma entry for {name!r}")
            table[name] = rel
        if not table:
            raise ParameterError(
                "sigma must vary at least one parameter")
        object.__setattr__(
            self, "sigma",
            tuple((name, table[name]) for name in VARIABLE_PARAMS
                  if name in table))
        if self.kind not in ("lognormal", "normal"):
            raise ParameterError(
                f"unknown distribution kind {self.kind!r}; choose "
                "'lognormal' or 'normal'")
        rho = float(self.correlation)
        if not (math.isfinite(rho) and 0.0 <= rho < 1.0):
            raise ParameterError(
                f"correlation must satisfy 0 <= rho < 1, got "
                f"{self.correlation}")
        object.__setattr__(self, "correlation", rho)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    @property
    def varied(self) -> tuple:
        """Names of the varied parameters, in canonical order."""
        return tuple(name for name, _ in self.sigma)

    @property
    def dimension(self) -> int:
        """Number of independent standard-normal inputs."""
        return len(self.sigma)

    def _cholesky(self) -> np.ndarray:
        """Lower Cholesky factor of the equicorrelation matrix."""
        k = self.dimension
        matrix = np.full((k, k), self.correlation)
        np.fill_diagonal(matrix, 1.0)
        return np.linalg.cholesky(matrix)

    # ------------------------------------------------------------------
    # the z → parameters map
    # ------------------------------------------------------------------

    def transform(self, z) -> np.ndarray:
        """Map independent standard normals to a sample block.

        The deterministic half of sampling: Monte-Carlo feeds it
        random draws, the collocation surrogate feeds it quadrature
        nodes — both see the identical correlation + marginal map.

        Parameters
        ----------
        z : array_like of float
            Independent standard-normal variables, shape
            ``(n, dimension)``.

        Returns
        -------
        numpy.ndarray
            Sample block of dtype
            :data:`repro.engine.blocks.BLOCK_DTYPE`, shape ``(n,)``;
            unvaried fields hold their nominal values.
        """
        z = np.asarray(z, dtype=float)
        if z.ndim != 2 or z.shape[1] != self.dimension:
            raise ParameterError(
                f"z must have shape (n, {self.dimension}), got "
                f"{z.shape}")
        correlated = z @ self._cholesky().T
        block = np.empty(z.shape[0], dtype=BLOCK_DTYPE)
        for name in PARAM_FIELDS:
            block[name] = getattr(self.nominal, name)
        for column, (name, rel) in enumerate(self.sigma):
            nominal = getattr(self.nominal, name)
            zc = correlated[:, column]
            if self.kind == "lognormal":
                # Mean-preserving: E[value] = nominal exactly.
                sigma_ln = math.sqrt(math.log1p(rel * rel))
                values = nominal * np.exp(sigma_ln * zc
                                          - 0.5 * sigma_ln ** 2)
            else:
                values = nominal * np.maximum(1.0 + rel * zc,
                                              _NORMAL_FLOOR)
            block[name] = values
        return block

    # ------------------------------------------------------------------
    # seeded draws
    # ------------------------------------------------------------------

    def draw_normals(self, n: int, seed: int) -> np.ndarray:
        """Draw the independent standard-normal inputs of *n* samples.

        Parameters
        ----------
        n : int
            Sample count (>= 1).
        seed : int
            PCG64 seed; identical seeds give identical draws on
            every platform and in every process.

        Returns
        -------
        numpy.ndarray
            Shape ``(n, dimension)``.
        """
        if n < 1:
            raise ParameterError(f"need at least one sample, got {n}")
        rng = np.random.default_rng(int(seed))
        return rng.standard_normal((int(n), self.dimension))

    def sample_block(self, n: int, seed: int) -> np.ndarray:
        """Draw *n* parameter sets as one sample block.

        ``transform(draw_normals(n, seed))`` — the block analogue of
        drawing *n* :class:`~repro.core.parameters.NorGateParameters`
        objects, without creating any.

        Parameters
        ----------
        n : int
            Sample count (>= 1).
        seed : int
            PCG64 seed.

        Returns
        -------
        numpy.ndarray
            Sample block of dtype
            :data:`repro.engine.blocks.BLOCK_DTYPE`, shape ``(n,)``.
        """
        return self.transform(self.draw_normals(n, seed))
