"""Delay channels: pure, inertial, IDM involution, hybrid NOR (two-
and n-input), and characterized-table gates."""

from .base import Channel, MisChannel, SingleInputChannel
from .hybrid import HybridNorChannel
from .inertial import InertialDelayChannel
from .involution import ExpChannel, SumExpChannel, WaveformChannel
from .multi_input import GeneralizedNorChannel
from .pure import PureDelayChannel
from .table import TableDelayChannel

__all__ = [
    "Channel",
    "ExpChannel",
    "GeneralizedNorChannel",
    "HybridNorChannel",
    "InertialDelayChannel",
    "MisChannel",
    "PureDelayChannel",
    "SingleInputChannel",
    "SumExpChannel",
    "TableDelayChannel",
    "WaveformChannel",
]
