"""iNPG: in-network packet generation (the paper's core contribution)."""

from .barrier_table import EIEntry, EIPhase, LockBarrier, LockingBarrierTable
from .big_router import BigRouter
from .deployment import evenly_spread_nodes, interleaved_nodes

__all__ = [
    "BigRouter",
    "EIEntry",
    "EIPhase",
    "LockBarrier",
    "LockingBarrierTable",
    "evenly_spread_nodes",
    "interleaved_nodes",
]
