"""Core/thread/OS models and the off-chip memory path."""

from .memory_model import MemoryController, MemorySubsystem, controller_nodes
from .os_model import OsModel
from .thread import WorkerThread

__all__ = [
    "MemoryController",
    "MemorySubsystem",
    "OsModel",
    "WorkerThread",
    "controller_nodes",
]
