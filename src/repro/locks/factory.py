"""Lock primitive factory — the five primitives of the paper."""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..config import PRIMITIVES, SystemConfig, canonical_primitive
from ..sim import Simulator
from .abql import AbqlLock
from .base import AddressSpace, LockPrimitive
from .mcs import McsLock
from .qsl import QueueSpinLock
from .tas import TasLock
from .ticket import TicketLock

if TYPE_CHECKING:  # pragma: no cover
    from ..coherence.memsystem import MemorySystem
    from ..cpu.os_model import OsModel

__all__ = ["PRIMITIVES", "canonical_primitive", "make_lock"]


def make_lock(
    primitive: str,
    sim: Simulator,
    memsys: "MemorySystem",
    addr_space: AddressSpace,
    lock_id: int,
    home_node: int,
    config: SystemConfig,
    os_model: Optional["OsModel"] = None,
) -> LockPrimitive:
    """Instantiate one lock of the requested primitive."""
    kind = canonical_primitive(primitive)
    if kind == "tas":
        return TasLock(sim, memsys, addr_space, lock_id, home_node, config)
    if kind == "ticket":
        return TicketLock(sim, memsys, addr_space, lock_id, home_node, config)
    if kind == "abql":
        return AbqlLock(
            sim, memsys, addr_space, lock_id, home_node, config,
            num_slots=config.num_threads,
        )
    if kind == "mcs":
        return McsLock(
            sim, memsys, addr_space, lock_id, home_node, config,
            num_cores=memsys.network.mesh.num_nodes,
        )
    if kind == "qsl":
        if os_model is None:
            raise ValueError("QSL requires an OS model for its sleep phase")
        return QueueSpinLock(
            sim, memsys, addr_space, lock_id, home_node, config, os_model
        )
    raise AssertionError(kind)
