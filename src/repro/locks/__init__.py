"""The five locking primitives evaluated in the paper (Section 2.1).

The primitive names come from :mod:`repro.config`; the lock classes,
and :func:`make_lock` with them, load on first access.
"""

from .. import _lazy
from ..config import PRIMITIVES, canonical_primitive
from .base import AddressSpace, LockPrimitive

__getattr__, __dir__ = _lazy.lazy_names(globals(), {
    "AbqlLock": ".abql",
    "McsLock": ".mcs",
    "QueueSpinLock": ".qsl",
    "TasLock": ".tas",
    "TicketLock": ".ticket",
    "make_lock": ".factory",
})

__all__ = [
    "AbqlLock",
    "AddressSpace",
    "LockPrimitive",
    "McsLock",
    "PRIMITIVES",
    "QueueSpinLock",
    "TasLock",
    "TicketLock",
    "canonical_primitive",
    "make_lock",
]
