"""Directory-based cache coherence: a MSI/MESI/MOESI protocol family.

The paper's Figure 4 protocol (directory MOESI) is the default; the
variants are declarative transition tables in :mod:`.protocol`, compiled
onto the L1/directory controllers at attach time.
"""

from .directory import DirectoryController, DirEntry, Transaction
from .l1cache import L1Cache
from .memsystem import MemorySystem
from .messages import CoherenceMessage, MessageType
from .protocol import (
    DirState,
    PROTOCOLS,
    ProtocolSpec,
    TransitionResult,
    UNHANDLED,
    dir_state_of,
    get_protocol,
    lint_protocol,
)
from .states import L1State

__all__ = [
    "CoherenceMessage",
    "DirEntry",
    "DirState",
    "DirectoryController",
    "L1Cache",
    "L1State",
    "MemorySystem",
    "MessageType",
    "PROTOCOLS",
    "ProtocolSpec",
    "Transaction",
    "TransitionResult",
    "UNHANDLED",
    "dir_state_of",
    "get_protocol",
    "lint_protocol",
]
