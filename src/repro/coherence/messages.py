"""Coherence protocol messages.

Message names follow the Gem5/MOESI vocabulary the paper uses in its
Figure 4 walk-through: GetS, GetX, Inv, InvAck, FwdGetX, AckCount,
Unblock.  Control messages are single-flit packets; data responses carry a
cache block and are 8-flit packets (Table 1).

Fast-path representation
========================
The :class:`MessageType` Enum stays the public/serialized vocabulary, but
each member also carries a small integer ``tag`` (its position in the
declaration).  Hot dispatch — the directory and L1 message handlers, the
memory system's routing/priority/tracing decisions — indexes precomputed
per-tag tuples and bound-method tables with that tag instead of hashing
Enum members or walking ``elif`` chains.  :class:`CoherenceMessage` is a
hand-rolled ``__slots__`` class (Python 3.9 can't do ``dataclass(slots=
True)``) that stamps ``msg.tag`` at construction, and the allocation-heavy
control bursts (Inv / InvAck / AckCount fan-outs) draw instances from a
per-run free-list :class:`MessagePool`.
"""

from __future__ import annotations

from enum import Enum
from typing import List, Optional


class MessageType(Enum):
    #: read request (load miss) to the home node
    GETS = "GetS"
    #: read-for-modification (atomic RMW or store miss) to the home node
    GETX = "GetX"
    #: home -> current owner: supply block to a GetS requester
    FWD_GETS = "FwdGetS"
    #: home -> current owner: transfer exclusive ownership to a new winner
    FWD_GETX = "FwdGetX"
    #: home -> transaction winner: a losing fail-fast GetX (e.g. a SWAP that
    #: will observe "occupied"); the winner answers it with a shared copy
    #: (the paper's Step 3 "forwards the GetX requests from the losers")
    FWD_FAIL = "FwdFail"
    #: block data response (shared)
    DATA = "Data"
    #: block data response granting exclusive ownership
    DATA_EXCL = "DataExcl"
    #: invalidate the target's copy; ack goes to the transaction winner
    INV = "Inv"
    #: invalidation acknowledgement
    INV_ACK = "InvAck"
    #: home -> winner: the set of cores whose InvAcks must be collected
    ACK_COUNT = "AckCount"
    #: winner -> home: transaction complete, unblock the directory entry
    UNBLOCK = "Unblock"
    #: evicting core -> home: give up a clean shared copy
    PUT_S = "PutS"
    #: evicting core -> home: write back an owned/modified copy
    PUT_M = "PutM"

    @property
    def is_data(self) -> bool:
        return self in (MessageType.DATA, MessageType.DATA_EXCL)


#: declaration-order int encoding of the Enum; ``MessageType.X.tag`` is the
#: index into every per-tag dispatch/flag table.
MESSAGE_TYPES = tuple(MessageType)
N_MESSAGE_TYPES = len(MESSAGE_TYPES)
for _i, _member in enumerate(MESSAGE_TYPES):
    _member.tag = _i
del _i, _member

#: tag -> wire name (``MessageType.X.value``), for stats counting without
#: touching the Enum member.
VALUE_BY_TAG = tuple(m.value for m in MESSAGE_TYPES)


def _tag_flags(*members: MessageType) -> tuple:
    """A tag-indexed tuple of booleans: True for the given members."""
    flags = [False] * N_MESSAGE_TYPES
    for member in members:
        flags[member.tag] = True
    return tuple(flags)


try:
    popcount = int.bit_count  # Python >= 3.10
except AttributeError:  # pragma: no cover - py3.9 fallback
    def popcount(x: int) -> int:
        """Number of set bits (sharer-mask cardinality)."""
        return bin(x).count("1")


def mask_to_set(mask: int) -> set:
    """The set of bit positions set in ``mask`` (compat view of a
    sharer/ack bitmask for tests, invariants and diagnostics)."""
    out = set()
    while mask:
        low = mask & -mask
        out.add(low.bit_length() - 1)
        mask ^= low
    return out


class CoherenceMessage:
    """Payload of one NoC packet in the coherence protocol.

    See the class docstring in this module's header for why this is a
    hand-written ``__slots__`` class; the field-by-field comments of the
    original dataclass live on the keyword parameters below.
    """

    __slots__ = (
        "mtype", "tag", "addr", "requester", "sender", "is_atomic",
        "fails_fast", "fails_if", "holds_copy", "fail_response", "value",
        "generated_cycle", "copyless", "ack_processed_cycle",
        "early_invalidated", "ack_from", "exclusive", "counts_as_ack_from",
        "inv_created_cycle", "inv_target", "early", "via_router",
        "dest_is_home", "stale", "txn_id", "priority", "_in_pool",
    )

    def __init__(
        self,
        mtype: MessageType,
        addr: int,
        #: core/node that originated the memory operation this message
        #: serves.
        requester: int,
        #: immediate sender node (home, a core, or a big router).
        sender: int = -1,
        #: for GETX: True when issued by an atomic RMW (lock acquire
        #: attempt).  Big routers only barrier atomic GetX requests.
        is_atomic: bool = False,
        #: for GETX: the RMW can fail fast (a SWAP onto an occupied lock);
        #: a losing request is answered by the winner with a shared copy
        #: instead of a serialized ownership transfer.
        fails_fast: bool = False,
        #: for fail-fast GETX: the failure predicate itself, so the
        #: directory can answer a doomed request (e.g. a SWAP that would
        #: observe "occupied") with a shared copy directly, without opening
        #: a transaction — the store-conditional simply fails.
        fails_if: Optional[object] = None,
        #: for GETX: the issuing L1 held a valid copy when the request
        #: left.  Big routers only stop requests whose issuer has a copy to
        #: early-invalidate; stopping copy-less requests is pure overhead.
        holds_copy: bool = False,
        #: for DATA answering a forwarded losing GetX: the observed value.
        fail_response: bool = False,
        value: int = 0,
        #: for DATA fail answers: cycle the answer was generated.
        generated_cycle: int = -1,
        #: for DATA fail answers: value-only NACK — the requester must not
        #: install a copy (used when another core owns the block
        #: exclusively).
        copyless: bool = False,
        #: for INV_ACK: cycle the target L1 processed the invalidation; the
        #: directory uses it to ignore prunes that predate a newer sharer
        #: add.
        ack_processed_cycle: int = -1,
        #: for GETX: set once a big router stopped + converted this request.
        early_invalidated: bool = False,
        #: for ACK_COUNT: bitmask of cores whose InvAcks the winner must
        #: collect (bit ``c`` set == core ``c`` expected).
        ack_from: int = 0,
        #: for DATA/DATA_EXCL: whether this grants write permission.
        exclusive: bool = False,
        #: for DATA_EXCL sent by a previous owner: counts as that owner's
        #: ack.
        counts_as_ack_from: Optional[int] = None,
        #: for INV / INV_ACK: cycle the invalidation was created (RTT
        #: metric), the core being invalidated, and whether a big router
        #: generated it.
        inv_created_cycle: int = -1,
        inv_target: int = -1,
        early: bool = False,
        #: big router node that generated an early INV (ack returns there
        #: first).
        via_router: Optional[int] = None,
        #: for INV_ACK: True when a big router forwarded this ack to the
        #: home node's directory (rather than to a winner's L1).
        dest_is_home: bool = False,
        #: for INV_ACK answering an *early* INV that arrived after its
        #: target had legitimately gained ownership: the target kept its
        #: line; the ack only releases the big router's EI entry and must
        #: not prune directory state.
        stale: bool = False,
        #: directory transaction id (assigned when home starts the
        #: transaction).
        txn_id: int = 0,
        #: OCOR: priority level carried by lock request packets.
        priority: int = 0,
    ):
        self.mtype = mtype
        self.tag = mtype.tag
        self.addr = addr
        self.requester = requester
        self.sender = sender
        self.is_atomic = is_atomic
        self.fails_fast = fails_fast
        self.fails_if = fails_if
        self.holds_copy = holds_copy
        self.fail_response = fail_response
        self.value = value
        self.generated_cycle = generated_cycle
        self.copyless = copyless
        self.ack_processed_cycle = ack_processed_cycle
        self.early_invalidated = early_invalidated
        self.ack_from = ack_from
        self.exclusive = exclusive
        self.counts_as_ack_from = counts_as_ack_from
        self.inv_created_cycle = inv_created_cycle
        self.inv_target = inv_target
        self.early = early
        self.via_router = via_router
        self.dest_is_home = dest_is_home
        self.stale = stale
        self.txn_id = txn_id
        self.priority = priority
        self._in_pool = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{self.mtype.value}(addr={self.addr:#x}, req={self.requester}, "
            f"txn={self.txn_id})"
        )


class MessagePool:
    """A per-run free list for short-lived control messages.

    The Inv / InvAck / AckCount bursts of an invalidation fan-out allocate
    one :class:`CoherenceMessage` per sharer per transaction and drop it
    as soon as the destination endpoint has handled it.  The pool recycles
    those instances: :meth:`acquire` re-initializes a freed message (same
    keyword signature as the class), :meth:`release` returns one.

    Safety: a message may only be released at its *final* consumption
    point (the memory-system endpoint, after its handler ran), and never
    when fault injection is active — the ``duplicate`` fault aliases one
    payload across two packets, so recycling on the first delivery would
    corrupt the second.  ``MemorySystem`` enforces both rules; the
    ``_in_pool`` flag makes double-release a no-op.
    """

    __slots__ = ("_free", "allocated", "reused", "released")

    def __init__(self) -> None:
        self._free: List[CoherenceMessage] = []
        self.allocated = 0
        self.reused = 0
        self.released = 0

    def acquire(self, mtype: MessageType, addr: int, requester: int,
                **kw) -> CoherenceMessage:
        free = self._free
        if free:
            self.reused += 1
            msg = free.pop()
            msg.__init__(mtype, addr, requester, **kw)
            return msg
        self.allocated += 1
        return CoherenceMessage(mtype, addr, requester, **kw)

    def release(self, msg: CoherenceMessage) -> None:
        if msg._in_pool:
            return
        msg._in_pool = True
        self.released += 1
        self._free.append(msg)

    def __len__(self) -> int:
        return len(self._free)
