"""Directory controller at each home (shared L2 bank) node.

Implements the home-node side of the paper's Figure 4 protocol walk-through:

* **GetS** — if a core owns the block, forward the request to it (FwdGetS,
  owner degrades M/E -> O and supplies data); otherwise the home supplies
  data.  The requester is recorded as a sharer.
* **GetX** — transactions on a block are serialized by a busy bit with a
  request queue (losing GetX requests are, equivalently to the paper's
  "forwarded to the winner", queued and served in turn by the then-current
  owner via FwdGetX).  Starting a transaction, the home invalidates every
  sharer (InvAcks go straight to the winner), transfers data from the old
  owner (FwdGetX) or supplies it itself, and tells the winner which acks
  to collect (AckCount).  The winner's Unblock closes the transaction.
* **early InvAck** (iNPG) — an ack forwarded by a big router for an early
  invalidation it generated.  The home prunes the acked core from the
  sharer list; if a transaction is in flight and still waiting on that
  core, the ack is relayed to the winner (Section 3.3: "the big router
  then forwards ... the acknowledgements ... to the home node, which are
  in turn forwarded by the home node to the winning thread").

With OCOR enabled, the queued GetX requests are ordered by the priority
their packets carry (remaining-times-of-retry mapping) instead of FIFO.

Fast-path representation (DESIGN.md §11): messages dispatch through a
per-type bound-method table indexed by ``msg.tag``; sharer sets and
pending-InvAck sets are integer bitmasks (bit ``c`` == core ``c``), so the
64-core invalidation fan-out walks set bits instead of rebuilding Python
sets; :class:`DirEntry` / :class:`Transaction` are slotted; and the Inv /
AckCount bursts draw messages from the memory system's free-list pool.

Protocol family (DESIGN.md §12): the dispatch table and the two variant
flags the handlers branch on — ``_home_takes_ownership`` (MSI/MESI have
no O state, so sharing an owned block returns ownership to the home) and
``_grant_exclusive_clean`` (MESI grants Exclusive on a clean GetS miss)
— are compiled onto each instance from the active
:class:`~repro.coherence.protocol.ProtocolSpec` at construction time.
Under MOESI both flags are False and every path below is byte-identical
to the pre-table code.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from ..sim import Component, Simulator
from .messages import (
    CoherenceMessage,
    MessageType,
    N_MESSAGE_TYPES,
    mask_to_set,
    next_txn_id,
)

if TYPE_CHECKING:  # pragma: no cover
    from .memsystem import MemorySystem

__all__ = ["DirEntry", "DirectoryController", "Transaction", "next_txn_id"]


class Transaction:
    """An in-flight exclusive-ownership transfer."""

    __slots__ = ("txn_id", "addr", "winner", "start", "expected_mask",
                 "is_atomic", "forwarded_losers")

    def __init__(self, txn_id: int, addr: int, winner: int, start: int,
                 expected_mask: int, is_atomic: bool):
        self.txn_id = txn_id
        self.addr = addr
        self.winner = winner
        self.start = start
        #: bitmask of cores whose InvAcks the winner must collect
        self.expected_mask = expected_mask
        self.is_atomic = is_atomic
        self.forwarded_losers: List[int] = []

    @property
    def expected(self) -> set:
        """Set view of :attr:`expected_mask` (tests/diagnostics)."""
        return mask_to_set(self.expected_mask)


class DirEntry:
    """Directory state for one block.

    ``sharer_mask`` is the authoritative sharer representation (bit ``c``
    set == core ``c`` holds a Shared copy); the :attr:`sharers` property
    is the set-typed compatibility view used by tests, the protocol
    checker and diagnostics.
    """

    __slots__ = ("owner", "sharer_mask", "busy", "txn", "queue", "last_add")

    def __init__(self) -> None:
        self.owner: Optional[int] = None
        self.sharer_mask = 0
        self.busy = False
        self.txn: Optional[Transaction] = None
        #: queued requests: (sort key, message)
        self.queue: List[Tuple[Tuple[int, int, int], CoherenceMessage]] = []
        #: cycle each core was last added to the sharer list; early-ack
        #: prunes older than this are stale (previous copy).
        self.last_add: Dict[int, int] = {}

    @property
    def sharers(self) -> set:
        """Set view of :attr:`sharer_mask`."""
        return mask_to_set(self.sharer_mask)


#: msg.tag -> DirectoryController method name (None == protocol error)
_HANDLER_NAMES: List[Optional[str]] = [None] * N_MESSAGE_TYPES
_HANDLER_NAMES[MessageType.GETS.tag] = "_h_gets"
_HANDLER_NAMES[MessageType.GETX.tag] = "_h_getx"
_HANDLER_NAMES[MessageType.UNBLOCK.tag] = "_h_unblock"
_HANDLER_NAMES[MessageType.INV_ACK.tag] = "_h_inv_ack"
_HANDLER_NAMES[MessageType.DATA.tag] = "_h_data"
_HANDLER_NAMES[MessageType.PUT_S.tag] = "_h_put"
_HANDLER_NAMES[MessageType.PUT_M.tag] = "_h_put"


class DirectoryController(Component):
    """The coherence directory co-located with the L2 bank at ``node``."""

    def __init__(self, sim: Simulator, node: int, memsys: "MemorySystem"):
        super().__init__(sim, f"dir.{node}")
        self.node = node
        self.memsys = memsys
        self.entries: Dict[int, DirEntry] = {}
        self._queue_seq = 0
        self.ocor_queue_ordering = memsys.config.ocor.enabled
        self.transactions_started = 0
        self.gets_served = 0
        self.fail_forwards = 0
        self.nacked_probes = 0
        #: blocks resident in this L2 bank; a first touch fetches from DRAM
        self._resident: set = set()
        self._fetching: Dict[int, list] = {}
        self._l2_latency = memsys.config.cache.l2_latency
        self._schedule = sim.schedule
        # lower the active protocol's transition table onto this
        # instance: sets self.protocol, the msg.tag-indexed _dispatch
        # tuple and the _home_takes_ownership/_grant_exclusive_clean
        # variant flags.
        memsys.protocol.compile_directory(self)

    def _with_block(self, addr: int, action, msg) -> None:
        """Run ``action(msg)`` once ``addr`` is resident in the L2 bank.

        The first touch of a block pays a DRAM access at the nearest
        memory controller (Table 1's eight edge controllers); concurrent
        cold requests coalesce onto one fetch.
        """
        if addr in self._resident or self.memsys.dram is None:
            action(msg)
            return
        waiting = self._fetching.get(addr)
        if waiting is not None:
            waiting.append((action, msg))
            return
        self._fetching[addr] = [(action, msg)]
        self.memsys.dram.access_from(self.node, self._filled, addr)

    def _filled(self, addr: int) -> None:
        self._resident.add(addr)
        for action, msg in self._fetching.pop(addr):
            action(msg)

    def entry(self, addr: int) -> DirEntry:
        ent = self.entries.get(addr)
        if ent is None:
            ent = DirEntry()
            self.entries[addr] = ent
        return ent

    # ------------------------------------------------------------------
    # Message entry point (after L2 access latency)
    # ------------------------------------------------------------------
    def handle(self, msg: CoherenceMessage) -> None:
        handler = self._dispatch[msg.tag]
        if handler is None:
            raise RuntimeError(f"directory {self.node} cannot handle {msg}")
        handler(msg)

    # -- per-type entries (dispatch table targets) ----------------------
    def _h_gets(self, msg: CoherenceMessage) -> None:
        self._schedule(self._l2_latency, self._with_block, msg.addr,
                       self._on_gets, msg)

    def _h_getx(self, msg: CoherenceMessage) -> None:
        self._schedule(self._l2_latency, self._with_block, msg.addr,
                       self._on_getx, msg)

    def _h_unblock(self, msg: CoherenceMessage) -> None:
        # late-bound (self._on_unblock): the protocol checker wraps the
        # attribute after construction
        self._schedule(self._l2_latency, self._dispatch_unblock, msg)

    def _dispatch_unblock(self, msg: CoherenceMessage) -> None:
        self._on_unblock(msg)

    def _h_inv_ack(self, msg: CoherenceMessage) -> None:
        # A big-router-forwarded early ack; directory metadata update is
        # cheap, relay without a full L2 access.
        self._on_early_ack(msg)

    def _h_data(self, msg: CoherenceMessage) -> None:
        if msg.fail_response:
            self._relay_fail_answer(msg)
            return
        raise RuntimeError(f"directory {self.node} cannot handle {msg}")

    def _h_put(self, msg: CoherenceMessage) -> None:
        self._schedule(self._l2_latency, self._on_put, msg)

    def _on_put(self, msg: CoherenceMessage) -> None:
        """An eviction writeback: untrack the core's copy.

        A Put older than the core's latest sharer re-add is stale (the
        core refetched after evicting) and is dropped, mirroring the
        early-ack prune rule.
        """
        ent = self.entry(msg.addr)
        core = msg.requester
        if msg.mtype is MessageType.PUT_M and ent.owner == core:
            ent.owner = None
        if (ent.sharer_mask >> core) & 1 and (
            msg.ack_processed_cycle > ent.last_add.get(core, -1)
        ):
            ent.sharer_mask &= ~(1 << core)

    def _relay_fail_answer(self, msg: CoherenceMessage) -> None:
        """Register the losing requester as a sharer, then relay the
        winner's answer to it.

        Doing both at the home puts the sharer add and the copy delivery
        on the same (in-order) home->loser path as any subsequent
        invalidation of that copy, which makes untracked installs
        impossible.

        If a *new* transaction is already open for the block, the answer
        degrades to a value-only NACK: installing a copy now would create
        a sharer the open transaction's invalidation set never covered
        (a Modified winner coexisting with Shared losers).  The loser
        re-fetches through the normal tracked path instead.
        """
        ent = self.entry(msg.addr)
        copyless = ent.busy
        if not copyless:
            ent.sharer_mask |= 1 << msg.requester
            ent.last_add[msg.requester] = self.now
            if ent.owner == msg.sender:
                # MSI/MESI: the answering winner demoted itself to
                # Shared when it shared the copy; mirror that here.
                self._maybe_reclaim_ownership(ent)
        relayed = CoherenceMessage(
            mtype=MessageType.DATA,
            addr=msg.addr,
            requester=msg.requester,
            sender=self.node,
            fail_response=True,
            copyless=copyless,
            value=msg.value,
            # stamp the *add* moment: the loser installs iff its last
            # locally-processed invalidation predates this, which is the
            # exact complement of the home's early-ack prune rule
            generated_cycle=self.now,
        )
        self.memsys.send(
            self.node, msg.requester, relayed, data_packet=not copyless
        )

    # ------------------------------------------------------------------
    # GetS
    # ------------------------------------------------------------------
    def _on_gets(self, msg: CoherenceMessage) -> None:
        ent = self.entry(msg.addr)
        if ent.busy:
            self._enqueue(ent, msg)
            return
        self._serve_gets(ent, msg)

    def _serve_gets(self, ent: DirEntry, msg: CoherenceMessage) -> None:
        self.gets_served += 1
        requester = msg.requester
        if ent.owner is not None and ent.owner != requester:
            fwd = CoherenceMessage(
                mtype=MessageType.FWD_GETS,
                addr=msg.addr,
                requester=requester,
                sender=self.node,
            )
            self.memsys.send(self.node, ent.owner, fwd)
            self._maybe_reclaim_ownership(ent)
        else:
            if (
                self._grant_exclusive_clean
                and ent.owner is None
                and ent.sharer_mask == 0
            ):
                # MESI clean-miss grant: the requester becomes the
                # recorded *owner* (not a sharer) and installs E; a
                # later GetX from it finds owner == winner and needs no
                # FwdGetX, a GetX from anyone else FwdGetXes the line.
                grant = CoherenceMessage(
                    mtype=MessageType.DATA,
                    addr=msg.addr,
                    requester=requester,
                    sender=self.node,
                    exclusive=True,
                )
                self.memsys.send(
                    self.node, requester, grant, data_packet=True
                )
                ent.owner = requester
                ent.last_add[requester] = self.now
                return
            data = CoherenceMessage(
                mtype=MessageType.DATA,
                addr=msg.addr,
                requester=requester,
                sender=self.node,
            )
            self.memsys.send(self.node, requester, data, data_packet=True)
        ent.sharer_mask |= 1 << requester
        ent.last_add[requester] = self.now

    def _maybe_reclaim_ownership(self, ent: DirEntry) -> None:
        """MSI/MESI: an owner asked to share its block demotes itself to
        Shared, so the home reclaims ownership and re-tracks the old
        owner as a plain sharer.  Under MOESI (owner parks in O and keeps
        supplying data) this is a no-op."""
        if not self._home_takes_ownership or ent.owner is None:
            return
        old_owner = ent.owner
        ent.owner = None
        ent.sharer_mask |= 1 << old_owner
        ent.last_add[old_owner] = self.now

    # ------------------------------------------------------------------
    # GetX
    # ------------------------------------------------------------------
    def _on_getx(self, msg: CoherenceMessage) -> None:
        ent = self.entry(msg.addr)
        if ent.busy:
            txn = ent.txn
            # the winner's own next GetX can overtake the Unblock that
            # closes its transaction (the fabric keeps no per-pair
            # order, DESIGN.md §12); it waits its turn instead of being
            # forwarded to itself as a loser
            if (msg.fails_fast and txn is not None
                    and msg.requester != txn.winner):
                self._forward_loser(ent, msg)
            else:
                self._enqueue(ent, msg)
            return
        if (
            msg.fails_if is not None
            and self.memsys.config.cache.directory_nacks
            and msg.fails_if(self.memsys.read(msg.addr))
        ):
            # The store-conditional is doomed (e.g. a SWAP that would see
            # "occupied"): answer with a shared copy instead of opening a
            # pointless invalidate-everyone transaction (the paper's
            # Step 4 — losers end each round with valid copies).  When a
            # core owns the block, the copy comes from it (demoting it to
            # Owned); otherwise the home supplies it.
            self.nacked_probes += 1
            ent.sharer_mask |= 1 << msg.requester
            ent.last_add[msg.requester] = self.now
            if ent.owner is not None and ent.owner != msg.requester:
                fwd = CoherenceMessage(
                    mtype=MessageType.FWD_GETS,
                    addr=msg.addr,
                    requester=msg.requester,
                    sender=self.node,
                    fail_response=True,
                    generated_cycle=self.now,  # the sharer-add stamp
                )
                self.memsys.send(self.node, ent.owner, fwd)
                self._maybe_reclaim_ownership(ent)
            else:
                answer = CoherenceMessage(
                    mtype=MessageType.DATA,
                    addr=msg.addr,
                    requester=msg.requester,
                    sender=self.node,
                    fail_response=True,
                    value=self.memsys.read(msg.addr),
                    generated_cycle=self.now,
                )
                self.memsys.send(
                    self.node, msg.requester, answer, data_packet=True
                )
            return
        self._start_txn(ent, msg)

    def _forward_loser(self, ent: DirEntry, msg: CoherenceMessage) -> None:
        """Forward a losing fail-fast GetX to the in-flight winner.

        The winner will answer with a shared copy after its commit (the
        paper's Step 3/4), so the loser becomes a sharer now.
        """
        assert ent.txn is not None
        self.fail_forwards += 1
        ent.txn.forwarded_losers.append(msg.requester)
        fwd = CoherenceMessage(
            mtype=MessageType.FWD_FAIL,
            addr=msg.addr,
            requester=msg.requester,
            sender=self.node,
        )
        self.memsys.send(self.node, ent.txn.winner, fwd)

    def _start_txn(self, ent: DirEntry, msg: CoherenceMessage) -> None:
        self.transactions_started += 1
        memsys = self.memsys
        pool = memsys.msg_pool
        winner = msg.requester
        txn_id = memsys.next_txn_id()
        now = self.now
        old_owner = ent.owner
        # every sharer except the winner gets an Inv, lowest core first
        # (the bit walk reproduces the old sorted-set iteration order)
        to_invalidate = ent.sharer_mask & ~(1 << winner)
        expected_mask = to_invalidate
        invs_sent = 0
        remaining = to_invalidate
        while remaining:
            low = remaining & -remaining
            core = low.bit_length() - 1
            remaining ^= low
            inv = pool.acquire(
                MessageType.INV,
                msg.addr,
                winner,
                sender=self.node,
                inv_target=core,
                inv_created_cycle=now,
                txn_id=txn_id,
            )
            memsys.send(self.node, core, inv)
            invs_sent += 1
        if old_owner is not None and old_owner != winner:
            fwd = CoherenceMessage(
                mtype=MessageType.FWD_GETX,
                addr=msg.addr,
                requester=winner,
                sender=self.node,
            )
            memsys.send(self.node, old_owner, fwd)
            expected_mask |= 1 << old_owner
        else:
            data = CoherenceMessage(
                mtype=MessageType.DATA_EXCL,
                addr=msg.addr,
                requester=winner,
                sender=self.node,
                exclusive=True,
            )
            memsys.send(self.node, winner, data, data_packet=True)
        ack_count = pool.acquire(
            MessageType.ACK_COUNT,
            msg.addr,
            winner,
            sender=self.node,
            ack_from=expected_mask,
            txn_id=txn_id,
            inv_created_cycle=now,  # doubles as the txn start stamp
        )
        memsys.send(self.node, winner, ack_count)
        ent.busy = True
        ent.txn = Transaction(
            txn_id=txn_id,
            addr=msg.addr,
            winner=winner,
            start=now,
            expected_mask=expected_mask,
            is_atomic=msg.is_atomic,
        )
        ent.owner = winner
        ent.sharer_mask = 0
        if msg.is_atomic:
            memsys.stats.txn_started(
                txn_id, msg.addr, winner, now, invs_sent
            )

    # ------------------------------------------------------------------
    # Unblock / queue draining
    # ------------------------------------------------------------------
    def _on_unblock(self, msg: CoherenceMessage) -> None:
        ent = self.entry(msg.addr)
        if ent.txn is None or msg.txn_id != ent.txn.txn_id:
            return
        ent.busy = False
        ent.txn = None
        self._drain(ent)

    def _drain(self, ent: DirEntry) -> None:
        """Serve queued GetS requests, then start the best queued GetX.

        With OCOR, both are served in packet-priority order (the RTR
        mapping), so the refetch of a nearly-sleeping spinner — and hence
        its subsequent SWAP — is expedited.
        """
        aging = self.memsys.config.ocor.aging_cycles

        def effective(key) -> tuple:
            # key = (-priority, arrival, seq); waiting time buys levels
            # so low-priority (wakeup) requests cannot starve
            neg_prio, arrival, seq = key
            if self.ocor_queue_ordering and aging > 0:
                neg_prio -= (self.now - arrival) // aging
            return (neg_prio, arrival, seq)

        while ent.queue and not ent.busy:
            gets = [
                (effective(key), i) for i, (key, m) in enumerate(ent.queue)
                if m.mtype is MessageType.GETS
            ]
            if gets:
                _, idx = min(gets)
                _, msg = ent.queue.pop(idx)
                self._serve_gets(ent, msg)
                continue
            best = min(
                range(len(ent.queue)),
                key=lambda i: effective(ent.queue[i][0]),
            )
            _, msg = ent.queue.pop(best)
            self._start_txn(ent, msg)

    def _enqueue(self, ent: DirEntry, msg: CoherenceMessage) -> None:
        priority = msg.priority if self.ocor_queue_ordering else 0
        key = (-priority, self.now, self._queue_seq)
        self._queue_seq += 1
        ent.queue.append((key, msg))

    # ------------------------------------------------------------------
    # iNPG early acks
    # ------------------------------------------------------------------
    def _on_early_ack(self, msg: CoherenceMessage) -> None:
        ent = self.entry(msg.addr)
        core = msg.inv_target
        if msg.stale:
            # The target kept a legitimately owned line; the ack only
            # served to release the big router's EI entry.
            return
        if (ent.sharer_mask >> core) & 1:
            # Prune only if the invalidation postdates the core's latest
            # sharer add — an older ack refers to a previous, already-dead
            # copy and must not untrack the current one.
            if msg.ack_processed_cycle > ent.last_add.get(core, -1):
                ent.sharer_mask &= ~(1 << core)
                self.memsys.stats.early_acks_consumed_before_txn += 1
        txn = ent.txn
        if txn is not None and (txn.expected_mask >> core) & 1:
            relay = self.memsys.msg_pool.acquire(
                MessageType.INV_ACK,
                msg.addr,
                txn.winner,
                sender=self.node,
                inv_target=core,
                inv_created_cycle=msg.inv_created_cycle,
                early=True,
                txn_id=txn.txn_id,
            )
            self.memsys.send(self.node, txn.winner, relay)
