"""Declarative coherence protocols: (state, event) -> transition tables.

The paper's platform fixes a directory-based MOESI protocol (Section
3.1), but whether iNPG's critical-section win depends on *which*
protocol — or only on where invalidations are generated — is an open
ablation question.  This module turns the protocol into data: each
variant is a :class:`ProtocolSpec` holding two transition tables,

* ``l1_table``:  ``(L1State, event) -> TransitionResult`` for the core
  side (events are the deliverable :class:`MessageType` members plus the
  local pseudo-events ``Load`` / ``Store`` / ``Evict``), and
* ``dir_table``: ``(DirState, MessageType) -> TransitionResult`` for the
  home-node side,

and a small attach-time compiler that lowers a table into the fast-path
representation DESIGN.md §11 describes: the ``msg.tag``-indexed
bound-method dispatch tuple, plus per-state permission tuples
(``can_read`` / ``can_write`` / ``owns_data`` indexed by
``L1State.idx``) and the handful of protocol-variant flags the handlers
branch on (where a ``FwdGetS`` leaves the old owner, whether the home
takes over ownership when a copy is shared, whether a clean miss is
granted Exclusive).  The bitmask sharer sets, the message pool and the
scheduling of every MOESI run are untouched: compiling the MOESI table
produces exactly the pre-table dispatch, bit for bit.

Every reachable ``(state, event)`` pair must appear in a table — either
as a real transition or as the explicit :data:`UNHANDLED` marker for
pairs the protocol declares impossible.  :func:`lint_protocol` enforces
that exhaustiveness (and flags entries for states the protocol does not
use), and the rebuilt :class:`~repro.coherence.checker.ProtocolChecker`
validates observed transitions against the active table at run time:
an event hitting an ``UNHANDLED`` pair — or a state outside the
protocol's state set — raises a structured
:class:`~repro.errors.ProtocolViolation` naming the pair.

Protocol variants
=================
``moesi``
    The paper's protocol, exactly as before: a demoted owner keeps the
    block in Owned and keeps servicing FwdGetS; writebacks of O/M lines
    carry data.
``mesi``
    No O state: sharing a dirty block demotes the owner to Shared and
    the home reclaims ownership.  A GetS miss on an idle block (no
    owner, no sharers) is granted Exclusive, so a subsequent store
    upgrades silently without a GetX.
``msi``
    Neither E nor O: every first write issues a GetX, every shared copy
    of a dirty block moves ownership back to the home.

Committed values live centrally in ``MemorySystem.values`` (writeback is
pure bookkeeping), which is what lets all three variants share one
message vocabulary and one commit path.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Optional, Tuple, Union

from .messages import MessageType, N_MESSAGE_TYPES
from .states import L1State, N_L1_STATES
from . import directory as _directory_mod
from . import l1cache as _l1cache_mod

__all__ = [
    "DirState",
    "EVICT",
    "LOAD",
    "PROTOCOLS",
    "ProtocolSpec",
    "STORE",
    "TransitionResult",
    "UNHANDLED",
    "dir_state_of",
    "get_protocol",
    "lint_protocol",
]

#: local (core-initiated) pseudo-events of the L1 table; the message
#: events are the :class:`MessageType` members an L1 can receive.
LOAD = "Load"
STORE = "Store"
EVICT = "Evict"
L1_LOCAL_EVENTS = (LOAD, STORE, EVICT)

#: message types deliverable to an L1 controller.
L1_MESSAGE_EVENTS = (
    MessageType.DATA,
    MessageType.DATA_EXCL,
    MessageType.ACK_COUNT,
    MessageType.INV,
    MessageType.INV_ACK,
    MessageType.FWD_GETS,
    MessageType.FWD_GETX,
    MessageType.FWD_FAIL,
)

#: message types deliverable to a directory controller.
DIR_MESSAGE_EVENTS = (
    MessageType.GETS,
    MessageType.GETX,
    MessageType.UNBLOCK,
    MessageType.INV_ACK,
    MessageType.DATA,
    MessageType.PUT_S,
    MessageType.PUT_M,
)


class DirState(Enum):
    """Stable directory states for one block (the busy bit collapses the
    transient transaction states into one)."""

    UNOWNED = "U"    #: no owner, no sharers
    SHARED = "S"     #: sharers only, home supplies data
    OWNED = "O"      #: a core owns the block (M/E/O there)
    BUSY = "B"       #: an exclusive-ownership transaction is in flight


def dir_state_of(ent) -> DirState:
    """Classify a :class:`~repro.coherence.directory.DirEntry`."""
    if ent.busy:
        return DirState.BUSY
    if ent.owner is not None:
        return DirState.OWNED
    if ent.sharer_mask:
        return DirState.SHARED
    return DirState.UNOWNED


class _Unhandled:
    """Explicit table marker: this (state, event) pair must never occur.

    Distinct from an *absent* key (which the lint rejects): an
    ``UNHANDLED`` entry documents that the pair was considered and
    declared impossible — the checker turns an occurrence into a
    structured :class:`~repro.errors.ProtocolViolation`.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "UNHANDLED"


UNHANDLED = _Unhandled()


class TransitionResult:
    """One table entry: what an event does to a stable state.

    ``next_state`` is the primary (most common) resulting state;
    ``also`` lists the other legal outcomes of the same pair (a handler
    may stay put while a transaction is mid-flight, keep a line on the
    iNPG stale-early-Inv path, and so on).  ``action`` is a symbolic
    name of the bookkeeping/emission the compiled handler performs —
    the compiler derives permissions and variant flags from it, and the
    docs render it.  ``note`` carries the human-facing rationale.
    """

    __slots__ = ("next_state", "action", "also", "note")

    def __init__(self, next_state, action: str, *also, note: str = ""):
        self.next_state = next_state
        self.action = action
        self.also = tuple(also)
        self.note = note

    @property
    def allowed(self) -> tuple:
        """Every state this entry permits after the event."""
        return (self.next_state,) + self.also

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        extra = f" also={[s.value for s in self.also]}" if self.also else ""
        return (
            f"<{self.action}: -> {self.next_state.value}{extra}>"
        )


Entry = Union[TransitionResult, _Unhandled]

#: L1 actions that satisfy a read / a write locally (permission sources
#: for the derived predicates; see :meth:`ProtocolSpec._derive`).
_READ_HIT_ACTIONS = ("read_hit",)
_WRITE_HIT_ACTIONS = ("write_hit", "silent_upgrade")
_WRITEBACK_ACTIONS = ("evict_writeback",)

_L1_ACTIONS = frozenset(
    _READ_HIT_ACTIONS + _WRITE_HIT_ACTIONS + _WRITEBACK_ACTIONS + (
        "issue_gets", "issue_getx", "evict_clean",
        "fill", "ignore_stale", "collect_data", "collect_acks",
        "buffer_stray", "ack_inv", "supply_share", "transfer_exclusive",
        "answer_loser",
    )
)
_DIR_ACTIONS = frozenset((
    "supply_data", "forward_owner", "forward_demote", "grant_exclusive",
    "enqueue", "start_txn", "close_txn", "ignore_stale",
    "prune_early_ack", "relay_fail_answer", "relay_fail_demote",
    "relay_fail_nack", "untrack_sharer", "untrack_owner",
))


def _t(next_state, action: str, *also, note: str = "") -> TransitionResult:
    return TransitionResult(next_state, action, *also, note=note)


class ProtocolSpec:
    """One protocol variant: its tables plus everything compiled from them."""

    def __init__(
        self,
        name: str,
        l1_states: Tuple[L1State, ...],
        l1_table: Dict[Tuple[L1State, object], Entry],
        dir_table: Dict[Tuple[DirState, MessageType], Entry],
    ):
        self.name = name
        self.l1_states = tuple(l1_states)
        self.l1_table = dict(l1_table)
        self.dir_table = dict(dir_table)
        problems = lint_protocol(self)
        if problems:  # pragma: no cover - table authoring guard
            raise ValueError(
                f"protocol {name!r} table malformed:\n  " + "\n  ".join(problems)
            )
        self._derive()

    # ------------------------------------------------------------------
    # Derived metadata (satellite: predicates come from the table, not
    # from MOESI-hard-coded Enum properties)
    # ------------------------------------------------------------------
    def _derive(self) -> None:
        can_read = [False] * N_L1_STATES
        can_write = [False] * N_L1_STATES
        owns = [False] * N_L1_STATES
        for state in self.l1_states:
            load = self.l1_table[(state, LOAD)]
            store = self.l1_table[(state, STORE)]
            evict = self.l1_table[(state, EVICT)]
            can_read[state.idx] = (
                load is not UNHANDLED and load.action in _READ_HIT_ACTIONS
            )
            can_write[state.idx] = (
                store is not UNHANDLED and store.action in _WRITE_HIT_ACTIONS
            )
            owns[state.idx] = (
                evict is not UNHANDLED and evict.action in _WRITEBACK_ACTIONS
            )
        #: tag-indexed permission tuples (index with ``L1State.idx``)
        self.can_read = tuple(can_read)
        self.can_write = tuple(can_write)
        self.owns_data = tuple(owns)
        #: the state a valid line moves to when it services a FwdGetS
        #: (Owned under MOESI — the owner keeps supplying; Shared under
        #: MSI/MESI — ownership returns to the home).
        self.fwd_gets_next: L1State = self.l1_table[
            (L1State.MODIFIED, MessageType.FWD_GETS)
        ].next_state
        #: the state a writable line demotes to when answering a losing
        #: fail-fast RMW with a shared copy.
        self.fail_share_next: L1State = self.l1_table[
            (L1State.MODIFIED, MessageType.FWD_FAIL)
        ].next_state
        #: the home relinquishes/reclaims ownership whenever an owned
        #: block gets shared (MSI/MESI: no O state to park the owner in).
        self.home_takes_ownership: bool = (
            self.dir_table[(DirState.OWNED, MessageType.GETS)].action
            == "forward_demote"
        )
        #: a GetS miss on an idle block is granted Exclusive (MESI).
        self.grant_exclusive_clean: bool = (
            self.dir_table[(DirState.UNOWNED, MessageType.GETS)].action
            == "grant_exclusive"
        )
        #: state installed by a Data fill flagged ``exclusive`` (the
        #: MESI clean grant); plain fills install Shared.
        self.exclusive_fill_state: L1State = (
            L1State.EXCLUSIVE if self.grant_exclusive_clean else L1State.SHARED
        )
        #: tag-indexed handler names per controller kind, bound onto
        #: each controller at attach time
        self.l1_handlers = _handler_names(
            self.l1_table, _l1cache_mod._HANDLER_NAMES)
        self.dir_handlers = _handler_names(
            self.dir_table, _directory_mod._HANDLER_NAMES)

    # ------------------------------------------------------------------
    # Table lookups (checker API)
    # ------------------------------------------------------------------
    def l1_entry(self, state: L1State, event) -> Optional[Entry]:
        """The L1 table entry, or ``None`` when the state is not part of
        this protocol (a forged/impossible state)."""
        return self.l1_table.get((state, event))

    def dir_entry(self, state: DirState, event) -> Optional[Entry]:
        return self.dir_table.get((state, event))

    # ------------------------------------------------------------------
    # Attach-time compiler: lower the table onto a controller
    # ------------------------------------------------------------------
    def compile_l1(self, l1) -> None:
        """Lower the L1 table onto one :class:`~repro.coherence.l1cache.L1Cache`."""
        l1.protocol = self
        l1._dispatch = _bind(l1, self.l1_handlers)
        l1._can_read = self.can_read
        l1._can_write = self.can_write
        l1._owns = self.owns_data
        l1._fwd_gets_state = self.fwd_gets_next
        l1._fail_share_state = self.fail_share_next
        l1._excl_fill_state = self.exclusive_fill_state

    def compile_directory(self, dir_ctrl) -> None:
        """Lower the directory table onto one
        :class:`~repro.coherence.directory.DirectoryController`."""
        dir_ctrl.protocol = self
        dir_ctrl._dispatch = _bind(dir_ctrl, self.dir_handlers)
        dir_ctrl._home_takes_ownership = self.home_takes_ownership
        dir_ctrl._grant_exclusive_clean = self.grant_exclusive_clean


def _handler_names(table, handler_names) -> Tuple[Optional[str], ...]:
    """The tag-indexed handler-name tuple for the events ``table``
    actually handles (an event with only UNHANDLED entries gets no
    handler and stays a hard dispatch error)."""
    names: List[Optional[str]] = [None] * N_MESSAGE_TYPES
    for (_state, event), entry in table.items():
        if isinstance(event, MessageType) and entry is not UNHANDLED:
            names[event.tag] = handler_names[event.tag]
    return tuple(names)


def _bind(controller, names) -> tuple:
    """``names`` as ``controller``'s bound methods, ``None`` kept."""
    return tuple(
        getattr(controller, name) if name is not None else None
        for name in names
    )


# ----------------------------------------------------------------------
# Exhaustiveness lint
# ----------------------------------------------------------------------
def lint_protocol(spec: ProtocolSpec) -> List[str]:
    """Structural problems in a protocol's tables (empty == well formed).

    * every reachable ``(state, event)`` pair has an entry (a transition
      or an explicit ``UNHANDLED``);
    * no entries for states outside the protocol's state set, for
      unknown events, or with next/also states the protocol cannot hold;
    * every action name is from the known vocabulary.
    """
    problems: List[str] = []
    l1_events = L1_MESSAGE_EVENTS + L1_LOCAL_EVENTS
    l1_states = set(spec.l1_states)
    for state in spec.l1_states:
        for event in l1_events:
            if (state, event) not in spec.l1_table:
                problems.append(
                    f"L1 pair ({state.value}, {_event_name(event)}) missing"
                )
    for (state, event), entry in spec.l1_table.items():
        where = f"L1 ({state.value}, {_event_name(event)})"
        if state not in l1_states:
            problems.append(f"{where}: unreachable state {state.value}")
        if event not in l1_events:
            problems.append(f"{where}: unknown event")
        if entry is UNHANDLED:
            continue
        if entry.action not in _L1_ACTIONS:
            problems.append(f"{where}: unknown action {entry.action!r}")
        for nxt in entry.allowed:
            if nxt not in l1_states:
                problems.append(
                    f"{where}: result state {nxt.value} not in protocol"
                )
    dir_states = tuple(DirState)
    for state in dir_states:
        for event in DIR_MESSAGE_EVENTS:
            if (state, event) not in spec.dir_table:
                problems.append(
                    f"dir pair ({state.value}, {event.value}) missing"
                )
    for (state, event), entry in spec.dir_table.items():
        where = f"dir ({state.value}, {event.value})"
        if event not in DIR_MESSAGE_EVENTS:
            problems.append(f"{where}: unknown event")
        if entry is UNHANDLED:
            continue
        if entry.action not in _DIR_ACTIONS:
            problems.append(f"{where}: unknown action {entry.action!r}")
        for nxt in entry.allowed:
            if not isinstance(nxt, DirState):
                problems.append(f"{where}: result {nxt!r} is not a DirState")
    return problems


def _event_name(event) -> str:
    return event.value if isinstance(event, MessageType) else str(event)


# ----------------------------------------------------------------------
# The three protocol variants
# ----------------------------------------------------------------------
I = L1State.INVALID
S = L1State.SHARED
E = L1State.EXCLUSIVE
O = L1State.OWNED  # noqa: E741 - the protocol letter
M = L1State.MODIFIED
U_, S_, O_, B_ = (DirState.UNOWNED, DirState.SHARED, DirState.OWNED,
                  DirState.BUSY)

_DATA = MessageType.DATA
_DATA_EXCL = MessageType.DATA_EXCL
_ACK_COUNT = MessageType.ACK_COUNT
_INV = MessageType.INV
_INV_ACK = MessageType.INV_ACK
_FWD_GETS = MessageType.FWD_GETS
_FWD_GETX = MessageType.FWD_GETX
_FWD_FAIL = MessageType.FWD_FAIL
_GETS = MessageType.GETS
_GETX = MessageType.GETX
_UNBLOCK = MessageType.UNBLOCK
_PUT_S = MessageType.PUT_S
_PUT_M = MessageType.PUT_M


def _common_l1_rows(states, fwd_gets_next, fail_share_next) -> Dict:
    """The table rows every variant shares, parameterized by where a
    FwdGetS / fail-answer demotion leaves a writable line.

    Shared shape: a load/store from Invalid issues GetS/GetX and waits;
    a transaction winner collects Data-Exclusive + AckCount + InvAcks in
    whatever valid state it started from and commits to Modified; Inv
    invalidates and acks (the iNPG *early* Inv to a core that has since
    gained ownership keeps the line — the stale-ack rule); FwdGetX hands
    exclusive ownership over and kills the local copy from any state
    (the directory believed us owner, we answer even from Invalid).
    """
    table: Dict = {}
    for st in states:
        # loads/stores: permissions fall out of the *_hit actions
        table[(st, LOAD)] = (
            _t(st, "read_hit") if st is not I else _t(I, "issue_gets")
        )
        # Evicting an invalid line is impossible (_evict guards on valid).
        table[(I, EVICT)] = UNHANDLED
        if st is not I:
            table[(st, EVICT)] = _t(
                I, "evict_writeback" if st in (M, O, E) else "evict_clean"
            )
        # winner-side ack collection; commit moves to Modified
        if st in (M,):
            # one DataExcl/AckCount per transaction, consumed before the
            # commit that installs M — seeing one *in* M means a
            # duplicated/forged message.
            table[(st, _DATA_EXCL)] = UNHANDLED
            table[(st, _ACK_COUNT)] = UNHANDLED
            table[(st, _INV_ACK)] = _t(
                M, "buffer_stray",
                note="late ack of an older txn; parked in the stray buffer",
            )
        else:
            # the last-arriving piece commits synchronously, and a
            # commit immediately answers any forwarded losers — which
            # demotes the freshly-installed M to the fail-share state
            table[(st, _DATA_EXCL)] = _t(
                M, "collect_data", st, fail_share_next
            )
            table[(st, _ACK_COUNT)] = _t(
                st, "collect_acks", M, fail_share_next
            )
            table[(st, _INV_ACK)] = _t(
                st, "collect_acks", M, fail_share_next
            )
        # invalidation: ack always; iNPG early Inv to a legitimate owner
        # keeps the line (stale ack releases the big router's EI entry)
        if st in (M, O, E):
            table[(st, _INV)] = _t(
                I, "ack_inv", st,
                note="early Inv to a core that gained ownership is stale: "
                     "line kept, ack marked stale",
            )
        else:
            table[(st, _INV)] = _t(I, "ack_inv")
        # ownership transfer to a new transaction winner
        table[(st, _FWD_GETX)] = _t(I, "transfer_exclusive")
        # supplying a shared copy on the home's behalf
        if st is I:
            table[(st, _FWD_GETS)] = _t(
                I, "supply_share",
                note="copy already (early-)invalidated; still supplies the "
                     "committed value the waiting requester needs",
            )
        else:
            table[(st, _FWD_GETS)] = _t(fwd_gets_next, "supply_share")
        # answering a forwarded losing fail-fast RMW
        if st in (M, E):
            table[(st, _FWD_FAIL)] = _t(
                fail_share_next, "answer_loser", st,
                note="demotes so the next local store cannot commit "
                     "silently while the loser holds a copy; stays put "
                     "while our own txn is still collecting acks",
            )
        else:
            table[(st, _FWD_FAIL)] = _t(st, "answer_loser")
        # plain fills install Shared; stale fail answers to a line we
        # already own are value-only no-ops
        if st in (M, O, E):
            table[(st, _DATA)] = _t(st, "ignore_stale")
        elif st is I:
            table[(st, _DATA)] = _t(
                S, "fill", I,
                note="stays Invalid when the fill was dropped (Inv raced "
                     "the GetS) or the answer was a copyless NACK",
            )
        else:
            table[(st, _DATA)] = _t(S, "fill")
    # store permission is the per-variant part
    table[(I, STORE)] = _t(I, "issue_getx")
    table[(S, STORE)] = _t(S, "issue_getx")
    table[(M, STORE)] = _t(M, "write_hit")
    return table


def _common_dir_rows() -> Dict:
    """Directory rows every variant shares."""
    table: Dict = {}
    for st in (U_, S_, O_, B_):
        table[(st, _INV_ACK)] = _t(
            st, "prune_early_ack",
            note="big-router-forwarded early ack: prune the sharer, relay "
                 "to the winner if a txn still expects it",
        )
        if st is not B_:
            table[(st, _GETX)] = _t(
                B_, "start_txn", st, S_,
                note="directory_nacks may answer a doomed conditional RMW "
                     "with a shared copy instead of opening a transaction",
            )
            table[(st, _UNBLOCK)] = _t(st, "ignore_stale")
        table[(st, _PUT_S)] = _t(
            st, "untrack_sharer", U_,
            note="stale Puts (older than the core's latest sharer re-add) "
                 "are dropped",
        )
        table[(st, _PUT_M)] = _t(
            U_ if st is O_ else st, "untrack_owner", S_, O_,
        )
    table[(B_, _GETS)] = _t(B_, "enqueue")
    table[(B_, _GETX)] = _t(
        B_, "enqueue",
        note="fail-fast losers are forwarded to the in-flight winner "
             "instead (the paper's Step 3); the winner's own GetX, "
             "overtaking its Unblock, is enqueued",
    )
    table[(B_, _UNBLOCK)] = _t(
        O_, "close_txn", B_, S_, U_,
        note="draining the queue may immediately start the next txn",
    )
    table[(U_, _GETS)] = _t(S_, "supply_data")
    table[(S_, _GETS)] = _t(S_, "supply_data")
    # relaying a winner's fail answer to the losing requester
    table[(B_, _DATA)] = _t(
        B_, "relay_fail_nack",
        note="a new txn is open: the copy degrades to a value-only NACK",
    )
    table[(U_, _DATA)] = _t(S_, "relay_fail_answer")
    table[(S_, _DATA)] = _t(S_, "relay_fail_answer")
    return table


# --- MOESI: the paper's protocol, exactly as before --------------------
_MOESI_STATES = (I, S, O, M)  # E is never installed by our flows
_moesi_l1 = _common_l1_rows(_MOESI_STATES, fwd_gets_next=O,
                            fail_share_next=O)
_moesi_l1[(O, STORE)] = _t(O, "issue_getx")
_moesi_dir = _common_dir_rows()
_moesi_dir[(O_, _GETS)] = _t(
    O_, "forward_owner",
    note="owner demotes M -> O and keeps supplying data",
)
_moesi_dir[(O_, _DATA)] = _t(O_, "relay_fail_answer")

MOESI = ProtocolSpec("moesi", _MOESI_STATES, _moesi_l1, _moesi_dir)

# --- MSI: no E, no O ---------------------------------------------------
_MSI_STATES = (I, S, M)
_msi_l1 = _common_l1_rows(_MSI_STATES, fwd_gets_next=S, fail_share_next=S)
_msi_dir = _common_dir_rows()
_msi_dir[(O_, _GETS)] = _t(
    S_, "forward_demote", O_,
    note="the owner supplies the copy, demotes itself to Shared, and "
         "the home reclaims ownership (stays Owned only when the "
         "requester *is* the recorded owner refetching)",
)
_msi_dir[(O_, _DATA)] = _t(
    S_, "relay_fail_demote", O_,
    note="the answering winner demoted itself to Shared; mirror it here",
)

MSI = ProtocolSpec("msi", _MSI_STATES, _msi_l1, _msi_dir)

# --- MESI: E but no O --------------------------------------------------
_MESI_STATES = (I, S, E, M)
_mesi_l1 = _common_l1_rows(_MESI_STATES, fwd_gets_next=S, fail_share_next=S)
_mesi_l1[(E, STORE)] = _t(
    M, "silent_upgrade",
    note="the Exclusive grant's whole point: no GetX on first write",
)
# (the common rows already let DataExcl/AckCount/InvAck arrive in E:
# an E-grant can land while a GetX to the same block is in flight)
# allow the exclusive fill itself
_mesi_l1[(I, _DATA)] = _t(
    S, "fill", I, E,
    note="a Data flagged exclusive (clean-miss grant) installs E; "
         "plain fills install S; dropped/copyless fills stay I",
)
_mesi_dir = _common_dir_rows()
_mesi_dir[(O_, _GETS)] = _t(
    S_, "forward_demote", O_,
    note="as MSI: no O state to park a demoted owner in",
)
_mesi_dir[(O_, _DATA)] = _t(S_, "relay_fail_demote", O_)
_mesi_dir[(U_, _GETS)] = _t(
    O_, "grant_exclusive",
    note="idle block: the requester is recorded as owner (not sharer) "
         "and may silently upgrade E -> M",
)

MESI = ProtocolSpec("mesi", _MESI_STATES, _mesi_l1, _mesi_dir)


#: registry, keyed by the ``SystemConfig.protocol`` values.
PROTOCOLS: Dict[str, ProtocolSpec] = {
    "moesi": MOESI,
    "mesi": MESI,
    "msi": MSI,
}


def get_protocol(name: str) -> ProtocolSpec:
    """Resolve a protocol name (case-insensitive) to its spec."""
    spec = PROTOCOLS.get(str(name).lower())
    if spec is None:
        raise ValueError(
            f"unknown coherence protocol {name!r}; "
            f"choose from {sorted(PROTOCOLS)}"
        )
    return spec
