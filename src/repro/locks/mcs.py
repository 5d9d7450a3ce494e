"""Mellor-Crummey & Scott (MCS) lock, Section 2.1(4) [26].

Per-core queue nodes eliminate cache-line bouncing: each waiter spins on
the ``locked`` flag of its own queue node (a block homed at its own tile),
and a releasing core pokes exactly its successor.  The only globally
contended line is the tail pointer, hit once per acquisition with an
atomic swap — which is why MCS shows the lowest LCO in Figure 2 and the
smallest (but still positive) iNPG gain in Figure 13.

Queue node encoding (one block per core): ``((next_id + 1) << 1) | locked``
where next_id + 1 == 0 means "no successor".
"""

from __future__ import annotations

from typing import Dict

from .base import AcquireCallback, AddressSpace, LockPrimitive, ReleaseCallback

NIL = 0  # encoded "no successor" / "queue empty"


def encode(next_id_plus1: int, locked: int) -> int:
    return (next_id_plus1 << 1) | locked


def next_of(value: int) -> int:
    """Successor core id, or -1 when none."""
    return (value >> 1) - 1


def is_locked(value: int) -> bool:
    return bool(value & 1)


class McsLock(LockPrimitive):
    """Queue-based spin lock with per-core local spinning."""

    name = "mcs"

    def __init__(self, sim, memsys, addr_space: AddressSpace, lock_id, home_node,
                 config, num_cores: int = 0):
        super().__init__(sim, memsys, addr_space, lock_id, home_node, config)
        cores = num_cores or memsys.network.mesh.num_nodes
        #: ``self.addr`` is the tail pointer; qnodes live at their core.
        self.qnode_addrs: Dict[int, int] = {
            core: addr_space.block(core) for core in range(cores)
        }

    # ------------------------------------------------------------------
    def acquire(self, core: int, callback: AcquireCallback) -> None:
        qnode = self.qnode_addrs[core]

        def init_qnode(_old: int):
            return encode(NIL, 1), _old

        def on_init(_old: int) -> None:
            # Alpha atomic exchange: an LL/SC retry loop in hardware
            self.memsys.rmw(core, self.addr, swap_tail, on_prev, ll_sc=True)

        def swap_tail(old: int):
            return core + 1, old

        def on_prev(old: int) -> None:
            prev = old - 1
            if old == NIL:
                self._note_acquire(core)
                callback()
                return
            # link into the predecessor's qnode, then spin locally
            prev_qnode = self.qnode_addrs[prev]
            self.memsys.rmw(
                core,
                prev_qnode,
                lambda v: (encode(core + 1, 1 if is_locked(v) else 0), v),
                lambda _v: self._spin_local(core, qnode, callback),
                is_atomic=False,
            )

        self.memsys.rmw(core, qnode, init_qnode, on_init, is_atomic=False)

    def _spin_local(self, core: int, qnode: int, callback: AcquireCallback) -> None:
        self._monitored_spin(
            core,
            qnode,
            passes=lambda v: not is_locked(v),
            on_pass=lambda _: self._acquired(core, callback),
        )

    def _acquired(self, core: int, callback: AcquireCallback) -> None:
        self._note_acquire(core)
        callback()

    # ------------------------------------------------------------------
    def release(self, core: int, callback: ReleaseCallback) -> None:
        qnode = self.qnode_addrs[core]

        def on_qnode(value: int) -> None:
            successor = next_of(value)
            if successor >= 0:
                self._unlock_successor(core, successor, callback)
                return
            # no known successor: try to swing the tail back to nil
            self.memsys.rmw(core, self.addr, cas_tail_to_nil, on_cas, ll_sc=True)

        def cas_tail_to_nil(old: int):
            if old == core + 1:
                return NIL, 1  # success
            return old, 0  # someone is enqueueing behind us

        def on_cas(success: int) -> None:
            if success:
                self._note_release(core)
                callback()
                return
            # wait for the in-flight successor to link itself in
            self._monitored_spin(
                core,
                qnode,
                passes=lambda v: next_of(v) >= 0,
                on_pass=lambda v: self._unlock_successor(
                    core, next_of(v), callback
                ),
            )

        self.memsys.load(core, qnode, on_qnode)

    def _unlock_successor(
        self, core: int, successor: int, callback: ReleaseCallback
    ) -> None:
        succ_qnode = self.qnode_addrs[successor]

        def clear_locked(v: int):
            return encode(v >> 1, 0), v

        def on_done(_v: int) -> None:
            self._note_release(core)
            callback()

        self.memsys.rmw(core, succ_qnode, clear_locked, on_done, is_atomic=False)
