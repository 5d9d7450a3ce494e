"""Lock primitive base class and spin-loop helper.

Every primitive of Section 2.1 is implemented as a callback state machine
over the coherent memory system: acquires and releases issue loads, plain
stores and atomic RMWs against real cache lines, so all lock-coherence
traffic (GetS/GetX bursts, invalidation storms, ownership chains) emerges
from the protocol rather than being modelled analytically.

Address placement: the primary lock variable lives in a block homed at the
lock's ``home_node`` (the paper pins its Figure 10 microbenchmark lock at
core (5,6)); auxiliary structures are placed per primitive (e.g. MCS queue
nodes at their owning core's node, ABQL slot array interleaved).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, TYPE_CHECKING

from ..config import SystemConfig
from ..sim import Component, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from ..coherence.memsystem import MemorySystem

AcquireCallback = Callable[[], None]
ReleaseCallback = Callable[[], None]
#: per-poll priority supplier (OCOR hooks in here); args: core id
PriorityFn = Callable[[int], int]


class AddressSpace:
    """Allocates distinct cache blocks with chosen home nodes."""

    def __init__(self, memsys: "MemorySystem"):
        self.memsys = memsys
        self._next_index: Dict[int, int] = {}

    def block(self, home_node: int) -> int:
        """A fresh block-aligned address homed at ``home_node``."""
        index = self._next_index.get(home_node, 0)
        self._next_index[home_node] = index + 1
        return self.memsys.addr_for_home(home_node, index)


class LockPrimitive(Component):
    """Abstract spin lock bound to one simulated lock instance."""

    name = "base"

    #: rebound to the tracer's ``emit`` by ``Observation.attach``; the
    #: guarded call sites below cost one None test when tracing is off.
    _trace = None

    def __init__(
        self,
        sim: Simulator,
        memsys: "MemorySystem",
        addr_space: AddressSpace,
        lock_id: int,
        home_node: int,
        config: SystemConfig,
    ):
        super().__init__(sim, f"lock{lock_id}")
        self.memsys = memsys
        self.lock_id = lock_id
        self.home_node = home_node
        self.config = config
        self.addr = addr_space.block(home_node)
        self.acquisitions = 0
        self.releases = 0
        #: previous holder / its release cycle, for handoff tracing
        self._last_holder: Optional[int] = None
        self._last_release_cycle: Optional[int] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def acquire(self, core: int, callback: AcquireCallback) -> None:
        raise NotImplementedError

    def release(self, core: int, callback: ReleaseCallback) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Accounting (every primitive funnels its acquire/release commits
    # through these, giving the tracer one place to see lock handoffs)
    # ------------------------------------------------------------------
    def _note_acquire(self, core: int) -> None:
        """Count a committed acquisition; trace acquire + handoff edges."""
        self.acquisitions += 1
        tr = self._trace
        if tr is not None:
            component = f"lock/{self.lock_id}"
            tr(component, "lock.acquire", core=core, n=self.acquisitions)
            last = self._last_holder
            if last is not None and last != core:
                gap = (
                    self.now - self._last_release_cycle
                    if self._last_release_cycle is not None
                    else 0
                )
                tr(component, "lock.handoff",
                   from_core=last, to_core=core, gap=gap)
        self._last_holder = core

    def _note_release(self, core: int) -> None:
        """Count a committed release; trace the release edge."""
        self.releases += 1
        self._last_release_cycle = self.now
        tr = self._trace
        if tr is not None:
            tr(f"lock/{self.lock_id}", "lock.release", core=core)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _monitored_spin(
        self,
        core: int,
        addr: int,
        passes: Callable[[int], bool],
        on_pass: Callable[[int], None],
        priority: int = 0,
    ) -> None:
        """Spin via the L1 line monitor instead of timed polling.

        Reads the line once; while the condition fails, arms the hardware
        invalidation monitor (LL-monitor / MWAIT) and re-reads only when
        coherence takes the copy away.  Identical network behaviour to
        timed local polling (valid-line polls never leave the core), but
        without burning simulator events on them.
        """

        def check() -> None:
            self.memsys.load(core, addr, on_value, priority=priority)

        def on_value(value: int) -> None:
            if passes(value):
                on_pass(value)
            else:
                self.memsys.monitor_invalidation(core, addr, check)

        check()

    def _after_local_op(self, fn: Callable[[], None]) -> None:
        """Model the core-local ALU work between load and RMW (Line 3)."""
        self.after(self.config.spin.local_op_cycles, fn)

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(id={self.lock_id}, addr={self.addr:#x})"
