"""Off-chip memory path: DRAM controllers at the mesh edge.

Table 1: eight memory controllers, symmetrically connected to the middle
nodes of the top and bottom rows (Figure 3), 4 GB DRAM with up to 16
outstanding requests per controller.  The directory uses this model when
a block misses in the L2 bank: the access is queued at the nearest
controller, pays DRAM latency, and is bandwidth-limited by the
controller's outstanding-request window.

Lock lines are resident in L2 for the whole ROI in our workloads, so the
memory path mostly matters for cold misses and for capacity studies with
the L1's finite-capacity model (``CacheConfig.model_capacity``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..config import MemoryConfig, NocConfig
from ..sim import Component, Simulator


def controller_nodes(noc: NocConfig, count: int) -> List[int]:
    """Controller placement: middle nodes of the top and bottom rows.

    Figure 3's layout: half the controllers attach along the top row,
    half along the bottom, centred.
    """
    per_row = max(1, count // 2)
    width = noc.width
    start = max(0, (width - per_row) // 2)
    top = [noc.node_at(start + i, 0) for i in range(min(per_row, width))]
    bottom = [
        noc.node_at(start + i, noc.height - 1)
        for i in range(min(count - len(top), width))
    ]
    return top + bottom


class MemoryController(Component):
    """One DRAM channel with a bounded outstanding-request window."""

    def __init__(
        self,
        sim: Simulator,
        node: int,
        latency: int,
        max_outstanding: int = 16,
    ):
        super().__init__(sim, f"mc.{node}")
        self.node = node
        self.latency = latency
        self.max_outstanding = max_outstanding
        self._in_flight = 0
        self._queue: List[tuple] = []
        self.requests = 0
        self.total_queue_wait = 0
        self._enqueue_cycle: Dict[int, int] = {}

    def access(self, callback: Callable[..., None], *args) -> None:
        """Perform one DRAM access; ``callback(*args)`` fires when data is
        ready."""
        self.requests += 1
        if self._in_flight < self.max_outstanding:
            self._start(callback, args)
        else:
            self._queue.append((callback, args))

    def _start(self, callback: Callable[..., None], args: tuple) -> None:
        self._in_flight += 1
        self.after(self.latency, self._done, callback, args)

    def _done(self, callback: Callable[..., None], args: tuple) -> None:
        self._in_flight -= 1
        callback(*args)
        if self._queue and self._in_flight < self.max_outstanding:
            next_cb, next_args = self._queue.pop(0)
            self._start(next_cb, next_args)

    @property
    def outstanding(self) -> int:
        return self._in_flight + len(self._queue)


class MemorySubsystem(Component):
    """All memory controllers; routes an access to the nearest one."""

    def __init__(
        self,
        sim: Simulator,
        noc: NocConfig,
        config: MemoryConfig,
    ):
        super().__init__(sim, "dram")
        self.noc = noc
        nodes = controller_nodes(noc, config.num_controllers)
        self.controllers: Dict[int, MemoryController] = {
            n: MemoryController(sim, n, config.dram_latency)
            for n in nodes
        }
        self._nearest: Dict[int, int] = {}

    def nearest_controller(self, node: int) -> int:
        """Controller node closest (Manhattan) to ``node``."""
        cached = self._nearest.get(node)
        if cached is not None:
            return cached
        x, y = self.noc.coords(node)
        best = min(
            self.controllers,
            key=lambda c: abs(self.noc.coords(c)[0] - x)
            + abs(self.noc.coords(c)[1] - y),
        )
        self._nearest[node] = best
        return best

    def access_from(self, node: int, callback: Callable[..., None],
                    *args) -> None:
        """DRAM access issued by the L2 bank at ``node``."""
        self.controllers[self.nearest_controller(node)].access(callback, *args)

    @property
    def total_requests(self) -> int:
        return sum(c.requests for c in self.controllers.values())
