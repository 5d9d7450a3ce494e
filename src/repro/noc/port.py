"""Router output-port resource model.

Each output port is a serial resource: a packet of ``n`` flits occupies the
port (and the downstream link) for ``n`` cycles.  When several packets want
the same port, the port arbitrates:

* baseline routers: oldest request first (FIFO, matching round-robin
  fairness in expectation);
* OCOR routers: highest packet priority first, FIFO among equals
  (Section 5.1 Case 2 — RTR-carrying SWAP packets are prioritized).

This packet-granularity model preserves what matters for LCO: hop pipeline
latency, link serialization, and queueing at contended ports (above all the
home node's ejection port, where GetX bursts pile up).
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from ..sim import Component, Simulator
from .packet import Packet

#: queue key: (vnet, negated priority, arrival cycle, tie-break seq)
_QueueKey = Tuple[int, int, int, int]


class OutputPort(Component):
    """A serial output port with pluggable priority arbitration."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        priority_aware: bool = False,
    ):
        super().__init__(sim, name)
        self.priority_aware = priority_aware
        self._pending: List[Tuple[_QueueKey, Packet, Callable[[Packet], None]]] = []
        self._seq = 0
        self._busy = False
        #: statistics
        self.packets_sent = 0
        self.flits_sent = 0
        self.total_wait_cycles = 0
        self._peak_queue_depth = 0
        self._schedule = sim.schedule
        #: ``_grant_next`` (a subclass's override) bound once: both
        #: grant paths schedule it without allocating a bound method
        self._release = self._grant_next

    def request(self, packet: Packet, on_granted: Callable[[Packet], None]) -> None:
        """Ask to transmit ``packet``; ``on_granted(packet)`` fires when the
        head flit has left the port (serialization complete).

        Arbitration is per virtual network first (control never waits
        behind queued data bursts), then by OCOR priority where enabled,
        then oldest-first.  An idle port grants immediately without
        touching the arbitration heap (the common uncontended case).
        """
        if not self._busy and not self._pending:
            # The slow path transits the heap, so every request used to
            # push depth to at least 1; keep that stat identical here.
            if self._peak_queue_depth == 0:
                self._peak_queue_depth = 1
            # inlined _grant(): the uncontended case is the datapath
            self._busy = True
            occupancy = packet.size_flits
            if occupancy < 1:
                occupancy = 1
            self.packets_sent += 1
            self.flits_sent += occupancy
            schedule = self._schedule
            schedule(1, on_granted, packet)
            schedule(occupancy, self._release)
            return
        priority = packet.priority if self.priority_aware else 0
        key = (packet.vnet, -priority, self.sim.cycle, self._seq)
        self._seq += 1
        heapq.heappush(self._pending, (key, packet, on_granted))
        if len(self._pending) > self._peak_queue_depth:
            self._peak_queue_depth = len(self._pending)

    def _grant(
        self, packet: Packet, on_granted: Callable[[Packet], None]
    ) -> None:
        """Grant ``packet`` the port (wormhole / cut-through).

        The head flit leaves one cycle after the grant and the packet
        proceeds immediately — its body streams behind it — while this
        port stays busy for the full serialization time before granting
        the next packet.
        """
        self._busy = True
        occupancy = packet.size_flits
        if occupancy < 1:
            occupancy = 1
        self.packets_sent += 1
        self.flits_sent += occupancy
        schedule = self._schedule
        schedule(1, on_granted, packet)
        schedule(occupancy, self._release)

    def _grant_next(self) -> None:
        """The port freed up: grant the best queued request, if any."""
        if not self._pending:
            self._busy = False
            return
        key, packet, on_granted = heapq.heappop(self._pending)
        self.total_wait_cycles += self.sim.cycle - key[2]
        self._grant(packet, on_granted)

    @property
    def peak_queue_depth(self) -> int:
        """Deepest arbitration queue seen (read-only; aggregated by the
        ``repro.obs`` registry as ``noc/peak_queue_depth``)."""
        return self._peak_queue_depth

    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def mean_wait(self) -> float:
        """Average queueing delay per packet, cycles."""
        if self.packets_sent == 0:
            return 0.0
        return self.total_wait_cycles / self.packets_sent
