"""Weighted round-robin output-port arbitration.

The default :class:`~repro.noc.port.OutputPort` arbitrates with a single
heap ordered ``(vnet, priority, age)``: control traffic (vnet 0) always
preempts queued data bursts.  That is strict VC priority, which is the
right model for the paper's baseline but starves data under sustained
control storms.

:class:`WrrOutputPort` replaces the strict-priority stage between VC
classes with credit-based weighted round-robin: each ``vnet`` class owns
a queue and a weight; the active class may win up to ``weight``
consecutive grants before the arbiter rotates to the next backlogged
class (ascending class id, wrapping).  Within a class, arbitration is
unchanged — OCOR priority first where enabled, then oldest-first.

Weights come from ``NocConfig.wrr_weights`` and map to classes by index
(class ``i`` gets ``weights[i % len(weights)]``), so the default
``(2, 1)`` reads: two control grants per data grant under full backlog,
and dateline-escalated classes (vnet 2/3, torus/ring) inherit the same
pattern.  The port is selected by the ``NocConfig.arbiter`` axis; the
default ``"rr"`` path in :mod:`repro.noc.port` is untouched.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

from ..sim import Simulator
from .packet import Packet
from .port import OutputPort

#: per-class queue key: (negated priority, arrival cycle, tie-break seq)
_ClassKey = Tuple[int, int, int]


class WeightedRoundRobinArbiter:
    """Credit-based WRR over virtual-network classes.

    Deterministic by construction: rotation order is ascending class id,
    credits refill to the class weight when a class becomes active, and
    within a class requests pop in ``(priority, age, seq)`` order.
    """

    __slots__ = (
        "priority_aware",
        "_weights",
        "_queues",
        "_seq",
        "_active",
        "_credits",
        "pending",
    )

    def __init__(
        self, weights: Tuple[int, ...], priority_aware: bool = False
    ):
        weights = tuple(int(w) for w in weights)
        if not weights or any(w < 1 for w in weights):
            raise ValueError(
                f"WRR weights must be positive integers, got {weights!r}"
            )
        self.priority_aware = priority_aware
        self._weights = weights
        #: class id -> heap of (key, packet, on_granted)
        self._queues: Dict[
            int, List[Tuple[_ClassKey, Packet, Callable[[Packet], None]]]
        ] = {}
        self._seq = 0
        self._active: Optional[int] = None
        self._credits = 0
        self.pending = 0

    def weight_of(self, vnet: int) -> int:
        return self._weights[vnet % len(self._weights)]

    def push(
        self, packet: Packet, on_granted: Callable[[Packet], None], now: int
    ) -> None:
        priority = packet.priority if self.priority_aware else 0
        key = (-priority, now, self._seq)
        self._seq += 1
        queue = self._queues.get(packet.vnet)
        if queue is None:
            queue = self._queues[packet.vnet] = []
        heapq.heappush(queue, (key, packet, on_granted))
        self.pending += 1

    def pop(
        self,
    ) -> Optional[Tuple[int, Packet, Callable[[Packet], None]]]:
        """Grant the next request: ``(arrival_cycle, packet, on_granted)``.

        Returns ``None`` when nothing is queued.
        """
        if self.pending == 0:
            return None
        cls = self._active
        if cls is None or self._credits <= 0 or not self._queues.get(cls):
            cls = self._next_class(cls)
            self._active = cls
            self._credits = self.weight_of(cls)
        self._credits -= 1
        key, packet, on_granted = heapq.heappop(self._queues[cls])
        self.pending -= 1
        return key[1], packet, on_granted

    def _next_class(self, after: Optional[int]) -> int:
        backlogged = sorted(c for c, q in self._queues.items() if q)
        if after is not None:
            for cls in backlogged:
                if cls > after:
                    return cls
        return backlogged[0]


class WrrOutputPort(OutputPort):
    """An :class:`OutputPort` arbitrating across VC classes with WRR.

    Statistics contracts are identical to the base port (``packets_sent``,
    ``flits_sent``, ``total_wait_cycles``, ``peak_queue_depth``), so the
    ``repro.obs`` registry aggregates both kinds transparently.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        priority_aware: bool = False,
        weights: Tuple[int, ...] = (2, 1),
    ):
        super().__init__(sim, name, priority_aware)
        self._arbiter = WeightedRoundRobinArbiter(weights, priority_aware)

    def request(
        self, packet: Packet, on_granted: Callable[[Packet], None]
    ) -> None:
        arbiter = self._arbiter
        if not self._busy and arbiter.pending == 0:
            # same uncontended fast path (and stats invariant) as the base
            if self._peak_queue_depth == 0:
                self._peak_queue_depth = 1
            self._grant(packet, on_granted)
            return
        arbiter.push(packet, on_granted, self.sim.cycle)
        if arbiter.pending > self._peak_queue_depth:
            self._peak_queue_depth = arbiter.pending

    def _grant_next(self) -> None:
        granted = self._arbiter.pop()
        if granted is None:
            self._busy = False
            return
        arrival, packet, on_granted = granted
        self.total_wait_cycles += self.sim.cycle - arrival
        self._grant(packet, on_granted)

    @property
    def queue_depth(self) -> int:
        return self._arbiter.pending
