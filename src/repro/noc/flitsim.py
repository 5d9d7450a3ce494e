"""Flit-level NoC model for validating the packet-level timing.

The main simulator uses a packet-granularity router model (pipeline
latency + per-port serialization + queueing).  This module implements the
paper's baseline router in full detail — the 2-stage speculative pipeline
of Peh & Dally [29] with per-input virtual-channel buffers and
credit-based flow control — so the packet model's latency behaviour can
be validated against it (``benchmarks/bench_noc_validation.py``).

Model summary
=============
* 5 physical ports per router (N/E/S/W/Local), ``vcs_per_port`` VCs per
  port, ``flits_per_vc`` buffer slots per VC.
* Stage 1: route computation + VC allocation + switch allocation
  (speculative, in parallel); stage 2: switch traversal.  A flit that
  wins SA traverses in the next cycle; the head flit allocates the VC.
* Credit-based backpressure: a flit may only traverse to the next router
  if the target VC has a free slot; credits return when flits leave.
* One flit per port per cycle on the crossbar output (wormhole).

This model is cycle-ticked (routers with work schedule themselves), so
it is slower than the packet model — use it for validation, not sweeps.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..config import NocConfig
from ..errors import UnsupportedTopology
from ..sim import Component, Simulator
from .topology import EAST, LOCAL, NORTH, REVERSE, SOUTH, WEST, Mesh

_flit_packets = itertools.count()


class FlitPacket:
    """A packet decomposed into flits (slotted: one per injected packet)."""

    __slots__ = ("src", "dst", "length", "payload", "pid",
                 "injected_cycle", "delivered_cycle")

    def __init__(self, src: int, dst: int, length: int,
                 payload: object = None):
        self.src = src
        self.dst = dst
        self.length = length
        self.payload = payload
        self.pid = next(_flit_packets)
        self.injected_cycle = -1
        self.delivered_cycle = -1

    @property
    def latency(self) -> int:
        return self.delivered_cycle - self.injected_cycle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FlitPacket(pid={self.pid}, {self.src}->{self.dst}, "
                f"len={self.length})")


class Flit:
    """One flit of a :class:`FlitPacket` (slotted: length x packets)."""

    __slots__ = ("packet", "index")

    def __init__(self, packet: FlitPacket, index: int):
        self.packet = packet
        self.index = index

    @property
    def is_head(self) -> bool:
        return self.index == 0

    @property
    def is_tail(self) -> bool:
        return self.index == self.packet.length - 1


class VirtualChannel:
    """One input VC buffer with its downstream routing state."""

    __slots__ = (
        "buffer", "capacity", "out_port", "out_vc", "active", "ready_at"
    )

    def __init__(self, capacity: int):
        self.buffer: Deque[Flit] = deque()
        self.capacity = capacity
        self.out_port: Optional[int] = None
        self.out_vc: Optional[int] = None
        self.active = False
        #: earliest cycle this VC may win switch allocation (stage 1 of
        #: the 2-stage pipeline completes the cycle before ST)
        self.ready_at = 0

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self.buffer)


class FlitRouter(Component):
    """2-stage speculative wormhole router.

    Occupancy (``_buffered``) and downstream-VC claims (``_claimed``) are
    maintained incrementally, so per-tick work never rescans the full
    5 x VCs buffer matrix.
    """

    def __init__(self, sim: Simulator, node: int, fabric: "FlitNetwork"):
        super().__init__(sim, f"flitrouter{node}")
        self.node = node
        self.fabric = fabric
        cfg = fabric.config
        self.num_vcs = cfg.vcs_per_port
        self.vcs: List[List[VirtualChannel]] = [
            [VirtualChannel(cfg.flits_per_vc) for _ in range(self.num_vcs)]
            for _ in range(5)
        ]
        #: credits we believe each (out_port, vc) of the DOWNSTREAM buffer has
        self.credits: List[List[int]] = [
            [cfg.flits_per_vc] * self.num_vcs for _ in range(5)
        ]
        self._scheduled = False
        self._rr = 0  # round-robin pointer for switch allocation
        #: total flits currently sitting in our input buffers
        self._buffered = 0
        #: (out_port, out_vc) pairs claimed by active input VCs
        self._claimed: set = set()
        mesh = fabric.mesh
        x, y = mesh.coords(node)
        #: dst -> output port (the mesh's shared XY port row)
        self._route_row = mesh.port_rows()[node]
        #: out_port -> neighbour node id (None off the mesh edge)
        neighbors: List[Optional[int]] = [None] * 5
        if x < mesh.width - 1:
            neighbors[EAST] = mesh.node_at(x + 1, y)
        if x > 0:
            neighbors[WEST] = mesh.node_at(x - 1, y)
        if y < mesh.height - 1:
            neighbors[SOUTH] = mesh.node_at(x, y + 1)
        if y > 0:
            neighbors[NORTH] = mesh.node_at(x, y - 1)
        self._neighbor_nodes = neighbors

    # ------------------------------------------------------------------
    def wake(self) -> None:
        if not self._scheduled:
            self._scheduled = True
            self.after(1, self._tick)

    def accept_flit(self, in_port: int, vc_index: int, flit: Flit) -> None:
        vc = self.vcs[in_port][vc_index]
        assert vc.free_slots > 0, "credit protocol violated"
        vc.buffer.append(flit)
        self._buffered += 1
        self.wake()

    def credit_return(self, out_port: int, vc_index: int) -> None:
        self.credits[out_port][vc_index] += 1
        self.wake()

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self._scheduled = False
        work_left = False
        now = self.now
        # stage 1 for heads: RC + VC allocation (speculative with SA)
        for port in range(5):
            for vc in self.vcs[port]:
                if vc.buffer and not vc.active:
                    head = vc.buffer[0]
                    if head.is_head:
                        out_port = self._route_row[head.packet.dst]
                        out_vc = self._allocate_vc(out_port)
                        if out_vc is None:
                            work_left = True
                            continue
                        vc.out_port, vc.out_vc, vc.active = (
                            out_port, out_vc, True
                        )
                        # ST happens in the next pipeline stage
                        vc.ready_at = now + 1
        # SA + ST: one flit per output port per cycle, round-robin inputs
        granted_outputs: Dict[int, bool] = {}
        num_vcs = self.num_vcs
        total = 5 * num_vcs
        rr = self._rr
        self._rr = (rr + 1) % total
        schedule = self.sim.schedule
        link = self.fabric.config.link_cycles
        routers = self.fabric.routers
        for step in range(total):
            idx = rr + step
            if idx >= total:
                idx -= total
            port, vc_index = divmod(idx, num_vcs)
            vc = self.vcs[port][vc_index]
            if not (vc.active and vc.buffer):
                continue
            if now < vc.ready_at:
                work_left = True
                continue
            out_port = vc.out_port
            assert out_port is not None and vc.out_vc is not None
            if granted_outputs.get(out_port):
                work_left = True
                continue
            if out_port != LOCAL and self.credits[out_port][vc.out_vc] <= 0:
                work_left = True
                continue
            granted_outputs[out_port] = True
            flit = vc.buffer.popleft()
            self._buffered -= 1
            out_vc = vc.out_vc
            if flit.is_tail:
                vc.active = False
                self._claimed.discard((out_port, out_vc))
                vc.out_port = vc.out_vc = None
            if out_port == LOCAL:
                if flit.is_tail:
                    self.fabric.deliver(flit.packet)
            else:
                self.credits[out_port][out_vc] -= 1
                neighbor = routers[self._neighbor_nodes[out_port]]
                schedule(
                    link, neighbor.accept_flit,
                    REVERSE[out_port], out_vc, flit,
                )
            # our input buffer slot is free either way: credit upstream
            schedule(1, self._return_credit, port, vc_index)
            # a flit still buffered *at grant time* keeps the router hot
            # next cycle even if it drains later this tick (the extra
            # tick can catch flits arriving that cycle) — O(1) via the
            # occupancy counter where the old code rescanned every VC
            if vc.buffer or self._buffered:
                work_left = True
        if work_left or self._buffered:
            self.wake()

    def _allocate_vc(self, out_port: int) -> Optional[int]:
        """First downstream VC not already claimed by one of our inputs.

        ``_claimed`` mirrors the active input VCs' (out_port, out_vc)
        assignments incrementally, replacing the full-matrix rebuild."""
        claimed = self._claimed
        for candidate in range(self.num_vcs):
            if (out_port, candidate) not in claimed:
                claimed.add((out_port, candidate))
                return candidate
        return None

    def _return_credit(self, in_port: int, vc_index: int) -> None:
        if in_port == LOCAL:
            self.fabric.local_credit(self.node, vc_index)
            return
        upstream = self.fabric.routers[self._neighbor_nodes[in_port]]
        upstream.credit_return(REVERSE[in_port], vc_index)

    def _any_pending(self) -> bool:
        """Any flit buffered at this router (O(1) incremental counter)."""
        return self._buffered > 0


class FlitNetwork(Component):
    """The flit-level fabric with local injection/ejection interfaces."""

    def __init__(self, sim: Simulator, config: NocConfig):
        super().__init__(sim, "flitnet")
        if config.topology != "mesh":
            # the 5 fixed ports (LOCAL/N/E/S/W) and the XY route
            # computation below are mesh-shaped; other fabrics run on
            # the packet-level model.
            raise UnsupportedTopology(
                f"the event flit engine models the 5-port mesh router "
                f"only; topology {config.topology!r} requires the "
                f"packet-level network",
                model="flit/event",
                topology=config.topology,
            )
        self.config = config
        self.mesh = Mesh(config.width, config.height)
        self.routers: Dict[int, FlitRouter] = {
            n: FlitRouter(sim, n, self) for n in range(self.mesh.num_nodes)
        }
        #: injection queues waiting for local-port credits
        self._inject_queues: Dict[int, Deque[FlitPacket]] = {
            n: deque() for n in range(self.mesh.num_nodes)
        }
        #: in-progress injection per node: (packet, vc_index, next flit)
        self._streaming: Dict[int, Optional[Tuple[FlitPacket, int, int]]] = {
            n: None for n in range(self.mesh.num_nodes)
        }
        self.delivered: List[FlitPacket] = []
        self.injected = 0
        self.on_delivery: Optional[Callable[[FlitPacket], None]] = None

    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, length: int,
             payload: object = None) -> FlitPacket:
        packet = FlitPacket(
            src=src, dst=dst, length=max(1, length), payload=payload
        )
        packet.injected_cycle = self.now
        self.injected += 1
        self._inject_queues[src].append(packet)
        self._try_inject(src)
        return packet

    def _try_inject(self, node: int) -> None:
        """Stream queued packets into free local-input VCs, one flit per
        free buffer slot; resumes as credits return."""
        router = self.routers[node]
        stream = self._streaming[node]
        if stream is None:
            queue = self._inject_queues[node]
            if not queue:
                return
            # claim a fully idle local VC for the new packet
            for vc_index, vc in enumerate(router.vcs[LOCAL]):
                if not vc.active and not vc.buffer:
                    stream = (queue.popleft(), vc_index, 0)
                    break
            if stream is None:
                return
        packet, vc_index, next_flit = stream
        vc = router.vcs[LOCAL][vc_index]
        while next_flit < packet.length and vc.free_slots > 0:
            router.accept_flit(LOCAL, vc_index, Flit(packet, next_flit))
            next_flit += 1
        if next_flit >= packet.length:
            self._streaming[node] = None
            if self._inject_queues[node]:
                # try to start the next packet on another VC
                self._try_inject(node)
        else:
            self._streaming[node] = (packet, vc_index, next_flit)
        router.wake()

    def local_credit(self, node: int, vc_index: int) -> None:
        self._try_inject(node)

    def deliver(self, packet: FlitPacket) -> None:
        packet.delivered_cycle = self.now
        self.delivered.append(packet)
        if self.on_delivery is not None:
            self.on_delivery(packet)

    # ------------------------------------------------------------------
    @property
    def mean_latency(self) -> float:
        if not self.delivered:
            return 0.0
        return sum(p.latency for p in self.delivered) / len(self.delivered)
