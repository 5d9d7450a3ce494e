"""The NoC fabric: routers, links, injection and delivery.

The :class:`Network` wires one :class:`~repro.noc.router.Router` per mesh
node (some of which may be iNPG big routers, supplied via a factory), and
dispatches delivered packets to per-node endpoint handlers (the cache
controllers registered by ``repro.coherence.memsystem``).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..config import NocConfig
from ..sim import Component, Simulator
from .packet import Packet
from .port import OutputPort
from .router import Router
from .topology import make_topology

#: endpoint callback signature: (packet) -> None
EndpointHandler = Callable[[Packet], None]
#: router factory signature: (sim, node, network) -> Router
RouterFactory = Callable[[Simulator, int, "Network"], Router]


class Network(Component):
    """A packet-level network of (possibly heterogeneous) routers.

    The fabric shape and routing come from the ``NocConfig.topology``
    axis (mesh/torus/ring, :mod:`repro.noc.topology`); output-port
    arbitration from ``NocConfig.arbiter`` (rr/wrr).  The default pair
    is the paper's XY-routed mesh with VC-priority round-robin.
    """

    #: trace emitter; rebound by ``repro.obs.Observation.attach``.  Left as
    #: ``None`` on untraced runs so the hot paths pay a single identity test.
    _trace = None

    #: injection-site fault filter ``(packet, forward) -> consumed``;
    #: rebound by ``repro.faults.FaultInjector.install`` when the plan
    #: names ``inject`` sites.  Same zero-cost-when-off contract as
    #: ``_trace``: unfaulted runs pay one identity test per injection.
    _fault_inject = None

    def __init__(
        self,
        sim: Simulator,
        config: NocConfig,
        router_factory: Optional[RouterFactory] = None,
        priority_arbitration: bool = False,
        record_traces: bool = False,
    ):
        super().__init__(sim, "network")
        self.config = config
        #: the fabric topology (``config.topology``); the attribute keeps
        #: its historical name — every call site reads ``network.mesh``
        #: and the default topology still is the paper's mesh.
        self.mesh = make_topology(config.topology, config.width, config.height)
        self.topology = self.mesh
        self.priority_arbitration = priority_arbitration
        self._wrr = config.arbiter == "wrr"
        #: when True every packet records its full per-router trace (a
        #: debugging/stats aid); hop counts are maintained regardless.
        self.record_traces = record_traces
        factory = router_factory or Router
        self.routers: Dict[int, Router] = {}
        for node in range(self.mesh.num_nodes):
            self.routers[node] = factory(sim, node, self)
        for router in self.routers.values():
            router.wire()
        #: dst -> handler, indexed flat (None until registered); the dict
        #: view is kept for introspection but delivery uses the list.
        self._endpoints: Dict[int, EndpointHandler] = {}
        self._endpoint_list: list = [None] * self.mesh.num_nodes
        #: statistics
        self.packets_injected = 0
        self.packets_delivered = 0
        self.packets_consumed = 0
        #: packets consumed by fault injection (never delivered)
        self.packets_dropped = 0
        self.total_latency = 0
        self.total_hops = 0
        #: wraparound-link crossings that escalated a packet to its
        #: dateline VC class (torus/ring only; always 0 on the mesh)
        self.dateline_crossings = 0

    # ------------------------------------------------------------------
    # Port construction (router output ports, per the arbiter axis)
    # ------------------------------------------------------------------
    def make_port(self, name: str) -> OutputPort:
        """Build one router output port per the ``arbiter`` axis."""
        if self._wrr:
            from .arbiter import WrrOutputPort

            return WrrOutputPort(
                self.sim, name, self.priority_arbitration,
                self.config.wrr_weights,
            )
        return OutputPort(self.sim, name, self.priority_arbitration)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def register_endpoint(self, node: int, handler: EndpointHandler) -> None:
        """Attach the network interface handler for ``node``."""
        if node in self._endpoints:
            raise ValueError(f"endpoint for node {node} already registered")
        self._endpoints[node] = handler
        self._endpoint_list[node] = handler

    # ------------------------------------------------------------------
    # Injection / delivery
    # ------------------------------------------------------------------
    def send(
        self,
        src: int,
        dst: int,
        payload: object,
        size_flits: int = 1,
        priority: int = 0,
        origin: Optional[int] = None,
    ) -> Packet:
        """Inject a new packet at ``src`` bound for ``dst``.

        Local (src == dst) messages still pass through the local router's
        ejection path, modelling the NI turnaround.
        """
        packet = Packet(
            src=src,
            dst=dst,
            payload=payload,
            size_flits=size_flits,
            priority=priority,
            vnet=(0 if size_flits <= 1 else 1) if self.config.virtual_networks
            else 0,
            origin=origin if origin is not None else src,
        )
        packet.injected_cycle = self.sim.cycle
        self.packets_injected += 1
        tr = self._trace
        if tr is not None:
            tr(f"core/{src}", "net.inject", dst=dst, flits=size_flits,
               priority=priority)
        fi = self._fault_inject
        if fi is not None:
            if not fi(packet, self._inject):
                self._inject(packet)
            return packet
        self.routers[src].accept(packet)
        return packet

    def _inject(self, packet: Packet) -> None:
        """Enter the datapath at the packet's source router (the faulted
        injection continuation — ``dst`` may have been corrupted)."""
        self.routers[packet.src].accept(packet)

    def reinject(self, router_node: int, packet: Packet) -> None:
        """Inject a router-generated packet at ``router_node`` (iNPG).

        The packet starts at the generating router, not at an endpoint NI;
        it still pays that router's pipeline before moving.
        """
        packet.injected_cycle = self.sim.cycle
        self.packets_injected += 1
        tr = self._trace
        if tr is not None:
            tr(f"big/{router_node}", "net.inject", dst=packet.dst,
               flits=packet.size_flits, generated=1)
        fi = self._fault_inject
        if fi is not None:
            forward = self.routers[router_node].forward_now
            if not fi(packet, forward):
                forward(packet)
            return
        self.routers[router_node].forward_now(packet)

    def deliver_local(self, packet: Packet) -> None:
        """Hand a packet that ejected at its destination to the endpoint."""
        now = self.sim.cycle
        packet.delivered_cycle = now
        self.packets_delivered += 1
        self.total_latency += now - packet.injected_cycle
        hops = packet._hops - 1
        if hops > 0:
            self.total_hops += hops
        tr = self._trace
        if tr is not None:
            tr(f"core/{packet.dst}", "net.eject", src=packet.src,
               latency=packet.latency, hops=max(hops, 0))
        handler = self._endpoint_list[packet.dst]
        if handler is None:
            raise RuntimeError(f"no endpoint registered at node {packet.dst}")
        handler(packet)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def mean_latency(self) -> float:
        """Mean end-to-end packet latency over delivered packets."""
        if self.packets_delivered == 0:
            return 0.0
        return self.total_latency / self.packets_delivered

    def consume(self, packet: Packet) -> None:
        """Account for a packet absorbed in-network (big-router intercept)."""
        packet.delivered_cycle = self.now
        self.packets_consumed += 1

    @property
    def in_flight(self) -> int:
        return (self.packets_injected - self.packets_delivered
                - self.packets_consumed - self.packets_dropped)

    def big_router_nodes(self) -> list:
        """Node ids whose routers are iNPG big routers."""
        return [n for n, r in self.routers.items() if r.is_big]
