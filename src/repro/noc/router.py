"""Two-stage pipelined router (baseline "normal" router).

Timing model, following the paper's baseline (Peh & Dally speculative
2-stage router, Table 1):

* stage 1 (RC/VA/SA) + stage 2 (ST) = ``pipeline_cycles`` (default 2) from
  head-flit arrival to the packet requesting its output port;
* the output port serializes the packet at one flit/cycle;
* the link to the next router adds ``link_cycles`` (default 1).

Routers expose an :meth:`inspect` hook, called when a packet enters the
router, **before** route computation.  Normal routers always let packets
continue; the iNPG big router overrides it to stop lock requests and
generate early invalidations (``repro.inpg.big_router``).

Datapath hot path: a hop is four kernel events — ``accept``, the output
port's ``request``, the link relay and the port's ``_grant_next`` — and
allocates no closure.  ``accept`` schedules the next hop's pre-bound
port request directly, and the link relay is a ``partial`` over
``sim.schedule``, so no frame on the way only forwards.  Dispatch
entries are built once per output port when the network wires the
routers together (:meth:`wire`).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Dict

from ..sim import Component, Simulator
from .packet import Packet
from .port import OutputPort

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import Network

#: inspect() verdicts
CONTINUE = "continue"
STOPPED = "stopped"


class Router(Component):
    """A mesh router at ``node``."""

    is_big = False

    def __init__(self, sim: Simulator, node: int, network: "Network"):
        super().__init__(sim, f"router{node}")
        self.node = node
        self.network = network
        cfg = network.config
        self.pipeline_cycles = cfg.router_pipeline_cycles
        self.link_cycles = cfg.link_cycles
        #: one output port per neighbour + one ejection port to the local
        #: NI; the network builds them per the ``arbiter`` axis.
        self.ports: Dict[int, OutputPort] = {}
        for neighbor in network.mesh.neighbors(node):
            self.ports[neighbor] = network.make_port(
                f"router{node}->r{neighbor}"
            )
        self.ports[node] = network.make_port(f"router{node}->local")
        self.packets_seen = 0
        #: row[dst] -> next node on the routing path (shared, precomputed)
        self._hop_row = network.mesh.next_hop_row(node)
        #: subclasses that override inspect() pay for the hook; the base
        #: router skips the call entirely.
        self._inspects = type(self).inspect is not Router.inspect
        #: per-output-port grant handlers, built by wire()
        self._grant_handlers: Dict[int, Callable[[Packet], None]] = {}
        #: row[dst] -> ``(route, link)``: the pipeline stage schedules
        #: ``route(packet, link)``, built by wire()
        self._dest: list = []
        self._record_trace = network.record_traces
        self._schedule = sim.schedule
        if not self._inspects and not self._record_trace:
            self.accept = self._accept_plain

    # ------------------------------------------------------------------
    # Wiring (called by the network once all routers exist)
    # ------------------------------------------------------------------
    def wire(self) -> None:
        """Bind each outgoing link's relay, ``partial(sim.schedule,
        link_cycles, neighbour.accept)``, so a port grant schedules the
        link traversal with no frame of its own.

        Idempotent, and deliberately so: ``repro.faults`` installs
        per-router fault wrappers as instance-level ``accept``
        attributes, then re-runs ``wire()`` on every router so the
        pre-bound handlers capture the wrapped entry points (link-site
        wrappers are layered afterwards via :meth:`wrap_link`)."""
        for neighbor in self.network.mesh.neighbors(self.node):
            self._grant_handlers[neighbor] = partial(
                self._schedule, self.link_cycles,
                self.network.routers[neighbor].accept,
            )
        self._deliver = self.network.deliver_local
        self._rebuild_dispatch()

    def _rebuild_dispatch(self) -> None:
        """Build one ``(route, link)`` entry per output port and map
        every destination onto its next hop's entry, so the datapath
        resolves a destination with one list index.  Re-run whenever
        the grant handlers change (``wire()`` / :meth:`wrap_link`).

        ``route(packet, link)`` is the port's ``request(packet,
        on_granted)``; on a link that crosses a dateline it is
        :meth:`_route_dateline`, which escalates the packet's VC class
        first."""
        node = self.node
        topo = self.network.mesh
        by_hop = {node: (self.ports[node].request, self._eject)}
        for hop, on_granted in self._grant_handlers.items():
            link = (self.ports[hop].request, on_granted)
            if topo.has_datelines and topo.crosses_dateline(node, hop):
                link = (self._route_dateline, link)
            by_hop[hop] = link
        self._dest = list(map(by_hop.__getitem__, self._hop_row))

    def wrap_link(
        self,
        neighbor: int,
        wrap: Callable[[Callable[[Packet], None]], Callable[[Packet], None]],
    ) -> None:
        """Interpose on the outgoing link toward ``neighbor``.

        ``wrap`` receives the current grant handler and returns the
        replacement; the fault injector uses this to model lossy/slow
        links without touching the uncontended datapath.
        """
        if neighbor not in self._grant_handlers:
            raise ValueError(
                f"router {self.node} has no link toward {neighbor}"
            )
        self._grant_handlers[neighbor] = wrap(self._grant_handlers[neighbor])
        self._rebuild_dispatch()

    # ------------------------------------------------------------------
    # Hook for subclasses (big router)
    # ------------------------------------------------------------------
    def inspect(self, packet: Packet) -> str:
        """Inspect a packet entering this router.

        Returns :data:`CONTINUE` to let it proceed normally or
        :data:`STOPPED` if the router has taken over the packet (the base
        router never stops packets).
        """
        return CONTINUE

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def accept(self, packet: Packet) -> None:
        """Head flit of ``packet`` arrives at this router."""
        self.packets_seen += 1
        packet._hops += 1
        if self._record_trace:
            t = packet._trace_list
            if t is None:
                packet._trace_list = t = []
            t.append(self.node)
        if self._inspects and self.inspect(packet) == STOPPED:
            return
        route, link = self._dest[packet.dst]
        self._schedule(self.pipeline_cycles, route, packet, link)

    def _accept_plain(self, packet: Packet) -> None:
        """:meth:`accept` for a router with nothing to inspect or trace;
        ``__init__`` installs it per instance."""
        self.packets_seen += 1
        packet._hops += 1
        route, link = self._dest[packet.dst]
        self._schedule(self.pipeline_cycles, route, packet, link)

    def _route_dateline(self, packet: Packet, link: tuple) -> None:
        """Route stage of a hop over a dateline (torus/ring wraparound).

        The packet escalates once to the dateline VC class (``vnet +
        2``) — the model of the dateline virtual channels that break the
        ring channel-dependency cycle (DESIGN.md §15) — then requests
        the port.  Only dateline links route through here, so mesh hops
        never test for datelines.
        """
        self.network.dateline_crossings += 1
        if packet.vnet < 2:
            packet.vnet += 2
        request, on_granted = link
        request(packet, on_granted)

    def _eject(self, packet: Packet) -> None:
        # the endpoint has the packet when the tail flit arrives
        tail = packet.size_flits - 1
        self._schedule(tail if tail > 0 else 0, self._deliver, packet)

    def forward_now(self, packet: Packet) -> None:
        """Re-enter the datapath at this router (used by big routers to
        send generated or converted packets on their way)."""
        route, link = self._dest[packet.dst]
        self._schedule(self.pipeline_cycles, route, packet, link)
