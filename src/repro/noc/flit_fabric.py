"""Flit-level fabric adapter: the full system on the detailed NoC.

Exposes the flit-level model (:mod:`repro.noc.flitsim`) behind the same
interface the coherence layer uses (``send`` / ``register_endpoint`` /
statistics), so a :class:`~repro.system.ManyCoreSystem` can be assembled
on it for high-fidelity validation runs::

    cfg = SystemConfig(noc=NocConfig(flit_level=True))

This is the one full-system flit fabric.  Its virtual channels keep no
per-pair packet order, as GARNET's do not (DESIGN.md §12).

Limitations (by design — this is a validation mode); a system asking
for either mechanism raises :class:`~repro.errors.UnsupportedMechanism`:

* **No iNPG.**  Big-router packet inspection hooks exist only in the
  packet-level model.
* **No OCOR.**  The flit model arbitrates round-robin per physical
  router, with no priority arbitration or virtual-network classes, so
  OCOR's packet priorities would be ignored.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..config import NocConfig
from ..sim import Component, Simulator
from .flitsim import FlitNetwork, FlitPacket
from .packet import Packet
from .topology import Mesh

EndpointHandler = Callable[[Packet], None]


class FlitFabric(Component):
    """Network-interface-compatible wrapper over :class:`FlitNetwork`."""

    #: injection-site fault filter ``(packet, forward) -> consumed``;
    #: rebound by ``repro.faults.FaultInjector.install``.  The flit model
    #: has no per-router hooks, so ``inject`` is the only site type the
    #: fabric supports (router/link sites raise at install time).
    _fault_inject = None
    #: names this model in structured fault-refusal errors
    fault_model_name = "flit/event"

    def __init__(self, sim: Simulator, config: NocConfig):
        super().__init__(sim, "flitfabric")
        self.config = config
        self.fabric = FlitNetwork(sim, config)
        self.mesh: Mesh = self.fabric.mesh
        self._endpoints: Dict[int, EndpointHandler] = {}
        self.fabric.on_delivery = self._on_delivery
        self.packets_injected = 0
        self.packets_delivered = 0
        #: packets consumed by fault injection (never entered the fabric)
        self.packets_dropped = 0
        self.total_latency = 0
        #: kept for interface parity with Network
        self.memsys = None
        self.routers: Dict[int, object] = {}

    # ------------------------------------------------------------------
    def register_endpoint(self, node: int, handler: EndpointHandler) -> None:
        if node in self._endpoints:
            raise ValueError(f"endpoint for node {node} already registered")
        self._endpoints[node] = handler

    def send(
        self,
        src: int,
        dst: int,
        payload: object,
        size_flits: int = 1,
        priority: int = 0,
        origin: Optional[int] = None,
    ) -> Packet:
        """Inject a coherence message as a flit-level packet."""
        shadow = Packet(
            src=src, dst=dst, payload=payload, size_flits=size_flits,
            priority=priority, origin=origin if origin is not None else src,
        )
        shadow.injected_cycle = self.now
        self.packets_injected += 1
        fi = self._fault_inject
        if fi is not None:
            if not fi(shadow, self._inject):
                self._inject(shadow)
            return shadow
        self.fabric.send(src, dst, size_flits, payload=shadow)
        return shadow

    def _inject(self, shadow: Packet) -> None:
        """Enter the flit fabric (faulted injection continuation — ``dst``
        may have been corrupted, so re-read it from the shadow packet)."""
        self.fabric.send(shadow.src, shadow.dst, shadow.size_flits,
                         payload=shadow)

    def _on_delivery(self, flit_packet: FlitPacket) -> None:
        shadow: Packet = flit_packet.payload
        shadow.delivered_cycle = self.now
        self.packets_delivered += 1
        self.total_latency += shadow.latency
        handler = self._endpoints.get(shadow.dst)
        if handler is None:
            raise RuntimeError(f"no endpoint registered at node {shadow.dst}")
        handler(shadow)

    # ------------------------------------------------------------------
    @property
    def mean_latency(self) -> float:
        if self.packets_delivered == 0:
            return 0.0
        return self.total_latency / self.packets_delivered

    @property
    def in_flight(self) -> int:
        return (self.packets_injected - self.packets_delivered
                - self.packets_dropped)
