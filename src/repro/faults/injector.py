"""Deterministic, seeded fault injection for the NoC datapath.

The :class:`FaultInjector` realizes a :class:`~repro.faults.plan.FaultPlan`
against a built network.  Installation is *surgical*: only the routers,
links and injection points the plan names pay anything — a faulted router
gets an instance-level ``accept`` wrapper, a faulted link gets its
pre-bound grant handler wrapped, and injection sites rebind the network's
class-level ``_fault_inject = None`` guard (the same zero-cost pattern as
the ``repro.obs`` ``_trace`` emitters).  A run without a plan executes
byte-identical code to one built before this module existed.

Determinism: fault decisions draw from the plan's own
:func:`repro.sim.make_rng` stream (seeded by ``plan.seed``, label
``"faults"``), never from workload RNGs, and the kernel's event order is
deterministic — so one ``(spec, plan)`` pair replays the exact same
drops/delays/duplicates/corruptions every time.

Fault semantics at a site (evaluated in plan order; first ``drop`` or
``delay`` consumes the packet, ``corrupt``/``duplicate`` fall through):

* ``drop`` — the packet vanishes; ``network.packets_dropped`` and the
  injector's ``dropped`` counter record it.
* ``delay`` — the packet re-enters the datapath ``extra_delay`` cycles
  later (modelling transient link backpressure / retransmission).
* ``corrupt`` — the destination *tag* is rewritten to a random node: the
  packet misroutes and is delivered to the wrong endpoint, which is the
  detection layers' problem to notice.
* ``duplicate`` — a clone (fresh pid, same payload) enters the datapath
  alongside the original, exercising at-least-once delivery hazards
  (double InvAcks, replayed GetX, ...).
"""

from __future__ import annotations

from typing import Callable, Tuple

from ..errors import UnsupportedFaultSite
from ..noc.packet import Packet
from ..sim import make_rng
from .plan import FaultPlan, FaultSite, split_sites

#: continuation signature: re-enter the normal datapath with this packet
Forward = Callable[[Packet], None]


class FaultInjector:
    """Applies one :class:`FaultPlan` to one network instance."""

    #: trace emitter; rebound by ``repro.obs.Observation.attach``.
    _trace = None

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.rng = make_rng(plan.seed, "faults")
        self.dropped = 0
        self.duplicated = 0
        self.corrupted = 0
        self.delayed = 0
        self._sim = None
        self._network = None
        self._num_nodes = 0
        self.installed = False

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, network) -> "FaultInjector":
        """Wire this plan's sites into ``network`` (packet- or flit-level).

        The flit-level fabric models no per-router hooks, so it accepts
        only ``inject`` sites; router/link sites there raise, as do
        router/link sites naming no router or link of the network.
        """
        if self.installed:
            raise ValueError("fault injector is already installed")
        wildcard, per_router, per_link, inject = split_sites(self.plan)
        self._sim = network.sim
        self._network = network
        self._num_nodes = network.mesh.num_nodes
        model = getattr(network, "fault_model_name", "packet")
        routers = getattr(network, "routers", None) or {}
        if routers:
            # refuse the whole plan before wrapping anything
            for node in per_router:
                if node not in routers:
                    raise UnsupportedFaultSite(
                        f"fault site 'router:{node}': no router {node} in "
                        f"this {len(routers)}-router network",
                        model=model, site_kinds=("router",),
                    )
            for src, dst in per_link:
                router = routers.get(src)
                if router is None or dst not in router._grant_handlers:
                    raise UnsupportedFaultSite(
                        f"fault site 'link:{src}->{dst}': no link "
                        f"{src}->{dst} in this network",
                        model=model, site_kinds=("link",),
                    )
            faulted = False
            for node, router in routers.items():
                sites = tuple(wildcard) + tuple(per_router.get(node, ()))
                if sites:
                    self._wrap_router(router, sites)
                    faulted = True
            if faulted:
                # grant handlers captured each neighbour's ``accept`` at
                # construction; re-wire so they see the fault wrappers.
                for router in routers.values():
                    router.wire()
            for (src, dst), sites in per_link.items():
                self._wrap_link(routers[src], dst, tuple(sites))
        elif wildcard or per_router or per_link:
            kinds = []
            if wildcard or per_router:
                kinds.append("router")
            if per_link:
                kinds.append("link")
            raise UnsupportedFaultSite(
                f"the {model} fabric supports only 'inject' fault sites "
                f"(plan names {'/'.join(kinds)} sites)",
                model=model, site_kinds=tuple(kinds),
            )
        if inject:
            network._fault_inject = self._make_inject_hook(tuple(inject))
        self.installed = True
        return self

    def _wrap_router(self, router, sites: Tuple[FaultSite, ...]) -> None:
        clean = router.accept  # the router's entry point, captured pre-wrap
        component = f"router/{router.node}"

        def faulted_accept(
            packet: Packet,
            _apply=self._apply, _sites=sites, _clean=clean, _c=component,
        ) -> None:
            if _apply(_sites, packet, _clean, _c):
                return
            _clean(packet)

        router.accept = faulted_accept

    def _wrap_link(self, router, neighbor: int,
                   sites: Tuple[FaultSite, ...]) -> None:
        component = f"link/{router.node}->{neighbor}"

        def wrap(orig: Forward) -> Forward:
            def faulted_grant(
                packet: Packet,
                _apply=self._apply, _sites=sites, _orig=orig, _c=component,
            ) -> None:
                if _apply(_sites, packet, _orig, _c):
                    return
                _orig(packet)

            return faulted_grant

        router.wrap_link(neighbor, wrap)

    def _make_inject_hook(self, sites: Tuple[FaultSite, ...]):
        def inject_hook(
            packet: Packet, forward: Forward,
            _apply=self._apply, _sites=sites,
        ) -> bool:
            return _apply(_sites, packet, forward, "inject")

        return inject_hook

    # ------------------------------------------------------------------
    # The fault filter
    # ------------------------------------------------------------------
    def _apply(
        self,
        sites: Tuple[FaultSite, ...],
        packet: Packet,
        forward: Forward,
        component: str,
    ) -> bool:
        """Run ``packet`` through ``sites``; True = consumed by faults."""
        cycle = self._sim.cycle
        rng = self.rng
        for site in sites:
            if not site.active(cycle):
                continue
            if site.message is not None and not site.matches_payload(
                packet.payload
            ):
                continue
            if site.rate < 1.0 and rng.random() >= site.rate:
                continue
            kind = site.kind
            if kind == "drop":
                self.dropped += 1
                self._network.packets_dropped += 1
                tr = self._trace
                if tr is not None:
                    tr(component, "fault.drop", src=packet.src,
                       dst=packet.dst, flits=packet.size_flits)
                return True
            if kind == "delay":
                self.delayed += 1
                tr = self._trace
                if tr is not None:
                    tr(component, "fault.delay", src=packet.src,
                       dst=packet.dst, extra=site.extra_delay)
                self._sim.schedule(site.extra_delay, forward, packet)
                return True
            if kind == "corrupt":
                new_dst = rng.randrange(self._num_nodes)
                self.corrupted += 1
                tr = self._trace
                if tr is not None:
                    tr(component, "fault.corrupt", src=packet.src,
                       dst=packet.dst, new_dst=new_dst)
                packet.dst = new_dst
                continue
            # duplicate
            clone = self._clone(packet)
            self.duplicated += 1
            self._network.packets_injected += 1
            tr = self._trace
            if tr is not None:
                tr(component, "fault.duplicate", src=packet.src,
                   dst=packet.dst, clone_pid=clone.pid)
            forward(clone)
        return False

    def _clone(self, packet: Packet) -> Packet:
        clone = Packet(
            src=packet.src,
            dst=packet.dst,
            payload=packet.payload,
            size_flits=packet.size_flits,
            priority=packet.priority,
            vnet=packet.vnet,
            origin=packet.origin,
        )
        clone.injected_cycle = self._sim.cycle
        return clone

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def faults_fired(self) -> int:
        return self.dropped + self.duplicated + self.corrupted + self.delayed

    def counters(self) -> dict:
        """The injector's counters (folded into ``result.extra`` under
        ``faults/`` and registered as ``faults/*`` obs gauges)."""
        return {
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "corrupted": self.corrupted,
            "delayed": self.delayed,
        }
