"""``repro.obs``: zero-cost-when-disabled observability for the simulator.

Three pieces (see DESIGN.md §9):

* a hierarchical counters/gauges :class:`~repro.obs.registry.Registry`
  that components register into at wire-up time — the hot paths keep
  maintaining their plain integer attributes and the registry reads them
  lazily at snapshot time;
* a ring-buffered structured :class:`~repro.obs.tracer.Tracer` fed by
  guarded emitters at the interesting edges (lock acquire / release /
  handoff, GetX / Inv / InvAck send / receive, barrier-table setup / hit /
  TTL expiry, early-Inv generation, packet inject / eject, thread phase
  transitions, OS sleep / wake);
* exporters (:mod:`repro.obs.export`): Chrome trace-event JSON for
  ``chrome://tracing`` / Perfetto, a per-lock contention timeline, and
  counter dumps.

The cost model: every instrumented component carries a class-level
``_trace = None``.  :meth:`Observation.attach` rebinds it (once, at
wiring) to the tracer's ``emit``; the per-event call sites are guarded
(``if self._trace is not None: ...``) so a disabled run pays one
attribute load and ``None`` test per traced edge — nothing else.  The
golden determinism tests pin that a traced run is bit-exact with an
untraced one, and CI's perf-smoke floors on the benchmark's unobserved
runs bound what those guards cost.

Usage::

    from repro import api

    with api.trace(out="t.json") as obs:
        result = api.simulate(config, workload, "qsl", observe=obs)
    print(obs.contention_report())
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .export import (
    chrome_trace_events,
    contention_report,
    counters_report,
    to_chrome_trace,
    write_chrome_trace,
)
from .registry import Counter, Registry
from .tracer import DEFAULT_CAPACITY, TraceRecord, Tracer

#: bump when the Observation payload encoding changes shape
OBS_SCHEMA_VERSION = 1

class Observation:
    """One run's observability context: a registry plus (optionally) a tracer.

    Create one, pass it to :func:`repro.api.simulate` (or
    ``ManyCoreSystem(..., observe=...)``); after the run it holds the
    counters snapshot, the trace ring, and export helpers.
    """

    def __init__(
        self,
        trace: bool = True,
        trace_capacity: int = DEFAULT_CAPACITY,
        label: str = "run",
    ):
        self.registry = Registry()
        self.trace_enabled = trace
        self.trace_capacity = trace_capacity
        self.label = label
        self.tracer: Optional[Tracer] = None
        self.system = None
        self.result = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, system) -> "Observation":
        """Wire this observation into a built :class:`ManyCoreSystem`.

        Called once by the system's constructor; registers every
        component's gauges and (when tracing) rebinds their ``_trace``
        emitters.  Attaching is the only moment observability touches
        the components — the simulation itself runs unmodified.
        """
        if self.system is not None:
            raise ValueError("Observation is already attached to a system")
        self.system = system
        sim = system.sim
        emit = None
        if self.trace_enabled:
            self.tracer = Tracer(sim, capacity=self.trace_capacity)
            emit = self.tracer.emit

        reg = self.registry
        reg.gauges(
            "sim",
            events_processed=lambda: sim.events_processed,
            compactions=lambda: sim.compactions,
            live_pending_events=lambda: sim.live_pending_events,
        )

        network = system.network
        reg.gauges(
            "noc",
            packets_injected=lambda: network.packets_injected,
            packets_delivered=lambda: network.packets_delivered,
            mean_latency=lambda: network.mean_latency,
        )
        if emit is not None:
            network._trace = emit
        routers = getattr(network, "routers", None)
        if routers is not None:
            reg.gauges(
                "noc",
                packets_consumed=lambda: network.packets_consumed,
                total_hops=lambda: network.total_hops,
                peak_queue_depth=lambda: max(
                    (p.peak_queue_depth for r in network.routers.values()
                     for p in r.ports.values()), default=0),
                total_wait_cycles=lambda: sum(
                    p.total_wait_cycles for r in network.routers.values()
                    for p in r.ports.values()),
            )
            for node, router in routers.items():
                if not router.is_big:
                    continue
                table = router.table
                reg.gauges(
                    f"inpg/big{node}",
                    packets_seen=lambda r=router: r.packets_seen,
                    invs_generated=lambda r=router: r.invs_generated,
                    getx_stopped=lambda r=router: r.getx_stopped,
                    acks_forwarded=lambda r=router: r.acks_forwarded,
                    barriers_created=lambda t=table: t.barriers_created,
                    barriers_expired=lambda t=table: t.barriers_expired,
                    ei_created=lambda t=table: t.ei_created,
                )
                if emit is not None:
                    router._trace = emit
                    table._trace = emit
                    table._component = f"big/{node}"

        memsys = system.memsys
        stats = memsys.stats
        # the active protocol names the namespace so counter paths in
        # traces/campaign JSON are self-describing across ablations
        proto = memsys.config.protocol
        reg.gauges(
            f"coherence/{proto}",
            early_invs_generated=lambda: stats.early_invs_generated,
            getx_stopped=lambda: stats.getx_stopped,
            barrier_table_overflows=lambda: stats.barrier_table_overflows,
            early_acks_consumed_before_txn=(
                lambda: stats.early_acks_consumed_before_txn),
        )
        from ..coherence.messages import MessageType

        for mtype in MessageType:
            reg.gauge(
                f"coherence/{proto}/msg/{mtype.value}",
                lambda mt=mtype.value: stats.msg_counts.get(mt, 0),
            )
        if emit is not None:
            memsys._trace = emit

        os_model = system.os_model
        reg.gauges(
            "os",
            sleeps=lambda: os_model.sleeps,
            wakeups=lambda: os_model.wakeups,
            self_wakeups=lambda: os_model.self_wakeups,
        )
        if emit is not None:
            os_model._trace = emit

        for lock in system.locks:
            reg.gauges(
                f"locks/lock{lock.lock_id}",
                acquisitions=lambda l=lock: l.acquisitions,
                releases=lambda l=lock: l.releases,
            )
            if emit is not None:
                lock._trace = emit

        if emit is not None:
            for thread in system.threads:
                thread._trace = emit
        reg.gauge(
            "threads/done",
            lambda: sum(1 for t in system.threads if t.done),
        )

        faults = getattr(system, "faults", None)
        if faults is not None:
            reg.gauges(
                "faults",
                dropped=lambda: faults.dropped,
                duplicated=lambda: faults.duplicated,
                corrupted=lambda: faults.corrupted,
                delayed=lambda: faults.delayed,
            )
            if emit is not None:
                faults._trace = emit
        watchdog = getattr(system, "watchdog", None)
        if watchdog is not None:
            reg.gauge("faults/watchdog_ticks", lambda: watchdog.ticks)
        return self

    @property
    def attached(self) -> bool:
        return self.system is not None

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, float]:
        """A flat snapshot of every registered counter/gauge."""
        return self.registry.snapshot()

    def records(self, component=None, event=None) -> List[TraceRecord]:
        if self.tracer is None:
            return []
        return self.tracer.records(component=component, event=event)

    def payload(self) -> Dict:
        """JSON-safe encoding folded into ``RunResult.obs`` (and thus the
        serialize round trip / exec cache)."""
        out: Dict = {
            "schema": OBS_SCHEMA_VERSION,
            "label": self.label,
            "counters": self.counters(),
        }
        if self.tracer is not None:
            out["trace"] = self.tracer.to_payload()
            out["trace_emitted"] = self.tracer.emitted
            out["trace_dropped"] = self.tracer.dropped
            out["trace_capacity"] = self.tracer.capacity
        return out

    # ------------------------------------------------------------------
    # Exporting
    # ------------------------------------------------------------------
    def chrome_run(self):
        """This run as a ``(label, records, intervals)`` export triple."""
        intervals = (
            self.result.timeline.intervals if self.result is not None else ()
        )
        return (self.label, self.records(), intervals)

    def write_chrome_trace(self, path, metadata: Optional[Dict] = None):
        """Write this run as a Chrome trace-event JSON file."""
        return write_chrome_trace(path, [self.chrome_run()],
                                  metadata=metadata)

    def contention_report(self) -> str:
        return contention_report(self.records())

    def counters_report(self) -> str:
        return counters_report(self.counters())


__all__ = [
    "Counter",
    "DEFAULT_CAPACITY",
    "OBS_SCHEMA_VERSION",
    "Observation",
    "Registry",
    "TraceRecord",
    "Tracer",
    "chrome_trace_events",
    "contention_report",
    "counters_report",
    "to_chrome_trace",
    "write_chrome_trace",
]
