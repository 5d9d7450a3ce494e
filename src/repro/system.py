"""ManyCoreSystem: assemble and run one simulated 64-core platform.

The supported entry point is the stable facade :mod:`repro.api`::

    from repro import api

    config = api.SystemConfig().with_mechanism("inpg")
    workload = api.generate_workload("freqmine", num_threads=64, mesh_nodes=64)
    result = api.simulate(config, workload, primitive="qsl")
    print(result.summary())

Constructing :class:`ManyCoreSystem` directly remains supported for code
that needs to poke at the assembled components before running.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from .config import SystemConfig
from .errors import DeadlockError, UnsupportedMechanism
from .coherence.memsystem import MemorySystem
from .cpu.os_model import OsModel
from .cpu.thread import WorkerThread
from .inpg.big_router import BigRouter
from .inpg.deployment import place_big_routers
from .locks.base import AddressSpace
from .locks.factory import make_lock
from .noc.network import Network
from .noc.router import Router
from .noc.topology import make_topology
from .sim import Simulator
from .stats.metrics import RunResult, ThreadMetrics
from .stats.timeline import Timeline
from .workloads import Workload

if TYPE_CHECKING:  # pragma: no cover
    from .faults.plan import FaultPlan
    from .obs import Observation

# ``DeadlockError`` is re-homed in :mod:`repro.errors`; the historical
# ``repro.system.DeadlockError`` path stays importable via the import above.
__all__ = ["DeadlockError", "ManyCoreSystem", "run_benchmark"]


class ManyCoreSystem:
    """One configured instance of the simulated platform.

    ``fault_plan`` installs a deterministic :mod:`repro.faults` injector
    into the NoC; ``watchdog_cycles`` arms the liveness watchdog
    (no-progress-in-N-cycles ⇒ :class:`~repro.errors.LivelockDetected`);
    ``check_protocol`` attaches the online
    :class:`~repro.coherence.checker.ProtocolChecker`.  All three default
    off and, when off, leave the assembled system byte-identical to one
    built without them.
    """

    def __init__(
        self,
        config: SystemConfig,
        workload: Workload,
        primitive: str = "qsl",
        observe: Optional["Observation"] = None,
        fault_plan: Optional["FaultPlan"] = None,
        watchdog_cycles: Optional[int] = None,
        check_protocol: bool = False,
    ):
        if workload.num_threads > config.noc.width * config.noc.height:
            raise ValueError(
                f"{workload.num_threads} threads do not fit on a "
                f"{config.noc.width}x{config.noc.height} mesh (1 thread/core)"
            )
        self.config = config
        self.workload = workload
        self.primitive = primitive
        self.sim = Simulator()
        topo = make_topology(
            config.noc.topology, config.noc.width, config.noc.height
        )
        big_nodes = (
            place_big_routers(topo, config.inpg)
            if config.inpg.enabled
            else frozenset()
        )

        def router_factory(sim, node, network):
            if node in big_nodes:
                return BigRouter(sim, node, network, config.inpg)
            return Router(sim, node, network)

        # Ports are always priority-aware (responses outrank requests, as
        # separate virtual networks guarantee); OCOR only changes the
        # priorities lock request packets carry.
        if config.noc.flit_level:
            # iNPG's big routers and OCOR's request priorities live in
            # the packet-level routers and ports; the flit routers have
            # no hook for either
            for mechanism, name in (("inpg", "iNPG"), ("ocor", "OCOR")):
                if getattr(config, mechanism).enabled:
                    raise UnsupportedMechanism(
                        f"{name} needs the packet-level network; the "
                        f"flit/event fabric cannot run it (disable "
                        f"noc.flit_level or {name})",
                        model="flit/event", mechanism=mechanism,
                    )
            from .noc.flit_fabric import FlitFabric

            self.network = FlitFabric(self.sim, config.noc)
        else:
            self.network = Network(
                self.sim,
                config.noc,
                router_factory=router_factory,
                priority_arbitration=True,
            )
        self.memsys = MemorySystem(self.sim, config, self.network)
        self.network.memsys = self.memsys
        self.os_model = OsModel(self.sim, config.os, self.memsys)
        self.addr_space = AddressSpace(self.memsys)
        self.locks = [
            make_lock(
                primitive,
                self.sim,
                self.memsys,
                self.addr_space,
                lock_id=i,
                home_node=home,
                config=config,
                os_model=self.os_model,
            )
            for i, home in enumerate(workload.lock_homes)
        ]
        self.timeline = Timeline()
        self.thread_metrics = [
            ThreadMetrics(thread=t) for t in range(workload.num_threads)
        ]
        self._remaining = workload.num_threads
        self.threads: List[WorkerThread] = [
            WorkerThread(
                self.sim,
                thread_id=t,
                core=t,
                items=workload.items[t],
                locks=self.locks,
                metrics=self.thread_metrics[t],
                timeline=self.timeline,
                on_done=self._thread_done,
            )
            for t in range(workload.num_threads)
        ]
        self._finished_cycle: Optional[int] = None
        self.faults = None
        if fault_plan is not None and fault_plan.enabled:
            from .faults.injector import FaultInjector

            self.faults = FaultInjector(fault_plan)
            self.faults.install(self.network)
            # the duplicate fault aliases one message payload across two
            # packets; recycling on first delivery would corrupt the second
            self.memsys._recycle = False
        self.watchdog = None
        if watchdog_cycles:
            from .faults.watchdog import LivenessWatchdog

            self.watchdog = LivenessWatchdog(self.sim, self, watchdog_cycles)
        self.checker = None
        if check_protocol:
            from .coherence.checker import ProtocolChecker

            self.checker = ProtocolChecker(self.sim, self.memsys)
        self.observe = observe
        if observe is not None:
            # wire-up time: gauges registered and trace emitters rebound
            # exactly once; the run itself proceeds unmodified.
            observe.attach(self)

    # ------------------------------------------------------------------
    def _thread_done(self, _thread_id: int) -> None:
        self._remaining -= 1
        if self._remaining == 0:
            self._finished_cycle = self.sim.cycle
            self.sim.stop()

    def run(
        self,
        max_cycles: int = 50_000_000,
        timeout_s: Optional[float] = None,
    ) -> RunResult:
        """Execute the ROI; returns measured :class:`RunResult`.

        ``timeout_s`` bounds the *wall clock*: past it the kernel raises
        :class:`~repro.errors.RunTimeout` mid-run (the executor's per-run
        budget; such partial runs are never cached).
        """
        for thread in self.threads:
            thread.start()
        if self.watchdog is not None:
            self.watchdog.arm()
        deadline = None
        if timeout_s is not None:
            from time import perf_counter

            deadline = perf_counter() + timeout_s
        self.sim.run(until=max_cycles, deadline=deadline)
        if self._finished_cycle is None:
            stuck = [t.thread_id for t in self.threads if not t.done]
            raise DeadlockError(
                f"ROI did not finish within {max_cycles} cycles; "
                f"threads still running: {stuck[:8]}{'...' if len(stuck) > 8 else ''} "
                f"(benchmark={self.workload.benchmark}, "
                f"primitive={self.primitive})\n" + self.diagnose()
            )
        self.timeline.close_all(self._finished_cycle)
        mechanism = self._mechanism_name()
        result = RunResult(
            # the active coherence protocol name makes campaign JSON and
            # traces self-describing across protocol ablations
            extra={
                "sim_events": float(self.sim.events_processed),
                "coherence/protocol": self.config.protocol,
            },
            mechanism=mechanism,
            primitive=self.primitive,
            benchmark=self.workload.benchmark,
            roi_cycles=self._finished_cycle,
            threads=self.thread_metrics,
            coherence=self.memsys.stats,
            timeline=self.timeline,
            network_mean_latency=self.network.mean_latency,
            network_packets=self.network.packets_delivered,
            os_sleeps=self.os_model.sleeps,
            os_wakeups=self.os_model.wakeups,
        )
        if self.faults is not None:
            for name, value in self.faults.counters().items():
                result.extra[f"faults/{name}"] = float(value)
        if self.checker is not None:
            result.extra["checker/samples"] = float(self.checker.report.samples)
            result.extra["checker/violations"] = float(
                len(self.checker.report.violations)
            )
        observe = self.observe
        if observe is not None and observe.attached:
            observe.result = result
            result.obs = observe.payload()
            for path, value in observe.counters().items():
                result.extra[f"obs/{path}"] = float(value)
        return result

    def diagnose(self) -> str:
        """A protocol-state snapshot for stuck-run debugging.

        Dumps, per lock: the committed value, directory state (owner,
        sharers, busy/queue), and every core with a pending operation,
        an armed line monitor, or a valid copy of the lock line.
        """
        lines = [f"--- diagnosis at cycle {self.sim.cycle} ---"]
        lines.append(
            f"network: injected={self.network.packets_injected} "
            f"delivered={self.network.packets_delivered} "
            f"in_flight={self.network.in_flight}"
        )
        lines.append(
            f"pending simulator events: {self.sim.live_pending_events} live "
            f"({self.sim.pending_events} queued, "
            f"{self.sim.compactions} compactions)"
        )
        mem = self.memsys
        for lock in self.locks:
            addr = lock.addr
            home = mem.home_of(addr)
            ent = mem.dirs[home].entry(addr)
            lines.append(
                f"lock {lock.lock_id} ({lock.name}) addr={addr:#x} "
                f"value={mem.read(addr)} acq={lock.acquisitions} "
                f"rel={lock.releases} | dir: owner={ent.owner} "
                f"sharers={sorted(ent.sharers)} busy={ent.busy} "
                f"queued={len(ent.queue)}"
            )
            for core, l1 in mem.l1s.items():
                state = l1.state_of(addr)
                pw = l1._pending_writes.get(addr)
                pl = addr in l1._pending_loads
                monitors = len(l1._monitors.get(addr, []))
                if state.valid or pw or pl or monitors:
                    detail = f"  core {core}: {state.value}"
                    if pw:
                        detail += (
                            f" pending-write(data={pw.have_data} "
                            f"expected={pw.expected} acked={pw.acked})"
                        )
                    if pl:
                        detail += " pending-load"
                    if monitors:
                        detail += f" monitors={monitors}"
                    lines.append(detail)
        return "\n".join(lines)

    def _mechanism_name(self) -> str:
        inpg = self.config.inpg.enabled
        ocor = self.config.ocor.enabled
        if inpg and ocor:
            return "inpg+ocor"
        if inpg:
            return "inpg"
        if ocor:
            return "ocor"
        return "original"


def run_benchmark(
    benchmark: str,
    mechanism: Optional[str] = "original",
    primitive: str = "qsl",
    config: Optional[SystemConfig] = None,
    seed: int = 2018,
    scale: float = 1.0,
    lock_homes=(),
    max_cycles: int = 50_000_000,
    observe: Optional["Observation"] = None,
    fault_plan: Optional["FaultPlan"] = None,
    watchdog_cycles: Optional[int] = None,
    check_protocol: bool = False,
    timeout_s: Optional[float] = None,
) -> RunResult:
    """One-call convenience wrapper: configure, generate, run, measure.

    ``mechanism=None`` uses ``config`` exactly as passed (for callers
    that already baked iNPG/OCOR flags into it).  The robustness knobs
    (``fault_plan``, ``watchdog_cycles``, ``check_protocol``,
    ``timeout_s``) mirror :class:`ManyCoreSystem` / :meth:`ManyCoreSystem.run`.
    """
    from .workloads.generator import generate_workload

    base = config or SystemConfig()
    cfg = base if mechanism is None else base.with_mechanism(mechanism)
    workload = generate_workload(
        benchmark,
        num_threads=cfg.num_threads,
        mesh_nodes=cfg.noc.width * cfg.noc.height,
        seed=seed,
        scale=scale,
        lock_homes=lock_homes,
    )
    system = ManyCoreSystem(
        cfg,
        workload,
        primitive=primitive,
        observe=observe,
        fault_plan=fault_plan,
        watchdog_cycles=watchdog_cycles,
        check_protocol=check_protocol,
    )
    return system.run(max_cycles=max_cycles, timeout_s=timeout_s)
