"""Canonical workloads for benchmarking the simulation core.

Each workload is deterministic (fixed seeds, fixed shapes) so that
events/sec numbers are comparable across commits: the *work simulated*
is pinned, only the wall time may change.  Four layers are covered:

* ``kernel_chain``   — the bare discrete-event kernel: self-rescheduling
  callback chains, no model code at all.
* ``packet_uniform`` — the packet-level NoC datapath (routers, ports,
  XY routing) under uniform-random synthetic traffic.
* ``flit_uniform``   — the flit-level validation model (VC allocation,
  switch allocation, credit flow control) under the same kind of load.
* ``fig12_quick``    — a cold end-to-end ``fig12 --quick`` regeneration
  (24 full-system simulations), the workload every figure harness
  bottoms out in.
* ``dir_invalidation_storm`` — the coherence directory under repeated
  full-mesh invalidation fan-outs (every core a sharer, a rotating
  winner's RMW invalidates all 63 others): Inv/InvAck/AckCount bursts,
  sharer-bitmask bookkeeping, and the message pool.
* ``lock_handoff_chain`` — a single contended lock handed around the
  whole CPU stack (threads, queue spin-lock sleep/wake OS path,
  coherence transactions), the lock-critical-path shape the paper's
  figures are made of.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict

from ..config import NocConfig
from ..sim import Simulator, make_rng


@dataclass
class WorkloadResult:
    """One measured workload: how much was simulated, how fast."""

    name: str
    wall_s: float
    events: int
    cycles: int

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "wall_s": round(self.wall_s, 4),
            "events": self.events,
            "cycles": self.cycles,
            "events_per_sec": round(self.events_per_sec, 1),
        }


def _measure(name: str, fn: Callable[[], "tuple[int, int]"]) -> WorkloadResult:
    start = time.perf_counter()
    events, cycles = fn()
    wall = time.perf_counter() - start
    return WorkloadResult(name=name, wall_s=wall, events=events, cycles=cycles)


# ----------------------------------------------------------------------
# 1. Bare kernel
# ----------------------------------------------------------------------
def kernel_chain(total_events: int = 400_000, chains: int = 64) -> WorkloadResult:
    """Self-rescheduling callback chains exercising only the event loop."""

    def run():
        sim = Simulator()
        state = {"fired": 0}

        def make(delay: int) -> Callable[[], None]:
            def tick() -> None:
                state["fired"] += 1
                if state["fired"] < total_events:
                    sim.schedule(delay, tick)

            return tick

        for i in range(chains):
            sim.schedule(i % 7, make(1 + (i % 5)))
        sim.run()
        return sim.events_processed, sim.cycle

    return _measure("kernel_chain", run)


# ----------------------------------------------------------------------
# 2. Packet-level NoC
# ----------------------------------------------------------------------
def packet_uniform(
    duration: int = 4_000, injection_rate: float = 0.08, seed: int = 7,
    topology: str = "mesh", arbiter: str = "rr",
) -> WorkloadResult:
    """Uniform-random traffic on the 8x8 packet-level fabric.

    The committed gate numbers always use the default mesh + round-robin
    pair; ``topology``/``arbiter`` parameterize A/B runs (``inpg-perf``
    exploration via :func:`with_topology`), which report under a
    suffixed name so they can never be mistaken for the pinned baseline.
    """
    from ..noc.traffic import run_packet_traffic

    def run():
        result = run_packet_traffic(
            NocConfig(width=8, height=8, topology=topology, arbiter=arbiter),
            "uniform",
            injection_rate=injection_rate,
            duration=duration,
            size_flits=1,
            seed=seed,
        )
        return result.sim_events, result.sim_cycles

    name = "packet_uniform"
    if (topology, arbiter) != ("mesh", "rr"):
        name = f"packet_uniform[{topology}/{arbiter}]"
    return _measure(name, run)


# ----------------------------------------------------------------------
# 3. Flit-level NoC
# ----------------------------------------------------------------------
def flit_uniform(
    packets: int = 1_200, seed: int = 11, engine: str = "event"
) -> WorkloadResult:
    """Uniform-random packets through the flit-level validation model."""
    from ..noc.engines import make_flit_network

    def run():
        sim = Simulator()
        net = make_flit_network(sim, NocConfig(width=8, height=8), engine)
        rng = make_rng(seed, "perf/flit")
        n = net.mesh.num_nodes
        for i in range(packets):
            src = rng.randrange(n)
            dst = rng.randrange(n)
            while dst == src:
                dst = rng.randrange(n)
            length = 8 if i % 4 == 0 else 1
            sim.schedule_at(
                i // 2,
                lambda s=src, d=dst, l=length: net.send(s, d, l),
            )
        sim.run(until=2_000_000)
        return sim.events_processed, sim.cycle

    return _measure("flit_uniform", run)


def flit_vector_uniform(
    packets: int = 1_200, seed: int = 11, engine: str = "vector"
) -> WorkloadResult:
    """Uniform-random streaming data packets, vector engine, 16x16 mesh.

    The shape plays to what a cycle-batched fabric amortizes: every
    packet is a full 8-flit data burst (maximum hop events per router
    tick) on a 16x16 mesh (4x the routers of ``flit_uniform``, so each
    stepped cycle carries 4x the work per Python-level dispatch).  The
    event engine pays per flit-hop callback either way, which is what
    the ``flit_uniform`` baseline comparison measures.
    """
    from ..noc.engines import make_flit_network

    def run():
        sim = Simulator()
        net = make_flit_network(sim, NocConfig(width=16, height=16), engine)
        rng = make_rng(seed, "perf/flit")
        n = net.mesh.num_nodes
        for i in range(packets):
            src = rng.randrange(n)
            dst = rng.randrange(n)
            while dst == src:
                dst = rng.randrange(n)
            sim.schedule_at(i // 2, net.send, src, dst, 8)
        sim.run(until=2_000_000)
        return sim.events_processed, sim.cycle

    return _measure("flit_vector_uniform", run)


def flit_big_mesh(
    packets: int = 4_800, seed: int = 11, engine: str = "vector"
) -> WorkloadResult:
    """Dense mixed-size traffic on a 16x16 mesh under the vector engine.

    The big-mesh scaling workload (ROADMAP: push iNPG's placement study
    past the paper's 8x8): ``flit_uniform``'s 8:1/1:1 length mix at 4x
    the packet count and 8 injections per cycle, exercising HOL blocking
    and VC contention at a mesh size the event engine makes painful.
    """
    from ..noc.engines import make_flit_network

    def run():
        sim = Simulator()
        net = make_flit_network(sim, NocConfig(width=16, height=16), engine)
        rng = make_rng(seed, "perf/flit")
        n = net.mesh.num_nodes
        for i in range(packets):
            src = rng.randrange(n)
            dst = rng.randrange(n)
            while dst == src:
                dst = rng.randrange(n)
            length = 8 if i % 4 == 0 else 1
            sim.schedule_at(i // 8, net.send, src, dst, length)
        sim.run(until=2_000_000)
        return sim.events_processed, sim.cycle

    return _measure("flit_big_mesh", run)


def _uniform_flit_plan(packets: int, nodes: int, per_cycle: int, seed: int):
    """The pinned uniform mixed-size drive as explicit (cycle, src, dst,
    length) rows — the same stream ``flit_big_mesh`` schedules, made
    reusable for engines driven standalone (``send_at``) instead of
    through the kernel."""
    rng = make_rng(seed, "perf/flit")
    plan = []
    for i in range(packets):
        src = rng.randrange(nodes)
        dst = rng.randrange(nodes)
        while dst == src:
            dst = rng.randrange(nodes)
        plan.append((i // per_cycle, src, dst, 8 if i % 4 == 0 else 1))
    return plan


def _run_flit_plan(width: int, plan, engine: str, shards: int):
    """Drive one engine through the plan; returns ``(events, cycles)``.

    The sharded engine runs the standalone plan-driven drive (its
    worker processes take no mid-run injections); every other engine
    goes through the kernel like ``flit_big_mesh``.  The engines are
    bit-exact and count events identically on both drives, so the
    pinned event totals are comparable across all legs.
    """
    if engine == "sharded":
        from ..noc.shardflit import ShardedFlitNetwork

        net = ShardedFlitNetwork(NocConfig(width=width, height=width), shards)
        for cycle, src, dst, length in plan:
            net.send_at(cycle, src, dst, length)
        net.run(until=2_000_000)
        return net.events_processed, net.cycle
    from ..noc.engines import make_flit_network

    sim = Simulator()
    net = make_flit_network(sim, NocConfig(width=width, height=width), engine)
    for cycle, src, dst, length in plan:
        sim.schedule_at(cycle, net.send, src, dst, length)
    sim.run(until=2_000_000)
    return sim.events_processed, sim.cycle


def flit_sharded_big_mesh(
    packets: int = 4_800, seed: int = 11, engine: str = "sharded",
    shards: int = 4,
) -> WorkloadResult:
    """``flit_big_mesh``'s exact drive under the sharded engine.

    Same 16x16 mesh, same mixed-size stream, same pinned event count —
    only the execution changes: four row-band worker processes under
    the cycle-batched boundary-exchange barrier.  On a multi-core host
    this is the scaling headline; on one core it measures the barrier
    overhead honestly (see DESIGN.md §16).
    """

    def run():
        return _run_flit_plan(
            16, _uniform_flit_plan(packets, 256, 8, seed), engine, shards
        )

    name = "flit_sharded_big_mesh"
    if engine == "sharded" and shards != 4:
        name = f"{name}[shards={shards}]"
    return _measure(name, run)


def flit_sharded_mesh32(
    packets: int = 12_000, seed: int = 11, engine: str = "sharded",
    shards: int = 4,
) -> WorkloadResult:
    """Dense mixed-size traffic on a 32x32 mesh, four shards.

    The scaling-study extreme (ROADMAP: placement studies past the
    paper's 8x8): 1024 routers per stepped cycle, so per-cycle work
    dwarfs the two barrier crossings and the boundary columns — the
    regime spatial sharding is built for.
    """

    def run():
        return _run_flit_plan(
            32, _uniform_flit_plan(packets, 1024, 16, seed), engine, shards
        )

    name = "flit_sharded_mesh32"
    if engine == "sharded" and shards != 4:
        name = f"{name}[shards={shards}]"
    return _measure(name, run)


# ----------------------------------------------------------------------
# 4. End-to-end figure regeneration
# ----------------------------------------------------------------------
def fig12_quick() -> WorkloadResult:
    """Cold (cache-disabled, single-process) ``fig12 --quick`` run."""
    from ..exec import Executor, NullCache
    from ..experiments import common, fig12_roi

    def run():
        previous = common.get_executor()
        executor = common.set_executor(Executor(jobs=1, cache=NullCache()))
        try:
            fig12_roi.run(common.ExperimentOptions(scale=0.5, quick=True))
            return executor.stats.sim_events, executor.stats.sim_cycles
        finally:
            common.set_executor(previous)

    return _measure("fig12_quick", run)


# ----------------------------------------------------------------------
# 5. Coherence-stress: directory invalidation storms
# ----------------------------------------------------------------------
def run_dir_invalidation_storm(rounds: int = 40, protocol: str = "moesi"):
    """Build and run the invalidation-storm system; returns ``(sim, net)``.

    Every round, all 64 cores load one block (becoming sharers), then a
    rotating winner RMWs it — the home fans out 63 Invs, collects 63
    InvAcks plus the AckCount, and the next round begins on commit.
    Exercised: directory transaction fan-out, sharer/ack bitmask
    bookkeeping, the message pool, and the L1 ack ledger.  Fully
    deterministic (no RNG at all).

    ``protocol`` selects the coherence variant (the first load of each
    round is a clean GetS miss, so MESI's Exclusive grant fires here).

    Shared with the golden-fingerprint tests, which wrap delivery to
    hash the packet stream.
    """
    from dataclasses import replace

    from ..config import SystemConfig
    from ..coherence.memsystem import MemorySystem
    from ..noc import Network

    sim = Simulator()
    cfg = replace(SystemConfig(), protocol=protocol)
    net = Network(sim, cfg.noc)
    memsys = MemorySystem(sim, cfg, net, model_dram=False)
    net.memsys = memsys
    num_cores = net.mesh.num_nodes
    addr = memsys.addr_for_home(0)
    state = {"round": 0, "outstanding": 0}

    def committed(_returned: int) -> None:
        state["round"] += 1
        if state["round"] < rounds:
            begin_round()

    def loaded(_value: int) -> None:
        state["outstanding"] -= 1
        if state["outstanding"] == 0:
            winner = state["round"] % num_cores
            memsys.rmw(winner, addr, lambda old: (old + 1, old), committed)

    def begin_round() -> None:
        state["outstanding"] = num_cores
        for core in range(num_cores):
            memsys.load(core, addr, loaded)

    begin_round()
    sim.run()
    return sim, net


def dir_invalidation_storm() -> WorkloadResult:
    """Directory invalidation fan-out stress (see the module docstring)."""

    def run():
        sim, _net = run_dir_invalidation_storm()
        return sim.events_processed, sim.cycle

    return _measure("dir_invalidation_storm", run)


# ----------------------------------------------------------------------
# 6. Coherence-stress: single-lock handoff chain
# ----------------------------------------------------------------------
def run_lock_handoff_chain(num_threads: int = 32, handoffs: int = 8):
    """Build and run the handoff-chain system; returns ``(system, result)``.

    One lock, ``num_threads`` threads, tiny parallel sections: the lock
    is handed around continuously, so the run is dominated by the
    coherence transactions and queue spin-lock sleep/wake traffic of
    lock transfer — the critical path the paper targets.  Deterministic
    (fixed item shapes; thread index only varies the parallel stagger).
    """
    from ..config import SystemConfig
    from ..system import ManyCoreSystem
    from ..workloads.generator import WorkItem, Workload

    cfg = SystemConfig()
    items = [
        [
            WorkItem(
                parallel_cycles=20 + 3 * (t % 7),
                lock_index=0,
                cs_cycles=30,
            )
            for _ in range(handoffs)
        ]
        for t in range(num_threads)
    ]
    workload = Workload(
        benchmark="lock_handoff_chain",
        num_threads=num_threads,
        num_locks=1,
        lock_homes=[27],
        items=items,
    )
    system = ManyCoreSystem(cfg, workload, primitive="qsl")
    result = system.run(max_cycles=50_000_000)
    return system, result


def lock_handoff_chain() -> WorkloadResult:
    """Single-lock handoff chain through the full CPU + coherence stack."""

    def run():
        system, _result = run_lock_handoff_chain()
        return system.sim.events_processed, system.sim.cycle

    return _measure("lock_handoff_chain", run)


#: name -> zero-argument workload runner.  ``fig12_quick`` is the
#: slow end-to-end one; ``--quick`` runs skip it.
WORKLOADS: Dict[str, Callable[[], WorkloadResult]] = {
    "kernel_chain": kernel_chain,
    "packet_uniform": packet_uniform,
    "flit_uniform": flit_uniform,
    "flit_vector_uniform": flit_vector_uniform,
    "flit_big_mesh": flit_big_mesh,
    "flit_sharded_big_mesh": flit_sharded_big_mesh,
    "flit_sharded_mesh32": flit_sharded_mesh32,
    "fig12_quick": fig12_quick,
    "dir_invalidation_storm": dir_invalidation_storm,
    "lock_handoff_chain": lock_handoff_chain,
}

#: the fast subset CI measures (pinned, seconds not minutes);
#: ``dir_invalidation_storm`` is the coherence-stress representative.
QUICK_WORKLOADS = (
    "kernel_chain",
    "packet_uniform",
    "flit_uniform",
    "flit_vector_uniform",
    "flit_sharded_big_mesh",
    "dir_invalidation_storm",
)

def with_flit_engine(engine: str) -> Dict[str, Callable[[], WorkloadResult]]:
    """A ``WORKLOADS`` view with every flit workload forced to ``engine``.

    The two engines are bit-exact, so the pinned event counts are
    unchanged — only the rate moves.  Used by ``inpg-perf
    --flit-engine`` for A/B runs; the committed gate numbers always use
    each workload's canonical engine.
    """
    out = dict(WORKLOADS)
    out["flit_uniform"] = lambda: flit_uniform(engine=engine)
    out["flit_vector_uniform"] = lambda: flit_vector_uniform(engine=engine)
    out["flit_big_mesh"] = lambda: flit_big_mesh(engine=engine)
    out["flit_sharded_big_mesh"] = lambda: flit_sharded_big_mesh(engine=engine)
    out["flit_sharded_mesh32"] = lambda: flit_sharded_mesh32(engine=engine)
    return out


def with_topology(
    topology: str, arbiter: str = "rr"
) -> Dict[str, Callable[[], WorkloadResult]]:
    """A ``WORKLOADS`` view with the packet workload on this fabric.

    Unlike :func:`with_flit_engine` (whose engines are bit-exact), a
    different topology or arbiter routes different work — event counts
    move — so this view is exploratory only and the result carries a
    ``packet_uniform[topology/arbiter]`` name that the pinned gate
    entries never match.  The flit workloads are mesh-only and stay on
    their canonical shapes.
    """
    out = dict(WORKLOADS)
    out["packet_uniform"] = lambda: packet_uniform(
        topology=topology, arbiter=arbiter
    )
    return out
