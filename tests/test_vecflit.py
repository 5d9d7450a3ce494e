"""Tests for the vectorized flit engine (:mod:`repro.noc.vecflit`).

The vector engine's whole claim is *bit-exactness*: it must replay the
event-driven reference (:mod:`repro.noc.flitsim`) delivery for delivery
under every drive — standalone ``send_at``/``run``, kernel co-simulation
via ``schedule_at``, NumPy and pure-Python paths.  These tests pin that
claim against the committed flit golden, property-check it on randomized
traffic, and cover the engine's refusals (multi-cycle links, router/link
fault sites) and the system-level selection and tracing rules.
"""

import contextlib
import hashlib
import sys

import pytest

from repro import ManyCoreSystem, SystemConfig, single_lock_workload
from repro.config import FLIT_ENGINES, NocConfig
from repro.errors import ReproError, UnsupportedFaultSite, UnsupportedTrace
from repro.faults import FaultPlan
from repro.faults.injector import FaultInjector
from repro.noc import make_flit_network
from repro.noc.flitsim import FlitNetwork
from repro.noc.vecflit import VectorFlitFabric, VectorFlitNetwork
from repro.perf.workloads import _uniform_flit_plan
from repro.sim import Simulator, make_rng

from test_golden_determinism import GOLDEN_FLIT


def _golden_plan(packets=1200):
    """The committed flit-golden drive: (cycle, src, dst, length) rows."""
    return _uniform_flit_plan(packets, 64, 2, 11)


def _fingerprint(delivered):
    digest = hashlib.md5()
    for p in delivered:
        digest.update(
            b"%d,%d,%d,%d,%d;"
            % (p.src, p.dst, p.length, p.injected_cycle, p.delivered_cycle)
        )
    return digest.hexdigest()


def _run_cosim(engine, shape, plan, force_python=False):
    """Drive one engine on a ``(width, height)`` mesh through the kernel;
    return its observable trace."""
    sim = Simulator()
    cfg = NocConfig(width=shape[0], height=shape[1])
    if engine == "event":
        net = FlitNetwork(sim, cfg)
    else:
        net = VectorFlitNetwork(cfg, sim=sim, force_python=force_python)
    for cycle, src, dst, length in plan:
        sim.schedule_at(cycle, net.send, src, dst, length)
    sim.run(until=2_000_000)
    stream = [
        (p.src, p.dst, p.length, p.injected_cycle, p.delivered_cycle)
        for p in net.delivered
    ]
    return stream, sim.cycle, sim.events_processed


#: mesh shapes (width, height) the parity tests drive besides the
#: seed's own square mesh (``None``): non-square, and both line meshes
SHAPES = (None, (6, 3), (3, 6), (1, 5), (5, 1))


def parity_cases(seeds):
    """``(seed, shape)`` parameters over every shape in SHAPES; a square
    case keeps its bare seed as its id."""
    return [
        pytest.param(seed, shape, id=str(seed) if shape is None
                     else f"{shape[0]}x{shape[1]}-{seed}")
        for shape in SHAPES for seed in seeds
    ]


def _random_plan(seed, shape=None):
    """Randomized bursty traffic: clustered injects, mixed lengths.
    Returns ``(shape, plan)``; without a shape, the mesh is 4x4 or 8x8
    by seed."""
    rng = make_rng(seed, "test/vecflit-parity")
    if shape is None:
        mesh = 4 if seed % 2 == 0 else 8
        shape = (mesh, mesh)
    nodes = shape[0] * shape[1]
    plan = []
    for _ in range(rng.randrange(120, 260)):
        src = rng.randrange(nodes)
        dst = rng.randrange(nodes)
        while dst == src:
            dst = rng.randrange(nodes)
        plan.append(
            (rng.randrange(0, 80), src, dst, rng.randrange(1, 9))
        )
    return shape, plan


class TestVectorGolden:
    """The vector engine reproduces the committed flit golden."""

    def test_cosim_drive_matches_pinned_golden(self):
        sim = Simulator()
        net = VectorFlitNetwork(NocConfig(width=8, height=8), sim=sim)
        for cycle, src, dst, length in _golden_plan():
            sim.schedule_at(cycle, net.send, src, dst, length)
        sim.run(until=2_000_000)
        assert (
            _fingerprint(net.delivered),
            sim.events_processed,
            len(net.delivered),
        ) == GOLDEN_FLIT

    def test_standalone_drive_matches_pinned_golden(self):
        net = VectorFlitNetwork(NocConfig(width=8, height=8))
        for cycle, src, dst, length in _golden_plan():
            net.send_at(cycle, src, dst, length)
        net.run(until=2_000_000)
        assert (
            _fingerprint(net.delivered),
            net.events_processed,
            len(net.delivered),
        ) == GOLDEN_FLIT

    def test_pure_python_path_matches_pinned_golden(self):
        sim = Simulator()
        net = VectorFlitNetwork(
            NocConfig(width=8, height=8), sim=sim, force_python=True
        )
        for cycle, src, dst, length in _golden_plan():
            sim.schedule_at(cycle, net.send, src, dst, length)
        sim.run(until=2_000_000)
        assert (
            _fingerprint(net.delivered),
            sim.events_processed,
            len(net.delivered),
        ) == GOLDEN_FLIT


class TestEngineParity:
    """Property test: event and vector engines are indistinguishable
    (delivered stream, final cycle, event count) on randomized traffic."""

    @pytest.mark.parametrize("seed,shape", parity_cases(range(5)))
    def test_random_traffic_parity(self, seed, shape):
        shape, plan = _random_plan(seed, shape)
        assert _run_cosim("event", shape, plan) == \
            _run_cosim("vector", shape, plan)

    @pytest.mark.parametrize("seed,shape", parity_cases([0, 3]))
    def test_pure_python_parity(self, seed, shape):
        """The no-NumPy fallback is the same engine, not an approximation."""
        shape, plan = _random_plan(seed, shape)
        assert _run_cosim("event", shape, plan) == \
            _run_cosim("vector", shape, plan, force_python=True)


@contextlib.contextmanager
def vecflit_without_numpy():
    """Import a second copy of :mod:`repro.noc.vecflit` with NumPy
    blocked and install it in ``sys.modules`` while the block runs.  The
    original module comes back on exit, so the classes every other test
    imported stay the ones the program builds."""
    import builtins
    import importlib

    import repro.noc as noc
    import repro.noc.vecflit as original

    real_import = builtins.__import__

    def blocked(name, *args, **kwargs):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"blocked for test: {name}")
        return real_import(name, *args, **kwargs)

    saved_numpy = sys.modules.pop("numpy", None)
    del sys.modules["repro.noc.vecflit"]
    builtins.__import__ = blocked
    try:
        yield importlib.import_module("repro.noc.vecflit")
    finally:
        builtins.__import__ = real_import
        if saved_numpy is not None:
            sys.modules["numpy"] = saved_numpy
        sys.modules["repro.noc.vecflit"] = original
        noc.vecflit = original


class TestImportShim:
    def test_engine_works_without_numpy(self):
        """With NumPy import-blocked, HAS_NUMPY drops to False and the
        engine still runs (pure-Python fallback)."""
        with vecflit_without_numpy() as mod:
            assert mod.HAS_NUMPY is False
            net = mod.VectorFlitNetwork(NocConfig(width=4, height=4))
            net.send_at(0, 0, 15, 8)
            net.send_at(1, 5, 3, 1)
            net.run(until=100_000)
            assert len(net.delivered) == 2
        assert sys.modules["repro.noc.vecflit"].VectorFlitNetwork \
            is VectorFlitNetwork


class TestEngineGuards:
    def test_multi_cycle_links_refused(self):
        with pytest.raises(ValueError, match="link_cycles"):
            VectorFlitNetwork(NocConfig(width=4, height=4, link_cycles=2))

    def test_factory_selects_engines(self):
        sim = Simulator()
        cfg = NocConfig(width=4, height=4)
        assert isinstance(
            make_flit_network(sim, cfg, "event"), FlitNetwork
        )
        assert isinstance(
            make_flit_network(Simulator(), cfg, "vector"), VectorFlitNetwork
        )
        with pytest.raises(ValueError, match="unknown flit engine"):
            make_flit_network(sim, cfg, "bogus")

    def test_config_validates_engine_axis(self):
        assert NocConfig(flit_engine="vector").flit_engine == "vector"
        with pytest.raises(ValueError, match="flit engine"):
            NocConfig(flit_engine="simd")
        assert set(FLIT_ENGINES) == {"event", "vector"}

    def test_default_engine_keeps_spec_fingerprints(self):
        """Spelling out flit_engine='event' must not re-address cached
        results; 'vector' is a different run and must."""
        from repro.exec import RunSpec

        def spec(**noc_kw):
            return RunSpec(
                benchmark="bwaves",
                config=SystemConfig(noc=NocConfig(flit_level=True, **noc_kw)),
            )

        assert spec().fingerprint == spec(flit_engine="event").fingerprint
        assert spec().fingerprint != spec(flit_engine="vector").fingerprint


def _lock_workload():
    return single_lock_workload(
        8, home_node=5, cs_per_thread=2, cs_cycles=50, parallel_cycles=150
    )


def _flit_system_config(engine):
    return SystemConfig(
        noc=NocConfig(width=4, height=4, flit_level=True,
                      flit_engine=engine),
        num_threads=16,
    )


class TestVectorFullSystem:
    def test_vector_fabric_is_selected(self):
        system = ManyCoreSystem(
            _flit_system_config("vector"), _lock_workload(), primitive="mcs"
        )
        assert isinstance(system.network, VectorFlitFabric)

    def test_counters_only_observation_keeps_the_vector_engine(self):
        """Observing counters runs the vector engine, and the run is the
        unobserved vector run."""
        from repro.obs import Observation

        observe = Observation(trace=False)
        system = ManyCoreSystem(
            _flit_system_config("vector"), _lock_workload(),
            primitive="mcs", observe=observe,
        )
        assert isinstance(system.network, VectorFlitFabric)
        observed = system.run(max_cycles=20_000_000)
        plain = ManyCoreSystem(
            _flit_system_config("vector"), _lock_workload(), primitive="mcs"
        ).run(max_cycles=20_000_000)
        assert (observed.roi_cycles, observed.extra["sim_events"]) == \
            (plain.roi_cycles, plain.extra["sim_events"])
        counters = observe.counters()
        assert counters["noc/packets_delivered"] == plain.network_packets

    def test_traced_run_is_refused_not_switched(self):
        """Tracing has no per-event site inside a batched cycle, so a
        traced vector run raises a structured error naming the engine
        instead of running another engine's schedule."""
        from repro.obs import Observation

        with pytest.raises(UnsupportedTrace) as excinfo:
            ManyCoreSystem(
                _flit_system_config("vector"), _lock_workload(),
                primitive="mcs", observe=Observation(label="t"),
            )
        assert excinfo.value.model == "flit/vector"
        assert isinstance(excinfo.value, ReproError)

    def test_full_system_is_deterministic(self):
        """Vector full-system runs are a pure function of their config:
        two fresh builds replay each other exactly."""

        def run():
            return ManyCoreSystem(
                _flit_system_config("vector"), _lock_workload(),
                primitive="mcs",
            ).run(max_cycles=20_000_000)

        first, second = run(), run()
        assert first.roi_cycles == second.roi_cycles
        assert first.network_packets == second.network_packets
        assert first.extra["sim_events"] == second.extra["sim_events"]

    def test_full_system_agrees_with_event_engine(self):
        """Full-system runs complete the same work on both engines.

        Network-level drives are bit-exact (the golden tests above), but
        a full system feeds deliveries back into injections *mid-cycle*:
        the event engine interleaves those per tick while the batched
        engine orders them per phase, so the two executions are distinct
        valid schedules — close, not identical (see DESIGN.md §13)."""
        event = ManyCoreSystem(
            _flit_system_config("event"), _lock_workload(), primitive="mcs"
        ).run(max_cycles=20_000_000)
        vector = ManyCoreSystem(
            _flit_system_config("vector"), _lock_workload(), primitive="mcs"
        ).run(max_cycles=20_000_000)
        assert vector.cs_completed == event.cs_completed == 16
        assert abs(vector.roi_cycles - event.roi_cycles) \
            <= 0.15 * event.roi_cycles
        assert abs(vector.network_mean_latency - event.network_mean_latency) \
            <= 0.25 * event.network_mean_latency


class TestVectorFaults:
    def test_router_sites_refused_structurally(self):
        fabric = VectorFlitFabric(Simulator(), NocConfig(width=4, height=4))
        plan = FaultPlan.parse("drop:1@router:3", seed=1)
        with pytest.raises(UnsupportedFaultSite) as excinfo:
            FaultInjector(plan).install(fabric)
        assert excinfo.value.model == "flit/vector"
        assert excinfo.value.site_kinds == ("router",)

    def test_inject_sites_apply(self):
        """Injection-site faults work as a filter in front of the fabric:
        a drop-everything plan delivers nothing."""
        sim = Simulator()
        fabric = VectorFlitFabric(sim, NocConfig(width=4, height=4))
        for n in range(16):
            fabric.register_endpoint(n, lambda p: None)
        FaultInjector(FaultPlan.parse("drop:1@inject", seed=1)).install(fabric)
        for src in range(4):
            fabric.send(src, 15, payload="x", size_flits=2)
        sim.run(until=100_000)
        assert fabric.packets_injected == 4
        assert fabric.packets_dropped == 4
        assert fabric.packets_delivered == 0
        assert fabric.in_flight == 0
