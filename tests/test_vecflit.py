"""Tests for the vectorized flit engine (:mod:`repro.noc.vecflit`).

The vector engine's whole claim is *bit-exactness*: it must replay the
event-driven reference (:mod:`repro.noc.flitsim`) delivery for delivery
under every drive — standalone ``send_at``/``run``, kernel-scheduled
``send`` via ``schedule_at``, NumPy and pure-Python paths.  These tests
pin that claim against the committed flit golden, property-check it on
randomized traffic, and cover the engine's refusals (multi-cycle links,
unknown engine names).
"""

import contextlib
import hashlib
import sys

import pytest

from repro.config import NocConfig
from repro.noc import make_flit_network
from repro.noc.flitsim import FlitNetwork
from repro.noc import vecflit
from repro.noc.vecflit import HAS_NUMPY, VectorFlitNetwork
from repro.perf.workloads import _uniform_flit_plan
from repro.sim import Simulator, make_rng

from test_golden_determinism import GOLDEN_FLIT


#: ``_ARRAY_TICKS`` values that put every step on one path: the array
#: phases (any step qualifies) or the loops (no step does)
STEP_PATHS = {"array": 0, "loop": 1 << 62}


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


def _run_plan_drive(shape, plan):
    """The plan drive (``send_at`` + one ``run``) on a ``(width,
    height)`` mesh; returns its trace in :func:`_run_cosim`'s shape."""
    net = VectorFlitNetwork(NocConfig(width=shape[0], height=shape[1]))
    for cycle, src, dst, length in plan:
        net.send_at(cycle, src, dst, length)
    net.run(until=2_000_000)
    stream = [
        (p.src, p.dst, p.length, p.injected_cycle, p.delivered_cycle)
        for p in net.delivered
    ]
    return stream, net.cycle, net.events_processed


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

    @pytest.mark.parametrize("path", sorted(STEP_PATHS))
    @pytest.mark.parametrize("drive", ["cosim", "standalone"])
    def test_each_step_path_matches_pinned_golden(self, drive, path,
                                                  monkeypatch):
        """Both sides of the array threshold replay the golden: every
        step on the array phases, and every step on the loops."""
        monkeypatch.setattr(vecflit, "_ARRAY_TICKS", STEP_PATHS[path])
        cfg = NocConfig(width=8, height=8)
        if drive == "cosim":
            sim = Simulator()
            net = VectorFlitNetwork(cfg, sim=sim)
            for cycle, src, dst, length in _golden_plan():
                sim.schedule_at(cycle, net.send, src, dst, length)
            sim.run(until=2_000_000)
            events = sim.events_processed
        else:
            net = VectorFlitNetwork(cfg)
            for cycle, src, dst, length in _golden_plan():
                net.send_at(cycle, src, dst, length)
            net.run(until=2_000_000)
            events = net.events_processed
        assert (_fingerprint(net.delivered), events,
                len(net.delivered)) == GOLDEN_FLIT
        # the array phases ran, on NumPy's columns, iff they were forced
        assert (net._arrays is not None) == (path == "array" and HAS_NUMPY)


class TestEngineParity:
    """Property test: event and vector engines are indistinguishable
    (delivered stream, final cycle, event count) on randomized traffic."""

    @pytest.mark.parametrize("seed,shape", parity_cases(range(5)))
    def test_random_traffic_parity(self, seed, shape):
        shape, plan = _random_plan(seed, shape)
        assert _run_cosim("event", shape, plan) == \
            _run_cosim("vector", shape, plan)

    @pytest.mark.skipif(not HAS_NUMPY, reason="the array phases need NumPy")
    @pytest.mark.parametrize("seed,shape", parity_cases(range(5)))
    def test_array_path_parity(self, seed, shape, monkeypatch):
        """The same sweep with every vector step on the array phases
        (the meshes above are too small to reach the threshold)."""
        monkeypatch.setattr(vecflit, "_ARRAY_TICKS", STEP_PATHS["array"])
        shape, plan = _random_plan(seed, shape)
        assert _run_cosim("event", shape, plan) == \
            _run_cosim("vector", shape, plan)

    @pytest.mark.parametrize("seed,shape", parity_cases([0, 3]))
    def test_pure_python_parity(self, seed, shape):
        """The no-NumPy fallback is the same engine, not an approximation."""
        shape, plan = _random_plan(seed, shape)
        assert _run_cosim("event", shape, plan) == \
            _run_cosim("vector", shape, plan, force_python=True)

    @pytest.mark.parametrize("seed,shape", parity_cases(range(5)))
    def test_plan_drive_parity(self, seed, shape, monkeypatch):
        """Seed and shape sweep: the plan drive replays the
        kernel-driven event reference exactly (same stream, same final
        cycle, same event count) with every step on the array phases
        and with every step on the loops."""
        shape, plan = _random_plan(seed, shape)
        reference = _run_cosim("event", shape, plan)
        for path, ticks in sorted(STEP_PATHS.items()):
            monkeypatch.setattr(vecflit, "_ARRAY_TICKS", ticks)
            assert _run_plan_drive(shape, plan) == reference, \
                f"seed={seed} {path}"


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
