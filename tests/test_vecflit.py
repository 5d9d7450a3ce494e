"""Tests for the vectorized flit engine (:mod:`repro.noc.vecflit`).

The vector engine's whole claim is *bit-exactness*: under the kernel it
must replay the event-driven reference (:mod:`repro.noc.flitsim`)
delivery for delivery, whether a send is scheduled on the kernel or
made directly between ``sim.run(until=...)`` slices.  These tests pin
that claim against the committed flit golden, property-check it on
randomized traffic, and cover the engine's refusals (multi-cycle links,
unknown engine names, and a missing NumPy).  Without NumPy only that
refusal and the event engine's golden cases run.
"""

import hashlib
import sys
from collections import defaultdict

import pytest

from repro.config import NocConfig
from repro.noc import make_flit_network
from repro.perf.workloads import _uniform_flit_plan
from repro.sim import Simulator, make_rng

from test_golden_determinism import GOLDEN_FLIT

try:
    import numpy
except ImportError:
    numpy = None

#: every test that runs the engine; without NumPy it is refused
needs_numpy = pytest.mark.skipif(numpy is None,
                                 reason="the vector flit engine needs NumPy")


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


def _drive(engine, shape, plan, direct=()):
    """Drive one engine on a ``(width, height)`` mesh through the kernel
    until its traffic drains; return ``(sim, net)``.  ``plan`` rows are
    scheduled on the kernel up front; each ``direct`` row ``(cycle,
    src, dst, length)`` is sent directly once ``sim.run(until=cycle)``
    has paused there."""
    sim = Simulator()
    net = make_flit_network(
        sim, NocConfig(width=shape[0], height=shape[1]), engine)
    for cycle, src, dst, length in plan:
        sim.schedule_at(cycle, net.send, src, dst, length)
    by_cycle = defaultdict(list)
    for cycle, src, dst, length in direct:
        by_cycle[cycle].append((src, dst, length))
    for cycle in sorted(by_cycle):
        sim.run(until=cycle)
        for src, dst, length in by_cycle[cycle]:
            net.send(src, dst, length)
    sim.run(until=2_000_000)
    return sim, net


def _trace(sim, net):
    """A drained drive's observable trace: delivered stream, final
    cycle, events processed."""
    stream = [
        (p.src, p.dst, p.length, p.injected_cycle, p.delivered_cycle)
        for p in net.delivered
    ]
    return stream, sim.cycle, sim.events_processed


def _run_cosim(engine, shape, plan, direct=()):
    """The observable trace of :func:`_drive` on one engine."""
    return _trace(*_drive(engine, shape, plan, direct))


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
    """The vector engine reproduces the committed flit golden, as the
    event engine does."""

    @needs_numpy
    def test_cosim_drive_matches_pinned_golden(self):
        sim = Simulator()
        net = make_flit_network(sim, NocConfig(width=8, height=8), "vector")
        for cycle, src, dst, length in _golden_plan():
            sim.schedule_at(cycle, net.send, src, dst, length)
        sim.run(until=2_000_000)
        assert (
            _fingerprint(net.delivered),
            sim.events_processed,
            len(net.delivered),
        ) == GOLDEN_FLIT

    @pytest.mark.parametrize("engine", [
        pytest.param("vector", id="array", marks=needs_numpy),
        pytest.param("event", id="event"),
    ])
    @pytest.mark.parametrize("drive", ["cosim", "sliced"])
    def test_each_step_path_matches_pinned_golden(self, drive, engine):
        """Both step paths replay the golden — the vector engine's array
        phases, one whole-mesh step a cycle, and the event engine's
        per-router events — whether the kernel runs the plan in one
        ``sim.run`` (cosim) or pauses at each of its injection cycles
        (sliced), so that the step after each pause starts a new run."""
        sim = Simulator()
        net = make_flit_network(sim, NocConfig(width=8, height=8), engine)
        plan = _golden_plan()
        for cycle, src, dst, length in plan:
            sim.schedule_at(cycle, net.send, src, dst, length)
        if drive == "sliced":
            for cycle in sorted({row[0] for row in plan}):
                sim.run(until=cycle)
        sim.run(until=2_000_000)
        assert (_fingerprint(net.delivered), sim.events_processed,
                len(net.delivered)) == GOLDEN_FLIT


@needs_numpy
class TestEngineParity:
    """Property test: event and vector engines are indistinguishable
    (delivered stream, final cycle, event count) on randomized traffic."""

    @pytest.mark.parametrize("seed,shape", parity_cases(range(5)))
    def test_random_traffic_parity(self, seed, shape):
        shape, plan = _random_plan(seed, shape)
        assert _run_cosim("event", shape, plan) == \
            _run_cosim("vector", shape, plan)

    @pytest.mark.parametrize("seed,shape", parity_cases(range(5)))
    def test_array_path_parity(self, seed, shape):
        """The same sweep, read on the array phases' columns as well:
        the vector run replays the reference, and once its traffic has
        drained it leaves the engine at rest — no flit buffered, queued
        or streaming, every credit returned, no VC active or claimed,
        no candidate mask set, no tick or bucket pending."""
        from repro.noc.vecflit import _NO_TICK

        shape, plan = _random_plan(seed, shape)
        sim, net = _drive("vector", shape, plan)
        assert _trace(sim, net) == _run_cosim("event", shape, plan)
        A = net._arrays
        assert not (A.cnt.any() or A.buffered.any() or A.subtot.any())
        assert not (A.active.any() or A.claimed.any())
        assert not (A.ci.any() or A.ca.any())
        assert (A.credits == net.cap).all()
        assert (A.tick_key_by_r == _NO_TICK).all()
        assert (A.thr_next == _NO_TICK).all()
        assert not net._buckets
        assert not any(net._iqueue.values())
        assert not any(net._streaming.values())

    @pytest.mark.parametrize("seed", range(10))
    def test_direct_send_parity(self, seed):
        """Every other packet is sent directly between ``sim.run``
        slices, after its cycle's step has run, while the rest stay
        scheduled on the kernel: the post-step branch of the vector
        engine's send keys each above that step's own events."""
        shape, plan = _random_plan(seed)
        scheduled, direct = plan[::2], plan[1::2]
        assert _run_cosim("event", shape, scheduled, direct) == \
            _run_cosim("vector", shape, scheduled, direct)


class TestWithoutNumpy:
    def test_vector_engine_is_refused(self):
        """With NumPy unimportable, the vector engine's module raises an
        ImportError that names NumPy and the event engine, and the
        event engine still runs the drive."""
        import repro.noc as noc

        saved = {name: sys.modules.pop(name)
                 for name in ("numpy", "repro.noc.vecflit")
                 if name in sys.modules}
        bound = vars(noc).pop("vecflit", None)
        sys.modules["numpy"] = None  # makes ``import numpy`` fail
        cfg = NocConfig(width=4, height=4)
        try:
            with pytest.raises(ImportError) as excinfo:
                make_flit_network(Simulator(), cfg, "vector")
            message = str(excinfo.value)
            assert "needs NumPy" in message
            assert "make_flit_network(sim, config, 'event')" in message
            assert "repro.noc.vecflit" not in sys.modules
            sim = Simulator()
            net = make_flit_network(sim, cfg, "event")
            net.send(0, 15, 8)
            sim.run(until=100_000)
            assert len(net.delivered) == 1
        finally:
            del sys.modules["numpy"]
            sys.modules.update(saved)
            if bound is not None:
                noc.vecflit = bound


@needs_numpy
class TestEngineGuards:
    def test_multi_cycle_links_refused(self):
        with pytest.raises(ValueError, match="link_cycles"):
            make_flit_network(Simulator(),
                              NocConfig(width=4, height=4, link_cycles=2),
                              "vector")

    def test_factory_selects_engines(self):
        from repro.noc.flitsim import FlitNetwork
        from repro.noc.vecflit import VectorFlitNetwork

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
