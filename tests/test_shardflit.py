"""Tests for the sharded flit engine (:mod:`repro.noc.shardflit`).

The sharded engine's contract is the vector engine's, spatially
partitioned: row-band shards, each advanced by its own worker process
under a cycle-batched boundary-exchange barrier, must replay the
single-process engines delivery for delivery — NumPy or pure Python,
one shard or many.  These tests pin that claim against the committed
flit golden, property-check it against the event reference on
randomized traffic, and cover the engine's structured refusals (shard
ranges, worker crashes, non-mesh topologies) and its place outside the
config axes: it is a standalone drive, never a full-system engine.
"""

import dataclasses
import os
import time

import pytest

from repro import SystemConfig
from repro.config import NocConfig
from repro.errors import ExecutorError, ShardWorkerError, UnsupportedTopology
from repro.exec import RunSpec
from repro.noc.engines import make_flit_network
from repro.noc.shardflit import ShardedFlitNetwork
from repro.perf.workloads import _uniform_flit_plan
from repro.sim import Simulator

from test_golden_determinism import GOLDEN_FLIT
from test_vecflit import (
    _fingerprint,
    _golden_plan,
    _random_plan,
    _run_cosim,
    parity_cases,
)


def _mesh_config(mesh):
    """A mesh config, square ``mesh`` or a ``(width, height)`` shape."""
    width, height = (mesh, mesh) if isinstance(mesh, int) else mesh
    return NocConfig(width=width, height=height)


def _run(mesh, plan, shards, force_python=False):
    """The worker drive (``send_at`` + one ``run``).  Returns the network
    and its trace in :func:`test_vecflit._run_cosim`'s shape."""
    net = ShardedFlitNetwork(
        _mesh_config(mesh), shards, force_python=force_python
    )
    for cycle, src, dst, length in plan:
        net.send_at(cycle, src, dst, length)
    net.run(until=2_000_000)
    stream = [
        (p.src, p.dst, p.length, p.injected_cycle, p.delivered_cycle)
        for p in net.delivered
    ]
    return net, (stream, net.cycle, net.events_processed)


def _golden(net):
    return (
        _fingerprint(net.delivered),
        net.events_processed,
        len(net.delivered),
    )


# ----------------------------------------------------------------------
# Vocabulary: a standalone drive, not a config axis
# ----------------------------------------------------------------------
class TestShardVocabulary:
    def test_shards_validated_against_mesh_height(self):
        cfg = NocConfig(width=8, height=8)
        assert ShardedFlitNetwork(cfg, 8).shards == 8
        with pytest.raises(ValueError, match="between 1 and the mesh"):
            ShardedFlitNetwork(cfg, 0)
        with pytest.raises(ValueError, match="between 1 and the mesh"):
            ShardedFlitNetwork(cfg, 9)

    def test_sharded_is_not_a_config_engine(self):
        """Neither a config nor the engine factory accepts the sharded
        engine; the config's refusal names the engines it allows."""
        with pytest.raises(ValueError) as excinfo:
            NocConfig(flit_engine="sharded")
        message = str(excinfo.value)
        assert "'sharded'" in message
        assert "'event'" in message and "'vector'" in message
        with pytest.raises(ValueError, match="unknown flit engine"):
            make_flit_network(Simulator(), NocConfig(), "sharded")

    def test_non_mesh_topology_refused_structurally(self):
        cfg = dataclasses.replace(
            NocConfig(width=4, height=4), topology="torus"
        )
        with pytest.raises(UnsupportedTopology) as excinfo:
            ShardedFlitNetwork(cfg, 2)
        assert excinfo.value.model == "flit/sharded"
        assert excinfo.value.topology == "torus"


# ----------------------------------------------------------------------
# Golden bit-exactness
# ----------------------------------------------------------------------
class TestShardedGolden:
    def test_single_shard_matches_pinned_golden(self):
        net, _trace = _run(8, _golden_plan(), shards=1)
        assert _golden(net) == GOLDEN_FLIT

    def test_pure_python_path_matches_pinned_golden(self):
        for shards in (1, 2, 4):
            net, _trace = _run(
                8, _golden_plan(), shards=shards, force_python=True
            )
            assert _golden(net) == GOLDEN_FLIT, f"shards={shards}"

    @pytest.mark.parametrize("shards", (2, 4))
    def test_worker_processes_match_pinned_golden(self, shards):
        net, _trace = _run(8, _golden_plan(), shards=shards)
        assert _golden(net) == GOLDEN_FLIT
        counters = net.shard_counters()
        assert len(counters) == shards
        assert sum(c["events"] for c in counters) == net.events_processed

    def test_worker_runs_replay_each_other(self):
        """Back-to-back multiprocess runs are bit-identical."""
        _net1, first = _run(8, _golden_plan(), shards=2)
        _net2, second = _run(8, _golden_plan(), shards=2)
        assert first == second

    def test_multiprocess_run_is_one_shot(self):
        net, _trace = _run(8, _golden_plan(packets=40), 2)
        with pytest.raises(RuntimeError, match="one-shot"):
            net.run(until=2_000_000)

    def test_multiprocess_drive_is_plan_only(self):
        """No kernel-stepper surface: injections queue with send_at."""
        net = ShardedFlitNetwork(_mesh_config(8), 2)
        for name in ("send", "next_cycle", "advance_n"):
            assert not hasattr(net, name), name


# ----------------------------------------------------------------------
# Randomized parity against the event reference
# ----------------------------------------------------------------------
class TestShardedParity:
    @pytest.mark.parametrize("seed,shape", parity_cases(range(5)))
    def test_event_vs_sharded_parity(self, seed, shape):
        """Seed and shape sweep: the worker drive replays the event
        reference exactly — same stream, same final cycle, same event
        count — at every shard count of (1, 2, 4) the mesh height
        allows."""
        shape, plan = _random_plan(seed, shape)
        reference = _run_cosim("event", shape, plan)
        for shards in (k for k in (1, 2, 4) if k <= shape[1]):
            _net, trace = _run(shape, plan, shards)
            assert trace == reference, f"seed={seed} shards={shards}"

    def test_boundary_counters_are_symmetric(self):
        """Every flit shard i ships down is a credit shard i+1 ships up
        (and vice versa): the workers' seam accounting must agree."""
        net, _trace = _run(8, _golden_plan(), shards=2)
        lo, hi = net.shard_counters()
        assert lo["boundary_flits"][1] == hi["boundary_credits"][0]
        assert hi["boundary_flits"][0] == lo["boundary_credits"][1]
        assert lo["boundary_flits"][1] > 0


# ----------------------------------------------------------------------
# Worker failure: structured propagation, never a hang
# ----------------------------------------------------------------------
class TestWorkerFailure:
    def test_worker_crash_raises_structured_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_TEST_CRASH", "1")
        net = ShardedFlitNetwork(_mesh_config(8), 4)
        for cycle, src, dst, length in _golden_plan(packets=80):
            net.send_at(cycle, src, dst, length)
        with pytest.raises(ShardWorkerError) as excinfo:
            net.run(until=2_000_000)
        err = excinfo.value
        assert err.shard == 1
        assert err.shards == 4
        assert err.worker_traceback  # the formatted trace crossed the pipe
        # executor-level fencing catches it
        assert isinstance(err, ExecutorError)


# ----------------------------------------------------------------------
# Addressing: removing the shards field moved no cache address
# ----------------------------------------------------------------------
class TestShardAddressing:
    def test_default_shards_keeps_spec_fingerprints(self):
        """Flit-level specs keep the addresses they had while
        ``NocConfig.shards`` existed and its default was elided."""

        def spec(**noc_kw):
            return RunSpec(
                benchmark="bwaves",
                config=SystemConfig(noc=NocConfig(flit_level=True, **noc_kw)),
            )

        assert spec().fingerprint == (
            "bdd1e7eac225756b1179a0571a48e769ecde7859a151b5b4872bef1e8a999028"
        )
        assert spec(flit_engine="vector").fingerprint == (
            "4931cf071d686508e004ff9d3359fe387f3c758ca027278a74c35743763c730f"
        )
        assert "shards" not in spec().canonical_payload()["config"]["noc"]


# ----------------------------------------------------------------------
# The big-mesh drive: the sharded workers do the vector engine's work
# ----------------------------------------------------------------------
def _big_mesh_plan(packets=4_800):
    """The pinned 16x16 big-mesh stream (``flit_big_mesh`` in
    ``test_golden_determinism.GOLDEN_PERF_EVENTS``)."""
    return _uniform_flit_plan(packets, 256, 8, 11)


class TestPerfIntegration:
    def test_sharded_workload_pins_the_big_mesh_event_count(self):
        """Two worker shards simulate the kernel-driven vector engine's
        exact big-mesh stream: same events, same final cycle (a short
        plan here; the full count is pinned in
        ``test_golden_determinism``)."""
        plan = _big_mesh_plan(packets=400)
        _stream, cycles, events = _run_cosim("vector", (16, 16), plan)
        _net, (_stream, sharded_cycles, sharded_events) = _run(16, plan, 2)
        assert (sharded_events, sharded_cycles) == (events, cycles)


# ----------------------------------------------------------------------
# Scaling (only meaningful with real parallel hardware)
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 4,
    reason="speedup needs >=4 usable CPUs; fewer only measures "
           "barrier overhead",
)
def test_four_shards_beat_single_process_vector():
    """The acceptance scaling bar: >=1.8x on the big-mesh drive."""
    plan = _big_mesh_plan()
    t0 = time.perf_counter()
    _stream, cycles, events = _run_cosim("vector", (16, 16), plan)
    t1 = time.perf_counter()
    _net, (_stream, sharded_cycles, sharded_events) = _run(16, plan, 4)
    t2 = time.perf_counter()
    assert (sharded_events, sharded_cycles) == (events, cycles)
    assert t2 - t1 < (t1 - t0) / 1.8
