"""Tests for the sharded flit engine (:mod:`repro.noc.shardflit`).

The sharded engine's contract is the vector engine's, spatially
partitioned: row-band shards advanced under a cycle-batched
boundary-exchange barrier must replay the single-process engines
delivery for delivery — in-process or across worker processes, NumPy or
pure Python, one shard or many.  These tests pin that claim against the
committed flit golden, property-check it against the event reference on
randomized traffic, and cover the engine's structured refusals (engine
mismatches, traced multi-shard runs, worker crashes, non-mesh
topologies, router/link fault sites).
"""

import dataclasses
import json
import os

import pytest

from repro import ManyCoreSystem, SystemConfig, single_lock_workload
from repro.config import NocConfig
from repro.errors import (
    ExecutorError,
    ShardConfigError,
    ShardWorkerError,
    UnsupportedFaultSite,
    UnsupportedTopology,
)
from repro.exec import RunSpec
from repro.faults import FaultPlan
from repro.faults.injector import FaultInjector
from repro.noc.shardflit import ShardedFlitFabric, ShardedFlitNetwork
from repro.noc.engines import make_flit_network
from repro.sim import Simulator

from test_golden_determinism import GOLDEN_FLIT
from test_vecflit import (
    _fingerprint,
    _golden_plan,
    _random_plan,
    _run_cosim,
    parity_cases,
)


def _sharded_config(mesh, shards):
    """A sharded-engine config on a square ``mesh`` or a ``(width,
    height)`` shape."""
    width, height = (mesh, mesh) if isinstance(mesh, int) else mesh
    return NocConfig(
        width=width, height=height, flit_engine="sharded", shards=shards
    )


def _run_standalone(mesh, plan, shards, force_python=False,
                    use_processes=None):
    """Plan-driven drive (``send_at``/``run``); returns the trace."""
    net = ShardedFlitNetwork(
        _sharded_config(mesh, shards),
        force_python=force_python, use_processes=use_processes,
    )
    for cycle, src, dst, length in plan:
        net.send_at(cycle, src, dst, length)
    net.run(until=2_000_000)
    stream = [
        (p.src, p.dst, p.length, p.injected_cycle, p.delivered_cycle)
        for p in net.delivered
    ]
    return net, stream


def _run_sharded_cosim(mesh, plan, shards, force_python=False):
    """Kernel co-sim drive (``schedule_at``); returns the trace."""
    sim = Simulator()
    net = ShardedFlitNetwork(
        _sharded_config(mesh, shards), sim=sim, force_python=force_python
    )
    for cycle, src, dst, length in plan:
        sim.schedule_at(cycle, net.send, src, dst, length)
    sim.run(until=2_000_000)
    stream = [
        (p.src, p.dst, p.length, p.injected_cycle, p.delivered_cycle)
        for p in net.delivered
    ]
    return stream, sim.cycle, sim.events_processed


# ----------------------------------------------------------------------
# Vocabulary: the shards axis and its engine coupling
# ----------------------------------------------------------------------
class TestShardVocabulary:
    def test_shards_validated_against_mesh_height(self):
        assert NocConfig(flit_engine="sharded", shards=8).shards == 8
        with pytest.raises(ValueError, match="between 1 and the mesh"):
            NocConfig(flit_engine="sharded", shards=0)
        with pytest.raises(ValueError, match="between 1 and the mesh"):
            NocConfig(width=8, height=8, flit_engine="sharded", shards=9)

    def test_multi_shard_requires_the_sharded_engine(self):
        for engine in ("event", "vector"):
            with pytest.raises(ValueError, match="requires flit_engine"):
                NocConfig(flit_engine=engine, shards=2)

    def test_factory_builds_sharded_network(self):
        net = make_flit_network(
            Simulator(), NocConfig(width=4, height=4), "sharded"
        )
        assert isinstance(net, ShardedFlitNetwork)

    def test_factory_refuses_multi_shard_on_single_process_engines(self):
        cfg = NocConfig(width=8, height=8, flit_engine="sharded", shards=4)
        for engine in ("event", "vector"):
            with pytest.raises(ShardConfigError) as excinfo:
                make_flit_network(Simulator(), cfg, engine)
            assert excinfo.value.engine == engine
            assert excinfo.value.shards == 4
            # a generic config-validation fence still catches it
            assert isinstance(excinfo.value, ValueError)

    def test_non_mesh_topology_refused_structurally(self):
        cfg = dataclasses.replace(
            NocConfig(width=4, height=4, flit_engine="sharded", shards=2),
            topology="torus",
        )
        with pytest.raises(UnsupportedTopology) as excinfo:
            ShardedFlitNetwork(cfg)
        assert excinfo.value.model == "flit/sharded"
        assert excinfo.value.topology == "torus"


# ----------------------------------------------------------------------
# Golden bit-exactness
# ----------------------------------------------------------------------
class TestShardedGolden:
    def test_single_shard_matches_pinned_golden(self):
        net, _stream = _run_standalone(8, _golden_plan(), shards=1)
        assert (
            _fingerprint(net.delivered),
            net.events_processed,
            len(net.delivered),
        ) == GOLDEN_FLIT

    def test_cosim_drive_matches_pinned_golden(self):
        for shards in (1, 2, 4):
            stream, _cycle, events = _run_sharded_cosim(
                8, _golden_plan(), shards
            )
            assert events == GOLDEN_FLIT[1], f"shards={shards}"
            assert len(stream) == GOLDEN_FLIT[2], f"shards={shards}"

    def test_pure_python_path_matches_pinned_golden(self):
        net, _stream = _run_standalone(
            8, _golden_plan(), shards=2, force_python=True,
            use_processes=False,
        )
        assert (
            _fingerprint(net.delivered),
            net.events_processed,
            len(net.delivered),
        ) == GOLDEN_FLIT

    @pytest.mark.parametrize("shards", (2, 4))
    def test_worker_processes_match_pinned_golden(self, shards):
        net, _stream = _run_standalone(8, _golden_plan(), shards=shards)
        assert (
            _fingerprint(net.delivered),
            net.events_processed,
            len(net.delivered),
        ) == GOLDEN_FLIT
        counters = net.shard_counters()
        assert len(counters) == shards
        assert sum(c["events"] for c in counters) == net.events_processed

    def test_worker_runs_replay_each_other(self):
        """Back-to-back multiprocess runs are bit-identical."""
        _net1, first = _run_standalone(8, _golden_plan(), shards=2)
        _net2, second = _run_standalone(8, _golden_plan(), shards=2)
        assert first == second

    def test_multiprocess_run_is_one_shot(self):
        net, _stream = _run_standalone(8, _golden_plan(packets=40), 2)
        with pytest.raises(Exception, match="one-shot|already ran"):
            net.run(until=2_000_000)

    def test_multiprocess_drive_is_plan_only(self):
        net = ShardedFlitNetwork(_sharded_config(8, 2))
        with pytest.raises(RuntimeError, match="send_at"):
            net.send(0, 9, 1)


# ----------------------------------------------------------------------
# Randomized parity against the event reference
# ----------------------------------------------------------------------
class TestShardedParity:
    @pytest.mark.parametrize("seed,shape", parity_cases(range(5)))
    def test_event_vs_sharded_parity(self, seed, shape):
        """Seed and shape sweep: the sharded engine replays the event
        reference exactly — same stream, same final cycle, same event
        count.  A one-row mesh runs as a single band."""
        shape, plan = _random_plan(seed, shape)
        reference = _run_cosim("event", shape, plan)
        for shards in [k for k in (2, 4) if k <= shape[1]] or [1]:
            assert _run_sharded_cosim(shape, plan, shards) == reference, \
                f"seed={seed} shards={shards}"

    def test_boundary_counters_are_symmetric(self):
        """Every flit shard i ships down is a credit shard i+1 ships up
        (and vice versa): the seam accounting must agree."""
        net, _stream = _run_standalone(
            8, _golden_plan(), shards=2, use_processes=False
        )
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
        net = ShardedFlitNetwork(_sharded_config(8, 4))
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
# Addressing: fingerprints, labels, the wire
# ----------------------------------------------------------------------
class TestShardAddressing:
    @staticmethod
    def _spec(**noc_kw):
        return RunSpec(
            benchmark="bwaves",
            config=SystemConfig(noc=NocConfig(flit_level=True, **noc_kw)),
        )

    def test_default_shards_keeps_spec_fingerprints(self):
        """Spelling out shards=1 must not re-address cached results; a
        multi-shard run is bit-exact but addresses itself."""
        base = self._spec(flit_engine="vector")
        spelled = self._spec(flit_engine="vector", shards=1)
        assert base.fingerprint == spelled.fingerprint
        sharded = self._spec(flit_engine="sharded", shards=4)
        assert sharded.fingerprint != base.fingerprint
        payload = spelled.canonical_payload()
        assert "shards" not in payload["config"]["noc"]

    def test_label_names_multi_shard_runs(self):
        assert "shards=4" in self._spec(
            flit_engine="sharded", shards=4
        ).label()
        assert "shards" not in self._spec(flit_engine="vector").label()

    def test_sharded_spec_round_trips_through_serve_proto(self):
        from repro.serve import proto

        spec = self._spec(flit_engine="sharded", shards=4)
        request = proto.submit_request([spec])
        wire = json.loads(json.dumps(request))  # a real wire hop
        decoded, _policy = proto.decode_submit(wire)
        assert decoded == [spec]
        assert decoded[0].fingerprint == spec.fingerprint
        assert decoded[0].config.noc.shards == 4


# ----------------------------------------------------------------------
# Full system
# ----------------------------------------------------------------------
def _system_config(engine, shards=1):
    base = SystemConfig()
    return dataclasses.replace(
        base,
        noc=dataclasses.replace(
            base.noc, flit_level=True, flit_engine=engine, shards=shards
        ),
    )


class TestShardedFullSystem:
    def test_sharded_fabric_is_selected(self):
        system = ManyCoreSystem(
            _system_config("sharded", shards=2),
            single_lock_workload(8, home_node=5),
        )
        assert isinstance(system.network, ShardedFlitFabric)

    def test_full_system_matches_vector_engine_exactly(self):
        """Co-simulated shards share the vector engine's schedule, so a
        full system replays it cycle for cycle (the event engine is only
        statistically close — DESIGN.md §13)."""
        workload = single_lock_workload(
            8, home_node=5, cs_per_thread=2, cs_cycles=50,
            parallel_cycles=150,
        )
        runs = {}
        for engine, shards in (("vector", 1), ("sharded", 2)):
            system = ManyCoreSystem(
                _system_config(engine, shards), workload, primitive="mcs"
            )
            result = system.run(max_cycles=20_000_000)
            runs[engine] = (
                result.roi_cycles, result.cs_completed,
                system.sim.events_processed,
            )
        assert runs["sharded"] == runs["vector"]

    def test_traced_multi_shard_run_is_refused(self):
        from repro.obs import Observation

        with pytest.raises(ShardConfigError) as excinfo:
            ManyCoreSystem(
                _system_config("sharded", shards=2),
                single_lock_workload(8, home_node=5),
                observe=Observation(trace=True),
            )
        assert excinfo.value.shards == 2

    def test_traced_single_shard_run_falls_back_to_event_engine(self):
        from repro.noc.flit_fabric import FlitFabric
        from repro.obs import Observation

        system = ManyCoreSystem(
            _system_config("sharded", shards=1),
            single_lock_workload(8, home_node=5),
            observe=Observation(trace=True),
        )
        assert isinstance(system.network, FlitFabric)

    def test_counter_observation_samples_per_shard_gauges(self):
        from repro.obs import Observation

        observe = Observation(trace=False)
        system = ManyCoreSystem(
            _system_config("sharded", shards=2),
            single_lock_workload(64, home_node=53),
            observe=observe,
        )
        system.run(max_cycles=20_000_000)
        snap = observe.registry.snapshot()
        assert snap["noc/shard0/events"] > 0
        assert snap["noc/shard1/events"] > 0
        # the seam accounting agrees when folded across directions
        assert snap["noc/shard0/boundary_flits"] > 0


# ----------------------------------------------------------------------
# Faults
# ----------------------------------------------------------------------
class TestShardedFaults:
    def test_router_sites_refused_structurally(self):
        fabric = ShardedFlitFabric(
            Simulator(), NocConfig(width=4, height=4, flit_engine="sharded")
        )
        with pytest.raises(UnsupportedFaultSite) as excinfo:
            FaultInjector(FaultPlan.parse("drop:1@router:3", seed=1)) \
                .install(fabric)
        assert excinfo.value.model == "flit/sharded"
        assert excinfo.value.site_kinds == ("router",)

    def test_inject_sites_apply(self):
        sim = Simulator()
        fabric = ShardedFlitFabric(
            sim, NocConfig(width=4, height=4, flit_engine="sharded")
        )
        for n in range(16):
            fabric.register_endpoint(n, lambda p: None)
        FaultInjector(FaultPlan.parse("drop:1@inject", seed=1)) \
            .install(fabric)
        for src in range(4):
            fabric.send(src, 15, payload="x", size_flits=2)
        sim.run(until=100_000)
        assert fabric.packets_injected == 4
        assert fabric.packets_dropped == 4
        assert fabric.packets_delivered == 0


# ----------------------------------------------------------------------
# Perf harness integration
# ----------------------------------------------------------------------
class TestPerfIntegration:
    def test_layer_map_attributes_shardflit(self):
        from repro.perf.profiling import LAYERS, layer_of

        assert "noc-shard" in LAYERS
        assert layer_of("src/repro/noc/shardflit.py") == "noc-shard"
        # the wider noc mappings are untouched
        assert layer_of("src/repro/noc/vecflit.py") == "noc-flit"
        assert layer_of("src/repro/noc/router.py") == "noc"

    def test_sharded_workloads_registered(self):
        from repro.perf.workloads import (
            FLIT_WORKLOAD_ENGINES,
            QUICK_WORKLOADS,
            WORKLOADS,
        )

        assert "flit_sharded_big_mesh" in WORKLOADS
        assert "flit_sharded_big_mesh" in QUICK_WORKLOADS
        assert FLIT_WORKLOAD_ENGINES["flit_sharded_big_mesh"] == "sharded"
        assert FLIT_WORKLOAD_ENGINES["flit_sharded_mesh32"] == "sharded"

    def test_unknown_workload_names_rejected_up_front(self, capsys):
        from repro.perf.report import main

        assert main(["--workloads", "flit_uniform", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "known:" in err

    def test_sharded_workload_pins_the_big_mesh_event_count(self):
        """The sharded big-mesh leg simulates flit_big_mesh's exact
        stream (small plan here; the pinned full counts live in
        BENCH_core.json)."""
        from repro.perf.workloads import flit_big_mesh, flit_sharded_big_mesh

        vector = flit_big_mesh(packets=400)
        sharded = flit_sharded_big_mesh(packets=400, shards=2)
        assert sharded.name == "flit_sharded_big_mesh[shards=2]"
        assert (sharded.events, sharded.cycles) == \
            (vector.events, vector.cycles)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestShardCli:
    def test_shards_without_sharded_engine_is_a_usage_error(self, capsys):
        from repro.cli import main

        assert main(["microbench", "--flit-engine", "vector",
                     "--shards", "2"]) == 2
        assert "requires --flit-engine sharded" in capsys.readouterr().err

    def test_shards_env_default(self, monkeypatch):
        from repro.cli import resolve_shards

        monkeypatch.setenv("REPRO_SHARDS", "4")
        assert resolve_shards(object()) == 4
        monkeypatch.delenv("REPRO_SHARDS")
        assert resolve_shards(object()) == 1

    def test_experiment_options_carry_shards_into_configs(self):
        from repro.experiments.common import ExperimentOptions

        options = ExperimentOptions(flit_engine="sharded", shards=2)
        spec = options.apply_to_spec(RunSpec(benchmark="bwaves"))
        assert spec.config.noc.flit_engine == "sharded"
        assert spec.config.noc.shards == 2


# ----------------------------------------------------------------------
# Scaling (only meaningful with real parallel hardware)
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 4,
    reason="speedup needs >=4 usable CPUs; fewer only measures "
           "barrier overhead",
)
def test_four_shards_beat_single_process_vector():
    """The acceptance scaling bar: >=1.8x on the big-mesh workload."""
    from repro.perf.workloads import flit_big_mesh, flit_sharded_big_mesh

    vector = flit_big_mesh()
    sharded = flit_sharded_big_mesh(shards=4)
    assert (sharded.events, sharded.cycles) == (vector.events, vector.cycles)
    assert sharded.wall_s < vector.wall_s / 1.8
