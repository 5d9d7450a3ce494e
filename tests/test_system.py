"""Integration tests for ManyCoreSystem and run_benchmark."""

import pytest

from repro import (
    DeadlockError,
    ManyCoreSystem,
    SystemConfig,
    run_benchmark,
    single_lock_workload,
)
from repro.config import NocConfig
from repro.workloads import generate_workload


def small_config(**kw):
    return SystemConfig(
        noc=NocConfig(width=4, height=4), num_threads=16, **kw
    )


class TestManyCoreSystem:
    def test_full_run_produces_metrics(self):
        cfg = small_config()
        wl = single_lock_workload(16, home_node=5, cs_per_thread=2,
                                  cs_cycles=50, parallel_cycles=100)
        result = ManyCoreSystem(cfg, wl, primitive="tas").run()
        assert result.cs_completed == 32
        assert result.roi_cycles > 0
        assert result.total_coh > 0
        assert result.total_cse > 0
        assert result.mechanism == "original"
        assert result.benchmark == "microbench"

    def test_mechanism_naming(self):
        cfg = small_config().with_mechanism("inpg+ocor")
        wl = single_lock_workload(16, home_node=5, cs_per_thread=1)
        result = ManyCoreSystem(cfg, wl, primitive="qsl").run()
        assert result.mechanism == "inpg+ocor"

    def test_determinism(self):
        wl = single_lock_workload(16, home_node=5, cs_per_thread=2)
        a = ManyCoreSystem(small_config(), wl, primitive="mcs").run()
        b = ManyCoreSystem(small_config(), wl, primitive="mcs").run()
        assert a.roi_cycles == b.roi_cycles
        assert a.total_coh == b.total_coh

    def test_too_many_threads_rejected(self):
        cfg = small_config()
        wl = single_lock_workload(17, home_node=5)
        with pytest.raises(ValueError):
            ManyCoreSystem(cfg, wl)

    def test_deadlock_detection(self):
        cfg = small_config()
        wl = single_lock_workload(16, home_node=5, cs_per_thread=2,
                                  parallel_cycles=1000)
        system = ManyCoreSystem(cfg, wl, primitive="tas")
        with pytest.raises(DeadlockError):
            system.run(max_cycles=50)  # absurdly small budget

    def test_inpg_deploys_big_routers(self):
        cfg = small_config().with_mechanism("inpg")
        wl = single_lock_workload(16, home_node=5, cs_per_thread=1)
        system = ManyCoreSystem(cfg, wl, primitive="tas")
        # default asks for 32 big routers; clamped to the 16-node mesh
        assert len(system.network.big_router_nodes()) == 16

    def test_timeline_consistent_with_metrics(self):
        cfg = small_config()
        wl = single_lock_workload(16, home_node=5, cs_per_thread=2,
                                  cs_cycles=50, parallel_cycles=100)
        result = ManyCoreSystem(cfg, wl, primitive="ticket").run()
        assert result.timeline.cs_completed() == result.cs_completed
        coh_from_timeline = result.timeline.phase_cycles("coh")
        assert coh_from_timeline == result.total_coh


class TestRunBenchmark:
    def test_runs_profile_benchmark(self):
        result = run_benchmark(
            "vips", mechanism="original", primitive="qsl",
            config=small_config(), scale=0.5,
        )
        assert result.benchmark == "vips"
        assert result.cs_completed > 0

    def test_mechanism_applied(self):
        result = run_benchmark(
            "vips", mechanism="inpg", config=small_config(), scale=0.5
        )
        assert result.mechanism == "inpg"

    def test_multi_lock_workload_completes(self):
        wl = generate_workload("raytrace", 16, 16, scale=1.0)
        assert wl.num_locks >= 2
        cfg = small_config()
        result = ManyCoreSystem(cfg, wl, primitive="mcs").run()
        assert result.cs_completed == wl.total_cs


@pytest.mark.parametrize("primitive", ["tas", "ticket", "abql", "mcs", "qsl"])
@pytest.mark.parametrize("mechanism", ["original", "ocor", "inpg", "inpg+ocor"])
class TestFullMatrix:
    """Every primitive x mechanism combination completes correctly."""

    def test_combination_completes(self, primitive, mechanism):
        cfg = small_config().with_mechanism(mechanism)
        wl = single_lock_workload(16, home_node=5, cs_per_thread=2,
                                  cs_cycles=40, parallel_cycles=80)
        result = ManyCoreSystem(cfg, wl, primitive=primitive).run(
            max_cycles=5_000_000
        )
        assert result.cs_completed == 32
        # one lock: acquisitions must be serialized, so the total CSE
        # time cannot exceed the ROI
        assert result.roi_cycles >= result.cs_completed


class TestKernelApiGuard:
    def test_every_callback_is_scheduled_through_the_kernel_api(
        self, monkeypatch
    ):
        """Every callback the kernel runs entered through
        ``Simulator.schedule`` or ``schedule_cancellable``.  The
        benchmark's traced run (``perfbench/spans.py``) wraps exactly
        those two to give every event a layer, so a component that
        queued work any other way would run unseen.  The run is
        fig12-shaped with iNPG on, so big routers re-enter the datapath
        through ``forward_now``."""
        from repro.sim import Simulator

        ran = {"schedule": 0, "schedule_cancellable": 0}

        def counting(method):
            original = getattr(Simulator, method)

            def schedule(self, delay, fn, *args):
                def callback(*cb_args):
                    ran[method] += 1
                    fn(*cb_args)

                return original(self, delay, callback, *args)

            monkeypatch.setattr(Simulator, method, schedule)

        counting("schedule")
        counting("schedule_cancellable")
        cfg = SystemConfig().with_mechanism("inpg")
        wl = generate_workload("bodytrack", num_threads=cfg.num_threads,
                               mesh_nodes=cfg.noc.width * cfg.noc.height,
                               seed=2018, scale=0.1)
        system = ManyCoreSystem(cfg, wl, primitive="qsl")
        system.run()
        stopped = sum(router.getx_stopped
                      for router in system.network.routers.values()
                      if router.is_big)
        assert stopped > 0
        assert ran["schedule_cancellable"] > 0
        assert sum(ran.values()) == system.sim.events_processed
