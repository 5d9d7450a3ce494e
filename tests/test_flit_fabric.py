"""Tests for the flit-level full-system mode."""

import pytest

from repro import ManyCoreSystem, SystemConfig, single_lock_workload
from repro.config import NocConfig
from repro.errors import ReproError, UnsupportedMechanism
from repro.exec import RunSpec
from repro.exec.executor import execute_spec


def flit_config(**kw):
    return SystemConfig(
        noc=NocConfig(width=4, height=4, flit_level=True),
        num_threads=16,
        **kw,
    )


class TestFlitLevelSystem:
    def test_full_run_completes(self):
        cfg = flit_config()
        wl = single_lock_workload(8, home_node=5, cs_per_thread=2,
                                  cs_cycles=50, parallel_cycles=150)
        result = ManyCoreSystem(cfg, wl, primitive="mcs").run(
            max_cycles=20_000_000
        )
        assert result.cs_completed == 16
        assert result.network_mean_latency > 0

    def test_matches_packet_model_order_of_magnitude(self):
        wl = single_lock_workload(8, home_node=5, cs_per_thread=2,
                                  cs_cycles=50, parallel_cycles=150)
        flit = ManyCoreSystem(flit_config(), wl, primitive="mcs").run(
            max_cycles=20_000_000
        )
        packet_cfg = SystemConfig(
            noc=NocConfig(width=4, height=4), num_threads=16
        )
        packet = ManyCoreSystem(packet_cfg, wl, primitive="mcs").run(
            max_cycles=20_000_000
        )
        ratio = flit.roi_cycles / packet.roi_cycles
        assert 0.3 < ratio < 3.0, (flit.roi_cycles, packet.roi_cycles)

    def test_inpg_rejected_on_flit_fabric(self):
        cfg = flit_config().with_mechanism("inpg")
        wl = single_lock_workload(8, home_node=5)
        with pytest.raises(UnsupportedMechanism) as excinfo:
            ManyCoreSystem(cfg, wl, primitive="mcs")
        assert isinstance(excinfo.value, ReproError)
        assert isinstance(excinfo.value, ValueError)
        assert excinfo.value.model == "flit/event"
        assert excinfo.value.mechanism == "inpg"

    def test_ocor_rejected_on_flit_fabric(self):
        """The flit routers arbitrate round-robin, so OCOR's packet
        priorities would be ignored: the run is refused, not run as
        Original under OCOR's name."""
        cfg = flit_config().with_mechanism("ocor")
        wl = single_lock_workload(8, home_node=5)
        with pytest.raises(UnsupportedMechanism) as excinfo:
            ManyCoreSystem(cfg, wl, primitive="mcs")
        assert excinfo.value.model == "flit/event"
        assert excinfo.value.mechanism == "ocor"
        assert "OCOR" in str(excinfo.value)

    @pytest.mark.parametrize("primitive", ["tas", "ticket", "qsl"])
    def test_other_primitives_complete(self, primitive):
        cfg = flit_config()
        wl = single_lock_workload(6, home_node=5, cs_per_thread=1,
                                  cs_cycles=40, parallel_cycles=100)
        result = ManyCoreSystem(cfg, wl, primitive=primitive).run(
            max_cycles=20_000_000
        )
        assert result.cs_completed == 6


class TestCheckedFlitRuns:
    """Full 8x8 systems on the flit fabric with the online protocol
    checker attached: a benchmark program and the contended
    microbench complete every critical section without a violation."""

    FLIT = SystemConfig(noc=NocConfig(flit_level=True))

    def test_kdtree_completes_checked(self):
        spec = RunSpec(benchmark="kdtree", mechanism="original", scale=0.25,
                       config=self.FLIT, check_protocol=True)
        packet = execute_spec(RunSpec(benchmark="kdtree", scale=0.25))
        assert execute_spec(spec).cs_completed == packet.cs_completed > 0

    def test_microbench_completes_checked(self):
        spec = RunSpec.microbench(
            home_node=5, mechanism="original", check_protocol=True,
            config=self.FLIT.with_overrides(num_threads=16),
        )
        result = execute_spec(spec)
        assert result.cs_completed == 16 * 4
