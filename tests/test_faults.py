"""Tests for the deterministic fault-injection subsystem (repro.faults)."""

import json
from dataclasses import replace

import pytest

from repro.config import LockSpinConfig, NocConfig, SystemConfig
from repro.errors import LivelockDetected, UnsupportedFaultSite
from repro.exec import Executor, RunSpec, execute_spec
from repro.faults import FaultInjector, FaultPlan, parse_site
from repro.noc.network import Network
from repro.sim import Simulator

from test_golden_determinism import GOLDEN_RUNS, fingerprint_run


def small_config(**kwargs) -> SystemConfig:
    return SystemConfig(noc=NocConfig(width=4, height=4), num_threads=16,
                        **kwargs)


def ttas_config() -> SystemConfig:
    """TTAS polling: a poller whose Inv was dropped spins on its stale
    valid copy forever — the watchdog's canonical livelock shape."""
    return small_config(spin=LockSpinConfig(raw_spin=False))


# ----------------------------------------------------------------------
# Plan syntax and fingerprints
# ----------------------------------------------------------------------
class TestPlanSyntax:
    @pytest.mark.parametrize("token", [
        "drop:0.01",
        "drop:1/Inv#2000..4000",
        "delay:0.2@router:5+16",
        "corrupt:0.001@link:3->4",
        "duplicate:0.05@inject",
        "drop:1/GetX@router:5#100..",
    ])
    def test_describe_is_parse_inverse(self, token):
        site = parse_site(token)
        assert parse_site(site.describe()) == site

    def test_parse_plan_splits_on_commas(self):
        plan = FaultPlan.parse("drop:0.5,delay:1@inject+8", seed=3)
        assert len(plan.sites) == 2
        assert plan.seed == 3
        assert plan.enabled

    @pytest.mark.parametrize("bad", [
        "explode",            # unknown kind
        "drop:1.5",           # rate out of range
        "drop#9..3",          # empty window
        "drop@turbine:4",     # unknown site scheme
        "delay+0",            # delay needs extra_delay >= 1
    ])
    def test_invalid_sites_raise(self, bad):
        with pytest.raises(ValueError):
            parse_site(bad)

    def test_window_and_message_filters(self):
        site = parse_site("drop:1/Inv#100..200")
        assert not site.active(99)
        assert site.active(100) and site.active(199)
        assert not site.active(200)

        class Payload:
            class mtype:
                value = "Inv"

        assert site.matches_payload(Payload)
        assert not site.matches_payload(object())

    def test_empty_plan_is_disabled(self):
        assert not FaultPlan().enabled
        assert FaultPlan().describe() == "none"

    def test_fingerprint_sensitivity(self):
        base = FaultPlan.parse("drop:0.5", seed=1)
        assert base.fingerprint == FaultPlan.parse("drop:0.5", seed=1).fingerprint
        assert base.fingerprint != FaultPlan.parse("drop:0.5", seed=2).fingerprint
        assert base.fingerprint != FaultPlan.parse("drop:0.4", seed=1).fingerprint


class TestSpecFingerprint:
    def test_no_fault_payload_is_legacy_shaped(self):
        """Unset robustness knobs must not add payload keys: every
        pre-existing fingerprint (= disk-cache address) stays stable."""
        payload = RunSpec(benchmark="vips").canonical_payload()
        assert "faults" not in payload
        assert "watchdog_cycles" not in payload
        assert "check_protocol" not in payload
        empty = RunSpec(benchmark="vips", fault_plan=FaultPlan())
        assert empty.fingerprint == RunSpec(benchmark="vips").fingerprint

    def test_each_robustness_knob_changes_fingerprint(self):
        base = RunSpec(benchmark="vips")
        plan = FaultPlan.parse("drop:0.1", seed=1)
        assert base.fingerprint != RunSpec(
            benchmark="vips", fault_plan=plan).fingerprint
        assert base.fingerprint != RunSpec(
            benchmark="vips", watchdog_cycles=10_000).fingerprint
        assert base.fingerprint != RunSpec(
            benchmark="vips", check_protocol=True).fingerprint

    def test_plan_seed_is_part_of_the_key(self):
        a = RunSpec(benchmark="vips",
                    fault_plan=FaultPlan.parse("drop:0.1", seed=1))
        b = RunSpec(benchmark="vips",
                    fault_plan=FaultPlan.parse("drop:0.1", seed=2))
        assert a.fingerprint != b.fingerprint

    def test_faulted_label_names_the_plan(self):
        spec = RunSpec(benchmark="vips",
                       fault_plan=FaultPlan.parse("drop:1/Inv"))
        assert "faults=drop:1/Inv" in spec.label()


# ----------------------------------------------------------------------
# Injector mechanics (pure network level)
# ----------------------------------------------------------------------
class TestInjectorMechanics:
    def _network(self):
        sim = Simulator()
        net = Network(sim, NocConfig(width=4, height=4))
        delivered = []
        for n in range(16):
            net.register_endpoint(n, delivered.append)
        return sim, net, delivered

    def test_inject_drop_consumes_packets(self):
        sim, net, delivered = self._network()
        FaultInjector(FaultPlan.parse("drop:1@inject")).install(net)
        net.send(0, 15, "x")
        sim.run()
        assert delivered == []
        assert net.packets_dropped == 1
        assert net.in_flight == 0

    def test_router_drop_counts_and_traces(self):
        sim, net, delivered = self._network()
        inj = FaultInjector(FaultPlan.parse("drop:1@router:15")).install(net)
        net.send(0, 15, "x")
        net.send(0, 1, "y")  # never enters router 15
        sim.run()
        assert [p.payload for p in delivered] == ["y"]
        assert inj.dropped == 1 and inj.faults_fired == 1

    def test_link_delay_defers_delivery(self):
        sim, net, delivered = self._network()
        # XY routing 0 -> 3 crosses link 2->3
        FaultInjector(
            FaultPlan.parse("delay:1@link:2->3+500")).install(net)
        net.send(0, 3, "x")
        sim.run()
        assert len(delivered) == 1
        assert delivered[0].latency > 500

    def test_duplicate_delivers_twice(self):
        sim, net, delivered = self._network()
        inj = FaultInjector(
            FaultPlan.parse("duplicate:1@inject")).install(net)
        net.send(0, 15, "x")
        sim.run()
        assert len(delivered) == 2
        assert inj.duplicated == 1
        assert net.in_flight == 0

    def test_unknown_link_raises_at_install(self):
        _, net, _ = self._network()
        with pytest.raises(ValueError, match="no link") as excinfo:
            FaultInjector(FaultPlan.parse("drop:1@link:0->5")).install(net)
        assert isinstance(excinfo.value, UnsupportedFaultSite)
        assert excinfo.value.model == "packet"
        assert excinfo.value.site_kinds == ("link",)
        assert "'link:0->5'" in str(excinfo.value)

    def test_router_outside_the_mesh_raises_at_install(self):
        """A router site the mesh does not have is refused, not
        ignored, and nothing of the plan is installed."""
        sim, net, delivered = self._network()
        plan = FaultPlan.parse("drop:1@router:15,drop:1@router:16")
        with pytest.raises(UnsupportedFaultSite) as excinfo:
            FaultInjector(plan).install(net)
        assert excinfo.value.site_kinds == ("router",)
        assert "'router:16'" in str(excinfo.value)
        net.send(0, 15, "x")
        sim.run()
        assert len(delivered) == 1

    def test_double_install_rejected(self):
        _, net, _ = self._network()
        inj = FaultInjector(FaultPlan.parse("drop:0.1")).install(net)
        with pytest.raises(ValueError, match="already installed"):
            inj.install(net)

    def test_flit_fabric_rejects_router_sites(self):
        from repro.noc.flit_fabric import FlitFabric

        fabric = FlitFabric(Simulator(), NocConfig(width=4, height=4))
        with pytest.raises(ValueError, match="inject"):
            FaultInjector(FaultPlan.parse("drop:1@router:3")).install(fabric)

    def test_flit_fabric_inject_drop(self):
        from repro.noc.flit_fabric import FlitFabric

        sim = Simulator()
        fabric = FlitFabric(sim, NocConfig(width=4, height=4))
        delivered = []
        for n in range(16):
            fabric.register_endpoint(n, delivered.append)
        FaultInjector(FaultPlan.parse("drop:1@inject")).install(fabric)
        fabric.send(0, 15, "x")
        sim.run(until=10_000)
        assert delivered == []
        assert fabric.packets_dropped == 1
        assert fabric.in_flight == 0


# ----------------------------------------------------------------------
# End-to-end determinism
# ----------------------------------------------------------------------
class TestFaultDeterminism:
    def test_no_faults_matches_golden(self):
        """An *empty* plan (and a disarmed watchdog) must leave the run
        byte-identical to the pre-faults implementation."""
        assert fingerprint_run(
            "bwaves", "original", fault_plan=FaultPlan()
        ) == GOLDEN_RUNS[("bwaves", "original")]

    def test_armed_watchdog_does_not_perturb_delivery(self):
        """The watchdog schedules periodic samples (so the event count
        moves) but must not shift a single packet delivery."""
        golden = GOLDEN_RUNS[("bwaves", "inpg")]
        md5, roi, packets, _events = fingerprint_run(
            "bwaves", "inpg", watchdog_cycles=1_000_000
        )
        assert (md5, roi, packets) == golden[:3]

    @staticmethod
    def _faulted_outcome(plan):
        """Delivered-packet digest + outcome of a faulted bwaves run.

        Faults can legitimately kill the run (a delayed packet breaks
        the NoC's point-to-point ordering and the protocol deadlocks);
        determinism then means the *failure* replays bit-exactly too, so
        failures fold into the outcome instead of aborting the test.
        """
        import hashlib

        from repro.errors import ReproError
        from repro.noc.network import Network
        from repro.system import run_benchmark

        digest = hashlib.md5()
        original_deliver = Network.deliver_local

        def recording_deliver(self, packet):
            digest.update(
                b"%d,%d,%d,%d;"
                % (packet.src, packet.dst, packet.size_flits, self.sim.cycle)
            )
            original_deliver(self, packet)

        Network.deliver_local = recording_deliver
        try:
            result = run_benchmark(
                "bwaves", mechanism="original", scale=0.25, seed=2018,
                fault_plan=plan, max_cycles=2_000_000,
            )
            tail = ("done", result.roi_cycles, result.network_packets)
        except ReproError as err:
            tail = (type(err).__name__, str(err))
        finally:
            Network.deliver_local = original_deliver
        return (digest.hexdigest(),) + tail

    def test_same_plan_same_seed_is_bit_exact(self):
        plan = FaultPlan.parse("delay:0.3+16,drop:0.001", seed=7)
        first = self._faulted_outcome(plan)
        second = self._faulted_outcome(plan)
        assert first == second
        assert first[0] != GOLDEN_RUNS[("bwaves", "original")][0]

    def test_plan_seed_changes_the_run(self):
        a = self._faulted_outcome(FaultPlan.parse("delay:0.3+16", seed=1))
        b = self._faulted_outcome(FaultPlan.parse("delay:0.3+16", seed=2))
        assert a != b

    def test_fault_counters_reported_in_extra(self):
        plan = FaultPlan.parse("delay:0.5+8", seed=5)
        spec = RunSpec(benchmark="vips", primitive="mcs", scale=0.3,
                       config=small_config(), fault_plan=plan)
        result = execute_spec(spec)
        assert result.extra["faults/delayed"] > 0
        assert result.extra["faults/dropped"] == 0


# ----------------------------------------------------------------------
# Watchdog detection
# ----------------------------------------------------------------------
class TestWatchdogDetection:
    def test_drop_inv_campaign_is_flagged_as_livelock(self):
        """Dropping every Inv under TTAS polling leaves pollers spinning
        on stale valid copies: sustained events, zero progress — the
        watchdog must convert that into a structured LivelockDetected."""
        spec = RunSpec.microbench(
            home_node=5, mechanism=None, config=ttas_config(),
            primitive="tas",
            fault_plan=FaultPlan.parse("drop:1/Inv#500..", seed=1),
            watchdog_cycles=10_000, max_cycles=2_000_000,
        )
        with pytest.raises(LivelockDetected) as excinfo:
            execute_spec(spec)
        err = excinfo.value
        assert err.window == 10_000
        assert err.cycle and err.cycle <= 2_000_000
        assert err.stalled_threads
        assert err.locks  # lock_id -> acquisitions snapshot

    def test_healthy_run_never_fires(self):
        spec = RunSpec.microbench(
            home_node=5, mechanism=None, config=small_config(),
            watchdog_cycles=5_000,
        )
        result = execute_spec(spec)  # must complete normally
        assert result.roi_cycles > 0


# ----------------------------------------------------------------------
# The unified options path (facade + experiments)
# ----------------------------------------------------------------------
class TestOptionsPath:
    def _livelock_spec(self):
        return RunSpec.microbench(
            home_node=5, mechanism=None, config=ttas_config(),
            primitive="tas", max_cycles=2_000_000,
        )

    def test_run_plan_skips_the_livelocked_run(self):
        """One sweep, one livelocked run: under on_error='skip' the plan
        completes, the other results come back, the failure is recorded
        in the shared execution summary."""
        from repro import api

        healthy = RunSpec.microbench(
            home_node=5, mechanism=None, config=small_config(),
        )
        bad = replace(
            self._livelock_spec(),
            fault_plan=FaultPlan.parse("drop:1/Inv#500..", seed=1),
        )
        opts = api.ExperimentOptions(watchdog_cycles=10_000,
                                     on_error="skip")
        results = api.run_plan([bad, healthy], cache=False, options=opts)
        assert results[0] is None  # the faulted run livelocked
        assert results[1].roi_cycles > 0  # ...and the sweep still finished

    def test_overlay_fills_gaps_but_spec_wins(self):
        from repro.experiments.common import ExperimentOptions

        sweep_plan = FaultPlan.parse("drop:0.1", seed=1)
        pinned_plan = FaultPlan.parse("delay:1+8", seed=2)
        opts = ExperimentOptions(fault_plan=sweep_plan,
                                 watchdog_cycles=9_000)
        bare = RunSpec(benchmark="vips")
        overlaid = opts.apply_to_spec(bare)
        assert overlaid.fault_plan is sweep_plan
        assert overlaid.watchdog_cycles == 9_000
        pinned = RunSpec(benchmark="vips", fault_plan=pinned_plan)
        assert opts.apply_to_spec(pinned).fault_plan is pinned_plan

    def test_executor_policy_carries_the_run_kwargs(self):
        from repro.experiments.common import ExperimentOptions

        opts = ExperimentOptions(timeout_s=1.5, retries=2, on_error="skip")
        assert opts.executor_policy() == {
            "timeout_s": 1.5, "retries": 2, "on_error": "skip",
        }

    def test_figure_harness_degrades_instead_of_crashing(self):
        """A figure whose every run failed must still render (empty),
        with the failures itemized in the executor footer."""
        from repro.exec import Executor
        from repro.experiments import common, fig09_timing_profile

        previous = common.get_executor()
        common.set_executor(Executor(use_cache=False))
        try:
            result = fig09_timing_profile.run(
                common.ExperimentOptions(
                    scale=0.3, timeout_s=0.0, on_error="skip",
                )
            )
            assert result.rows == []
            assert result.render()  # renders the empty table, no crash
            stats = common.get_executor().stats
            assert stats.failed > 0
            assert all(rec.error_type == "RunTimeout"
                       for rec in stats.failures)
        finally:
            common.set_executor(previous)


# ----------------------------------------------------------------------
# Campaign classification
# ----------------------------------------------------------------------
class TestCampaign:
    def test_drop_inv_detected_and_delay_diverges(self, tmp_path, capsys):
        """``inpg-faults`` on TAS (fault seed 1) and on its defaults (QSL,
        fault seed 0): the watchdog detects the dropped Invs, the
        campaign still finishes under ``on_error=skip``, the footer
        itemizes the failure, and ``--json`` writes the report."""
        from repro.faults.campaign import main, render_report

        path = tmp_path / "campaign.json"
        for extra in (["--primitive", "tas", "--fault-seed", "1"], []):
            assert main([
                "--faults", "drop:1/Inv#500..", "delay:0.5+64",
                "--threads", "16", "--home", "5", "--watchdog", "10000",
                "--max-cycles", "2000000", "--no-cache",
                "--json", str(path)] + extra) == 0
            out = capsys.readouterr().out
            report = json.loads(path.read_text())
            by_plan = {row["plan"]: row for row in report["rows"]}
            drop = by_plan["drop:1/Inv#500.."]
            assert drop["outcome"] == "detected"
            assert drop["error"] == "LivelockDetected"
            assert drop["detector"] == "liveness watchdog"
            delay = by_plan["delay:0.5+64"]
            assert delay["outcome"] in ("silent-divergence", "detected")
            assert report["outcomes"]["detected"] >= 1
            assert render_report(report) in out
            assert "detected" in out and "drop:1/Inv#500.." in out
            for line in ("failed: ", "FAILED", "on_error=skip"):
                assert line in report["footer"] and line in out, line

    def test_plan_naming_no_router_is_refused_not_detected(self):
        """A site outside the mesh is refused at install; the campaign
        reports the plan as refused instead of crediting a detector."""
        from repro.faults.campaign import render_report, run_campaign

        report = run_campaign(
            Executor(use_cache=False),
            plans=[FaultPlan.parse("drop:1@router:999")],
            threads=8, home=5,
        )
        [row] = report["rows"]
        assert row["outcome"] == "refused"
        assert row["error"] == "UnsupportedFaultSite"
        assert "detector" not in row
        assert report["outcomes"] == {"refused": 1}
        assert "no router 999" in render_report(report)
