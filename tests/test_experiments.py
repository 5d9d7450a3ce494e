"""Smoke tests for the experiment harnesses (small scales, fast)."""

import hashlib
import importlib
from dataclasses import replace

import pytest

from repro.exec import Executor
from repro.experiments import (
    claims,
    common,
    fig07_synthesis,
    table1_config,
)
from repro.experiments.common import (
    ExperimentOptions,
    arithmetic_mean,
    benchmarks_for,
    by_group,
    format_table,
)
from repro.experiments.runner import EXPERIMENTS, main as runner_main

#: the scale the paper's claims are checked at
CLAIMS_OPTIONS = ExperimentOptions(scale=0.5)


@pytest.fixture(scope="module")
def claims_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("claims-cache")


@pytest.fixture(scope="module")
def paper_claims(claims_cache):
    """Every figure the paper's claims read, simulated once for the
    module through a two-worker executor with its own cache."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(common, "_EXECUTOR",
                      Executor(jobs=2, cache_dir=claims_cache))
        return claims.run(CLAIMS_OPTIONS)


class TestCommon:
    def test_quick_subset_is_two_per_group(self):
        quick = benchmarks_for(True)
        assert len(quick) == 6
        groups = by_group(quick)
        assert all(len(v) == 2 for v in groups.values())

    def test_full_set_is_24(self):
        assert len(benchmarks_for(False)) == 24

    def test_means(self):
        assert arithmetic_mean([1, 2, 3]) == 2.0
        assert arithmetic_mean([]) == 0.0

    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["xyz", 3]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "xyz" in out and "2.50" in out


class TestAxisOverlay:
    """``ExperimentOptions`` fills an axis wherever a config keeps that
    axis's default, on every entry point that takes options."""

    def test_overlay_fills_default_axes_only(self):
        from repro.config import SystemConfig

        opts = ExperimentOptions(protocol="msi", topology="torus")
        filled = opts.apply_to_config(SystemConfig())
        assert filled.protocol == "msi"
        assert filled.noc.topology == "torus"
        pinned = SystemConfig().with_overrides(protocol="mesi",
                                               noc={"topology": "ring"})
        kept = opts.apply_to_config(pinned)
        assert (kept.protocol, kept.noc.topology) == ("mesi", "ring")
        assert ExperimentOptions().apply_to_config(pinned) is pinned

    def test_a_plan_shares_one_overlaid_config(self, monkeypatch):
        """Specs sharing a config (here: none) share its overlay, so the
        fingerprint memo encodes one config for the whole plan."""
        specs = TestSeedReachesEverySpec._plan(monkeypatch, "fig12_roi",
                                               topology="torus")
        assert len(specs) == 24
        assert len({id(spec.config) for spec in specs}) == 1
        assert specs[0].config.noc.topology == "torus"

    def test_simulate_applies_the_axis_overlay(self):
        from repro import api
        from repro.config import NocConfig, SystemConfig

        config = SystemConfig(noc=NocConfig(width=4, height=4),
                              num_threads=8)
        workload = api.single_lock_workload(num_threads=8, home_node=5)
        mesh = api.simulate(config, workload, "tas")
        ring = api.simulate(
            config.with_overrides(noc={"topology": "ring"}), workload,
            "tas")
        overlaid = api.simulate(config, workload, "tas",
                                options=ExperimentOptions(topology="ring"))
        assert ring.roi_cycles != mesh.roi_cycles
        assert overlaid.roi_cycles == ring.roi_cycles


class TestStaticExperiments:
    def test_table1_renders_config(self):
        out = table1_config.run().render()
        assert "8x8 mesh" in out
        assert "MOESI" in out
        assert "128 retries" in out

    def test_fig7_renders_synthesis(self):
        result = fig07_synthesis.run()
        out = result.render()
        assert "19900" in out.replace(",", "")
        assert result.generator_gates == 2500


class TestSimulationExperiments:
    """The figures, read from the runs the paper's claims share."""

    def test_fig2_lco_ordering(self, paper_claims):
        result = paper_claims.figures["fig2"]
        per = result.lco["kdtree"]
        assert set(per) == {"tas", "ticket", "abql", "mcs", "qsl"}
        assert per["tas"] > 0
        assert "LCO" in result.render()

    def test_fig9_profile_structure(self, paper_claims):
        rows = paper_claims.figures["fig9"].by_mechanism()
        assert set(rows) == {"original", "ocor", "inpg", "inpg+ocor"}
        for row in rows.values():
            total = row.parallel_share + row.coh_share + row.cse_share
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_fig10_microbench(self, paper_claims):
        result = paper_claims.figures["fig10"]
        assert set(result.results) == {"original", "inpg"}
        inpg = result.results["inpg"]
        assert inpg.early_share > 0
        heat = result.heat_map("original")
        assert len(heat) == 8

    def test_fig11_and_fig12_share_runs(self, paper_claims):
        f11 = paper_claims.figures["fig11"]
        f12 = paper_claims.figures["fig12"]
        assert set(f11.expedition) == set(f12.relative_roi)
        for bench in f12.relative_roi:
            assert f12.relative_roi[bench]["original"] == 1.0
            assert f11.expedition[bench]["original"] == 1.0

    def test_fig12_quick_plan_keeps_its_pinned_work(self, monkeypatch,
                                                    claims_cache,
                                                    paper_claims):
        """The Figure 12 quick plan's 24 runs at the claims' scale,
        replayed from the claims' cache with nothing executed, sum to
        the events and ROI cycles pinned when the plan was first timed
        end to end."""
        executor = Executor(jobs=1, cache_dir=claims_cache)
        monkeypatch.setattr(common, "_EXECUTOR", executor)
        runs = common.run_mechanism_matrix(options=CLAIMS_OPTIONS).values()
        assert executor.stats.executed == 0
        assert len(runs) == 24
        assert sum(int(r.extra["sim_events"]) for r in runs) == 6_528_413
        assert sum(r.roi_cycles for r in runs) == 413_318

    def test_fig13_covers_all_primitives(self, paper_claims):
        result = paper_claims.figures["fig13"]
        first = next(iter(result.reduction.values()))
        assert set(first) == {"tas", "ticket", "abql", "mcs", "qsl"}

    def test_fig14_includes_zero_deployment(self, paper_claims):
        result = paper_claims.figures["fig14"]
        for bench, per in result.expedition.items():
            assert per[0] == 1.0

    def test_topologies_ablation_sweeps_every_fabric(self):
        from repro.experiments import ablation_topology

        result = ablation_topology.run(
            ExperimentOptions(scale=0.25), benchmarks=("vips",)
        )
        assert result.topologies == ("mesh", "torus", "ring")
        for topo in result.topologies:
            for placement in result.placements:
                ratio = result.relative_roi(topo, placement, "vips")
                assert ratio is not None and ratio > 0
            assert result.placement_sensitivity(topo) >= 0.0
        out = result.render()
        assert "placement sensitivity" in out
        for topo in ("mesh", "torus", "ring"):
            assert topo in out

    def test_protocols_ablation_renders_the_spread(self, monkeypatch,
                                                   tmp_path):
        from repro.config import PROTOCOL_NAMES
        from repro.experiments import ablation_protocol

        # two workers, as ``inpg-experiments protocols --jobs 2``
        monkeypatch.setattr(common, "_EXECUTOR",
                            Executor(jobs=2, cache_dir=tmp_path))
        result = ablation_protocol.run(ExperimentOptions(scale=0.1))
        assert result.protocols == PROTOCOL_NAMES
        assert len(result.roi_cycles) == 36
        for proto in result.protocols:
            for bench in result.benchmarks():
                assert result.relative_roi(proto, bench) is not None
        out = result.render()
        for proto in PROTOCOL_NAMES:
            assert f"{proto}: avg iNPG ROI reduction " in out
        assert "spread across protocols: " in out

    def test_topologies_ablation_pins_to_one_topology(self):
        from repro.experiments import ablation_topology

        result = ablation_topology.run(
            ExperimentOptions(scale=0.25, topology="torus"),
            benchmarks=("vips",),
        )
        assert result.topologies == ("torus",)
        assert all(key[0] == "torus" for key in result.roi_cycles)

    def test_fig15_small_meshes(self, paper_claims):
        result = paper_claims.figures["fig15"]
        assert (2, 16) in result.reduction
        assert (4, 16) in result.reduction
        assert "2x2" in result.render()


class TestPaperClaims:
    """Every row of ``repro.experiments.claims.CLAIMS`` holds at the
    claims' scale; a failure names the figure, the claim, the measured
    value and the envelope."""

    def test_every_claim_holds(self, paper_claims):
        failures = paper_claims.failures()
        assert not failures, "\n".join(["claims outside their envelope:"]
                                        + failures)

    def test_a_claim_outside_its_envelope_is_named(self, monkeypatch,
                                                   paper_claims):
        [claim] = [c for c in claims.CLAIMS if c.figure == "fig12"
                   and c.name == "inpg average ROI reduction"]
        bound = claim.metric(paper_claims.figures["fig12"]) + 0.05
        monkeypatch.setattr(claims, "CLAIMS", (replace(claim, bound=bound),))
        [failure] = paper_claims.failures()
        assert failure.startswith(
            "fig12: inpg average ROI reduction: measured ")
        assert failure.endswith(f", envelope > {bound:.4g}")

    def test_the_papers_own_values_meet_their_envelopes(self):
        """An envelope the paper's own value falls outside misstates
        the paper's claim."""
        for claim in claims.CLAIMS:
            if claim.paper is not None:
                assert claim.holds(claim.paper), (claim.figure, claim.name)

    def test_every_row_reads_a_figure_the_table_regenerates(self):
        assert {c.figure for c in claims.CLAIMS} == set(claims.FIGURES)
        assert set(claims.FIGURES) <= set(EXPERIMENTS)

    def test_report_renders_without_simulating(self, monkeypatch,
                                               paper_claims):
        class NoRuns:
            def run(self, specs, **policy):
                raise AssertionError("the report simulated")

        monkeypatch.setattr(common, "_EXECUTOR", NoRuns())
        table = paper_claims.render()
        report = paper_claims.report()
        for claim in claims.CLAIMS:
            assert claim.name in table and claim.name in report
        assert table.count("PASS") == len(claims.CLAIMS)
        for heading in ("## Table 1", "## Figure 2", "## Figure 15"):
            assert heading in report

    def test_cli_replays_the_claims_from_their_cache(self, capsys,
                                                     claims_cache,
                                                     paper_claims):
        assert runner_main([
            "claims", "--quick", "--scale", str(CLAIMS_OPTIONS.scale),
            "--jobs", "2", "--cache-dir", str(claims_cache),
        ]) == 0
        out = capsys.readouterr().out
        assert paper_claims.render() in out
        assert "executed: 0" in out


class TestRunnerCli:
    def test_list(self, capsys):
        assert runner_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_single_static_experiment(self, capsys):
        assert runner_main(["table1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_quick_and_full_conflict_errors(self, capsys):
        # --quick used to be silently ignored; now the pair is mutually
        # exclusive and conflicting invocations error out loudly
        with pytest.raises(SystemExit) as excinfo:
            runner_main(["fig12", "--quick", "--full"])
        assert excinfo.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_quick_flag_is_accepted(self, capsys):
        assert runner_main(["table1", "--quick"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_footer_reports_execution_summary(self, capsys, tmp_path):
        assert runner_main([
            "fig9", "--scale", "0.3", "--cache-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "run execution summary" in out
        assert "executed: 4" in out
        assert str(tmp_path) in out

    def test_no_cache_flag(self, capsys, tmp_path):
        assert runner_main([
            "fig9", "--scale", "0.3", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "cache: disabled" in out


def _figure_section(output: str) -> str:
    """Everything up to the timing line (drops wall time + footer)."""
    lines = []
    for line in output.splitlines():
        if line.startswith("["):
            break
        lines.append(line)
    return "\n".join(lines)


class TestParallelAndCachedRegeneration:
    """The PR's acceptance criterion on fig12."""

    def test_jobs_parity_and_warm_cache(self, capsys, tmp_path):
        scale = ["--scale", "0.25"]
        # cold, sequential
        assert runner_main(
            ["fig12", "--jobs", "1", "--cache-dir", str(tmp_path / "a")]
            + scale
        ) == 0
        seq = capsys.readouterr().out
        # cold, parallel, separate cache: must render byte-identically
        assert runner_main(
            ["fig12", "--jobs", "2", "--cache-dir", str(tmp_path / "b")]
            + scale
        ) == 0
        par = capsys.readouterr().out
        assert _figure_section(seq) == _figure_section(par)
        assert "executed: 24" in par
        # warm cache: zero simulations executed, 100% hits
        assert runner_main(
            ["fig12", "--jobs", "2", "--cache-dir", str(tmp_path / "b")]
            + scale
        ) == 0
        warm = capsys.readouterr().out
        assert _figure_section(warm) == _figure_section(par)
        assert "executed: 0" in warm
        assert "hit rate: 100.0%" in warm


class _PlanCaptured(Exception):
    """Raised by the recording executor once a harness submits its plan."""


class TestSeedReachesEverySpec:
    """``ExperimentOptions.seed`` reaches every spec a figure harness
    builds, and the default seed leaves every cache address where it
    was.  The plans are captured at the executor, before anything runs.
    """

    #: harness -> (digest of its sorted default-seed fingerprints, specs);
    #: taken before the seed was threaded through, so a match proves no
    #: cached result moved
    DEFAULT_PLANS = {
        "fig02_lco": ("2f2e69811cbb8afd", 15),
        "fig08_cs_chars": ("2abe4ff2c8d3e120", 6),
        "fig09_timing_profile": ("b6e19bb16b4676f4", 4),
        "fig11_cs_expedition": ("a3ba4a9474085ebd", 24),
        "fig12_roi": ("a3ba4a9474085ebd", 24),
        "fig13_primitives": ("7935ab8cd7168b2c", 60),
        "fig14_deployment": ("f3853807edcb7f99", 30),
        "fig15_sensitivity": ("ce5728ad533f09ce", 96),
        "ablation_protocol": ("2a3b197b91b36b0e", 36),
        "ablation_topology": ("113f075a0ea6e811", 72),
    }

    @staticmethod
    def _plan(monkeypatch, harness, **options):
        """The specs ``harness`` submits under ``options``."""
        captured = []

        class Recorder:
            def run(self, specs, **policy):
                captured.extend(specs)
                raise _PlanCaptured

        monkeypatch.setattr(common, "_EXECUTOR", Recorder())
        module = importlib.import_module(f"repro.experiments.{harness}")
        with pytest.raises(_PlanCaptured):
            module.run(ExperimentOptions(**options))
        return captured

    @pytest.mark.parametrize("harness", sorted(DEFAULT_PLANS))
    def test_default_seed_keeps_every_fingerprint(self, monkeypatch,
                                                  harness):
        specs = self._plan(monkeypatch, harness)
        digest = hashlib.sha256(
            "".join(sorted(s.fingerprint for s in specs)).encode()
        ).hexdigest()[:16]
        assert (digest, len(specs)) == self.DEFAULT_PLANS[harness]

    @pytest.mark.parametrize("harness", sorted(DEFAULT_PLANS))
    def test_seed_changes_every_fingerprint(self, monkeypatch, harness):
        default = self._plan(monkeypatch, harness)
        seeded = self._plan(monkeypatch, harness, seed=7)
        assert len(seeded) == len(default)
        default_prints = {s.fingerprint for s in default}
        for spec, base in zip(seeded, default):
            assert spec.seed == 7
            assert spec.fingerprint not in default_prints
            # the seed is the only thing that moved
            assert replace(spec, seed=base.seed) == base


class TestAxisOptionsKeepEveryAddress:
    """Each CLI axis value, set through ``ExperimentOptions``, reaches
    every plan the twelve plan-submitting harnesses build at the same
    cache addresses as before the axes moved into ``SystemConfig``."""

    HARNESSES = (
        "ablation_lco", "ablation_protocol", "ablation_topology",
        "fig02_lco", "fig08_cs_chars", "fig09_timing_profile",
        "fig10_rtt", "fig11_cs_expedition", "fig12_roi",
        "fig13_primitives", "fig14_deployment", "fig15_sensitivity",
    )

    #: (axis, value) -> (digest over every harness's sorted
    #: fingerprints, spec count), taken while ``RunSpec`` still carried
    #: protocol/topology/arbiter fields of its own
    PLANS = {
        ("protocol", "moesi"): ("176c87ab06a50868", 353),
        ("protocol", "msi"): ("c70fea74cab18524", 353),
        ("protocol", "mesi"): ("983d9c48865a08fc", 353),
        ("topology", "mesh"): ("a9564eec30690a13", 329),
        ("topology", "torus"): ("d659aa374cf97027", 329),
        ("topology", "ring"): ("420976c7013a4b0a", 329),
        ("arbiter", "rr"): ("30a4d70451bd6862", 377),
        ("arbiter", "wrr"): ("4f78a99fb9af757c", 377),
    }

    @pytest.mark.parametrize("axis,value", sorted(PLANS))
    def test_axis_value_keeps_every_fingerprint(self, monkeypatch, axis,
                                                value):
        lines, count = [], 0
        for harness in self.HARNESSES:
            specs = TestSeedReachesEverySpec._plan(
                monkeypatch, harness, **{axis: value})
            count += len(specs)
            lines.append(harness + " " + "".join(
                sorted(s.fingerprint for s in specs)))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
        assert (digest, count) == self.PLANS[(axis, value)]
