"""Smoke tests for the experiment harnesses (small scales, fast)."""

import hashlib
import importlib
from dataclasses import replace

import pytest

from repro.experiments import (
    clear_cache,
    common,
    fig02_lco,
    fig07_synthesis,
    fig09_timing_profile,
    fig10_rtt,
    fig11_cs_expedition,
    fig12_roi,
    fig13_primitives,
    fig14_deployment,
    table1_config,
)
from repro.experiments.common import (
    ExperimentOptions,
    arithmetic_mean,
    benchmarks_for,
    by_group,
    format_table,
    geometric_mean,
)
from repro.experiments.runner import EXPERIMENTS, main as runner_main


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
        assert geometric_mean([1, 4]) == pytest.approx(2.0)
        assert arithmetic_mean([]) == 0.0
        assert geometric_mean([]) == 0.0

    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["xyz", 3]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "xyz" in out and "2.50" in out


class TestStaticExperiments:
    def test_table1_renders_config(self):
        out = table1_config.run().render()
        assert "8x8 mesh" in out
        assert "MOESI" in out

    def test_fig7_renders_synthesis(self):
        result = fig07_synthesis.run()
        out = result.render()
        assert "19900" in out.replace(",", "")
        assert result.generator_gates == 2500


class TestSimulationExperiments:
    """Tiny-scale runs to keep the suite quick."""

    def test_fig2_lco_ordering(self):
        result = fig02_lco.run(ExperimentOptions(scale=0.4),
                               benchmarks=("kdtree",))
        per = result.lco["kdtree"]
        assert set(per) == {"tas", "ticket", "abql", "mcs", "qsl"}
        assert per["tas"] > 0
        assert "LCO" in result.render()

    def test_fig9_profile_structure(self):
        result = fig09_timing_profile.run(ExperimentOptions(scale=0.4))
        rows = result.by_mechanism()
        assert set(rows) == {"original", "ocor", "inpg", "inpg+ocor"}
        for row in rows.values():
            total = row.parallel_share + row.coh_share + row.cse_share
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_fig10_microbench(self):
        result = fig10_rtt.run(cs_per_thread=1, parallel_cycles=100)
        assert set(result.results) == {"original", "inpg"}
        inpg = result.results["inpg"]
        assert inpg.early_share > 0
        heat = result.heat_map("original")
        assert len(heat) == 8

    def test_fig11_and_fig12_share_runs(self):
        clear_cache()
        small = ExperimentOptions(scale=0.4, quick=True)
        f11 = fig11_cs_expedition.run(small)
        f12 = fig12_roi.run(small)
        assert set(f11.expedition) == set(f12.relative_roi)
        for bench in f12.relative_roi:
            assert f12.relative_roi[bench]["original"] == 1.0
            assert f11.expedition[bench]["original"] == 1.0

    def test_fig13_covers_all_primitives(self):
        result = fig13_primitives.run(
            ExperimentOptions(scale=0.3, quick=True))
        first = next(iter(result.reduction.values()))
        assert set(first) == {"tas", "ticket", "abql", "mcs", "qsl"}

    def test_fig14_includes_zero_deployment(self):
        result = fig14_deployment.run(
            ExperimentOptions(scale=0.3, quick=True), deployments=(0, 32)
        )
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

    def test_topologies_ablation_pins_to_one_topology(self):
        from repro.experiments import ablation_topology

        result = ablation_topology.run(
            ExperimentOptions(scale=0.25, topology="torus"),
            benchmarks=("vips",),
        )
        assert result.topologies == ("torus",)
        assert all(key[0] == "torus" for key in result.roi_cycles)

    def test_fig15_small_meshes(self):
        from repro.experiments import fig15_sensitivity
        result = fig15_sensitivity.run(
            ExperimentOptions(scale=0.3, quick=True),
            dims=(2, 4), table_sizes=(16,)
        )
        assert (2, 16) in result.reduction
        assert (4, 16) in result.reduction
        assert "2x2" in result.render()


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
