"""Tests for result exporters and ASCII renderers."""

from repro.stats import (
    CoherenceStats,
    RunResult,
    ThreadMetrics,
    Timeline,
    render_gantt,
    render_mesh_heat_map,
    run_result_to_dict,
)


def sample_result():
    timeline = Timeline()
    timeline.begin(0, "parallel", 0)
    timeline.begin(0, "coh", 60)
    timeline.begin(0, "cse", 90)
    timeline.end(0, 100)
    tm = ThreadMetrics(thread=0)
    tm.parallel_cycles, tm.coh_cycles, tm.cse_cycles = 60, 30, 10
    tm.cs_completed = 1
    return RunResult(
        mechanism="inpg", primitive="qsl", benchmark="freqmine",
        roi_cycles=100, threads=[tm], coherence=CoherenceStats(),
        timeline=timeline,
    )


class TestSerialization:
    def test_dict_roundtrip(self):
        d = run_result_to_dict(sample_result())
        assert d["benchmark"] == "freqmine"
        assert d["roi_cycles"] == 100
        assert d["threads"][0]["coh"] == 30


class TestGantt:
    def test_renders_phases(self):
        result = sample_result()
        out = render_gantt(result.timeline, threads=[0], window=(0, 100),
                           width=10)
        assert "t0" in out
        body = out.splitlines()[1]
        assert "." in body      # parallel
        assert "#" in body      # coh
        assert "C" in body      # cse

    def test_empty_timeline(self):
        out = render_gantt(Timeline(), threads=[0])
        assert "t0" in out


class TestHeatMap:
    def test_mesh_layout(self):
        per_node = {0: 1.0, 3: 2.0, 15: 9.0}
        out = render_mesh_heat_map(per_node, 4, 4, title="RTT")
        lines = out.splitlines()
        assert lines[0] == "RTT"
        assert len(lines) == 5
        assert "9.0" in lines[4]
