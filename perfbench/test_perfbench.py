"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

import copy
import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(ROOT, "src"))

import child  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def test_nested_span_self_time():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def inner():
        clock.advance(2.0)

    traced_inner = tracer.wrap("noc.send", inner)

    def outer():
        clock.advance(1.0)
        traced_inner()
        clock.advance(0.5)
        traced_inner()

    tracer.wrap("coherence.handle", outer, record=True)()
    clock.advance(0.25)
    root_s = tracer.close_root()

    totals = spans.merge_totals([tracer.totals])
    assert totals["noc.send"] == [2, 4.0, 4.0, 0, 0]
    # outer: 5.5 s long, 4 s of it in two child spans
    assert totals["coherence.handle"] == [1, 5.5, 1.5, 2, 0]
    assert root_s == 5.75
    assert tracer.stack[0][:2] == [5.5, 1]  # root: one child, 5.5 s
    name, start, end, parent, trace_id = tracer.records[1]
    assert (name, end - start, parent) == ("coherence.handle", 5.5, 0)


def test_callbacks_nest_under_the_span_that_runs_them():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    dispatch = tracer.make_dispatch()

    def handler(n):
        clock.advance(n)

    def run_loop():
        clock.advance(1.0)
        dispatch("cpu.callback", handler, 3.0)

    tracer.wrap("sim.run", run_loop)()
    totals = spans.merge_totals([tracer.totals])
    assert totals["cpu.callback"] == [1, 3.0, 3.0, 0, 0]
    assert totals["sim.run"] == [1, 4.0, 1.0, 1, 0]


def test_span_records_an_exception_and_reraises():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("exec.run", boom)()
    assert spans.merge_totals([tracer.totals])["exec.run"][:3] == [1, 1.0, 1.0]
    assert len(tracer.stack) == 1


def traced_payload():
    return {
        "totals": {"plan": {
            # name: [calls, total_s, self_s, child_spans, schedules]
            "sim.run": [1, 10.0, 4.0, 100, 0],
            "noc.callback": [100, 6.0, 6.0, 0, 50],
        }},
        "counters": {"sim.events": 100},
        "own": {"plan": 0.5},
        "root_frame": [10.5, 1, 0],
    }


CAL = spans.Calibration(inside_s=0.01, outside_s=0.02, schedule_s=0.004)


def test_summarize_subtracts_calibrated_cost_and_accounts_for_root():
    # the traced run is slower by exactly the calibrated cost
    out = spans.summarize(traced_payload(), CAL, 11.0, 7.27)
    assert out["trace.cost_scale"] == pytest.approx(1.0)
    # sim.run: 4 - 1*0.01 - 100*0.02; noc: 6 - 100*0.01 - 50*0.004
    assert out["sim.self_s"] == pytest.approx(1.99)
    assert out["noc.self_s"] == pytest.approx(4.8)
    assert out["noc.calls"] == 100
    assert out["sim.ns_per_event"] == pytest.approx(1.99e7)
    assert out["trace.spans"] == 101
    # 11 s = 6.79 s of layers + 3.21 s of span cost + 0.5 s own + 0.02 s
    # root cost + 0.48 s in no span; 0.48 of the 7.27 s left untraced
    assert out["trace.unattributed_frac"] == pytest.approx(0.48 / 7.27)


def test_summarize_fits_the_span_cost_to_the_measured_slowdown():
    # the no-op calibration puts the span cost at 3.23 s (own time:
    # 0.5 s), but the traced run is 5.345 s slower than the untraced one
    out = spans.summarize(traced_payload(), CAL, 11.0, 5.655)
    assert out["trace.cost_scale"] == pytest.approx(1.5)
    assert out["sim.self_s"] == pytest.approx(4.0 - 1.5 * 2.01)
    assert out["noc.self_s"] == pytest.approx(6.0 - 1.5 * 1.2)
    # layers plus the root's own time, less its tracing cost, make up
    # the untraced run
    unattributed = 11.0 - 10.5 - 1.5 * 0.02
    layers = sum(out[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers + unattributed == pytest.approx(5.655)
    assert out["trace.unattributed_frac"] == pytest.approx(
        unattributed / 5.655)
    # a cost under 5% of the run is not fitted: the slowdown is noise
    assert spans.fit_scale(0.5, 0.0, 11.0, 5.655) == 1.0


def test_layer_of_maps_modules_to_layers():
    assert spans.layer_of("repro.system") == "system"
    assert spans.layer_of("repro.sim.kernel") == "sim"
    assert spans.layer_of("repro.noc.vecflit") == "vecflit"
    assert spans.layer_of("repro.noc.router") == "noc"
    assert spans.layer_of("repro.noc.shardflit") == "other"
    assert spans.layer_of("repro.inpg.big_router") == "inpg"
    assert spans.layer_of("spans") == "other"


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------
def test_run_metrics_scale_times_by_the_reference_loop():
    outputs = {"injected": 4, "events": 1200, "delivered": 4,
               "last_cycle": 50, "digest": "x"}
    ref = run.REFERENCE_S

    def report(slowdown):
        # at rest: ready 0.5 s after launch, two pieces of 1 s and 2 s,
        # a reference loop after set-up and after each piece, exit 0.1 s
        # after the work
        pieces = [1.0 * slowdown, 2.0 * slowdown]
        refs = [ref * slowdown] * 3
        ready = 0.5 * slowdown
        done = ready + sum(pieces) + sum(refs)
        return {"t_launch": 0.0, "t_ready": ready, "t_done": done,
                "t_exit": done + 0.1 * slowdown, "pieces": pieces,
                "refs": refs, "rss_kb": 2048, "outputs": outputs}

    at_rest = report(1.0)
    # the host ran at half speed: everything took twice as long
    slow = report(2.0)
    assert run.speed(at_rest) == pytest.approx(1.0)
    assert run.speed(slow) == pytest.approx(0.5)
    assert run.setup_time(slow) == pytest.approx(0.5)
    out = run.run_metrics("flit_mesh32", [at_rest, slow, slow],
                          [0.5, 0.5, 0.25])
    assert out["events_per_s"] == pytest.approx(1200 / 3.0)
    assert out["results_per_s"] == pytest.approx(4 / 3.0)
    # launch to exit, less the reference loops: 0.5 + 3 + 0.1 s
    assert out["wall_s"] == pytest.approx(3.6)
    assert out["setup_s"] == pytest.approx(0.5)
    assert out["peak_rss_mb"] == pytest.approx(2.0)
    assert out["sim_cycles"] == 50


def test_slicing_the_flit_drive_does_not_change_it():
    from repro.config import NocConfig
    from repro.noc import make_flit_network
    from repro.sim import Simulator

    def drive(slice_cycles):
        sim = Simulator()
        net = make_flit_network(sim, NocConfig(width=8, height=8), "vector")
        plan = child.flit_plan(3, packets=400, nodes=64)
        for cycle, src, dst, length in plan:
            sim.schedule_at(cycle, net.send, src, dst, length)
        timer = child.Timer(reference=True)
        if slice_cycles:
            child.drive_flit(sim, net, len(plan), timer,
                             slice_cycles=slice_cycles)
        else:
            sim.run(until=child.FLIT_UNTIL)
        stream = [(p.delivered_cycle, p.src, p.dst, p.length)
                  for p in net.delivered]
        return (sim.events_processed, sim.cycle, stream), timer

    whole, _ = drive(None)
    sliced, timer = drive(3)
    assert sliced == whole
    assert len(whole[2]) == 400
    # one reference loop after every slice
    assert len(timer.pieces) == len(timer.refs) > 2


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_names_units_and_bounds():
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    spec = load_benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics + spec["workloads"]]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert name_re.match(metric["name"]), metric
        assert unit_re.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    for workload in spec["workloads"]:
        assert name_re.match(workload["name"])
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert [w["name"] for w in spec["workloads"]] == list(run.DEFAULT_SEEDS)
    args = run.parse_args(["--workload", "fig12_cold"], spec)
    assert args.seconds == spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_a_traced_run_reports_every_per_layer_metric():
    out = spans.summarize(traced_payload(), CAL, 11.0, 5.655)
    # run.traced_run adds the metrics measured outside the trace
    out.update({"trace.overhead_frac": 1.0, "import_s": 0.2,
                "experiments.paper_gap_pp": 22.5})
    assert set(out) == {m["name"] for m in load_benchmark_json()["per_layer"]}


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def pinned_fig12_outputs():
    pins = run.pins_for("fig12_cold", 2018)
    return pins, {"runs": copy.deepcopy(pins["runs"]),
                  "paper_gap_pp": pins["paper_gap_pp"], "executed": None}


def test_fig12_gate_accepts_the_pins_and_rejects_a_perturbed_pin():
    pins, outputs = pinned_fig12_outputs()
    assert gate.fig12_failures(outputs, pins) == 0
    perturbed = copy.deepcopy(pins)
    perturbed["runs"]["nab/inpg"][0] += 1
    assert gate.fig12_failures(outputs, perturbed) == 1
    perturbed = dict(pins, paper_gap_pp=pins["paper_gap_pp"] + 1e-9)
    assert gate.fig12_failures(outputs, perturbed) == len(pins["runs"])


def test_fig12_gate_counts_missing_resimulated_and_divergent_runs():
    pins, outputs = pinned_fig12_outputs()
    outputs["runs"]["bwaves/ocor"] = None
    assert gate.fig12_failures(outputs) == 1
    _, replay = pinned_fig12_outputs()
    replay["executed"] = 3
    assert gate.fig12_failures(replay, reference=pinned_fig12_outputs()[1]) == 3
    _, other = pinned_fig12_outputs()
    other["runs"]["nab/ocor"][1] += 1
    assert gate.fig12_failures(other, reference=pinned_fig12_outputs()[1]) == 1


def test_flit_gate_rejects_a_perturbed_pin():
    pins = run.pins_for("flit_mesh32", 11)
    outputs = dict(pins)
    assert gate.flit_failures(outputs, pins) == 0
    for key, bad in (("digest", "0" * 64), ("events", pins["events"] + 1),
                     ("last_cycle", pins["last_cycle"] - 1)):
        assert gate.flit_failures(outputs, dict(pins, **{key: bad})) \
            == pins["injected"]
    lost = dict(outputs, delivered=pins["delivered"] - 2)
    assert gate.flit_failures(lost, reference=lost) == 2


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def test_seed_reaches_every_spec_of_the_plan():
    paper = child.build_plan(2018)
    other = child.build_plan(7)
    assert len(paper) == len(other) == 24
    assert {s.seed for s in other} == {7}
    paper_fps = {s.fingerprint for s in paper}
    assert len(paper_fps) == 24
    assert paper_fps.isdisjoint(s.fingerprint for s in other)


def test_flit_plan_is_the_repo_flit_mesh32_drive():
    from repro.perf.workloads import _uniform_flit_plan

    assert child.flit_plan(11) == _uniform_flit_plan(12_000, 1024, 16, 11)
    assert child.flit_plan(12, packets=64) != child.flit_plan(11, packets=64)


def test_every_default_seed_is_pinned():
    for workload, seed in run.DEFAULT_SEEDS.items():
        assert run.pins_for(workload, seed) is not None, workload


def test_tracing_does_not_change_a_run():
    from repro import api
    from repro.stats.serialize import serialize_run_result

    spec = api.RunSpec(benchmark="bwaves", mechanism="inpg", scale=0.05)
    plain = serialize_run_result(api.run_plan([spec], cache=False)[0])
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer)
        traced = serialize_run_result(api.run_plan([spec], cache=False)[0])
    finally:
        tracer.restore()
    assert traced == plain
    totals = spans.merge_totals([tracer.totals])
    assert totals["sim.run"][0] == 1
    assert totals["noc.callback"][0] > 0
    assert tracer.counters["sim.events"] == plain["extra"]["sim_events"]
