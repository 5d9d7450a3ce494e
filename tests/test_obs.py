"""Tests for ``repro.obs``: registry, tracer, exporters, end-to-end wiring.

The expensive end-to-end checks share one observed small iNPG run via a
module-scoped fixture; the golden-determinism suite separately pins that
an observed run is *bit-exact* with an unobserved one.
"""

import json

import pytest

from repro import api
from repro.exec import Executor, RunSpec
from repro.exec.executor import execute_spec
from repro.obs import DEFAULT_CAPACITY, Observation
from repro.obs.export import (
    PID_BIG_ROUTERS,
    PID_CORES,
    PID_STRIDE,
    PID_SYSTEM,
    chrome_trace_events,
    contention_report,
    counters_report,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.registry import Counter, Registry
from repro.obs.tracer import Tracer
from repro.sim import Simulator
from repro.stats.serialize import deserialize_run_result, serialize_run_result
from repro.system import run_benchmark

SMALL_RUN = dict(mechanism="inpg", primitive="qsl", scale=0.1, seed=2018)

#: event types the acceptance criteria require in an iNPG trace
REQUIRED_EVENTS = {"lock.handoff", "inpg.early_inv", "barrier.setup"}


@pytest.fixture(scope="module")
def observed_run():
    """One small observed iNPG run shared by the end-to-end tests."""
    observe = Observation(label="kdtree-small")
    result = run_benchmark("kdtree", observe=observe, **SMALL_RUN)
    return observe, result


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_create_and_fetch(self):
        reg = Registry()
        c = reg.counter("a/b")
        c.inc()
        c.add(4)
        assert int(c) == 5
        assert reg.counter("a/b") is c  # fetch, not recreate
        assert reg.read("a/b") == 5

    def test_gauge_reads_through(self):
        reg = Registry()
        state = {"n": 1}
        reg.gauge("g", lambda: state["n"])
        assert reg.read("g") == 1
        state["n"] = 7
        assert reg.read("g") == 7

    def test_gauges_prefix(self):
        reg = Registry()
        reg.gauges("noc", a=lambda: 1, b=lambda: 2)
        assert reg.read("noc/a") == 1 and reg.read("noc/b") == 2

    def test_duplicate_gauge_rejected(self):
        reg = Registry()
        reg.gauge("g", lambda: 0)
        with pytest.raises(ValueError):
            reg.gauge("g", lambda: 1)

    def test_counter_gauge_conflict(self):
        reg = Registry()
        reg.gauge("path", lambda: 0)
        with pytest.raises(ValueError):
            reg.counter("path")

    def test_snapshot_skips_raising_gauges(self):
        reg = Registry()
        reg.gauge("ok", lambda: 3)
        reg.gauge("broken", lambda: 1 / 0)
        assert reg.snapshot() == {"ok": 3.0}

    def test_subtree(self):
        reg = Registry()
        reg.gauges("noc", a=lambda: 1)
        reg.gauges("nocx", b=lambda: 2)
        reg.gauges("os", c=lambda: 3)
        assert reg.subtree("noc") == {"noc/a": 1.0}


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_emit_stamps_current_cycle(self):
        sim = Simulator()
        tracer = Tracer(sim)
        sim.schedule(5, lambda: tracer.emit("core/0", "ev", x=1))
        sim.run()
        assert tracer.records() == [(5, "core/0", "ev", {"x": 1})]

    def test_ring_keeps_newest(self):
        tracer = Tracer(Simulator(), capacity=4)
        for i in range(10):
            tracer.emit("c", "e", i=i)
        assert len(tracer) == 4
        assert tracer.emitted == 10
        assert tracer.dropped == 6
        assert [r[3]["i"] for r in tracer.records()] == [6, 7, 8, 9]

    def test_records_filters(self):
        tracer = Tracer(Simulator())
        tracer.emit("lock/0", "lock.acquire", core=1)
        tracer.emit("lock/1", "lock.release", core=1)
        tracer.emit("core/1", "net.inject", dst=2)
        assert len(tracer.records(component="lock/0")) == 1
        assert len(tracer.records(event="lock.")) == 2
        assert tracer.records(component="core/1", event="net.inject") == \
            [(0, "core/1", "net.inject", {"dst": 2})]

    def test_payload_round_trip(self):
        tracer = Tracer(Simulator())
        tracer.emit("os", "os.sleep", core=3, lock=0)
        payload = tracer.to_payload()
        assert json.loads(json.dumps(payload)) == payload
        assert Tracer.records_from_payload(payload) == tracer.records()

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Tracer(Simulator(), capacity=0)


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestChromeExport:
    RECORDS = [
        (10, "core/5", "net.inject", {"dst": 2}),
        (20, "big/12", "inpg.early_inv", {"addr": 7}),
        (30, "lock/0", "lock.acquire", {"core": 5}),
    ]

    def test_track_mapping(self):
        events = chrome_trace_events(records=self.RECORDS)
        instants = [e for e in events if e["ph"] == "i"]
        by_name = {e["name"]: e for e in instants}
        assert by_name["net.inject"]["pid"] == PID_CORES
        assert by_name["net.inject"]["tid"] == 5
        assert by_name["inpg.early_inv"]["pid"] == PID_BIG_ROUTERS
        assert by_name["inpg.early_inv"]["tid"] == 12
        assert by_name["lock.acquire"]["pid"] == PID_SYSTEM
        # system tracks get a thread_name metadata record
        assert any(
            e["ph"] == "M" and e["name"] == "thread_name"
            and e["args"]["name"] == "lock/0"
            for e in events
        )

    def test_phase_intervals_become_slices(self):
        events = chrome_trace_events(
            intervals=[(3, "cse", 100, 250)], label="x"
        )
        slices = [e for e in events if e["ph"] == "X"]
        assert slices == [{
            "ph": "X", "name": "cse", "cat": "phase",
            "ts": 100, "dur": 150, "pid": PID_CORES, "tid": 3,
        }]

    def test_combined_runs_stride_pids(self):
        doc = to_chrome_trace([
            ("a", self.RECORDS, ()),
            ("b", self.RECORDS, ()),
        ])
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert PID_CORES in pids and PID_CORES + PID_STRIDE in pids

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        path = tmp_path / "t.json"
        doc = write_chrome_trace(path, [("run", self.RECORDS, ())])
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(doc))
        assert loaded["otherData"]["source"] == "repro.obs"


class TestReports:
    def test_contention_report_counts(self):
        records = [
            (0, "lock/0", "lock.acquire", {"core": 1}),
            (50, "lock/0", "lock.release", {"core": 1}),
            (60, "lock/0", "lock.handoff", {"gap": 10}),
            (60, "lock/0", "lock.acquire", {"core": 2}),
        ]
        report = contention_report(records)
        assert "lock/0" in report
        # 2 acquires, 1 handoff, mean hold 50.0, mean gap 10.0
        assert "2        1       50.0        50              10.0" in report

    def test_contention_report_empty(self):
        assert contention_report([]) == "no lock events in trace"

    def test_counters_report(self):
        text = counters_report({"a/b": 3.0, "c": 1.5})
        assert "a/b" in text and "1.5" in text and "3" in text
        assert counters_report({}) == "no counters registered"


# ----------------------------------------------------------------------
# End-to-end wiring
# ----------------------------------------------------------------------
class TestObservedRun:
    def test_required_events_present(self, observed_run):
        observe, _ = observed_run
        names = {r[2] for r in observe.records()}
        assert REQUIRED_EVENTS <= names

    def test_counters_wired(self, observed_run):
        observe, result = observed_run
        counters = observe.counters()
        assert counters["sim/events_processed"] > 0
        assert counters["noc/packets_delivered"] > 0
        assert counters["threads/done"] == 64
        # iNPG big routers registered under inpg/bigN
        big = {k for k in counters if k.startswith("inpg/big")}
        assert big and any(k.endswith("invs_generated") for k in big)
        # coherence counters live under the active protocol's namespace
        assert sum(
            counters[k] for k in big if k.endswith("invs_generated")
        ) == counters["coherence/moesi/early_invs_generated"]

    def test_payload_folded_into_result(self, observed_run):
        observe, result = observed_run
        assert result.obs is not None
        assert result.obs["label"] == "kdtree-small"
        assert result.obs["counters"] == observe.counters()
        assert result.extra["obs/sim/events_processed"] == \
            observe.counters()["sim/events_processed"]

    def test_serialize_round_trip_preserves_obs(self, observed_run):
        _, result = observed_run
        round_tripped = deserialize_run_result(
            json.loads(json.dumps(serialize_run_result(result)))
        )
        assert round_tripped.obs == result.obs

    def test_save_load_result(self, observed_run, tmp_path):
        _, result = observed_run
        path = tmp_path / "run.json"
        api.save_result(result, path)
        loaded = api.load_result(path)
        assert loaded.obs == result.obs
        assert loaded.roi_cycles == result.roi_cycles

    def test_chrome_trace_schema(self, observed_run, tmp_path):
        observe, _ = observed_run
        path = tmp_path / "t.json"
        observe.write_chrome_trace(path)
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert isinstance(events, list) and events
        for event in events:
            assert event["ph"] in ("M", "X", "i")
            assert "pid" in event and "tid" in event
        assert REQUIRED_EVENTS <= {
            e["name"] for e in events if e["ph"] == "i"
        }
        # phase slices from the run timeline made it in
        assert any(e["ph"] == "X" for e in events)

    def test_contention_report_has_locks(self, observed_run):
        observe, _ = observed_run
        assert "lock/0" in observe.contention_report()

    def test_unobserved_run_has_no_obs(self):
        result = run_benchmark("kdtree", **SMALL_RUN)
        assert result.obs is None
        assert not any(k.startswith("obs/") for k in result.extra)

    def test_observed_matches_unobserved(self, observed_run):
        _, result = observed_run
        plain = run_benchmark("kdtree", **SMALL_RUN)
        assert plain.roi_cycles == result.roi_cycles
        assert plain.extra["sim_events"] == result.extra["sim_events"]


def observed_system(mechanism, primitive, threads):
    """A small 4x4 run built with an attached counters-only Observation."""
    from repro import ManyCoreSystem, SystemConfig, single_lock_workload
    from repro.config import NocConfig

    observe = Observation(trace=False)
    system = ManyCoreSystem(
        SystemConfig(noc=NocConfig(width=4, height=4), num_threads=16)
        .with_mechanism(mechanism),
        single_lock_workload(threads, home_node=5, cs_per_thread=2,
                             cs_cycles=60, parallel_cycles=150),
        primitive=primitive, observe=observe,
    )
    system.run(max_cycles=20_000_000)
    return system, observe.counters()


@pytest.fixture(scope="module")
def inpg_system():
    return observed_system("inpg", "tas", 16)


class TestBigRouterGauges:
    """The per-big-router counters live under ``inpg/big<node>/``."""

    GAUGES = {"packets_seen", "invs_generated", "getx_stopped",
              "acks_forwarded", "barriers_created", "barriers_expired",
              "ei_created"}

    @staticmethod
    def big_paths(counters):
        return [p for p in counters if p.startswith("inpg/big")]

    def test_one_gauge_set_per_big_router(self, inpg_system):
        system, counters = inpg_system
        by_node = {}
        for path in self.big_paths(counters):
            router, gauge = path.split("/")[1:]
            by_node.setdefault(int(router[len("big"):]), set()).add(gauge)
        assert sorted(by_node) == sorted(system.network.big_router_nodes())
        assert all(gauges == self.GAUGES for gauges in by_node.values())

    def test_getx_stopped_sums_to_the_protocol_counter(self, inpg_system):
        system, counters = inpg_system
        paths = self.big_paths(counters)
        stopped = sum(counters[p] for p in paths
                      if p.endswith("/getx_stopped"))
        proto = system.memsys.config.protocol
        assert stopped == counters[f"coherence/{proto}/getx_stopped"] \
            == system.memsys.stats.getx_stopped
        assert sum(counters[p] for p in paths
                   if p.endswith("/barriers_created")) > 0

    def test_original_run_registers_no_big_router(self):
        _, counters = observed_system("original", "mcs", 4)
        assert counters["threads/done"] == 4
        assert self.big_paths(counters) == []


class TestObservedFlitRun:
    def test_every_registered_noc_gauge_reads(self):
        """A counters-only flit run snapshots every ``noc/*`` path it
        registered: the flit fabric gets no packet-router gauges (hops,
        port queues) it cannot answer."""
        from repro import ManyCoreSystem, SystemConfig, single_lock_workload
        from repro.config import NocConfig

        observe = Observation(trace=False)
        ManyCoreSystem(
            SystemConfig(
                noc=NocConfig(width=4, height=4, flit_level=True),
                num_threads=16,
            ),
            single_lock_workload(8, home_node=5, cs_per_thread=2,
                                 cs_cycles=50, parallel_cycles=150),
            primitive="mcs", observe=observe,
        ).run(max_cycles=20_000_000)
        registered = {p for p in observe.registry if p.startswith("noc/")}
        assert "noc/packets_delivered" in registered
        assert registered == {
            p for p in observe.counters() if p.startswith("noc/")
        }


class TestApiTraceContext:
    def test_trace_writes_on_exit(self, tmp_path):
        path = tmp_path / "t.json"
        config = api.SystemConfig().with_mechanism("inpg")
        workload = api.generate_workload(
            "kdtree", num_threads=config.num_threads,
            mesh_nodes=config.noc.num_nodes, scale=0.1, seed=2018,
        )
        with api.trace(out=path, label="ctx") as obs:
            api.simulate(config, workload, "qsl", observe=obs)
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]
        assert obs.attached and obs.result is not None

    def test_trace_unattached_writes_nothing(self, tmp_path):
        path = tmp_path / "t.json"
        with api.trace(out=path):
            pass
        assert not path.exists()

    def test_trace_ring_defaults_to_the_tracer_capacity(self):
        with api.trace() as obs:
            assert obs.trace_capacity == DEFAULT_CAPACITY == 262_144
        with api.trace(capacity=16) as obs:
            assert obs.trace_capacity == 16


class TestExecutorObserved:
    def test_observe_factory_bypasses_cache(self, tmp_path):
        spec = RunSpec(benchmark="kdtree", **SMALL_RUN)
        executor = Executor(
            jobs=1, cache_dir=tmp_path,
            observe_factory=lambda s: Observation(label=s.label()),
        )
        results = executor.run([spec])
        observe = executor.observation_for(spec)
        assert observe is not None and observe.attached
        assert results[spec].obs is not None
        # nothing persisted: observed plans never touch the cache
        assert not list(tmp_path.rglob("*.json"))

    def test_run_plan_with_observe_factory(self):
        specs = [RunSpec(benchmark="kdtree", **SMALL_RUN)]
        results = api.run_plan(
            specs, cache=False,
            observe_factory=lambda s: Observation(label=s.label()),
        )
        assert results[0].obs is not None

    def test_execute_spec_observed_equals_cached_path(self, tmp_path):
        spec = RunSpec(benchmark="kdtree", **SMALL_RUN)
        observed = execute_spec(spec, observe=Observation())
        plain = Executor(jobs=1, cache_dir=tmp_path).run_one(spec)
        assert observed.roi_cycles == plain.roi_cycles


# ----------------------------------------------------------------------
# CLIs
# ----------------------------------------------------------------------
class TestCli:
    def test_inpg_sim_trace_flags(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "t.json"
        code = main([
            "kdtree", "--mechanism", "inpg", "--scale", "0.1",
            "--no-cache", "--trace", "--trace-out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert REQUIRED_EVENTS <= {
            e["name"] for e in doc["traceEvents"] if e["ph"] == "i"
        }
        assert "lock contention timeline" in capsys.readouterr().out

    def test_inpg_trace_cli(self, tmp_path, capsys):
        from repro.obs.cli import main

        out = tmp_path / "t.json"
        code = main([
            "kdtree", "--mechanism", "inpg", "--scale", "0.1",
            "--events", "-o", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert REQUIRED_EVENTS <= {
            e["name"] for e in doc["traceEvents"] if e["ph"] == "i"
        }
        captured = capsys.readouterr().out
        assert "kdtree[inpg/qsl scale=0.1 seed=2018]: roi=" in captured
        assert "inpg.early_inv" in captured
        assert "lock contention timeline" in captured
