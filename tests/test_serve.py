"""The simulation service: proto schema, store, e2e dedupe, parity.

The e2e tests boot a real ``inpg-serve`` on an ephemeral port (the
asyncio loop runs on a background thread) and talk to it through the
same :class:`~repro.serve.client.ServiceClient` /
:class:`~repro.serve.client.RemoteExecutor` the ``--remote`` CLI flags
use, so the wire protocol, the dedupe path and the result store are all
exercised exactly as a remote harness would.
"""

import json
import threading

import pytest

from repro.cli import footer_cache_dir
from repro.config import SystemConfig
from repro.exec import Executor, RunSpec
from repro.exec.executor import FailureRecord
from repro.serve import proto
from repro.serve.client import RemoteExecutor, ServiceClient
from repro.serve.server import start_in_thread
from repro.serve.store import ResultStore
from repro.stats.serialize import (
    failure_record_from_dict,
    failure_record_to_dict,
    result_fingerprint,
)

#: the e2e workload: small enough for CI, real enough to hit the full
#: simulator; its *spec* fingerprint is pinned (content-addressing must
#: not drift across releases, or every deployed cache goes cold)
GOLDEN_SPEC = dict(benchmark="bwaves", mechanism="original", scale=0.25)
GOLDEN_SPEC_FINGERPRINT = (
    "37cd7c9c169095b3ce1744bcd1f64f6a755ff250f426ec21e04592bd6b62254c"
)


# ----------------------------------------------------------------------
# Proto schema
# ----------------------------------------------------------------------
class TestProto:
    def test_submit_round_trip(self):
        specs = [
            RunSpec(**GOLDEN_SPEC),
            RunSpec(benchmark="kdtree", mechanism="inpg",
                    primitive="tas", scale=0.5, seed=7,
                    config=SystemConfig(protocol="msi"),
                    check_protocol=True),
        ]
        request = proto.submit_request(specs, timeout_s=1.5, retries=2)
        wire = json.loads(json.dumps(request))  # a real wire hop
        decoded, policy = proto.decode_submit(wire)
        assert decoded == specs
        assert [s.fingerprint for s in decoded] == \
            [s.fingerprint for s in specs]
        assert policy == {"timeout_s": 1.5, "retries": 2}

    def test_unknown_version_rejected(self):
        request = proto.submit_request([RunSpec(**GOLDEN_SPEC)])
        request["proto"] = proto.PROTO_SCHEMA_VERSION + 1
        with pytest.raises(proto.ProtoError, match="proto version"):
            proto.decode_submit(request)

    def test_unknown_kind_and_unknown_policy_rejected(self):
        with pytest.raises(proto.ProtoError, match="kind"):
            proto.envelope("gossip")
        request = proto.submit_request([RunSpec(**GOLDEN_SPEC)])
        request["policy"]["jobs"] = 4  # server-owned, not negotiable
        with pytest.raises(proto.ProtoError, match="policy"):
            proto.decode_submit(request)
        # the service always runs on_error="skip"; RemoteExecutor raises
        request = proto.submit_request([RunSpec(**GOLDEN_SPEC)])
        request["policy"]["on_error"] = "raise"
        with pytest.raises(proto.ProtoError, match="on_error"):
            proto.decode_submit(request)

    def test_error_envelope_surfaces_as_proto_error(self):
        message = proto.error_message("unknown-job", "no job 'j9'")
        with pytest.raises(proto.ProtoError, match="unknown-job"):
            proto.open_envelope(message, "job")

    def test_undecodable_spec_rejected(self):
        request = proto.submit_request([RunSpec(**GOLDEN_SPEC)])
        request["specs"][0]["config"] = {"noc": {"no_such_field": 1}}
        with pytest.raises(proto.ProtoError, match="undecodable spec"):
            proto.decode_submit(request)

    @pytest.mark.parametrize("key,value", [
        ("protocol", "msi"), ("topology", "torus"), ("arbiter", "wrr"),
    ])
    def test_v1_spec_axis_keys_rejected(self, key, value):
        # proto v1 specs carried these axes beside the config; decoding
        # one leniently would run the spec on the default fabric
        request = proto.submit_request([RunSpec(**GOLDEN_SPEC)])
        request["specs"][0][key] = value
        with pytest.raises(proto.ProtoError, match=key):
            proto.decode_submit(request)

    def test_golden_spec_fingerprint_pinned(self):
        assert RunSpec(**GOLDEN_SPEC).fingerprint == \
            GOLDEN_SPEC_FINGERPRINT


# ----------------------------------------------------------------------
# FailureRecord round trip (satellite bugfix: footer failures must be
# queryable from the result store)
# ----------------------------------------------------------------------
class TestFailureRecordSerialization:
    RECORD = FailureRecord(
        fingerprint="ab" * 32, label="bwaves[original/qsl]",
        error_type="RunTimeout", message="budget exceeded\ndetail",
        attempts=3, wall_time=1.25,
    )

    def test_round_trip(self):
        payload = json.loads(json.dumps(
            failure_record_to_dict(self.RECORD)))
        assert failure_record_from_dict(payload) == self.RECORD

    def test_schema_version_checked(self):
        payload = failure_record_to_dict(self.RECORD)
        payload["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            failure_record_from_dict(payload)

    def test_store_persists_and_queries_failures(self, tmp_path):
        from repro.exec.cache import ResultCache

        store = ResultStore(ResultCache(tmp_path / "cache"))
        store.record_failure(self.RECORD)
        # a second store over the same directory sees it (disk, not
        # just the in-memory table)
        reread = ResultStore(ResultCache(tmp_path / "cache"))
        record = reread.get_failure(self.RECORD.fingerprint)
        assert record == self.RECORD
        assert reread.summary()["failures"] == 1


# ----------------------------------------------------------------------
# End-to-end service
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def service(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("serve-store")
    handle = start_in_thread(
        Executor(jobs=1, cache_dir=cache_dir, on_error="skip"))
    yield handle
    handle.stop()


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(service.url)


class TestServiceEndToEnd:
    def test_health_reports_versions(self, client):
        health = client.health()
        assert health["kind"] == "health"
        assert health["status"] == "ok"
        assert health["proto"] == proto.PROTO_SCHEMA_VERSION

    def test_duplicate_pair_executes_once(self, client):
        spec = RunSpec(**GOLDEN_SPEC)
        job = client.submit([spec, spec])
        assert job["counts"]["queued"] == 1
        assert job["counts"]["deduped"] == 1
        final = client.wait(job["id"], timeout_s=300)
        assert final["state"] == "done"
        assert final["counts"]["done"] == 1
        assert final["counts"]["deduped"] == 1
        assert final["specs"][0]["fingerprint"] == \
            GOLDEN_SPEC_FINGERPRINT
        counters = client.stats()["counters"]
        assert counters["serve/specs_executed"] == 1
        assert counters["serve/deduped_inflight"] == 1

    def test_resubmission_dedupes_against_cache(self, client):
        spec = RunSpec(**GOLDEN_SPEC)
        before = client.stats()["counters"]
        job = client.submit([spec])
        assert job["state"] == "done"  # resolved at submit time
        assert job["counts"]["cached"] == 1
        after = client.stats()["counters"]
        assert after["serve/deduped_cache"] == \
            before.get("serve/deduped_cache", 0) + 1
        assert after["serve/specs_executed"] == \
            before["serve/specs_executed"]  # nothing re-ran

    def test_remote_result_matches_local_bit_for_bit(self, client):
        remote = client.result(GOLDEN_SPEC_FINGERPRINT)
        local = Executor(jobs=1, use_cache=False).run_one(
            RunSpec(**GOLDEN_SPEC))
        assert result_fingerprint(remote) == result_fingerprint(local)

    def test_store_index_lists_the_run(self, client):
        rows = client.store_index()
        assert any(row["fingerprint"] == GOLDEN_SPEC_FINGERPRINT
                   and row["benchmark"] == "bwaves" for row in rows)

    def test_store_index_leaves_the_loop_free(self, service,
                                              monkeypatch):
        """GET /v1/store builds its index (which reads every entry) off
        the service's event loop: while the index is being built, the
        service still answers health."""
        store = service.service.store
        index = store.index
        entered, release = threading.Event(), threading.Event()

        def slow_index(*args, **kwargs):
            entered.set()
            release.wait(10.0)
            return index(*args, **kwargs)

        monkeypatch.setattr(store, "index", slow_index)
        rows = []
        reader = threading.Thread(target=lambda: rows.extend(
            ServiceClient(service.url).store_index()))
        reader.start()
        try:
            assert entered.wait(10.0)
            health = ServiceClient(service.url, timeout=2.0).health()
            assert health["status"] == "ok"
        finally:
            release.set()
            reader.join(15.0)
        assert not reader.is_alive()
        assert any(row["fingerprint"] == GOLDEN_SPEC_FINGERPRINT
                   for row in rows)

    def test_done_row_carries_its_run(self, service, client, monkeypatch):
        """A done spec's row in the job payload carries the run's
        simulated events and cycles, read from the records its own batch
        appended, not from a scan of every record the executor holds."""

        class NoScan(list):
            def __iter__(self):
                raise AssertionError("scanned every run record")

            __reversed__ = __iter__

        stats = service.service.executor.stats
        monkeypatch.setattr(stats, "records", NoScan(stats.records))
        spec = RunSpec.microbench(home_node=6,
                                  config=SystemConfig(num_threads=3))
        final = client.wait(client.submit([spec])["id"], timeout_s=120)
        assert final["state"] == "done"
        row = final["specs"][0]
        assert row["state"] == "done"
        result = client.result(spec.fingerprint)
        assert row["sim_cycles"] == result.roi_cycles > 0
        assert row["sim_events"] == int(result.extra["sim_events"]) > 0

    def test_events_route_is_a_bad_route(self, client):
        """There is no event stream: a job's progress is polled, and
        ``GET /v1/jobs/<id>/events`` answers the structured 405 every
        route outside the proto gets."""
        import http.client

        job = client.submit([RunSpec(**GOLDEN_SPEC)])
        conn = http.client.HTTPConnection(client.host, client.port,
                                          timeout=client.timeout)
        try:
            conn.request("GET", f"/v1/jobs/{job['id']}/events")
            response = conn.getresponse()
            assert response.status == 405
            assert response.getheader("Content-Type") == \
                "application/json"
            body = json.loads(response.read().decode("utf-8"))
        finally:
            conn.close()
        assert body["kind"] == "error"
        assert body["error"] == "bad-route"
        with pytest.raises(proto.ProtoError, match="bad-route"):
            proto.open_envelope(body, "job")

    def test_failed_run_is_recorded_and_queryable(self, client):
        spec = RunSpec(benchmark="kdtree", mechanism="original",
                       scale=0.25)
        job = client.submit([spec], timeout_s=0.0)  # instant budget
        final = client.wait(job["id"], timeout_s=60)
        assert final["counts"]["failed"] == 1
        record = client.failure(spec.fingerprint)
        assert record is not None
        assert record.error_type == "RunTimeout"
        with pytest.raises(proto.ProtoError, match="unknown-result"):
            client.result(spec.fingerprint)

    def test_one_cache_write_per_executed_spec(self, service, client,
                                               monkeypatch):
        """The service keeps each result once: where its executor wrote
        it, with no second copy of its own."""
        cache = service.service.executor.cache
        put = cache.put
        writes = []

        def counting_put(fingerprint, *args, **kwargs):
            writes.append(fingerprint)
            put(fingerprint, *args, **kwargs)

        monkeypatch.setattr(cache, "put", counting_put)
        spec = RunSpec.microbench(home_node=5,
                                  config=SystemConfig(num_threads=4))
        final = client.wait(client.submit([spec])["id"], timeout_s=120)
        assert final["counts"]["done"] == 1
        assert writes == [spec.fingerprint]

    def test_fresh_result_supersedes_the_failure(self, client):
        """A fingerprint that failed and then ran is served as a result
        and no longer as a failure, from memory or from disk."""
        spec = RunSpec.microbench(home_node=5,
                                  config=SystemConfig(num_threads=2))
        failed = client.wait(
            client.submit([spec], timeout_s=0.0)["id"], timeout_s=60)
        assert failed["counts"]["failed"] == 1
        assert client.failure(spec.fingerprint).error_type == "RunTimeout"
        failures = client.stats()["store"]["failures"]
        final = client.wait(client.submit([spec])["id"], timeout_s=120)
        assert final["counts"]["done"] == 1
        assert client.result(spec.fingerprint).roi_cycles > 0
        with pytest.raises(proto.ProtoError, match="unknown-failure"):
            client._request("GET", f"/v1/failures/{spec.fingerprint}",
                            kind="failure")
        assert client.stats()["store"]["failures"] == failures - 1

    def test_unknown_routes_are_structured_errors(self, client):
        with pytest.raises(proto.ProtoError, match="unknown-job"):
            client.job("j999")
        with pytest.raises(proto.ProtoError, match="not-found"):
            client._request("GET", "/nope")


class TestServiceKeepsResultsOnce:
    """A cached service reads its results from the cache directory and
    keeps none in memory; without a directory, memory is the store."""

    @staticmethod
    def specs():
        return [RunSpec.microbench(home_node=home,
                                   config=SystemConfig(num_threads=2))
                for home in (1, 2, 3)]

    def test_cached_service_holds_no_result_in_memory(self, service,
                                                      client):
        specs = self.specs()
        final = client.wait(client.submit(specs)["id"], timeout_s=120)
        assert final["counts"]["done"] == 3
        assert service.service.executor._memory == {}
        local = Executor(jobs=1, use_cache=False).run(specs)
        for spec in specs:
            assert result_fingerprint(client.result(spec.fingerprint)) \
                == result_fingerprint(local[spec])

    def test_uncached_service_holds_its_results(self):
        executor = Executor(jobs=1, use_cache=False, on_error="skip")
        handle = start_in_thread(executor)
        try:
            client = ServiceClient(handle.url)
            specs = self.specs()
            final = client.wait(client.submit(specs)["id"], timeout_s=120)
            assert final["counts"]["done"] == 3
            assert len(executor._memory) == 3
            for spec in specs:
                assert client.result(spec.fingerprint).roi_cycles > 0
        finally:
            handle.stop()

    def test_rows_of_another_schema_are_absent(self, tmp_path):
        """A failure record and a cache entry written under an older
        result schema are neither served nor listed, and a submit
        re-runs the entry's spec: the executor reads such an entry as a
        miss."""
        from repro.stats.serialize import RESULT_SCHEMA_VERSION

        spec = RunSpec.microbench(home_node=4,
                                  config=SystemConfig(num_threads=2))
        fp, stale = spec.fingerprint, RESULT_SCHEMA_VERSION - 1
        (tmp_path / f"{fp}.json").write_text(json.dumps({
            "schema": stale, "fingerprint": fp,
            "spec": spec.canonical_payload(),
            "result": {"schema": stale}, "meta": {},
        }))
        failure = failure_record_to_dict(TestFailureRecordSerialization
                                         .RECORD)
        failure.update(schema=stale, fingerprint=fp)
        (tmp_path / "failures").mkdir()
        (tmp_path / "failures" / f"{fp}.json").write_text(
            json.dumps(failure))
        handle = start_in_thread(
            Executor(jobs=1, cache_dir=tmp_path, on_error="skip"))
        try:
            client = ServiceClient(handle.url)
            with pytest.raises(proto.ProtoError, match="unknown-failure"):
                client._request("GET", f"/v1/failures/{fp}",
                                kind="failure")
            assert client.failure(fp) is None
            # what a deduped spec's re-check reads
            assert handle.service.store.get_failure_payload(fp) is None
            assert all(row["fingerprint"] != fp
                       for row in client.store_index())
            job = client.submit([spec])
            assert job["counts"]["queued"] == 1
            final = client.wait(job["id"], timeout_s=120)
            assert final["counts"]["done"] == 1
            assert client.result(fp).roi_cycles > 0
            assert [row["fingerprint"] for row in client.store_index()] \
                == [fp]
        finally:
            handle.stop()


    def test_stats_count_only_results_of_this_schema(self, tmp_path):
        """GET /v1/stats counts the results the executor can read: over
        a directory holding one entry of this schema and one of an older
        one it reports one result, as GET /v1/store lists one."""
        from repro.stats.serialize import RESULT_SCHEMA_VERSION

        current, older = (RunSpec.microbench(
            home_node=home, config=SystemConfig(num_threads=2))
            for home in (1, 2))
        Executor(jobs=1, cache_dir=tmp_path).run_one(current)
        stale = RESULT_SCHEMA_VERSION - 1
        (tmp_path / f"{older.fingerprint}.json").write_text(json.dumps({
            "schema": stale, "fingerprint": older.fingerprint,
            "spec": older.canonical_payload(),
            "result": {"schema": stale}, "meta": {},
        }))
        handle = start_in_thread(
            Executor(jobs=1, cache_dir=tmp_path, on_error="skip"))
        try:
            client = ServiceClient(handle.url)
            assert client.stats()["store"]["results"] == 1
            assert [row["fingerprint"] for row in client.store_index()] \
                == [current.fingerprint]
        finally:
            handle.stop()


class TestRemoteExecutor:
    def test_facade_matches_local_fingerprint(self, service):
        remote = RemoteExecutor(service.url)
        spec = RunSpec(**GOLDEN_SPEC)
        result = remote.run_one(spec)
        local = Executor(jobs=1, use_cache=False).run_one(spec)
        assert result_fingerprint(result) == result_fingerprint(local)
        # the run was served from the service's cache: a shared hit
        assert remote.stats.disk_hits == 1
        assert remote.stats.executed == 0
        # footer renders with the remote store as the cache line
        footer = remote.stats.render_footer(
            jobs=remote.jobs, cache_dir=footer_cache_dir(remote))
        assert service.url in footer

    def test_raise_mode_surfaces_service_failures(self, service):
        from repro.errors import ExecutorError

        remote = RemoteExecutor(service.url)
        spec = RunSpec(benchmark="md", mechanism="original",
                       scale=0.25)
        with pytest.raises(ExecutorError, match="RunTimeout"):
            remote.run([spec], timeout_s=0.0)

    def test_skip_mode_records_failure(self, service):
        remote = RemoteExecutor(service.url, on_error="skip")
        spec = RunSpec(benchmark="swim", mechanism="original",
                       scale=0.25)
        results = remote.run([spec], timeout_s=0.0)
        assert results[spec] is None
        assert remote.stats.failed == 1
        assert remote.stats.failures[0].error_type == "RunTimeout"

    def test_remote_figure_replays_from_the_service_store(
            self, service, capsys, monkeypatch):
        """``inpg-experiments fig12 --remote`` twice: the second
        invocation executes nothing, every spec resolving from the
        service's store at submit time."""
        from repro.experiments import common
        from repro.experiments.runner import main as runner_main

        # the runner installs a remote executor; restore the suite's
        monkeypatch.setattr(common, "_EXECUTOR", common._EXECUTOR)
        argv = ["fig12", "--quick", "--scale", "0.1",
                "--remote", service.url]
        assert runner_main(argv) == 0
        assert "run execution summary" in capsys.readouterr().out
        assert runner_main(argv) == 0
        second = capsys.readouterr().out
        assert "executed: 0" in second
        assert "hit rate: 100.0%" in second
        stats = ServiceClient(service.url).stats()
        assert stats["counters"]["serve/deduped_cache"] > 0
        assert stats["counters"]["serve/specs_executed"] > 0
        assert stats["store"]["results"] > 0


class TestRemoteFlag:
    """``--remote`` end to end: a tool prints what its local run does."""

    def test_inpg_sim_remote_matches_local(self, service, capsys):
        from repro.cli import main

        argv = ["microbench", "--threads", "8", "--home", "5", "--json"]
        assert main(argv + ["--no-cache"]) == 0
        local = capsys.readouterr().out
        assert main(argv + ["--remote", service.url]) == 0
        assert capsys.readouterr().out == local
        assert json.loads(local)["roi_cycles"] > 0

    def test_inpg_faults_remote_matches_local(self, service, tmp_path,
                                              capsys):
        from repro.faults.campaign import main

        argv = ["--faults", "drop:1/Inv#500..", "delay:0.5+64",
                "--threads", "16", "--home", "5", "--watchdog", "10000",
                "--max-cycles", "2000000", "--json"]
        local, remote = tmp_path / "local.json", tmp_path / "remote.json"
        assert main(argv + [str(local), "--no-cache"]) == 0
        assert main(argv + [str(remote), "--remote", service.url]) == 0
        capsys.readouterr()
        local, remote = (json.loads(path.read_text())
                         for path in (local, remote))
        assert remote["outcomes"] == local["outcomes"] == {
            "detected": 1, "silent-divergence": 1}
        assert remote["rows"] == local["rows"]
        assert remote["baseline"] == local["baseline"]
        assert service.url in remote["footer"]
