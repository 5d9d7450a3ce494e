"""The simulation service: proto schema, store, e2e dedupe, parity.

The e2e tests boot a real ``inpg-serve`` on an ephemeral port (the
asyncio loop runs on a background thread) and talk to it through the
same :class:`~repro.serve.client.ServiceClient` /
:class:`~repro.serve.client.RemoteExecutor` the ``--remote`` CLI flags
use, so the wire protocol, the dedupe path and the result store are all
exercised exactly as a remote harness would.
"""

import json

import pytest

from repro.config import SystemConfig
from repro.exec import Executor, RunSpec
from repro.exec.executor import FailureRecord
from repro.serve import proto
from repro.serve.client import (
    LocalClient,
    RemoteExecutor,
    ServiceClient,
    connect,
)
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

    def test_events_stream_ends_terminal(self, client):
        spec = RunSpec(**GOLDEN_SPEC)
        job = client.submit([spec])
        events = list(client.iter_events(job["id"]))
        assert events and events[-1]["state"] == "done"

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

    def test_unknown_routes_are_structured_errors(self, client):
        with pytest.raises(proto.ProtoError, match="unknown-job"):
            client.job("j999")
        with pytest.raises(proto.ProtoError, match="not-found"):
            client._request("GET", "/nope")


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
            jobs=remote.jobs, cache_dir=remote.cache.directory)
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


class TestConnect:
    def test_local_client_runs_in_process(self):
        client = connect(jobs=1, use_cache=False)
        assert isinstance(client, LocalClient)
        spec = RunSpec(**GOLDEN_SPEC)
        job = client.submit([spec])
        assert job["state"] == "done"
        assert client.result(spec.fingerprint).roi_cycles > 0

    def test_remote_url_gives_service_client(self, service):
        client = connect(service.url)
        assert isinstance(client, ServiceClient)
        assert client.health()["status"] == "ok"

    def test_executor_kwargs_rejected_for_remote(self):
        with pytest.raises(TypeError, match="owns its own executor"):
            connect("http://127.0.0.1:1", jobs=4)
