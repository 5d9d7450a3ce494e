"""Determinism across process boundaries.

The parallel executor and the disk cache both rest on one invariant: a
run is a pure function of its spec, so executing in a worker subprocess
(and shipping the result back through serialization) yields exactly the
simulation an in-process run yields.
"""

import json

import pytest

from repro.config import NocConfig, SystemConfig
from repro.exec import Executor, RunSpec
from repro.exec import executor as executor_mod
from repro.exec.executor import _pool_worker, execute_spec
from repro.stats.serialize import (
    deserialize_run_result,
    serialize_run_result,
)


def specs():
    cfg = SystemConfig(noc=NocConfig(width=4, height=4), num_threads=16)
    return [
        RunSpec.microbench(
            home_node=5, cs_per_thread=2, cs_cycles=60, parallel_cycles=150,
            mechanism=mech, primitive="tas", config=cfg,
        )
        for mech in ("original", "inpg")
    ]


@pytest.fixture(scope="module")
def inline_results():
    ex = Executor(jobs=1, use_cache=False)
    plan = specs()
    return plan, ex.run(plan)


class TestWorkerEquivalence:
    def test_pool_worker_protocol_matches_inline(self, inline_results):
        # the exact function ProcessPoolExecutor runs, called directly:
        # serialize -> deserialize must reproduce the inline run
        plan, inline = inline_results
        for spec in plan:
            fingerprint, payload, wall = _pool_worker(spec)
            assert fingerprint == spec.fingerprint
            assert wall > 0
            shipped = deserialize_run_result(payload)
            mine = inline[spec]
            assert shipped.roi_cycles == mine.roi_cycles
            assert shipped.network_packets == mine.network_packets
            assert shipped.coherence.msg_counts == mine.coherence.msg_counts
            assert shipped.summary() == mine.summary()

    def test_subprocess_execution_matches_inline(self, inline_results):
        # a real ProcessPoolExecutor fan-out (jobs=2, two specs)
        plan, inline = inline_results
        ex = Executor(jobs=2, use_cache=False)
        parallel = ex.run(plan)
        assert ex.stats.executed == 2
        for spec in plan:
            mine, theirs = inline[spec], parallel[spec]
            assert theirs.roi_cycles == mine.roi_cycles
            assert theirs.network_packets == mine.network_packets
            assert theirs.coherence.msg_counts == mine.coherence.msg_counts
            assert (len(theirs.coherence.lock_txns) ==
                    len(mine.coherence.lock_txns))
            assert (len(theirs.coherence.inv_records) ==
                    len(mine.coherence.inv_records))
            assert theirs.timeline.intervals == mine.timeline.intervals

    def test_pool_writes_what_its_workers_serialized(
            self, inline_results, tmp_path, monkeypatch):
        """A pool's cache entries hold the payloads its workers
        serialized: the plan's own process encodes no result."""
        plan, inline = inline_results
        calls = []

        def counting(result):
            calls.append(result)
            return serialize_run_result(result)

        monkeypatch.setattr(executor_mod, "serialize_run_result", counting)
        ex = Executor(jobs=2, cache_dir=tmp_path)
        ex.run(plan)
        assert ex.stats.executed == 2
        assert calls == []
        for spec in plan:
            entry = json.loads(
                (tmp_path / f"{spec.fingerprint}.json").read_text())
            assert entry["result"] == json.loads(
                json.dumps(serialize_run_result(inline[spec])))

    def test_execute_spec_is_reproducible(self):
        spec = specs()[0]
        first = execute_spec(spec)
        second = execute_spec(spec)
        assert first.roi_cycles == second.roi_cycles
        assert first.summary() == second.summary()
