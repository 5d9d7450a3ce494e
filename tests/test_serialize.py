"""Round-trip tests for the lossless RunResult serialization layer.

The parallel executor and the disk cache both rely on
``serialize_run_result`` / ``deserialize_run_result`` preserving every
field the figure modules consume: ROI cycles, COH/CSE/LCO accounting,
timeline phases, coherence records and network counters.
"""

import dataclasses
import functools
import json

import pytest

from repro.stats import (
    RESULT_SCHEMA_VERSION,
    deserialize_run_result,
    serialize_run_result,
)
from repro.stats.coherence_stats import (
    CoherenceStats,
    InvRecord,
    LockTxnRecord,
)
from repro.stats.metrics import ThreadMetrics
from repro.stats.serialize import (
    threads_from_columns,
    threads_to_columns,
    timeline_from_dict,
    timeline_to_dict,
)
from repro.stats.timeline import PhaseInterval, Timeline
from repro.system import run_benchmark


@pytest.fixture(scope="module")
def result():
    return run_benchmark("vips", mechanism="inpg", primitive="tas",
                         scale=0.3)


@pytest.fixture(scope="module")
def roundtripped(result):
    # through an actual JSON string, exactly as the disk cache stores it
    payload = json.loads(json.dumps(serialize_run_result(result)))
    return deserialize_run_result(payload)


class TestRunResultRoundTrip:
    def test_headline_metrics(self, result, roundtripped):
        assert roundtripped.roi_cycles == result.roi_cycles
        assert roundtripped.benchmark == result.benchmark
        assert roundtripped.mechanism == result.mechanism
        assert roundtripped.primitive == result.primitive
        assert roundtripped.summary() == result.summary()

    def test_coh_cse_accounting(self, result, roundtripped):
        assert roundtripped.total_coh == result.total_coh
        assert roundtripped.total_cse == result.total_cse
        assert roundtripped.cs_completed == result.cs_completed
        assert roundtripped.avg_cycles_per_cs == result.avg_cycles_per_cs
        assert threads_to_columns(roundtripped.threads) == \
            threads_to_columns(result.threads)
        assert roundtripped.threads == result.threads

    def test_lco_and_coherence_records(self, result, roundtripped):
        assert roundtripped.lco_fraction == result.lco_fraction
        mine, theirs = roundtripped.coherence, result.coherence
        assert mine.msg_counts == theirs.msg_counts
        assert mine.mean_inv_rtt == theirs.mean_inv_rtt
        assert mine.max_inv_rtt == theirs.max_inv_rtt
        assert mine.mean_inv_rtt_by_kind() == theirs.mean_inv_rtt_by_kind()
        assert mine.inv_rtt_by_core() == theirs.inv_rtt_by_core()
        assert len(mine.lock_txns) == len(theirs.lock_txns)
        assert mine.total_lco == theirs.total_lco
        assert mine.early_invs_generated == theirs.early_invs_generated
        assert mine.getx_stopped == theirs.getx_stopped
        assert mine.barrier_table_overflows == theirs.barrier_table_overflows
        assert (mine.early_acks_consumed_before_txn ==
                theirs.early_acks_consumed_before_txn)

    def test_timeline_phases(self, result, roundtripped):
        assert roundtripped.timeline.intervals == result.timeline.intervals
        window = (0, result.roi_cycles)
        assert (roundtripped.timeline.phase_breakdown(window=window) ==
                result.timeline.phase_breakdown(window=window))
        assert (roundtripped.timeline.cs_completed(window=window) ==
                result.timeline.cs_completed(window=window))

    def test_network_and_os_counters(self, result, roundtripped):
        assert roundtripped.network_packets == result.network_packets
        assert (roundtripped.network_mean_latency ==
                result.network_mean_latency)
        assert roundtripped.os_sleeps == result.os_sleeps
        assert roundtripped.os_wakeups == result.os_wakeups
        assert roundtripped.extra == result.extra
        assert roundtripped.extra.get("sim_events", 0) > 0


class TestSchemaVersion:
    def test_wrong_schema_is_rejected(self, result):
        payload = serialize_run_result(result)
        payload["schema"] = RESULT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema"):
            deserialize_run_result(payload)

    def test_missing_schema_is_rejected(self, result):
        payload = serialize_run_result(result)
        del payload["schema"]
        with pytest.raises(ValueError):
            deserialize_run_result(payload)


class TestComponentRoundTrips:
    def test_thread_metrics(self):
        metrics = ThreadMetrics(thread=7, parallel_cycles=100, coh_cycles=40,
                                cse_cycles=25, cs_completed=3, sleeps=1)
        [again] = threads_from_columns(json.loads(json.dumps(
            threads_to_columns([metrics]))))
        assert again == metrics
        assert again.total_cycles == metrics.total_cycles

    def test_timeline(self):
        timeline = Timeline()
        timeline.intervals = [
            PhaseInterval(0, "parallel", 0, 50),
            PhaseInterval(0, "coh", 50, 90),
            PhaseInterval(1, "cse", 20, 45),
        ]
        again = timeline_from_dict(
            json.loads(json.dumps(timeline_to_dict(timeline)))
        )
        assert again.intervals == timeline.intervals
        assert again.phase_cycles("coh") == 40


class TestColumnarTables:
    """Each record table is stored as one list per field."""

    #: each table's path, in the payload and in the result, and width
    TABLES = {("threads",): 6, ("coherence", "inv_records"): 4,
              ("coherence", "lock_txns"): 6, ("timeline", "intervals"): 4}

    @staticmethod
    def table(payload, path):
        for key in path:
            payload = payload[key]
        return payload

    def test_tables_are_columns_of_one_length(self, result):
        payload = serialize_run_result(result)
        for path, width in self.TABLES.items():
            columns = self.table(payload, path)
            records = functools.reduce(getattr, path, result)
            assert len(columns) == width, path
            assert {len(c) for c in columns} == {len(records)}, path

    def test_records_decode_to_their_types(self, roundtripped):
        coherence = roundtripped.coherence
        assert coherence.inv_records and coherence.lock_txns
        assert {type(r) for r in coherence.inv_records} == {InvRecord}
        assert {type(r) for r in coherence.lock_txns} == {LockTxnRecord}
        assert {type(iv) for iv in roundtripped.timeline.intervals} == \
            {PhaseInterval}
        assert {type(t) for t in roundtripped.threads} == {ThreadMetrics}

    def test_early_flag_is_a_json_bool(self, result, roundtripped):
        stored = json.loads(json.dumps(serialize_run_result(result)))
        early = stored["coherence"]["inv_records"][3]
        assert early and {type(flag) for flag in early} == {bool}
        assert {type(r.early) for r in
                roundtripped.coherence.inv_records} == {bool}

    def test_empty_tables_round_trip(self, result):
        empty = dataclasses.replace(result, threads=[],
                                    coherence=CoherenceStats(),
                                    timeline=Timeline())
        payload = json.loads(json.dumps(serialize_run_result(empty)))
        for path, width in self.TABLES.items():
            assert self.table(payload, path) == [[]] * width, path
        again = deserialize_run_result(payload)
        assert again.threads == []
        assert again.coherence.inv_records == []
        assert again.coherence.lock_txns == []
        assert again.timeline.intervals == []
        assert serialize_run_result(again) == payload

    def test_decoding_then_encoding_gives_the_stored_payload(self, result):
        payload = json.loads(json.dumps(serialize_run_result(result)))
        assert serialize_run_result(deserialize_run_result(payload)) == \
            payload
