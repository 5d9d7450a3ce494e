"""Lossless (de)serialization of run results.

:mod:`repro.stats.export` renders *summaries* for humans; this module is
the machine counterpart: a stable, versioned, JSON-compatible encoding of
:class:`~repro.stats.metrics.RunResult` and everything it aggregates
(:class:`ThreadMetrics`, :class:`CoherenceStats`, :class:`Timeline`), so
results can cross process boundaries (parallel executor workers) and
survive on disk (the persistent run cache) without losing any field the
figure harnesses consume.

``RESULT_SCHEMA_VERSION`` is bumped whenever the encoding changes shape;
consumers (the disk cache) treat entries written under a different
version as absent rather than attempting to read them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import Counter
from itertools import repeat, starmap
from operator import attrgetter
from typing import Dict, List

from .coherence_stats import CoherenceStats, InvRecord, LockTxnRecord
from .metrics import RunResult, ThreadMetrics
from .timeline import PhaseInterval, Timeline

#: bump when the encoding below changes shape (v2: ``RunResult.obs``
#: observability payload added; v3: record tables stored as columns)
RESULT_SCHEMA_VERSION = 3

#: ``ThreadMetrics`` fields, in the order its columns are stored and its
#: constructor takes them
_THREAD_FIELDS = tuple(f.name for f in dataclasses.fields(ThreadMetrics))
_thread_row = attrgetter(*_THREAD_FIELDS)


# ----------------------------------------------------------------------
# Record tables
# ----------------------------------------------------------------------
# A run accumulates its records by the thousand, so a table is stored as
# one list per field: ``zip`` transposes it both ways in C, and no
# Python call runs per record.  A table of the wrong width, with columns
# of unequal length or with a column that is not a list raises
# ``ValueError`` or ``TypeError`` while it decodes, so a cache entry
# holding one is a miss when it is loaded.
def _columns(rows, fields) -> List[list]:
    return [list(column) for column in zip(*rows)] or [[] for _ in fields]


def _rows(columns, fields):
    lengths = set(map(list.__len__, columns))
    if len(columns) != len(fields) or len(lengths) != 1:
        raise ValueError(
            f"a record table needs {len(fields)} columns of one length")
    return zip(*columns)


def _records(record, columns) -> list:
    """The named tuples of type ``record`` stored as ``columns``."""
    return list(map(tuple.__new__, repeat(record),
                    _rows(columns, record._fields)))


def threads_to_columns(threads) -> List[list]:
    return _columns(map(_thread_row, threads), _THREAD_FIELDS)


def threads_from_columns(columns) -> List[ThreadMetrics]:
    return list(starmap(ThreadMetrics, _rows(columns, _THREAD_FIELDS)))


# ----------------------------------------------------------------------
# CoherenceStats
# ----------------------------------------------------------------------
def coherence_stats_to_dict(stats: CoherenceStats) -> Dict:
    """Encode every *completed* record; open-transaction scratch state is
    transient bookkeeping and is always empty once a run has finished."""
    return {
        "msg_counts": dict(stats.msg_counts),
        "inv_records": _columns(stats.inv_records, InvRecord._fields),
        "lock_txns": _columns(stats.lock_txns, LockTxnRecord._fields),
        "early_invs_generated": stats.early_invs_generated,
        "getx_stopped": stats.getx_stopped,
        "barrier_table_overflows": stats.barrier_table_overflows,
        "early_acks_consumed_before_txn": stats.early_acks_consumed_before_txn,
    }


def coherence_stats_from_dict(payload: Dict) -> CoherenceStats:
    stats = CoherenceStats()
    stats.msg_counts = Counter(payload["msg_counts"])
    stats.inv_records = _records(InvRecord, payload["inv_records"])
    stats.lock_txns = _records(LockTxnRecord, payload["lock_txns"])
    stats.early_invs_generated = payload["early_invs_generated"]
    stats.getx_stopped = payload["getx_stopped"]
    stats.barrier_table_overflows = payload["barrier_table_overflows"]
    stats.early_acks_consumed_before_txn = (
        payload["early_acks_consumed_before_txn"]
    )
    return stats


# ----------------------------------------------------------------------
# Timeline
# ----------------------------------------------------------------------
def timeline_to_dict(timeline: Timeline) -> Dict:
    return {"intervals": _columns(timeline.intervals,
                                  PhaseInterval._fields)}


def timeline_from_dict(payload: Dict) -> Timeline:
    timeline = Timeline()
    timeline.intervals = _records(PhaseInterval, payload["intervals"])
    return timeline


# ----------------------------------------------------------------------
# RunResult
# ----------------------------------------------------------------------
def serialize_run_result(result: RunResult) -> Dict:
    """Full-fidelity encoding (contrast ``export.run_result_to_dict``,
    which flattens to headline numbers)."""
    return {
        "schema": RESULT_SCHEMA_VERSION,
        "mechanism": result.mechanism,
        "primitive": result.primitive,
        "benchmark": result.benchmark,
        "roi_cycles": result.roi_cycles,
        "threads": threads_to_columns(result.threads),
        "coherence": coherence_stats_to_dict(result.coherence),
        "timeline": timeline_to_dict(result.timeline),
        "network_mean_latency": result.network_mean_latency,
        "network_packets": result.network_packets,
        "os_sleeps": result.os_sleeps,
        "os_wakeups": result.os_wakeups,
        "extra": dict(result.extra),
        "obs": result.obs,
    }


def result_fingerprint(result: RunResult) -> str:
    """SHA-256 content address of a result's full serialized form.

    Two runs are bit-identical exactly when their fingerprints match —
    the acceptance check for local-vs-remote execution parity (the serve
    layer) and for cross-process determinism in general.
    """
    blob = json.dumps(
        serialize_run_result(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def deserialize_run_result(payload: Dict) -> RunResult:
    schema = payload.get("schema")
    if schema != RESULT_SCHEMA_VERSION:
        raise ValueError(
            f"result payload has schema {schema!r}, "
            f"expected {RESULT_SCHEMA_VERSION}"
        )
    return RunResult(
        mechanism=payload["mechanism"],
        primitive=payload["primitive"],
        benchmark=payload["benchmark"],
        roi_cycles=payload["roi_cycles"],
        threads=threads_from_columns(payload["threads"]),
        coherence=coherence_stats_from_dict(payload["coherence"]),
        timeline=timeline_from_dict(payload["timeline"]),
        network_mean_latency=payload["network_mean_latency"],
        network_packets=payload["network_packets"],
        os_sleeps=payload["os_sleeps"],
        os_wakeups=payload["os_wakeups"],
        extra=dict(payload["extra"]),
        obs=payload.get("obs"),
    )


# ----------------------------------------------------------------------
# FailureRecord (executor skip-mode provenance)
# ----------------------------------------------------------------------
def failure_record_to_dict(record) -> Dict:
    """Encode an :class:`~repro.exec.executor.FailureRecord`.

    Failed/skipped runs used to be reachable only in-process (the
    executor footer); this encoding lets them cross the serve boundary
    and sit in the result store next to successful runs, so a campaign
    client can ask *why* a fingerprint has no result.
    """
    return {
        "schema": RESULT_SCHEMA_VERSION,
        "fingerprint": record.fingerprint,
        "label": record.label,
        "error_type": record.error_type,
        "message": record.message,
        "attempts": record.attempts,
        "wall_time": record.wall_time,
    }


def failure_record_from_dict(payload: Dict):
    """Inverse of :func:`failure_record_to_dict`."""
    from ..exec.executor import FailureRecord  # late: avoids import cycle

    schema = payload.get("schema")
    if schema != RESULT_SCHEMA_VERSION:
        raise ValueError(
            f"failure payload has schema {schema!r}, "
            f"expected {RESULT_SCHEMA_VERSION}"
        )
    return FailureRecord(
        fingerprint=payload["fingerprint"],
        label=payload["label"],
        error_type=payload["error_type"],
        message=payload["message"],
        attempts=payload["attempts"],
        wall_time=payload["wall_time"],
    )
