"""Measurement and accounting: coherence stats, timelines, run metrics.

Results and their serialization load with the package; the export
helpers and :class:`Histogram`, which a cache replay never uses, load
on first access.
"""

from .. import _lazy
from .coherence_stats import CoherenceStats, InvRecord, LockTxnRecord
from .metrics import RunResult, ThreadMetrics
from .serialize import (
    RESULT_SCHEMA_VERSION,
    deserialize_run_result,
    serialize_run_result,
)
from .timeline import PHASES, PhaseInterval, Timeline

__getattr__, __dir__ = _lazy.lazy_names(globals(), {
    "Histogram": ".histogram",
    "render_gantt": ".export",
    "render_mesh_heat_map": ".export",
    "run_result_to_dict": ".export",
})

__all__ = [
    "CoherenceStats",
    "Histogram",
    "RESULT_SCHEMA_VERSION",
    "InvRecord",
    "LockTxnRecord",
    "PHASES",
    "PhaseInterval",
    "RunResult",
    "ThreadMetrics",
    "Timeline",
    "deserialize_run_result",
    "render_gantt",
    "render_mesh_heat_map",
    "run_result_to_dict",
    "serialize_run_result",
]
