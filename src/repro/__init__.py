"""iNPG: Accelerating Critical Section Access with In-Network Packet
Generation for NoC Based Many-Cores — a full Python reproduction of
Yao & Lu, HPCA 2018.

Public API
==========

The supported, stable entry point is :mod:`repro.api`::

    from repro import api

    result = api.simulate(config, workload, primitive="qsl")
    results = api.run_plan(specs, jobs=4)
    with api.trace(out="t.json") as obs:
        api.simulate(config, workload, "tas", observe=obs)

Its surface:

* :func:`repro.api.simulate` — build and run one simulated ROI,
  returning a :class:`RunResult`; ``observe=`` wires in ``repro.obs``
  counters/tracing.
* :func:`repro.api.run_plan` — execute a plan of :class:`RunSpec` with
  persistent caching and process-parallel workers.
* :func:`repro.api.save_result` / :func:`repro.api.load_result` —
  versioned lossless persistence of results.
* :func:`repro.api.trace` — context-managed observability with Chrome
  trace-event (Perfetto) export.
* :mod:`repro.errors` (also ``api.errors``) — the single exception
  hierarchy (:class:`repro.errors.ReproError` and friends).
* :class:`repro.api.FaultPlan` / :class:`repro.api.ExperimentOptions` —
  deterministic fault injection and the unified robustness knobs
  (watchdog, timeouts, retry/skip policy); see ``repro.faults`` and the
  ``inpg-faults`` campaign CLI.

The deeper modules remain importable (``repro.system``, ``repro.exec``,
``repro.locks``, ``repro.inpg``, ``repro.obs``, ``repro.experiments`` —
one module per paper table/figure) and the deep import paths used by
pre-``repro.api`` code keep working; prefer ``repro.api`` in new code,
as the internals' constructor signatures may grow over time.
"""

from . import _lazy, api, errors
from .config import MECHANISMS, SystemConfig
from .errors import (
    DeadlockError,
    ExecutorError,
    LivelockDetected,
    ProtocolViolation,
    ReproError,
    RunTimeout,
    SimulationError,
)
from .exec import Executor, RunSpec
from .obs import Observation
from .stats.metrics import RunResult, ThreadMetrics
from .workloads.generator import (
    Workload,
    generate_workload,
    single_lock_workload,
)

#: simulator-side names, imported on first access: reading results
#: from the cache never loads the simulator
__getattr__, __dir__ = _lazy.lazy_names(globals(), {
    "FaultPlan": ".faults",
    "FaultSite": ".faults",
    "ManyCoreSystem": ".system",
    "run_benchmark": ".system",
})

__version__ = "1.0.0"

__all__ = [
    "DeadlockError",
    "ExecutorError",
    "Executor",
    "FaultPlan",
    "FaultSite",
    "LivelockDetected",
    "MECHANISMS",
    "ManyCoreSystem",
    "Observation",
    "ProtocolViolation",
    "ReproError",
    "RunResult",
    "RunSpec",
    "RunTimeout",
    "SimulationError",
    "SystemConfig",
    "ThreadMetrics",
    "Workload",
    "__version__",
    "api",
    "errors",
    "generate_workload",
    "run_benchmark",
    "single_lock_workload",
]
