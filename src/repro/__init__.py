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

from . import _lazy

#: every public name and subpackage, imported on first access: a
#: process loads only the layers it uses (a flit drive never loads the
#: Figure 12 stack, a cache replay never loads the simulator)
__getattr__, __dir__ = _lazy.lazy_names(globals(), {
    "DeadlockError": ".errors",
    "ExecutorError": ".errors",
    "Executor": ".exec",
    "FaultPlan": ".faults",
    "FaultSite": ".faults",
    "LivelockDetected": ".errors",
    "MECHANISMS": ".config",
    "ManyCoreSystem": ".system",
    "Observation": ".obs",
    "ProtocolViolation": ".errors",
    "ReproError": ".errors",
    "RunResult": ".stats.metrics",
    "RunSpec": ".exec",
    "RunTimeout": ".errors",
    "SimulationError": ".errors",
    "SystemConfig": ".config",
    "ThreadMetrics": ".stats.metrics",
    "Workload": ".workloads.generator",
    "generate_workload": ".workloads.generator",
    "run_benchmark": ".system",
    "single_lock_workload": ".workloads.generator",
    "api": None,
    "config": None,
    "errors": None,
    "exec": None,
    "experiments": None,
    "obs": None,
    "sim": None,
    "stats": None,
    "workloads": None,
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
