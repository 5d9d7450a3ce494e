"""``repro.api``: the stable public facade of the reproduction library.

Everything a consumer needs lives behind four calls::

    from repro import api

    # one run
    config = api.SystemConfig().with_mechanism("inpg")
    workload = api.generate_workload("kdtree", num_threads=64, mesh_nodes=64)
    result = api.simulate(config, workload, primitive="tas")

    # one run, observed (counters + structured trace + Perfetto export)
    with api.trace(out="trace.json") as obs:
        result = api.simulate(config, workload, "tas", observe=obs)
    print(obs.contention_report())

    # a cached, parallel run plan
    specs = [api.RunSpec(benchmark="kdtree", mechanism=m, primitive="qsl")
             for m in ("original", "inpg")]
    results = api.run_plan(specs, jobs=2)

    # persistence
    api.save_result(result, "run.json")
    result = api.load_result("run.json")

    # the same plan on a running inpg-serve: one shared cache and pool
    remote = api.RemoteExecutor("http://127.0.0.1:8731")
    by_spec = remote.run(specs)                   # spec -> result

The deep import paths (``repro.system.ManyCoreSystem``,
``repro.exec.Executor``, ``repro.stats.serialize`` …) keep working and
are not going away, but they expose assembly internals whose signatures
may grow; this module is the interface the experiment harnesses, CLIs
and docs are written against, and its signatures are stable.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Union

# annotations name the lazily loaded ``Workload`` and ``Observation``
# through the root facade, so ``typing.get_type_hints`` resolves them
# on demand while importing this module loads neither
import repro

from . import _lazy, errors
from .config import (
    ARBITERS,
    MECHANISMS,
    PLACEMENTS,
    PROTOCOL_NAMES,
    TOPOLOGIES,
    SystemConfig,
    describe_axes,
)
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
from .experiments.common import ExperimentOptions
from .stats.metrics import RunResult
from .stats.serialize import (
    deserialize_run_result,
    result_fingerprint,
    serialize_run_result,
)

#: the simulator, the workload generator, observability, protocol
#: tables, fault injection and the service client, imported on first
#: access: a process that only replays cached results never loads them
__getattr__, __dir__ = _lazy.lazy_names(globals(), {
    "FaultPlan": ".faults",
    "FaultSite": ".faults",
    "ManyCoreSystem": ".system",
    "Observation": ".obs",
    "PROTOCOL_SPECS": ".coherence.protocol:PROTOCOLS",
    "ProtocolSpec": ".coherence.protocol",
    "RemoteExecutor": ".serve.client",
    "ServiceClient": ".serve.client",
    "Workload": ".workloads.generator",
    "generate_workload": ".workloads.generator",
    "get_protocol": ".coherence.protocol",
    "run_benchmark": ".system",
    "single_lock_workload": ".workloads.generator",
})

#: the axes' name tuples (default first) come from ``repro.config.AXES``;
#: ``PROTOCOLS`` aliases ``PROTOCOL_NAMES``, and the ``name ->
#: ProtocolSpec`` table is :data:`PROTOCOL_SPECS`
PROTOCOLS = PROTOCOL_NAMES

__all__ = [
    "ARBITERS",
    "DeadlockError",
    "ExecutorError",
    "Executor",
    "ExperimentOptions",
    "FaultPlan",
    "FaultSite",
    "LivelockDetected",
    "MECHANISMS",
    "ManyCoreSystem",
    "Observation",
    "PLACEMENTS",
    "PROTOCOLS",
    "PROTOCOL_NAMES",
    "PROTOCOL_SPECS",
    "ProtocolSpec",
    "ProtocolViolation",
    "RemoteExecutor",
    "ReproError",
    "RunResult",
    "RunSpec",
    "RunTimeout",
    "ServiceClient",
    "SimulationError",
    "SystemConfig",
    "TOPOLOGIES",
    "Workload",
    "describe_axes",
    "errors",
    "generate_workload",
    "get_protocol",
    "load_result",
    "result_fingerprint",
    "run_benchmark",
    "run_plan",
    "save_result",
    "simulate",
    "single_lock_workload",
    "trace",
]


# ----------------------------------------------------------------------
# Single runs
# ----------------------------------------------------------------------
def simulate(
    config: SystemConfig,
    workload: repro.Workload,
    primitive: str = "qsl",
    *,
    observe: Optional[repro.Observation] = None,
    max_cycles: int = 50_000_000,
    options: Optional[ExperimentOptions] = None,
) -> RunResult:
    """Assemble one many-core system, run its ROI, return the result.

    ``observe`` wires a :class:`repro.obs.Observation` into the system at
    build time (hierarchical counters and, by default, the structured
    trace ring); observed and unobserved runs of the same inputs are
    bit-exact.  Raises :class:`DeadlockError` if the ROI does not finish
    within ``max_cycles``.

    ``options`` carries the robustness knobs: ``fault_plan`` installs
    deterministic NoC fault injection, ``watchdog_cycles`` arms the
    liveness watchdog (:class:`LivelockDetected` on no-progress),
    ``check_protocol`` attaches the online coherence checker, and
    ``timeout_s`` bounds the run's wall clock (:class:`RunTimeout`).
    Each axis the options set fills ``config`` wherever the config keeps
    that axis's default, as in :func:`run_plan`.  The retry/on_error
    fields are executor policy and ignored here.
    """
    from .system import ManyCoreSystem

    opts = options if options is not None else ExperimentOptions()
    system = ManyCoreSystem(
        opts.apply_to_config(config),
        workload,
        primitive=primitive,
        observe=observe,
        fault_plan=opts.fault_plan,
        watchdog_cycles=opts.watchdog_cycles,
        check_protocol=opts.check_protocol,
    )
    return system.run(max_cycles=max_cycles, timeout_s=opts.timeout_s)


@contextmanager
def trace(
    out=None,
    *,
    capacity: Optional[int] = None,
    label: str = "run",
    metadata: Optional[Dict] = None,
) -> Iterator[repro.Observation]:
    """Context manager around an :class:`Observation` for one run.

    Yields an unattached observation to pass to :func:`simulate` (or any
    ``observe=`` parameter), whose trace ring holds ``capacity`` records
    (default :data:`repro.obs.DEFAULT_CAPACITY`).  On clean exit, writes
    the run as a Chrome trace-event JSON file to ``out`` when given —
    viewable in Perfetto or ``chrome://tracing``.

    ::

        with api.trace(out="t.json", label="inpg/tas") as obs:
            api.simulate(config, workload, "tas", observe=obs)
    """
    from .obs import DEFAULT_CAPACITY, Observation

    if capacity is None:
        capacity = DEFAULT_CAPACITY
    obs = Observation(trace=True, trace_capacity=capacity, label=label)
    yield obs
    if out is not None and obs.attached:
        obs.write_chrome_trace(out, metadata=metadata)


# ----------------------------------------------------------------------
# Run plans
# ----------------------------------------------------------------------
def run_plan(
    specs: Sequence[RunSpec],
    *,
    jobs: Optional[int] = None,
    cache: Union[bool, str, None] = True,
    observe_factory=None,
    options: Optional[ExperimentOptions] = None,
) -> List[Optional[RunResult]]:
    """Execute a plan of :class:`RunSpec`, results in input order.

    ``jobs`` is the worker-process count (``None``: the ``REPRO_JOBS``
    environment variable, else 1; ``0``: one per CPU).  ``cache`` is
    ``True`` for the default persistent cache directory, a path string
    for an explicit one, or ``False``/``None`` to disable caching.
    ``observe_factory`` (``spec -> Observation``) makes every unique
    spec run inline and uncached with observability wired in; fetch each
    observation with ``Executor.observation_for`` by building the
    :class:`Executor` yourself when you need them.

    ``options`` carries the robustness knobs and the axes: ``fault_plan``
    / ``watchdog_cycles`` / ``check_protocol`` and each axis overlay onto
    specs that do not set their own, and ``timeout_s`` / ``retries`` /
    ``on_error`` configure the executor.  Under ``on_error="skip"`` a
    failed spec's slot holds ``None`` instead of a result.
    """
    opts = options if options is not None else ExperimentOptions()
    effective = opts.apply_to_plan(specs)
    if isinstance(cache, (str, bytes)) or hasattr(cache, "__fspath__"):
        executor = Executor(jobs=jobs, cache_dir=cache,
                            observe_factory=observe_factory)
    else:
        executor = Executor(jobs=jobs, use_cache=bool(cache),
                            observe_factory=observe_factory)
    by_spec = executor.run(effective, **opts.executor_policy())
    return [by_spec[spec] for spec in effective]


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------
def save_result(result: RunResult, path) -> None:
    """Write ``result`` losslessly as versioned JSON (see ``load_result``)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize_run_result(result), fh, separators=(",", ":"))
        fh.write("\n")


def load_result(path) -> RunResult:
    """Read a :func:`save_result` file back into a :class:`RunResult`.

    Raises ``ValueError`` when the file was written under a different
    ``RESULT_SCHEMA_VERSION``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize_run_result(json.load(fh))
