"""Executor: fan a run plan out over processes, behind persistent caching.

The execution pipeline for a plan (a sequence of :class:`RunSpec`):

1. dedup specs by fingerprint (Figures 11/12 submit the same 24x4
   matrix — each distinct run simulates once);
2. satisfy what it can from the in-memory result table, then from the
   on-disk :class:`~repro.exec.cache.ResultCache`;
3. execute the remainder — in-process when ``jobs == 1`` (today's
   debuggable path), else on a ``ProcessPoolExecutor`` of ``jobs``
   workers, each re-running the simulation from its spec and shipping
   the result back through the versioned serialization layer.  This is
   the one step (``_execute``) a
   :class:`~repro.serve.client.RemoteExecutor` replaces: it submits the
   remainder to an ``inpg-serve`` instead;
4. write every fresh result through to the disk cache and record
   per-run observability (wall time, simulated cycles, events/sec).

``jobs`` defaults to the ``REPRO_JOBS`` environment variable, else 1;
``jobs=0`` means one worker per CPU.

Resilience policy (new with ``repro.faults``):

* ``timeout_s`` — a per-run wall-clock budget, enforced *inside* the
  simulation kernel (``Simulator.run(deadline=...)``) so it works
  identically inline and in pool workers; a timed-out run raises
  :class:`~repro.errors.RunTimeout` and is **never cached**.
* ``retries`` / ``backoff_s`` — *transient* failures (infra errors:
  ``OSError``, a broken pool, ...) are retried with exponential backoff.
  Deterministic simulation failures (:class:`~repro.errors.ReproError`
  subclasses — deadlock, livelock, protocol violation, timeout) never
  retry: the same spec replays the same failure.
* ``on_error`` — ``"raise"`` (default) propagates the first failure
  (inline: the original exception, for backward compatibility; pool:
  an :class:`~repro.errors.ExecutorError` carrying the spec fingerprint
  and the worker's traceback text).  ``"skip"`` degrades gracefully:
  failed specs map to ``None`` in the returned dict and the failure is
  recorded in :class:`ExecStats` for the execution-summary footer.
"""

from __future__ import annotations

import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ExecutorError, ReproError
from ..stats.metrics import RunResult
from ..stats.serialize import (
    RESULT_SCHEMA_VERSION,
    deserialize_run_result,
    serialize_run_result,
)
from .cache import NullCache, ResultCache
from .spec import RunSpec

#: environment override for the default worker count
JOBS_ENV = "REPRO_JOBS"

#: the ``on_error`` policy values
ON_ERROR_MODES = ("raise", "skip")

#: error shapes worth retrying: infrastructure, not simulation.  A
#: :class:`ReproError` is definitionally deterministic (a run is a pure
#: function of its spec) and is excluded even when it subclasses one of
#: these (``SimulationError`` is a ``RuntimeError``, for instance).  A
#: broken process pool (``concurrent.futures.BrokenExecutor``) is one
#: too; see :func:`is_transient_error`.
_TRANSIENT_ERRORS = (OSError, EOFError)


def is_transient_error(error: BaseException) -> bool:
    """Would re-running the same spec plausibly succeed?"""
    if isinstance(error, ReproError):
        return False
    if isinstance(error, _TRANSIENT_ERRORS):
        return True
    # a BrokenExecutor exists only once the module defining it is
    # loaded, so a process that never ran a pool need not import it
    futures = sys.modules.get("concurrent.futures")
    return futures is not None and isinstance(error, futures.BrokenExecutor)


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (0 = one per CPU), default 1."""
    raw = os.environ.get(JOBS_ENV, "").strip()
    if not raw:
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        return 1
    return resolve_jobs(jobs)


def resolve_jobs(jobs: Optional[int]) -> int:
    if jobs is None:
        return default_jobs()
    if jobs <= 0:
        return max(1, os.cpu_count() or 1)
    return jobs


# ----------------------------------------------------------------------
# Spec execution (shared by the in-process path and pool workers)
# ----------------------------------------------------------------------
def execute_spec(
    spec: RunSpec, observe=None, timeout_s: Optional[float] = None
) -> RunResult:
    """Run one simulation exactly as its spec describes it.

    ``observe`` (a :class:`repro.obs.Observation`) wires observability
    into the assembled system; it never enters the spec's fingerprint —
    traced and untraced runs of one spec are bit-exact.  ``timeout_s``
    is the executor's per-run wall-clock budget (not part of the spec
    either: it cannot change a completed run's result, only whether the
    run completes).
    """
    from ..system import ManyCoreSystem, run_benchmark

    cfg = spec.resolved_config()
    if spec.is_microbench:
        from ..workloads.generator import single_lock_workload

        home = spec.lock_homes[0] if spec.lock_homes else 53
        workload = single_lock_workload(
            num_threads=cfg.num_threads,
            home_node=home,
            **spec.microbench_params(),
        )
        system = ManyCoreSystem(
            cfg,
            workload,
            primitive=spec.primitive,
            observe=observe,
            fault_plan=spec.fault_plan,
            watchdog_cycles=spec.watchdog_cycles,
            check_protocol=spec.check_protocol,
        )
        return system.run(max_cycles=spec.max_cycles, timeout_s=timeout_s)
    return run_benchmark(
        spec.benchmark,
        mechanism=None,  # already resolved into cfg
        primitive=spec.primitive,
        config=cfg,
        seed=spec.seed,
        scale=spec.scale,
        lock_homes=spec.lock_homes,
        max_cycles=spec.max_cycles,
        observe=observe,
        fault_plan=spec.fault_plan,
        watchdog_cycles=spec.watchdog_cycles,
        check_protocol=spec.check_protocol,
        timeout_s=timeout_s,
    )


def load_worker_modules() -> None:
    """Import everything :func:`execute_spec` runs.  ``_run_pool`` calls
    it before the pool forks: every worker inherits the modules instead
    of compiling its own copies while the plan is timed."""
    from .. import system  # noqa: F401


def _pool_worker(
    spec: RunSpec, timeout_s: Optional[float] = None
) -> Tuple[str, Dict, float]:
    """Subprocess entry point: run, serialize, report wall time.

    On failure the formatted traceback is attached to the exception
    (``_repro_traceback``) before it crosses the process boundary —
    pickling keeps ``__dict__``, so the parent can report *where* in the
    worker the run died, not just the exception repr.
    """
    start = time.perf_counter()
    try:
        result = execute_spec(spec, timeout_s=timeout_s)
    except BaseException as err:
        try:
            err._repro_traceback = traceback.format_exc()
        except Exception:  # exotic __slots__ exceptions: skip the extra
            pass
        raise
    wall = time.perf_counter() - start
    return spec.fingerprint, serialize_run_result(result), wall


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
@dataclass
class RunRecord:
    """Provenance of one executed (not cached) simulation."""

    fingerprint: str
    label: str
    wall_time: float
    sim_cycles: int
    sim_events: int

    @property
    def events_per_sec(self) -> float:
        return self.sim_events / self.wall_time if self.wall_time > 0 else 0.0


@dataclass
class FailureRecord:
    """Provenance of one run that failed (``on_error="skip"``)."""

    fingerprint: str
    label: str
    error_type: str
    message: str
    attempts: int = 1
    wall_time: float = 0.0

    def render(self) -> str:
        first_line = self.message.splitlines()[0] if self.message else ""
        retry = f" after {self.attempts} attempts" if self.attempts > 1 else ""
        return (
            f"  FAILED {self.label} [{self.error_type}]{retry}: "
            f"{first_line} (fp={self.fingerprint[:12]})"
        )


@dataclass
class ExecStats:
    """Counters the ``inpg-experiments`` footer reports."""

    executed: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    failed: int = 0
    wall_time: float = 0.0
    sim_cycles: int = 0
    sim_events: int = 0
    records: List[RunRecord] = field(default_factory=list)
    failures: List[FailureRecord] = field(default_factory=list)

    @property
    def requested(self) -> int:
        return (self.executed + self.memory_hits + self.disk_hits
                + self.failed)

    @property
    def cache_hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.requested if self.requested else 0.0

    def record_run(self, record: RunRecord) -> None:
        self.executed += 1
        self.wall_time += record.wall_time
        self.sim_cycles += record.sim_cycles
        self.sim_events += record.sim_events
        self.records.append(record)

    def record_failure(self, record: FailureRecord) -> None:
        self.failed += 1
        self.wall_time += record.wall_time
        self.failures.append(record)

    def render_footer(
        self, jobs: int = 1, cache_dir: Optional[str] = None
    ) -> str:
        """The summary block printed after an experiments invocation."""
        lines = ["--- run execution summary ---"]
        lines.append(
            f"runs: {self.requested} requested | executed: {self.executed} | "
            f"cache hits: {self.cache_hits} "
            f"({self.disk_hits} disk, {self.memory_hits} memory) | "
            f"hit rate: {100.0 * self.hit_rate:.1f}%"
            + (f" | failed: {self.failed}" if self.failed else "")
        )
        rate = self.sim_events / self.wall_time if self.wall_time else 0.0
        lines.append(
            f"jobs: {jobs} | sim wall: {self.wall_time:.1f}s | "
            f"{self.sim_cycles:,} cycles, {self.sim_events:,} events "
            f"({rate / 1e6:.2f} Mev/s)"
        )
        if self.records:
            slowest = max(self.records, key=lambda r: r.wall_time)
            rates = [r.events_per_sec for r in self.records]
            lines.append(
                f"per-run rate: {min(rates) / 1e6:.2f}-{max(rates) / 1e6:.2f}"
                f" Mev/s | slowest: {slowest.label} "
                f"({slowest.wall_time:.1f}s)"
            )
        if self.failures:
            lines.append(f"failures ({self.failed}, on_error=skip):")
            lines.extend(record.render() for record in self.failures)
        where = cache_dir if cache_dir else "disabled"
        lines.append(f"cache: {where} (schema v{RESULT_SCHEMA_VERSION})")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------
class Executor:
    """Runs :class:`RunSpec` plans with caching and optional parallelism.

    The resilience policy (``timeout_s`` / ``retries`` / ``backoff_s`` /
    ``on_error``, see the module docstring) is set at construction and
    can be overridden per :meth:`run` call.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[Union[ResultCache, NullCache]] = None,
        cache_dir: Optional[os.PathLike] = None,
        use_cache: bool = True,
        observe_factory=None,
        timeout_s: Optional[float] = None,
        retries: int = 0,
        backoff_s: float = 0.5,
        on_error: str = "raise",
    ):
        self.jobs = resolve_jobs(jobs)
        if cache is not None:
            self.cache = cache
        elif use_cache:
            self.cache = ResultCache(cache_dir)
        else:
            self.cache = NullCache()
        if on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}"
            )
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.on_error = on_error
        self.stats = ExecStats()
        self._memory: Dict[str, RunResult] = {}
        #: ``spec -> Observation`` factory.  When set, every unique spec
        #: executes inline, in-process, bypassing both cache directions:
        #: disk results carry no trace ring, and traced results must not
        #: be written back where unobserved plans would pick them up.
        self.observe_factory = observe_factory
        self.observations: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def run(
        self,
        plan: Sequence[RunSpec],
        *,
        timeout_s: Optional[float] = None,
        retries: Optional[int] = None,
        on_error: Optional[str] = None,
    ) -> Dict[RunSpec, Optional[RunResult]]:
        """Execute a plan; returns spec -> result for every input spec.

        Under ``on_error="skip"`` a failed spec maps to ``None`` and its
        failure is recorded in ``self.stats.failures``; under ``"raise"``
        (the default) every value is a :class:`RunResult`.
        """
        timeout_s = self.timeout_s if timeout_s is None else timeout_s
        retries = self.retries if retries is None else retries
        on_error = self.on_error if on_error is None else on_error
        if on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}"
            )
        specs = list(plan)
        fingerprints = [spec.fingerprint for spec in specs]
        todo: Dict[str, RunSpec] = {}  # deduped fingerprint -> one spec
        for spec, fp in zip(specs, fingerprints):
            if fp in self._memory or fp in todo:
                self.stats.memory_hits += 1  # cached or deduped in-plan
            else:
                todo[fp] = spec

        if self.observe_factory is not None:
            for fp, spec in todo.items():
                self._attempt_inline(fp, spec, timeout_s, retries, on_error,
                                     observe=self.observe_factory(spec))
        else:
            missing = self._load_from_disk(todo)
            if missing:
                self._execute(missing, timeout_s, retries, on_error)
        return {
            spec: self._memory.get(fp)
            for spec, fp in zip(specs, fingerprints)
        }

    def run_one(self, spec: RunSpec, **policy) -> Optional[RunResult]:
        return self.run([spec], **policy)[spec]

    def observation_for(self, spec: RunSpec):
        """The Observation wired into ``spec``'s run (observed plans only)."""
        return self.observations.get(spec.fingerprint)

    def clear_memory(self) -> None:
        """Drop the in-memory result table (the disk cache survives)."""
        self._memory.clear()

    # ------------------------------------------------------------------
    def _load_from_disk(self, todo: Dict[str, RunSpec]) -> Dict[str, RunSpec]:
        missing: Dict[str, RunSpec] = {}
        for fp, spec in todo.items():
            payload = self.cache.get(fp)
            if payload is not None:
                try:
                    self._memory[fp] = deserialize_run_result(payload)
                    self.stats.disk_hits += 1
                    continue
                except (KeyError, ValueError, TypeError):
                    pass  # corrupt/stale entry: fall through and re-run
            missing[fp] = spec
        return missing

    def _execute(self, missing: Dict[str, RunSpec],
                 timeout_s: Optional[float], retries: int,
                 on_error: str) -> None:
        """Run the specs neither memory nor the cache holds.

        The one step a :class:`~repro.serve.client.RemoteExecutor`
        replaces: it submits them to a service instead.
        """
        if self.jobs > 1 and len(missing) > 1:
            self._run_pool(missing, timeout_s, retries, on_error)
        else:
            for fp, spec in missing.items():
                self._attempt_inline(fp, spec, timeout_s, retries, on_error)

    def _store(self, spec: RunSpec, fp: str, result: RunResult,
               wall: float, observe=None,
               payload: Optional[Dict] = None) -> None:
        """Keep a fresh result and write it through to the cache;
        ``payload`` is its serialized form when a pool worker already
        made it."""
        self._memory[fp] = result
        self.stats.record_run(
            RunRecord(
                fingerprint=fp,
                label=spec.label(),
                wall_time=wall,
                sim_cycles=result.roi_cycles,
                sim_events=int(result.extra.get("sim_events", 0)),
            )
        )
        if observe is not None:
            # an observed result stays out of the cache (observe_factory)
            self.observations[fp] = observe
            return
        if payload is None:
            payload = serialize_run_result(result)
        self.cache.put(fp, spec.canonical_payload(), payload,
                       meta={"wall_time": wall})

    def _failure(self, spec: RunSpec, fp: str, error: BaseException,
                 attempts: int, wall: float) -> FailureRecord:
        record = FailureRecord(
            fingerprint=fp,
            label=spec.label(),
            error_type=type(error).__name__,
            message=str(error),
            attempts=attempts,
            wall_time=wall,
        )
        self.stats.record_failure(record)
        return record

    def _attempt_inline(
        self,
        fp: str,
        spec: RunSpec,
        timeout_s: Optional[float],
        retries: int,
        on_error: str,
        observe=None,
    ) -> None:
        """One spec through the retry/skip policy, in this process.

        Under ``on_error="raise"`` the *original* exception propagates
        (existing ``except DeadlockError`` callers keep working); the
        pool path wraps failures in :class:`ExecutorError` instead since
        there the original traceback lives in another process.
        """
        attempts = 0
        start = time.perf_counter()
        while True:
            attempts += 1
            try:
                result = execute_spec(spec, observe=observe,
                                      timeout_s=timeout_s)
            except Exception as error:
                if attempts <= retries and is_transient_error(error):
                    time.sleep(self.backoff_s * 2 ** (attempts - 1))
                    continue
                wall = time.perf_counter() - start
                if on_error == "skip":
                    self._failure(spec, fp, error, attempts, wall)
                    return
                raise
            self._store(spec, fp, result, time.perf_counter() - start,
                        observe)
            return

    def _run_pool(self, missing: Dict[str, RunSpec],
                  timeout_s: Optional[float], retries: int,
                  on_error: str) -> None:
        from concurrent.futures import (
            FIRST_COMPLETED,
            ProcessPoolExecutor,
            wait,
        )

        load_worker_modules()
        workers = min(self.jobs, len(missing))
        starts = {fp: time.perf_counter() for fp in missing}
        attempts = {fp: 0 for fp in missing}
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {}
            for fp, spec in missing.items():
                attempts[fp] = 1
                futures[pool.submit(_pool_worker, spec, timeout_s)] = (
                    fp, spec)
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    fp, spec = futures.pop(future)
                    error = future.exception()
                    if error is None:
                        _, payload, wall = future.result()
                        self._store(spec, fp,
                                    deserialize_run_result(payload), wall,
                                    payload=payload)
                        continue
                    if (attempts[fp] <= retries
                            and is_transient_error(error)):
                        time.sleep(self.backoff_s * 2 ** (attempts[fp] - 1))
                        attempts[fp] += 1
                        retry = pool.submit(_pool_worker, spec, timeout_s)
                        futures[retry] = (fp, spec)
                        pending.add(retry)
                        continue
                    wall = time.perf_counter() - starts[fp]
                    if on_error == "skip":
                        self._failure(spec, fp, error, attempts[fp], wall)
                        continue
                    for other in pending:
                        other.cancel()
                    raise ExecutorError(
                        f"worker failed for {spec.label()}: "
                        f"{type(error).__name__}: {error}",
                        fingerprint=fp,
                        spec_label=spec.label(),
                        worker_traceback=getattr(
                            error, "_repro_traceback", None),
                    ) from error
