"""In-memory span tracer for the benchmark's traced run.

The program under test is not edited.  :func:`instrument` wraps the
public functions at each layer boundary (see README.md) for the life of
the traced process, and every wrapped call becomes a span: its start,
its end, the span that caused it, and the RunSpec fingerprint of the
run it belongs to.  Event callbacks are wrapped where they are
scheduled, so each one is a span of the module that owns it.

Hot spans (one per event, message or packet) are only added up per
name; rare ones (a run, a cache read, a fingerprint) are also kept as
records.  Both stay in memory until the traced process writes them out.

A span's self time is its duration minus the time its child spans
cover.  Tracing costs time inside every span and in its parent.
:func:`calibrate` measures that cost on a no-op; inside the simulator a
span costs more, so :func:`summarize` scales the no-op cost until the
tracing cost equals the measured slowdown of the traced run over the
untraced one, then subtracts it from every self time.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from typing import Callable, Dict, List, NamedTuple

#: layers, named after the repo's modules; spans of any other module
#: (shardflit, flitsim, faults, serve, ocor) land in "other"
LAYERS = (
    "sim", "noc", "vecflit", "coherence", "inpg", "locks", "cpu",
    "workloads", "system", "stats", "exec", "experiments", "obs", "other",
)
#: below this share of its window, the calibrated tracing cost is not
#: fitted: the measured slowdown there is mostly timing noise
MIN_FIT_SHARE = 0.05

# A frame is the open state of one span:
#   [child_s, child_spans, schedules, record_index, start]
# An accumulator adds up every closed span of one name:
#   [calls, total_s, self_s, child_spans, schedules]
_CALLS, _TOTAL, _SELF, _NCHILD, _NSCHED = range(5)

#: module prefix -> layer; the first match wins, anything else is "other"
_MODULE_LAYERS = (
    ("repro.noc.vecflit", "vecflit"),
    ("repro.noc.shardflit", "other"),
    ("repro.noc.flitsim", "other"),
    ("repro.noc.flit_fabric", "other"),
    ("repro.noc", "noc"),
    ("repro.sim", "sim"),
    ("repro.coherence", "coherence"),
    ("repro.inpg", "inpg"),
    ("repro.locks", "locks"),
    ("repro.cpu", "cpu"),
    ("repro.workloads", "workloads"),
    ("repro.system", "system"),
    ("repro.stats", "stats"),
    ("repro.exec", "exec"),
    ("repro.experiments", "experiments"),
    ("repro.obs", "obs"),
)


def layer_of(module: str) -> str:
    """The layer a module belongs to."""
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class Tracer:
    """Span stack, per-name totals and counters of one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._patches: list = []
        self.reset("bench.root")

    def reset(self, root: str) -> None:
        """Drop everything recorded and open a new root span now."""
        now = self.clock()
        #: trace id -> span name -> accumulator
        self.totals: Dict[str, Dict[str, list]] = {}
        #: rare spans: [name, start, end, parent record, trace id]
        self.records: List[list] = [[root, now, None, -1, "plan"]]
        self.counters: Dict[str, float] = {}
        #: trace id -> time the tracer spent on its own bookkeeping
        self.own: Dict[str, float] = {}
        self.trace_id = "plan"
        self.agg = self.totals.setdefault(self.trace_id, {})
        self.stack: List[list] = [[0.0, 0, 0, 0, now]]

    def set_trace_id(self, trace_id: str) -> str:
        """Make ``trace_id`` the id of the spans that follow; returns the
        id it replaces."""
        previous = self.trace_id
        self.trace_id = trace_id
        self.agg = self.totals.setdefault(trace_id, {})
        return previous

    def close_root(self) -> float:
        """End the root span; returns its duration."""
        end = self.clock()
        self.records[0][2] = end
        return end - self.stack[0][4]

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def charge_own(self, start: float) -> None:
        """Book the time since ``start`` as tracing cost, not as the
        self time of the span that is open."""
        spent = self.clock() - start
        self.own[self.trace_id] = self.own.get(self.trace_id, 0.0) + spent
        self.stack[-1][0] += spent

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    # The close-a-span bookkeeping is written out in each of the three
    # wrappers below rather than shared: a helper call per span would
    # add a third to the tracing cost of a run with millions of spans.
    def wrap(self, name: str, fn: Callable, record: bool = False) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        tracer = self
        clock = self.clock

        if not record:
            def span(*args, **kwargs):
                stack = tracer.stack
                frame = [0.0, 0, 0, stack[-1][3], clock()]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    dur = end - frame[4]
                    parent = stack[-1]
                    parent[0] += dur
                    parent[1] += 1
                    acc = tracer.agg.get(name)
                    if acc is None:
                        acc = tracer.agg[name] = [0, 0.0, 0.0, 0, 0]
                    acc[0] += 1
                    acc[1] += dur
                    acc[2] += dur - frame[0]
                    acc[3] += frame[1]
                    acc[4] += frame[2]
        else:
            def span(*args, **kwargs):
                stack = tracer.stack
                records = tracer.records
                records.append([name, None, None, stack[-1][3],
                                tracer.trace_id])
                frame = [0.0, 0, 0, len(records) - 1, clock()]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    dur = end - frame[4]
                    parent = stack[-1]
                    parent[0] += dur
                    parent[1] += 1
                    acc = tracer.agg.get(name)
                    if acc is None:
                        acc = tracer.agg[name] = [0, 0.0, 0.0, 0, 0]
                    acc[0] += 1
                    acc[1] += dur
                    acc[2] += dur - frame[0]
                    acc[3] += frame[1]
                    acc[4] += frame[2]
                    rec = tracer.records[frame[3]]
                    rec[1] = frame[4]
                    rec[2] = end

        span.__wrapped__ = fn
        return span

    def make_dispatch(self) -> Callable:
        """The kernel-side trampoline: ``dispatch(name, fn, *args)`` runs
        one scheduled callback as a span called ``name``."""
        tracer = self
        clock = self.clock

        def dispatch(name, fn, *args):
            stack = tracer.stack
            frame = [0.0, 0, 0, stack[-1][3], clock()]
            stack.append(frame)
            try:
                fn(*args)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[4]
                parent = stack[-1]
                parent[0] += dur
                parent[1] += 1
                acc = tracer.agg.get(name)
                if acc is None:
                    acc = tracer.agg[name] = [0, 0.0, 0.0, 0, 0]
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - frame[0]
                acc[3] += frame[1]
                acc[4] += frame[2]

        return dispatch

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, new) -> None:
        """Replace ``owner.attr`` until :meth:`restore`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def payload(self) -> Dict:
        """Everything recorded, as JSON-ready data."""
        return {"totals": self.totals, "counters": self.counters,
                "records": self.records, "own": self.own,
                "root_frame": self.stack[0][:3]}


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
class Calibration(NamedTuple):
    """Tracing cost per span, as measured on a no-op."""

    #: tracing cost inside a span's own interval, per span
    inside_s: float
    #: tracing cost outside it, charged to the parent, per child span
    outside_s: float
    #: cost the wrapped Simulator.schedule adds to its caller, per call
    schedule_s: float

    def cost(self, calls: float, children: float, schedules: float) -> float:
        return (calls * self.inside_s + children * self.outside_s
                + schedules * self.schedule_s)


def fit_scale(cost_s: float, own_s: float, traced_s: float,
              untraced_s: float) -> float:
    """The factor on the no-op span cost ``cost_s`` that makes the
    tracing cost of a run (scaled span cost plus the tracer's own
    bookkeeping ``own_s``) equal its measured slowdown: ``traced_s``
    against ``untraced_s``."""
    if cost_s < MIN_FIT_SHARE * traced_s:
        return 1.0
    return max(0.0, (traced_s - untraced_s - own_s) / cost_s)


def _per_call(loop: Callable[[int], float], n: int) -> float:
    """Median per-call time of ``loop`` over five runs of ``n`` calls."""
    return statistics.median(loop(n) / n for _ in range(5))


def calibrate(tracer: Tracer, simulator_cls, original_schedule,
              n: int = 40_000) -> Calibration:
    """Measure what one span and one wrapped schedule call cost."""
    clock = tracer.clock

    def noop():
        return None

    span = tracer.wrap("calibrate.span", noop)

    def bare_loop(k):
        t0 = clock()
        for _ in range(k):
            noop()
        return clock() - t0

    def span_loop(k):
        t0 = clock()
        for _ in range(k):
            span()
        return clock() - t0

    saved_stack, saved_agg = tracer.stack, tracer.agg
    tracer.stack, tracer.agg = [[0.0, 0, 0, 0, clock()]], {}
    try:
        bare = _per_call(bare_loop, n)
        wrapped = _per_call(span_loop, n)
        acc = tracer.agg["calibrate.span"]
        inside = acc[_TOTAL] / acc[_CALLS] - bare
        outside = wrapped - bare - inside

        def schedule_loop(schedule):
            def loop(k):
                sim = simulator_cls()
                t0 = clock()
                for _ in range(k):
                    schedule(sim, 1, noop)
                return clock() - t0
            return loop

        base = _per_call(schedule_loop(original_schedule), n)
        patched = _per_call(schedule_loop(simulator_cls.schedule), n)
    finally:
        tracer.stack, tracer.agg = saved_stack, saved_agg
    return Calibration(max(0.0, inside), max(0.0, outside),
                       max(0.0, patched - base))


# ----------------------------------------------------------------------
# The traced boundaries
# ----------------------------------------------------------------------
def _callback_namer() -> Callable:
    """``fn -> "<layer>.callback"`` for the module that defines ``fn``.

    A router-pipeline method runs as ``noc`` work even on a big router
    (a ``repro.inpg`` subclass); only the subclass's own methods are
    ``inpg``.  Names are cached per code object, which closures created
    afresh on every call share.
    """
    by_code: Dict[object, str] = {}

    def name_of(fn) -> str:
        code = getattr(fn, "__code__", None)
        if code is not None:
            name = by_code.get(code)
            if name is None:
                inner = getattr(fn, "__wrapped__", None)
                if inner is not None:  # a traced method, scheduled
                    return name_of(inner)
                name = by_code[code] = layer_of(fn.__module__ or "") + ".callback"
            return name
        if fn.__class__ is functools.partial:
            return name_of(fn.func)
        module = getattr(fn, "__module__", None) or type(fn).__module__
        return layer_of(module) + ".callback"

    return name_of


def _lock_classes(base) -> List[type]:
    out, todo = [], list(base.__subclasses__())
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def _collect_system(tracer: Tracer, system, result) -> None:
    """Simulated-time counters of one finished ManyCoreSystem run."""
    count = tracer.count
    count("sim.events", system.sim.events_processed)
    count("sim.compactions", system.sim.compactions)
    net = system.network
    count("noc.packets", net.packets_delivered)
    count("noc.latency_sum", net.total_latency)
    count("noc.port_wait_cycles", sum(
        port.total_wait_cycles
        for router in getattr(net, "routers", {}).values()
        for port in router.ports.values()
    ))
    stats = result.coherence
    count("coherence.msgs", sum(stats.msg_counts.values()))
    count("coherence.inv", len(stats.inv_records))
    count("coherence.inv_rtt_sum", sum(r.rtt for r in stats.inv_records))
    count("coherence.lco_cycles", stats.total_lco)
    pool = system.memsys.msg_pool
    count("coherence.pool_reused", pool.reused)
    count("coherence.pool_acquired", pool.reused + pool.allocated)
    count("inpg.getx_stopped", stats.getx_stopped)
    count("inpg.early_invs", stats.early_invs_generated)
    count("inpg.overflows", stats.barrier_table_overflows)
    for lock in system.locks:
        count("locks.acquisitions", lock.acquisitions)
        if hasattr(lock, "acquired_after_sleep"):
            count("locks.qsl_after_sleep", lock.acquired_after_sleep)
            count("locks.qsl_acquisitions",
                  lock.acquired_after_sleep + lock.acquired_spinning)
    count("cpu.os_sleeps", result.os_sleeps)
    count("cpu.os_wakeups", result.os_wakeups)


def instrument(tracer: Tracer) -> Calibration:
    """Wrap every traced boundary, then calibrate the span cost.

    Must run before the program builds any object: components keep
    bound methods (``sim.schedule``, ``l1.handle``) they took at
    construction.
    """
    from repro.coherence.directory import DirectoryController
    from repro.coherence.l1cache import L1Cache
    from repro.cpu.os_model import OsModel
    import repro.exec.executor as executor_mod
    from repro.exec.cache import ResultCache
    from repro.exec.executor import Executor
    from repro.exec.spec import RunSpec
    from repro.inpg.big_router import BigRouter
    from repro.locks import factory  # noqa: F401  (imports every lock)
    from repro.locks.base import LockPrimitive
    from repro.noc.network import Network
    from repro.noc.vecflit import VectorFlitNetwork
    from repro.sim.kernel import Simulator
    import repro.stats.serialize as serialize_mod
    from repro.system import ManyCoreSystem
    import repro.workloads as workloads_pkg
    import repro.workloads.generator as generator_mod

    wrap, patch, clock = tracer.wrap, tracer.patch, tracer.clock
    # pool workers run the program as it is: their spans would be lost
    os.register_at_fork(after_in_child=tracer.restore)

    # event callbacks, attributed to the module defining each one
    dispatch = tracer.make_dispatch()
    name_of = _callback_namer()
    schedule = Simulator.schedule
    schedule_cancellable = Simulator.schedule_cancellable

    def traced_schedule(self, delay, fn, *args):
        tracer.stack[-1][2] += 1
        return schedule(self, delay, dispatch, name_of(fn), fn, *args)

    def traced_schedule_cancellable(self, delay, fn, *args):
        tracer.stack[-1][2] += 1
        return schedule_cancellable(self, delay, dispatch, name_of(fn), fn,
                                    *args)

    patch(Simulator, "schedule", traced_schedule)
    patch(Simulator, "schedule_cancellable", traced_schedule_cancellable)

    methods = [
        (Simulator, "run", "sim.run", True),
        (Network, "send", "noc.send", False),
        (Network, "deliver_local", "noc.deliver_local", False),
        (Network, "reinject", "noc.reinject", False),
        (DirectoryController, "handle", "coherence.dir_handle", False),
        (L1Cache, "load", "coherence.l1_load", False),
        (L1Cache, "rmw", "coherence.l1_rmw", False),
        (L1Cache, "store", "coherence.l1_store", False),
        (L1Cache, "handle", "coherence.l1_handle", False),
        (BigRouter, "inspect", "inpg.inspect", False),
        (OsModel, "sleep", "cpu.os_sleep", False),
        (OsModel, "notify_release", "cpu.os_notify_release", False),
        (VectorFlitNetwork, "send", "vecflit.send", False),
        (ManyCoreSystem, "__init__", "system.build", True),
    ]
    for cls in _lock_classes(LockPrimitive):
        for attr in ("acquire", "release"):
            if attr in cls.__dict__:
                methods.append((cls, attr, f"locks.{attr}", False))
    for cls, attr, name, record in methods:
        patch(cls, attr, wrap(name, cls.__dict__[attr], record))

    fingerprint = RunSpec.__dict__["fingerprint"].fget
    patch(RunSpec, "fingerprint",
          property(wrap("exec.fingerprint", fingerprint, True)))

    advance = wrap("vecflit.advance_n", VectorFlitNetwork.advance_n)

    def traced_advance_n(self, limit):
        events = advance(self, limit)
        tracer.count("vecflit.steps", 1)
        tracer.count("vecflit.events", events)
        return events

    patch(VectorFlitNetwork, "advance_n", traced_advance_n)

    system_run = wrap("system.run", ManyCoreSystem.run, True)

    def traced_system_run(self, *args, **kwargs):
        result = system_run(self, *args, **kwargs)
        start = clock()
        _collect_system(tracer, self, result)
        tracer.charge_own(start)
        return result

    patch(ManyCoreSystem, "run", traced_system_run)

    executor_run = wrap("exec.run", Executor.run, True)

    def executor_counters(executor):
        stats = executor.stats
        return (stats.requested, stats.cache_hits, executor.cache.hits,
                executor.cache.misses, stats.wall_time)

    def traced_executor_run(self, plan, **policy):
        start = clock()
        before = executor_counters(self)
        tracer.charge_own(start)
        begin = clock()
        out = executor_run(self, plan, **policy)
        start = clock()
        tracer.count("exec.worker_s", self.jobs * (start - begin))
        after = executor_counters(self)
        for key, b, a in zip(("exec.requested", "exec.plan_hits",
                              "exec.cache_hits", "exec.cache_misses",
                              "exec.run_wall_s"),
                             before, after):
            tracer.count(key, a - b)
        tracer.charge_own(start)
        return out

    patch(Executor, "run", traced_executor_run)

    # a spec's simulation is one request: its spans share the fingerprint
    execute_spec = wrap("exec.execute_spec", executor_mod.execute_spec, True)

    def traced_execute_spec(spec, *args, **kwargs):
        start = clock()
        previous = tracer.set_trace_id(fingerprint(spec))
        tracer.charge_own(start)
        try:
            return execute_spec(spec, *args, **kwargs)
        finally:
            tracer.set_trace_id(previous)

    patch(executor_mod, "execute_spec", traced_execute_spec)

    def keyed(name, fn):
        """Cache reads and writes name their fingerprint themselves."""
        spanned = wrap(name, fn, True)

        def call(self, fp, *args, **kwargs):
            previous = tracer.set_trace_id(fp)
            try:
                return spanned(self, fp, *args, **kwargs)
            finally:
                tracer.set_trace_id(previous)

        return call

    patch(ResultCache, "get", keyed("exec.cache_get", ResultCache.get))
    patch(ResultCache, "put", keyed("exec.cache_put", ResultCache.put))

    serialize = wrap("stats.serialize",
                     serialize_mod.serialize_run_result, True)
    deserialize = wrap("stats.deserialize",
                       serialize_mod.deserialize_run_result, True)
    for module in (serialize_mod, executor_mod):
        patch(module, "serialize_run_result", serialize)
        patch(module, "deserialize_run_result", deserialize)

    generate = wrap("workloads.generate", generator_mod.generate_workload,
                    True)
    patch(generator_mod, "generate_workload", generate)
    patch(workloads_pkg, "generate_workload", generate)

    return calibrate(tracer, Simulator, schedule)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def merge_totals(sources: List[Dict[str, Dict[str, list]]]) -> Dict[str, list]:
    """Per span name, summed over trace ids and processes."""
    out: Dict[str, list] = {}
    for totals in sources:
        for per_name in totals.values():
            for name, acc in per_name.items():
                mine = out.setdefault(name, [0, 0.0, 0.0, 0, 0])
                for i, value in enumerate(acc):
                    mine[i] += value
    return out


#: per-layer metrics that are a counter as collected
_COUNTS = (
    "sim.events", "sim.compactions", "noc.packets", "noc.port_wait_cycles",
    "vecflit.steps", "vecflit.events", "vecflit.latency_cycles",
    "coherence.msgs", "coherence.inv", "coherence.lco_cycles",
    "inpg.getx_stopped", "inpg.early_invs", "inpg.overflows",
    "locks.acquisitions", "cpu.os_sleeps", "cpu.os_wakeups",
    "exec.cache_hits", "exec.cache_misses",
)
#: per-layer metrics that are the corrected self time of one span name
_SPAN_TIMES = {
    "vecflit.send_s": "vecflit.send",
    "vecflit.build_s": "vecflit.build",
    "workloads.gen_s": "workloads.generate",
    "system.build_s": "system.build",
    "stats.serialize_s": "stats.serialize",
    "stats.deserialize_s": "stats.deserialize",
    "exec.fingerprint_s": "exec.fingerprint",
    "exec.cache_get_s": "exec.cache_get",
    "exec.cache_put_s": "exec.cache_put",
    "exec.pool_wait_s": "exec.run",
}
#: per-layer metrics that are one counter over another
_RATIOS = {
    "noc.latency_cycles": ("noc.latency_sum", "noc.packets"),
    "vecflit.events_per_step": ("vecflit.events", "vecflit.steps"),
    "coherence.inv_rtt_cycles": ("coherence.inv_rtt_sum", "coherence.inv"),
    "coherence.pool_reuse_frac": ("coherence.pool_reused",
                                  "coherence.pool_acquired"),
    "locks.sleep_frac": ("locks.qsl_after_sleep", "locks.qsl_acquisitions"),
    "exec.hit_frac": ("exec.plan_hits", "exec.requested"),
    "exec.pool_util": ("exec.run_wall_s", "exec.worker_s"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(main: Dict, cal: Calibration, root_s: float,
              untraced_s: float) -> Dict[str, float]:
    """Per-layer metrics from the traced process's payload, the no-op
    calibration, the root span's duration and the untraced run's
    duration over the same stretch of work.

    Self times have the fitted tracing cost taken off.  The root span's
    own time, less the tracing cost charged to it, is unattributed:
    ``trace.unattributed_frac`` is its share of the root once all
    tracing cost is taken off.
    """
    everything = merge_totals([main["totals"]])
    root_child_s, root_nchild, root_nsched = main["root_frame"]
    own_s = sum(main["own"].values())
    scale = fit_scale(
        sum(cal.cost(acc[_CALLS], acc[_NCHILD], acc[_NSCHED])
            for acc in everything.values())
        + cal.cost(0, root_nchild, root_nsched),
        own_s, root_s, untraced_s)

    def cost(acc) -> float:
        return scale * cal.cost(acc[_CALLS], acc[_NCHILD], acc[_NSCHED])

    def corrected(acc) -> float:
        return acc[_SELF] - cost(acc)

    def by_layer(per_name: Dict[str, list]):
        self_s = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        for name, acc in per_name.items():
            layer = name.split(".", 1)[0]
            if layer not in self_s:
                layer = "other"
            self_s[layer] += corrected(acc)
            calls[layer] += acc[_CALLS]
        return {k: max(0.0, v) for k, v in self_s.items()}, calls

    out: Dict[str, float] = {}
    layer_self, layer_calls = by_layer(everything)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
        out[f"{layer}.calls"] = layer_calls[layer]

    def span_self(name: str) -> float:
        acc = everything.get(name)
        return max(0.0, corrected(acc)) if acc else 0.0

    c = main["counters"].get

    for name in _COUNTS:
        out[name] = c(name, 0)
    for name, span in _SPAN_TIMES.items():
        out[name] = span_self(span)
    for name, (num, den) in _RATIOS.items():
        out[name] = _ratio(c(num, 0), c(den, 0))
    out["sim.ns_per_event"] = 1e9 * _ratio(out["sim.self_s"], out["sim.events"])
    out["stats.result_kb"] = _ratio(c("stats.result_bytes", 0),
                                    c("stats.results", 0)) / 1000.0
    out["trace.span_cost_ns"] = 1e9 * scale * cal.cost(1, 1, 0)
    out["trace.cost_scale"] = scale
    out["trace.spans"] = sum(layer_calls.values())

    # root = layers + tracing cost + unattributed
    root_cost = scale * cal.cost(0, root_nchild, root_nsched)
    unattributed = root_s - root_child_s - root_cost
    tracing = sum(cost(acc) for acc in everything.values()) + root_cost + own_s
    out["trace.unattributed_frac"] = _ratio(unattributed, root_s - tracing)
    return out
