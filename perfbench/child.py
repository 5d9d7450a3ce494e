"""One plan or drive in a fresh process, as a user would run it.

    python3 perfbench/child.py WORKLOAD --seed N [--cache DIR] [--jobs J]
                               [--setup-only] [--digests] [--reference]
                               [--trace FILE]

Prints one JSON line: ``time.monotonic()`` stamps (comparable with the
parent's on Linux) for the end of set-up and of the work, the duration
of each piece of the work, peak RSS, and the outputs the correctness
gate checks.  The pieces are the plan's runs (one ``api.run_plan`` call
per spec; with ``--jobs`` above 1, one call for the whole plan) and its
aggregation, the replay and its aggregation, or ``FLIT_SLICE``-cycle
slices of the flit drive.  ``--reference`` also times
:func:`reference_loop` after set-up and after every piece.
``--trace FILE`` wraps the program's layer boundaries
(``spans.instrument``) and writes the spans to FILE when the work ends.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from typing import List  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

#: per-thread CS multiplier of the Figure 12 plan, so that one timed run
#: holds several cold plans (the CLI's --quick default is 1.0)
FIG12_SCALE = 0.25
FIG12_WORKLOADS = ("fig12_cold", "fig12_fanout", "fig12_replay")
#: the flit drive, shaped like the repo's flit_big_mesh on a 32x32 mesh
FLIT_WIDTH = 32
FLIT_PACKETS = 12_000
FLIT_PER_CYCLE = 16
FLIT_UNTIL = 2_000_000
#: cycles per timed slice of the flit drive (about 60 ms of host time)
FLIT_SLICE = 20


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("workload", choices=FIG12_WORKLOADS + ("flit_mesh32",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cache", help="result-cache directory (fig12_*)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up")
    p.add_argument("--digests", action="store_true",
                   help="also report a digest of every serialized result")
    p.add_argument("--reference", action="store_true",
                   help="time the reference loop after set-up and after "
                        "each piece of the work")
    p.add_argument("--trace", help="record spans and write them here")
    return p.parse_args(argv)


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------
class _Node:
    __slots__ = ("key", "links")

    def __init__(self, key: int):
        self.key = key
        self.links: List[int] = []

    def visit(self, table: dict) -> None:
        table[self.key & 511] = table.get(self.key & 511, 0) + len(self.links)


def reference_loop(n: int = 6000) -> int:
    """A fixed piece of pure-Python work (attribute access, method calls,
    dicts, lists and a heap, as the simulator uses them) that imports
    nothing from the program: how long it takes tells how fast the host
    runs Python at that moment."""
    import heapq

    queue: list = []
    table: dict = {}
    nodes = [_Node(i) for i in range(256)]
    acc = 0
    for i in range(n):
        node = nodes[(i * 7919) & 255]
        node.links.append(i)
        if len(node.links) > 8:
            node.links.clear()
        node.visit(table)
        heapq.heappush(queue, ((i * 104729) % 4099, i))
        if len(queue) > 128:
            cycle, key = heapq.heappop(queue)
            acc ^= cycle + key
    return acc


class Timer:
    """Times the pieces of the work.  With ``reference``, it also times
    :func:`reference_loop` once when set-up ends and once after each
    piece, interleaved with the work it is compared with."""

    def __init__(self, reference: bool = False):
        self.reference = reference
        self.pieces: List[float] = []
        self.refs: List[float] = []

    def ready(self, stamps) -> None:
        stamps["t_ready"] = time.monotonic()
        self._reference()

    def stop(self, t0: float) -> None:
        """End the piece that began at ``time.perf_counter()`` = ``t0``."""
        self.pieces.append(time.perf_counter() - t0)
        self._reference()

    def _reference(self) -> None:
        if self.reference:
            t0 = time.perf_counter()
            reference_loop()
            self.refs.append(time.perf_counter() - t0)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def build_plan(seed: int, scale: float = FIG12_SCALE):
    """The Figure 12 quick plan with ``seed`` set on every spec.

    Built here, not through ``fig12_roi.run``: ``run_mechanism_matrix``
    does not pass ``ExperimentOptions.seed`` into its specs, so that path
    would run seed 2018 whatever the seed asked for.
    """
    from repro import api
    from repro.experiments.common import benchmarks_for

    return [
        api.RunSpec(benchmark=bench, mechanism=mech, primitive="qsl",
                    scale=scale, seed=seed)
        for bench in benchmarks_for(True)
        for mech in api.MECHANISMS
    ]


def flit_plan(seed: int, packets: int = FLIT_PACKETS,
              nodes: int = FLIT_WIDTH * FLIT_WIDTH,
              per_cycle: int = FLIT_PER_CYCLE):
    """(cycle, src, dst, length) rows: uniform random pairs, ``per_cycle``
    injections a cycle, every fourth packet 8 flits, the rest 1.

    Drawn from the repo's ``make_rng(seed, "perf/flit")`` stream, so
    seed 11 is the drive of the repo's ``flit_sharded_mesh32`` workload.
    """
    from repro.sim import make_rng

    rng = make_rng(seed, "perf/flit")
    plan = []
    for i in range(packets):
        src = rng.randrange(nodes)
        dst = rng.randrange(nodes)
        while dst == src:
            dst = rng.randrange(nodes)
        plan.append((i // per_cycle, src, dst, 8 if i % 4 == 0 else 1))
    return plan


# ----------------------------------------------------------------------
# Work
# ----------------------------------------------------------------------
def fig12_figure(specs, results):
    """Figure 12 from the plan's results, as ``inpg-experiments`` builds
    it; returns the measured average iNPG ROI reduction gap to the
    paper's, in percentage points (``None`` if a row is missing)."""
    from repro.config import MECHANISMS
    from repro.experiments.fig12_roi import PAPER_REDUCTION, Fig12Result

    roi = {(s.benchmark, s.mechanism): r.roi_cycles
           for s, r in zip(specs, results) if r is not None}
    figure = Fig12Result()
    for bench in dict.fromkeys(s.benchmark for s in specs):
        if all((bench, m) in roi for m in MECHANISMS):
            base = roi[(bench, "original")]
            figure.relative_roi[bench] = {
                m: roi[(bench, m)] / base for m in MECHANISMS}
    if len(figure.relative_roi) * len(MECHANISMS) != len(specs):
        return None
    figure.render()
    return abs(100.0 * figure.average_reduction("inpg")
               - 100.0 * PAPER_REDUCTION["inpg"])


def run_fig12(args, tracer, stamps, timer):
    from repro import api

    span = tracer.wrap if tracer else (lambda name, fn, record=False: fn)
    specs = span("experiments.plan", build_plan, True)(args.seed)
    options = api.ExperimentOptions(on_error="skip")
    if args.workload == "fig12_replay":
        executor = api.Executor(jobs=1, cache_dir=args.cache,
                                on_error="skip")
    timer.ready(stamps)
    if args.setup_only:
        return None, specs, []
    executed = None
    if args.workload == "fig12_replay":
        t0 = time.perf_counter()
        by_spec = executor.run(specs)
        timer.stop(t0)
        results = [by_spec[spec] for spec in specs]
        executed = executor.stats.executed
    elif args.jobs > 1:
        t0 = time.perf_counter()
        results = api.run_plan(specs, jobs=args.jobs, cache=args.cache,
                               options=options)
        timer.stop(t0)
    else:
        results = []
        for spec in specs:
            t0 = time.perf_counter()
            results += api.run_plan([spec], jobs=1, cache=args.cache,
                                    options=options)
            timer.stop(t0)
    t0 = time.perf_counter()
    gap = span("experiments.aggregate", fig12_figure, True)(specs, results)
    timer.stop(t0)
    stamps["t_done"] = time.monotonic()
    outputs = {
        "runs": {
            f"{s.benchmark}/{s.mechanism}": None if r is None
            else [r.roi_cycles, int(r.extra["sim_events"])]
            for s, r in zip(specs, results)
        },
        "paper_gap_pp": gap,
        "executed": executed,
    }
    return outputs, specs, results


def drive_flit(sim, net, packets: int, timer: Timer,
               until: int = FLIT_UNTIL,
               slice_cycles: int = FLIT_SLICE) -> None:
    """Run the kernel until every packet is delivered, ``slice_cycles``
    at a time, then drain what follows the last delivery; each slice is
    a piece of ``timer``.  The kernel resumes where a slice stopped, so
    the drive is the one a single ``sim.run(until=until)`` makes."""
    cycle = 0
    while len(net.delivered) < packets and cycle < until:
        cycle = min(cycle + slice_cycles, until)
        t0 = time.perf_counter()
        sim.run(until=cycle)
        timer.stop(t0)
    t0 = time.perf_counter()
    sim.run(until=until)
    timer.stop(t0)


def run_flit(args, tracer, stamps, timer):
    from repro.config import NocConfig
    from repro.noc import make_flit_network
    from repro.sim import Simulator

    make = make_flit_network
    if tracer:
        make = tracer.wrap("vecflit.build", make_flit_network, True)
    sim = Simulator()
    net = make(sim, NocConfig(width=FLIT_WIDTH, height=FLIT_WIDTH), "vector")
    plan = flit_plan(args.seed)
    for cycle, src, dst, length in plan:
        sim.schedule_at(cycle, net.send, src, dst, length)
    timer.ready(stamps)
    if args.setup_only:
        return None
    drive_flit(sim, net, len(plan), timer)
    stamps["t_done"] = time.monotonic()
    stream = hashlib.sha256()
    for p in net.delivered:
        stream.update(
            f"{p.delivered_cycle},{p.src},{p.dst},{p.length};".encode())
    if tracer:
        tracer.count("sim.events", sim.events_processed)
        tracer.count("sim.compactions", sim.compactions)
        tracer.count("vecflit.latency_cycles", net.mean_latency)
    return {
        "injected": len(plan),
        "events": sim.events_processed,
        "delivered": len(net.delivered),
        "last_cycle": max((p.delivered_cycle for p in net.delivered),
                          default=0),
        "digest": stream.hexdigest(),
    }


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    stamps = {"t_start": T_START}
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    if args.workload in FIG12_WORKLOADS:
        from repro import api  # noqa: F401
        from repro.experiments import fig12_roi  # noqa: F401
    else:
        from repro.noc import vecflit  # noqa: F401
    stamps["t_imported"] = time.monotonic()

    report = {}
    if tracer:
        # wrapping and calibration are not part of the traced work
        calibration = spans.instrument(tracer)
        tracer.reset("bench.root")
        stamps["t_traced"] = time.monotonic()

    timer = Timer(args.reference)
    if args.workload in FIG12_WORKLOADS:
        outputs, specs, results = run_fig12(args, tracer, stamps, timer)
    else:
        outputs = run_flit(args, tracer, stamps, timer)
    report["outputs"] = outputs
    report["pieces"] = timer.pieces
    report["refs"] = timer.refs

    if tracer:
        root_s = tracer.close_root()
        stamps["t_root_end"] = time.monotonic()
        tracer.restore()
    payloads = {}
    if args.workload in FIG12_WORKLOADS and (args.digests or tracer):
        from gate import payload_digest
        from repro.stats.serialize import serialize_run_result

        payloads = {spec.fingerprint: serialize_run_result(r)
                    for spec, r in zip(specs, results) if r is not None}
        report["digests"] = {fp: payload_digest(payload)
                             for fp, payload in payloads.items()}
    if tracer:
        tracer.count("stats.result_bytes",
                     sum(len(json.dumps(p)) for p in payloads.values()))
        tracer.count("stats.results", len(payloads))
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump({"payload": tracer.payload(), "root_s": root_s,
                       "calibration": calibration._asdict()}, fh)
    # this process plus its largest pool worker, if it had any
    report["rss_kb"] = sum(resource.getrusage(who).ru_maxrss for who in (
        resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    report.update(stamps)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
