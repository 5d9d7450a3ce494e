"""``inpg-sim``: run one simulation from the command line.

Examples::

    inpg-sim freqmine                         # Original, QSL
    inpg-sim kdtree --mechanism inpg --primitive tas
    inpg-sim nab --mechanism inpg+ocor --json
    inpg-sim microbench --threads 64 --home 53 --gantt
    inpg-sim kdtree --mechanism inpg --trace --trace-out t.json
    inpg-sim kdtree --remote http://127.0.0.1:8731

This module also owns the *shared* command-line vocabulary: every
``inpg-*`` tool that executes simulations builds its parser over
:func:`execution_parent` (``--jobs`` / ``--timeout`` / ``--cache-dir`` /
``--no-cache`` / ``--remote``) and :func:`axes_parent` (one flag per
axis of :data:`repro.config.AXES`), so one flag is spelled, typed and
documented identically everywhere, and :func:`executor_from_args` turns
the parsed flags into the right executor — in-process by default, a
:class:`~repro.serve.client.RemoteExecutor` when ``--remote`` names a
running ``inpg-serve``.  The workload flags of ``inpg-sim``,
``inpg-trace`` and ``inpg-faults`` share the argparse types below
(:func:`benchmark_name` ... :func:`home_node`), so a bad value is a
usage error at parse time, never a traceback or a silent run; so is a
flag the chosen workload ignores (:class:`WorkloadParser`).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .config import (
    AXES,
    MECHANISMS,
    PRIMITIVES,
    Axis,
    NocConfig,
    SystemConfig,
    canonical_primitive,
    describe_axes,
)
from .errors import ReproError
from .exec import MICROBENCH, Executor, RunSpec
from .experiments.common import ExperimentOptions
from .workloads.profiles import ALL_PROFILES, get_profile


# ----------------------------------------------------------------------
# Shared flag vocabulary (all inpg-* tools)
# ----------------------------------------------------------------------
def execution_parent(remote: bool = True) -> argparse.ArgumentParser:
    """The argparse parent carrying the shared execution flags.

    Every tool that runs simulations includes this via ``parents=`` so
    ``--jobs`` / ``--timeout`` / ``--cache-dir`` / ``--no-cache`` (and,
    unless ``remote=False``, ``--remote``) are spelled and documented
    identically across ``inpg-sim``, ``inpg-experiments``,
    ``inpg-faults`` and ``inpg-serve``.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("execution")
    group.add_argument(
        "--jobs", "-j", type=int, default=None,
        help="worker processes for the run plan (0 = one per CPU; "
             "default REPRO_JOBS or 1)",
    )
    group.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-run wall-clock budget (timed-out runs fail and are "
             "never cached)",
    )
    group.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (default REPRO_CACHE_DIR or "
             ".repro-cache/)",
    )
    group.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent result cache",
    )
    if remote:
        group.add_argument(
            "--remote", default=None, metavar="URL",
            help="execute on a running inpg-serve at this URL instead "
                 "of in-process (e.g. http://127.0.0.1:8731); the "
                 "service owns the cache and worker pool, so --jobs/"
                 "--cache-dir/--no-cache apply only to local runs",
        )
    return parent


def add_axis_argument(parser, axis: Axis, extra_help: str = "") -> None:
    """Add one axis's shared flag (identical everywhere)."""
    text = f"{axis.help}; {extra_help}" if extra_help else axis.help
    parser.add_argument(axis.flag, default=None, choices=list(axis.choices),
                        help=text)


def axes_parent() -> argparse.ArgumentParser:
    """The argparse parent carrying the shared simulation-axis flags.

    One flag per axis of :data:`repro.config.AXES` that has help text —
    ``--protocol`` / ``--topology`` / ``--arbiter`` — spelled, typed and
    documented identically on ``inpg-sim`` and ``inpg-experiments``.
    Every flag defaults to ``None``, meaning "keep the config's value"
    (the paper's MOESI / mesh / round-robin defaults).
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("simulation axes")
    for axis in AXES:
        if axis.help is not None:
            add_axis_argument(group, axis)
    return parent


def executor_from_args(args, *, retries: int = 0, on_error: str = "raise",
                       observe_factory=None):
    """Build the executor the shared execution flags describe.

    Returns an in-process :class:`~repro.exec.Executor` normally, or a
    :class:`~repro.serve.client.RemoteExecutor` bound to ``--remote``.
    Observed (traced) plans cannot cross the wire — trace rings live in
    the executing process — so ``observe_factory`` with ``--remote`` is
    rejected here, once, instead of in every tool.
    """
    remote = getattr(args, "remote", None)
    if remote:
        if observe_factory is not None:
            raise SystemExit(
                "error: --trace needs inline execution and cannot be "
                "combined with --remote (trace data stays in the "
                "executing process)")
        from .serve.client import RemoteExecutor

        return RemoteExecutor(remote, timeout_s=args.timeout,
                              retries=retries, on_error=on_error)
    return Executor(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        timeout_s=args.timeout,
        retries=retries,
        on_error=on_error,
        observe_factory=observe_factory,
    )


# ----------------------------------------------------------------------
# Shared workload-flag types (inpg-sim, inpg-trace, inpg-faults)
# ----------------------------------------------------------------------
#: the default mesh, which every tool builds
MESH = NocConfig()


def benchmark_name(text: str) -> str:
    """A benchmark's full or short name (``inpg-sim --list``), or
    ``microbench``; returned as given."""
    if text != MICROBENCH:
        try:
            get_profile(text)
        except KeyError:
            raise argparse.ArgumentTypeError(
                f"unknown benchmark {text!r} (see inpg-sim --list)") from None
    return text


def primitive_name(text: str) -> str:
    """A lock primitive or paper alias, resolved (``TTL`` -> ``ticket``)."""
    try:
        return canonical_primitive(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def positive_scale(text: str) -> float:
    """A finite workload scale above zero."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {text}")
    return value


def thread_count(text: str) -> int:
    """Competing threads, one per core: 1 up to the mesh's node count."""
    value = int(text)
    if not 1 <= value <= MESH.num_nodes:
        raise argparse.ArgumentTypeError(
            f"{value} threads on the {MESH.width}x{MESH.height} mesh; "
            f"choose 1..{MESH.num_nodes}")
    return value


def home_node(text: str) -> int:
    """A node of the mesh."""
    value = int(text)
    if not 0 <= value < MESH.num_nodes:
        raise argparse.ArgumentTypeError(
            f"no node {value} on the {MESH.width}x{MESH.height} mesh; "
            f"choose 0..{MESH.num_nodes - 1}")
    return value


#: the workload flags one workload reads and the other ignores: flag ->
#: (its default, the workload that reads it)
WORKLOAD_FLAGS = {
    "scale": (1.0, "named benchmarks"),
    "seed": (2018, "named benchmarks"),
    "threads": (64, MICROBENCH),
    "home": (53, MICROBENCH),
}


class WorkloadParser(argparse.ArgumentParser):
    """The parser of a tool that runs one workload, its ``benchmark``.

    A named benchmark reads neither ``--threads`` nor ``--home``, and
    microbench reads neither ``--scale`` nor ``--seed`` (a seed would
    only move its cache address).  Such a flag is a usage error; the
    :data:`WORKLOAD_FLAGS` the command line leaves unset (their
    arguments default to ``None``) take their defaults after parsing.
    """

    def parse_known_args(self, args=None, namespace=None):
        parsed, extras = super().parse_known_args(args, namespace)
        micro = parsed.benchmark == MICROBENCH
        for name, (default, reader) in WORKLOAD_FLAGS.items():
            if getattr(parsed, name) is None:
                setattr(parsed, name, default)
            elif (reader == MICROBENCH) != micro:
                self.error(f"argument --{name}: {parsed.benchmark} "
                           f"ignores it ({reader} only)")
        return parsed, extras


def footer_cache_dir(executor) -> str:
    """The ``cache_dir`` string the execution-summary footer prints."""
    directory = executor.cache.directory
    return str(directory) if directory is not None else None


def add_workload_flags(parser: WorkloadParser) -> None:
    """Add ``--scale``, ``--seed``, ``--threads`` and ``--home``."""
    parser.add_argument("--scale", type=positive_scale, default=None,
                        help="named benchmarks: workload scale factor "
                             "(default 1.0)")
    parser.add_argument("--seed", type=int, default=None,
                        help="named benchmarks: workload seed "
                             "(default 2018)")
    parser.add_argument("--threads", type=thread_count, default=None,
                        help="microbench: competing threads (default 64)")
    parser.add_argument("--home", type=home_node, default=None,
                        help="microbench: lock home node (default 53)")


# ----------------------------------------------------------------------
# inpg-sim
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = WorkloadParser(
        prog="inpg-sim",
        description="Simulate one benchmark on the iNPG platform.",
        parents=[execution_parent(), axes_parent()],
    )
    parser.add_argument(
        "benchmark", type=benchmark_name,
        help="benchmark name (see --list), or 'microbench' for the "
             "single-lock all-compete scenario",
    )
    parser.add_argument("--mechanism", default="original",
                        choices=list(MECHANISMS))
    parser.add_argument("--primitive", default="qsl", type=primitive_name,
                        help=f"one of {PRIMITIVES} (or paper alias TTL)")
    add_workload_flags(parser)
    parser.add_argument("--faults", default=None, metavar="PLAN",
                        help="deterministic fault plan, e.g. "
                             "'drop:0.01' or 'drop:1/Inv#2000..4000,"
                             "delay:0.2@router:53+16' (see repro.faults)")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed for the fault plan's RNG stream")
    parser.add_argument("--watchdog", type=int, default=None,
                        metavar="CYCLES",
                        help="arm the liveness watchdog: raise "
                             "LivelockDetected after this many cycles "
                             "without forward progress")
    parser.add_argument("--check-protocol", action="store_true",
                        help="attach the online coherence protocol checker")
    parser.add_argument("--json", action="store_true",
                        help="emit the full result as JSON")
    parser.add_argument("--gantt", action="store_true",
                        help="render a Figure 9-style phase timeline")
    parser.add_argument("--trace", action="store_true",
                        help="observe the run (counters + structured "
                             "trace); bypasses the result cache")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write a Chrome trace-event JSON (Perfetto) "
                             "file (implies --trace)")
    parser.add_argument("--list", action="store_true",
                        help="list benchmark names and exit")
    return parser


def main(argv=None) -> int:
    from .stats.export import render_gantt, run_result_to_dict

    parser = build_parser()
    if argv and "--list" in argv or argv is None and "--list" in sys.argv:
        for profile in ALL_PROFILES:
            print(f"{profile.name:<16} ({profile.suite}, "
                  f"group-relevant short name: {profile.short_name})")
        return 0
    args = parser.parse_args(argv)
    traced = args.trace or args.trace_out is not None
    if traced and args.remote:
        print("error: --trace needs inline execution and cannot be "
              "combined with --remote", file=sys.stderr)
        return 2
    fault_plan = None
    if args.faults:
        from .faults import FaultPlan

        try:
            fault_plan = FaultPlan.parse(args.faults, seed=args.fault_seed)
        except ValueError as err:
            parser.error(f"argument --faults: {err}")
    try:
        executor = executor_from_args(args)
        options = ExperimentOptions(
            fault_plan=fault_plan,
            watchdog_cycles=args.watchdog,
            check_protocol=args.check_protocol,
            **{name: getattr(args, name) for name in describe_axes()},
        )
        if args.benchmark == "microbench":
            spec = RunSpec.microbench(
                home_node=args.home,
                mechanism=args.mechanism,
                primitive=args.primitive,
                seed=args.seed,
                config=SystemConfig(num_threads=args.threads),
            )
        else:
            spec = RunSpec(
                benchmark=args.benchmark,
                mechanism=args.mechanism,
                primitive=args.primitive,
                scale=args.scale,
                seed=args.seed,
            )
        spec = options.apply_to_spec(spec)
        observe = None
        if traced:
            from .exec.executor import execute_spec
            from .obs import Observation

            observe = Observation(label=spec.label())
            # observed runs execute inline and never touch the cache:
            # cached results carry no trace ring, and traced payloads
            # must not leak into unobserved plans.
            result = execute_spec(spec, observe=observe,
                                  timeout_s=args.timeout)
        else:
            result = executor.run_one(spec)
    except ReproError as err:
        # a refused or failed run is a one-line diagnosis, not a traceback
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(run_result_to_dict(result), indent=2))
    else:
        summary = result.summary()
        print(f"{args.benchmark} [{args.mechanism}/{args.primitive}]")
        for key, value in summary.items():
            print(f"  {key:<18} {value:,.2f}")
    if args.gantt:
        threads = [t.thread for t in result.threads[:8]]
        window = (0, min(30_000, result.roi_cycles))
        print()
        print(render_gantt(result.timeline, threads, window=window))
    if observe is not None:
        print()
        print(observe.contention_report())
        if args.trace_out is not None:
            observe.write_chrome_trace(args.trace_out)
            n = len(observe.records())
            print(f"\ntrace: {n:,} records "
                  f"({observe.tracer.dropped:,} dropped) -> {args.trace_out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
