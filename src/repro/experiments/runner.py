"""CLI for regenerating the paper's tables and figures.

Usage::

    inpg-experiments list
    inpg-experiments table1
    inpg-experiments fig10
    inpg-experiments all --quick
    inpg-experiments fig12 --full --jobs 8   # sweep all 24 programs, parallel
    inpg-experiments fig11 --no-cache        # force re-simulation
    inpg-experiments claims --jobs 2         # check the paper's claims

Every simulation goes through the shared :mod:`repro.exec` executor:
``--jobs`` (or ``REPRO_JOBS``) controls how many worker processes fan
out over the run plan, and results persist in ``--cache-dir`` (or
``REPRO_CACHE_DIR``, default ``.repro-cache/``) so a second invocation
answers from the cache.  A summary footer reports executed vs cached
runs, simulated cycles and events/sec.
"""

from __future__ import annotations

import argparse
import sys
import time
from importlib import import_module

from ..cli import (
    axes_parent,
    execution_parent,
    executor_from_args,
    footer_cache_dir,
    positive_scale,
)
from ..config import describe_axes
from . import common

#: experiment name -> harness module in this package, imported only when
#: the experiment runs; every module's ``run()`` takes the unified
#: ``ExperimentOptions`` (figures with nothing to sweep ignore it)
EXPERIMENTS = {
    "ablation": "ablation_lco",
    "protocols": "ablation_protocol",
    "topologies": "ablation_topology",
    "claims": "claims",
    "table1": "table1_config",
    "fig2": "fig02_lco",
    "fig7": "fig07_synthesis",
    "fig8": "fig08_cs_chars",
    "fig9": "fig09_timing_profile",
    "fig10": "fig10_rtt",
    "fig11": "fig11_cs_expedition",
    "fig12": "fig12_roi",
    "fig13": "fig13_primitives",
    "fig14": "fig14_deployment",
    "fig15": "fig15_sensitivity",
}


def run_one(name: str, options: common.ExperimentOptions) -> str:
    module = import_module(f".{EXPERIMENTS[name]}", __package__)
    return module.run(options).render()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inpg-experiments",
        description="Regenerate the iNPG paper's tables and figures.",
        parents=[execution_parent(), axes_parent()],
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "list"],
        help="which table/figure to regenerate",
    )
    sweep = parser.add_mutually_exclusive_group()
    sweep.add_argument(
        "--full", action="store_true",
        help="sweep all 24 benchmark programs (slow)",
    )
    sweep.add_argument(
        "--quick", action="store_true",
        help="representative 6-benchmark subset (default)",
    )
    parser.add_argument(
        "--scale", type=positive_scale, default=1.0,
        help="workload scale factor (default 1.0)",
    )
    parser.add_argument(
        "--check-protocol", action="store_true",
        help="attach the online coherence protocol checker to every run "
             "(checked runs cache separately from unchecked ones)",
    )
    parser.add_argument(
        "--retries", type=int, default=0,
        help="retry count for transient (infra) worker failures, with "
             "exponential backoff",
    )
    parser.add_argument(
        "--on-error", choices=("raise", "skip"), default="raise",
        help="'skip' degrades gracefully: failed runs are recorded in "
             "the execution summary and the sweep returns partial "
             "results (default: raise)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="observe every run (counters + structured trace); forces "
             "inline, uncached execution",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the combined Chrome trace-event JSON here "
             "(implies --trace; default trace.json)",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    traced = args.trace or args.trace_out is not None
    observe_factory = None
    if traced:
        from ..obs import Observation

        observe_factory = lambda spec: Observation(label=spec.label())  # noqa: E731
    executor = common.set_executor(
        executor_from_args(
            args,
            retries=args.retries,
            on_error=args.on_error,
            observe_factory=observe_factory,
        )
    )
    options = common.ExperimentOptions(
        quick=not args.full,
        scale=args.scale,
        check_protocol=args.check_protocol,
        **{name: getattr(args, name) for name in describe_axes()},
    )
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        start = time.time()
        print(f"=== {name} ===")
        print(run_one(name, options))
        print(f"[{name} took {time.time() - start:.1f}s]\n")
    if traced:
        from ..obs import write_chrome_trace

        out = args.trace_out or "trace.json"
        runs = [obs.chrome_run() for obs in executor.observations.values()]
        write_chrome_trace(out, runs)
        print(f"trace: {len(runs)} observed runs -> {out}\n")
    print(executor.stats.render_footer(jobs=executor.jobs,
                                       cache_dir=footer_cache_dir(executor)))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
