"""``inpg-trace``: run simulations under observation and export traces.

The dedicated front door to :mod:`repro.obs`: runs one or more
benchmarks inline (uncached, observed), writes a combined Chrome
trace-event JSON file viewable in Perfetto / ``chrome://tracing``, and
prints the per-lock contention report.

Examples::

    inpg-trace kdtree --mechanism inpg
    inpg-trace kdtree --mechanism original --mechanism inpg -o compare.json
    inpg-trace nab --primitive tas --scale 0.25 --counters
    inpg-trace freqmine --events  # event-type histogram, no file
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from typing import List, Optional

from ..cli import benchmark_name, positive_scale, primitive_name
from ..config import MECHANISMS, PRIMITIVES
from ..exec import RunSpec
from ..exec.executor import execute_spec
from . import DEFAULT_CAPACITY, Observation
from .export import write_chrome_trace


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inpg-trace",
        description="Run benchmarks under observation and export a "
                    "combined Chrome trace-event JSON (Perfetto).",
    )
    parser.add_argument(
        "benchmarks", nargs="+", metavar="BENCHMARK",
        type=benchmark_name,
        help="benchmark name(s); each becomes one process group in the "
             "combined trace",
    )
    parser.add_argument(
        "--mechanism", action="append", default=None,
        choices=list(MECHANISMS), dest="mechanisms",
        help="mechanism(s) to run each benchmark under (repeatable; "
             "default: inpg)",
    )
    parser.add_argument("--primitive", default="qsl", type=primitive_name,
                        help=f"one of {PRIMITIVES} (or paper alias TTL)")
    parser.add_argument("--scale", type=positive_scale, default=1.0,
                        help="workload scale factor")
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("-o", "--out", default="trace.json", metavar="PATH",
                        help="output trace file (default trace.json)")
    parser.add_argument("--capacity", type=int, default=DEFAULT_CAPACITY,
                        help="trace ring capacity in records "
                             f"(default {DEFAULT_CAPACITY:,}; the ring "
                             "keeps the newest records)")
    parser.add_argument("--counters", action="store_true",
                        help="also print the full counters report per run")
    parser.add_argument("--events", action="store_true",
                        help="also print an event-type histogram per run")
    parser.add_argument("--no-report", action="store_true",
                        help="skip the per-lock contention report")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    mechanisms = args.mechanisms or ["inpg"]

    runs = []
    for benchmark in args.benchmarks:
        for mechanism in mechanisms:
            spec = RunSpec(
                benchmark=benchmark, mechanism=mechanism,
                primitive=args.primitive, scale=args.scale, seed=args.seed,
            )
            observe = Observation(
                trace_capacity=args.capacity, label=spec.label()
            )
            result = execute_spec(spec, observe=observe)
            print(f"{spec.label()}: roi={result.roi_cycles:,} cycles, "
                  f"{len(observe.records()):,} trace records "
                  f"({observe.tracer.dropped:,} dropped)")
            if not args.no_report:
                print()
                print(observe.contention_report())
                print()
            if args.events:
                histogram = Counter(r[2] for r in observe.records())
                for event, count in sorted(histogram.items()):
                    print(f"  {event:<16} {count:>10,}")
                print()
            if args.counters:
                print(observe.counters_report())
                print()
            runs.append(observe.chrome_run())

    write_chrome_trace(args.out, runs)
    print(f"trace: {len(runs)} run(s) -> {args.out} "
          "(open in https://ui.perfetto.dev or chrome://tracing)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
