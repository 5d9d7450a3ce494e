"""``inpg-faults``: fault-injection campaigns with detected-vs-silent report.

A campaign takes one baseline scenario (the Figure 10 microbench by
default, or any benchmark), a list of fault plans, and runs every
``(scenario, plan)`` pair through the resilient executor with the
liveness watchdog armed and ``on_error="skip"``.  Each faulted run is
classified against the fault-free baseline:

* **detected** — the run failed with a structured error; the error class
  names the detector (``LivelockDetected`` = watchdog,
  ``DeadlockError`` = cycle-budget/queue-drain detection,
  ``ProtocolViolation`` = coherence checker, ``RunTimeout`` =
  wall-clock budget).
* **silent-divergence** — the run *completed* but its results differ
  from the baseline (wrong cycles / packet counts): the fault corrupted
  the execution and nothing noticed.  These are the interesting ones.
* **benign** — the run completed bit-identical to the baseline even
  though faults fired (e.g. a delayed packet that was off the critical
  path).
* **no-faults-fired** — the plan never matched a packet (wrong window,
  wrong message type); the campaign flags it so a typo'd plan does not
  masquerade as benign.
* **refused** — the plan names a router or link the network does not
  have (``UnsupportedFaultSite`` at install): it never ran, so no
  detector is credited with it.

Examples::

    inpg-faults                                   # default campaign, microbench
    inpg-faults --faults 'drop:1/Inv#2000..' --watchdog 20000
    inpg-faults kdtree --scale 0.25 --faults 'delay:0.3+32' 'drop:0.02'
    inpg-faults --json campaign.json              # machine-readable artifact
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from typing import Dict, List, Optional

from ..cli import (
    WorkloadParser,
    add_workload_flags,
    benchmark_name,
    execution_parent,
    footer_cache_dir,
    primitive_name,
)
from ..config import MECHANISMS, PRIMITIVES, LockSpinConfig, SystemConfig
from ..exec import Executor, RunSpec
from .plan import FaultPlan

#: campaign swept when ``--faults`` is not given: one plan per fault
#: kind, including the drop-every-Inv scenario the watchdog must catch.
DEFAULT_CAMPAIGN = (
    "drop:1/Inv#2000..",
    "drop:0.05",
    "delay:0.25+32",
    "duplicate:0.1",
    "corrupt:0.02",
    "drop:0.5@inject",
)

#: error class -> which detection layer caught the fault
DETECTORS = {
    "LivelockDetected": "liveness watchdog",
    "DeadlockError": "deadlock detection",
    "ProtocolViolation": "protocol checker",
    "RunTimeout": "wall-clock budget",
}


def classify(
    plan: FaultPlan,
    result,
    baseline,
    failure=None,
) -> Dict[str, object]:
    """One campaign row: outcome + the evidence behind it."""
    row: Dict[str, object] = {
        "plan": plan.describe(),
        "plan_fingerprint": plan.fingerprint,
    }
    if failure is not None:
        refused = failure.error_type == "UnsupportedFaultSite"
        row["outcome"] = "refused" if refused else "detected"
        row["error"] = failure.error_type
        if not refused:
            row["detector"] = DETECTORS.get(failure.error_type,
                                            "run failure")
        row["message"] = failure.message.splitlines()[0]
        return row
    fired = sum(
        int(result.extra.get(f"faults/{name}", 0))
        for name in ("dropped", "duplicated", "corrupted", "delayed")
    )
    row["faults_fired"] = fired
    row["roi_cycles"] = result.roi_cycles
    same = (result.roi_cycles == baseline.roi_cycles
            and result.network_packets == baseline.network_packets)
    if fired == 0:
        row["outcome"] = "no-faults-fired"
    elif same:
        row["outcome"] = "benign"
    else:
        row["outcome"] = "silent-divergence"
        row["baseline_roi_cycles"] = baseline.roi_cycles
        row["delta_roi_cycles"] = result.roi_cycles - baseline.roi_cycles
    return row


def run_campaign(
    benchmark: str = "microbench",
    plans: Optional[List[FaultPlan]] = None,
    *,
    primitive: str = "qsl",
    mechanism: str = "original",
    scale: float = 1.0,
    seed: int = 2018,
    fault_seed: int = 0,
    watchdog_cycles: int = 50_000,
    timeout_s: Optional[float] = None,
    max_cycles: int = 5_000_000,
    raw_spin: bool = False,
    threads: int = 64,
    home: int = 53,
    jobs: Optional[int] = None,
    use_cache: bool = True,
    cache_dir=None,
    remote: Optional[str] = None,
) -> Dict[str, object]:
    """Run one campaign; returns the JSON-safe report payload.

    The baseline runs *without* faults or watchdog (so it stays
    bit-exact with the repository goldens); each plan then runs the same
    spec with the plan installed and the watchdog armed.
    """
    if plans is None:
        plans = [FaultPlan.parse(text, seed=fault_seed)
                 for text in DEFAULT_CAMPAIGN]
    config = SystemConfig(spin=LockSpinConfig(raw_spin=raw_spin))
    if benchmark == "microbench":
        config = replace(config.with_mechanism(mechanism),
                         num_threads=threads)
        base_spec = RunSpec.microbench(
            home_node=home, mechanism=None, config=config,
            primitive=primitive, seed=seed, max_cycles=max_cycles,
        )
    else:
        base_spec = RunSpec(
            benchmark=benchmark, mechanism=None,
            config=config.with_mechanism(mechanism),
            primitive=primitive, scale=scale, seed=seed,
            max_cycles=max_cycles,
        )
    faulted = [
        replace(base_spec, fault_plan=plan, watchdog_cycles=watchdog_cycles)
        for plan in plans
    ]

    if remote:
        from ..serve.client import RemoteExecutor

        executor = RemoteExecutor(remote, timeout_s=timeout_s,
                                  on_error="skip")
    else:
        executor = Executor(jobs=jobs, use_cache=use_cache,
                            cache_dir=cache_dir, timeout_s=timeout_s,
                            on_error="skip")
    baseline = executor.run_one(base_spec)
    if baseline is None:
        # even the fault-free baseline failed: report and bail
        failure = executor.stats.failures[-1]
        raise SystemExit(
            f"baseline run failed ({failure.error_type}): "
            f"{failure.message.splitlines()[0]}"
        )
    results = executor.run(faulted)
    failures = {rec.fingerprint: rec for rec in executor.stats.failures}

    rows = [
        classify(plan, results[spec], baseline,
                 failure=failures.get(spec.fingerprint))
        for plan, spec in zip(plans, faulted)
    ]
    outcomes: Dict[str, int] = {}
    for row in rows:
        outcomes[row["outcome"]] = outcomes.get(row["outcome"], 0) + 1
    return {
        "benchmark": benchmark,
        "primitive": primitive,
        "mechanism": mechanism,
        "baseline": {
            "roi_cycles": baseline.roi_cycles,
            "network_packets": baseline.network_packets,
            "fingerprint": base_spec.fingerprint,
        },
        "watchdog_cycles": watchdog_cycles,
        "rows": rows,
        "outcomes": outcomes,
        "footer": executor.stats.render_footer(
            jobs=executor.jobs,
            cache_dir=footer_cache_dir(executor),
        ),
    }


def render_report(report: Dict[str, object]) -> str:
    lines = [
        f"fault campaign: {report['benchmark']} "
        f"[{report['mechanism']}/{report['primitive']}] | "
        f"baseline roi={report['baseline']['roi_cycles']:,} cycles, "
        f"{report['baseline']['network_packets']:,} packets | "
        f"watchdog={report['watchdog_cycles']:,} cycles",
        "",
    ]
    width = max((len(r["plan"]) for r in report["rows"]), default=4)
    for row in report["rows"]:
        outcome = row["outcome"]
        detail = ""
        if outcome == "detected":
            detail = f"{row['error']} via {row['detector']}"
        elif outcome == "refused":
            detail = row["message"]
        elif outcome == "silent-divergence":
            detail = (f"{row['faults_fired']:,} faults fired, "
                      f"roi {row['delta_roi_cycles']:+,} cycles")
        elif outcome == "benign":
            detail = f"{row['faults_fired']:,} faults fired, bit-identical"
        lines.append(
            f"  {row['plan']:<{width}}  {outcome:<18} {detail}"
        )
    lines.append("")
    summary = ", ".join(
        f"{count} {name}" for name, count in sorted(report["outcomes"].items())
    )
    lines.append(f"outcomes: {summary}")
    return "\n".join(lines)


def build_parser() -> WorkloadParser:
    parser = WorkloadParser(
        prog="inpg-faults",
        description="Sweep deterministic NoC fault plans against a "
                    "baseline run and report detected vs silent outcomes.",
        parents=[execution_parent()],
    )
    parser.add_argument("benchmark", nargs="?", default="microbench",
                        type=benchmark_name,
                        help="benchmark name or 'microbench' (default)")
    parser.add_argument("--faults", nargs="+", default=None, metavar="PLAN",
                        help="fault plan strings (each is one campaign "
                             "row), e.g. 'drop:1/Inv#2000..'; default: a "
                             "representative plan per fault kind")
    parser.add_argument("--fault-seed", type=int, default=0)
    parser.add_argument("--primitive", default="qsl", type=primitive_name,
                        help=f"one of {PRIMITIVES} (or paper alias TTL)")
    parser.add_argument("--mechanism", default="original",
                        choices=list(MECHANISMS))
    add_workload_flags(parser)
    parser.add_argument("--watchdog", type=int, default=50_000,
                        metavar="CYCLES",
                        help="liveness-watchdog no-progress window "
                             "(default 50000)")
    parser.add_argument("--max-cycles", type=int, default=5_000_000,
                        help="per-run cycle budget (default 5M; smaller "
                             "than simulate()'s so stuck runs fail fast)")
    parser.add_argument("--spin", choices=("ttas", "raw"), default="ttas",
                        help="lock spin mode; 'ttas' (default) polls the "
                             "local copy, which turns lost invalidations "
                             "into watchdog-detectable livelock")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the full report as JSON")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    plans = None
    if args.faults:
        try:
            plans = [FaultPlan.parse(text, seed=args.fault_seed)
                     for text in args.faults]
        except ValueError as err:
            parser.error(f"argument --faults: {err}")
    report = run_campaign(
        args.benchmark,
        plans,
        primitive=args.primitive,
        mechanism=args.mechanism,
        scale=args.scale,
        seed=args.seed,
        fault_seed=args.fault_seed,
        watchdog_cycles=args.watchdog,
        timeout_s=args.timeout,
        max_cycles=args.max_cycles,
        raw_spin=args.spin == "raw",
        threads=args.threads,
        home=args.home,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        remote=args.remote,
    )
    print(render_report(report))
    print()
    print(report["footer"])
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"\nreport -> {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
