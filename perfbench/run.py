"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload fig12_cold [--seed N]
                             [--seconds S] [--trace 0|1]

Every plan or drive runs in a fresh process (``child.py``), one at a
time: one client in a closed loop.  With
``--trace 0`` the run first launches set-up probes, then repeats the
workload until ``--seconds`` (default: ``run_seconds`` of
BENCHMARK.json) are used, at least three times, and reports the median
of each end-to-end metric.  Times are in reference seconds: each child
times a fixed reference loop between the pieces of its work, and a time
is scaled by ``REFERENCE_S`` over that loop's mean time in the same
process (see README.md).  With ``--trace 1`` it runs the workload
untraced, then once more with spans recorded, and reports the per-layer
metrics.  Workloads and metrics are the ones BENCHMARK.json names.  See
README.md.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate  # noqa: E402
import spans  # noqa: E402

BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
#: the workload seed when --seed is not given: the paper's pin for the
#: Figure 12 plan, the repo's pinned flit drive for flit_mesh32
DEFAULT_SEEDS = {"fig12_cold": 2018, "fig12_fanout": 2018,
                 "fig12_replay": 2018, "flit_mesh32": 11}
FIG12 = ("fig12_cold", "fig12_fanout", "fig12_replay")
#: pool workers of a workload's plan (the others run inline)
JOBS = {"fig12_fanout": 2}
#: set-up-only launches per run, besides the set-up of every iteration
SETUP_PROBES = 5
#: ``child.reference_loop``'s median time, run back to back, on the host
#: the benchmark was sized on (2 vCPUs, Python 3.11) in a quiet hour: a
#: time measured while the loop ran in ``t`` seconds counts as
#: ``REFERENCE_S / t`` times its length
REFERENCE_S = 0.0043
MIN_ITERATIONS = 3
#: the traced run's untraced baseline repeats for at least this long
BASELINE_S = 3.0
CHILD_TIMEOUT_S = 150.0
#: where runs keep their temporary caches and the last trace of a workload
WORK_DIR = os.path.join(ROOT, ".perfbench-work")


def load_benchmark() -> Dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


class ChildError(RuntimeError):
    """A child process failed or timed out."""


def launch(workload: str, seed: int, *, cache: Optional[str] = None,
           jobs: int = 1, setup_only: bool = False, digests: bool = False,
           reference: bool = False, trace: Optional[str] = None,
           cwd: str = WORK_DIR) -> Dict:
    """Run ``child.py`` once; returns its report plus the parent's launch
    and exit stamps (``time.monotonic()``)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload,
           "--seed", str(seed), "--jobs", str(jobs)]
    if cache:
        cmd += ["--cache", cache]
    if setup_only:
        cmd.append("--setup-only")
    if digests:
        cmd.append("--digests")
    if reference:
        cmd.append("--reference")
    if trace:
        cmd += ["--trace", trace]
    # the user's cache and worker settings must not leak into the run
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    t_launch = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=cwd, env=env,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its workers
        proc.communicate()
        raise ChildError(f"{workload} timed out after {CHILD_TIMEOUT_S} s")
    t_exit = time.monotonic()
    if proc.returncode != 0:
        raise ChildError(f"{workload} exited {proc.returncode}: "
                         f"{err.decode(errors='replace')[-2000:]}")
    report = json.loads(out.decode().strip().splitlines()[-1])
    report["t_launch"] = t_launch
    report["t_exit"] = t_exit
    return report


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def pinned(workload: str) -> Dict[str, Dict]:
    """Pinned seed -> pinned outputs, for ``workload``'s plan or drive."""
    return gate.load_pins()["fig12" if workload in FIG12 else workload]


def pins_for(workload: str, seed: int) -> Optional[Dict]:
    """The pinned outputs, when ``seed`` is a pinned seed."""
    return pinned(workload).get(str(seed))


def operations(workload: str, outputs: Dict) -> int:
    if workload in FIG12:
        return len(outputs["runs"])
    return outputs["injected"]


def failures(workload: str, outputs: Dict, pins: Optional[Dict],
             reference: Optional[Dict]) -> int:
    if workload in FIG12:
        return gate.fig12_failures(outputs, pins, reference)
    return gate.flit_failures(outputs, pins, reference)


def plan_size(workload: str) -> int:
    """Operations a crashed child took down with it (a plan has the same
    shape at every seed)."""
    return operations(workload, next(iter(pinned(workload).values())))


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def add(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{what}: {failed} of {attempted} failed")


# ----------------------------------------------------------------------
# Measurements
# ----------------------------------------------------------------------
def work_done(workload: str, outputs: Dict) -> Tuple[int, int, int]:
    """(simulated events, results, simulated cycles) behind the outputs
    of one plan or drive."""
    if workload in FIG12:
        done = [r for r in outputs["runs"].values() if r is not None]
        return (sum(r[1] for r in done), len(done),
                sum(r[0] for r in done))
    return outputs["events"], outputs["delivered"], outputs["last_cycle"]


def speed(report: Dict) -> float:
    """Reference seconds per measured second in one child: how much
    faster the host ran than at rest (below 1: slower)."""
    return REFERENCE_S / statistics.mean(report["refs"])


def setup_time(report: Dict) -> float:
    """Set-up in reference seconds, scaled by the reference loop timed
    right after it."""
    return (report["t_ready"] - report["t_launch"]) * (
        REFERENCE_S / report["refs"][0])


def wall_time(report: Dict) -> float:
    """Launch to exit, in measured seconds, less the reference loops."""
    return report["t_exit"] - report["t_launch"] - sum(report["refs"])


def run_metrics(workload: str, reports: List[Dict],
                setups: List[float]) -> Dict[str, float]:
    """End-to-end metrics of a run: the median over its iterations, each
    time in reference seconds; ``setups`` are set-up times already in
    reference seconds."""
    events, results, cycles = work_done(workload, reports[0]["outputs"])
    run_s = [sum(r["pieces"]) * speed(r) for r in reports]
    return {
        "wall_s": statistics.median(wall_time(r) * speed(r)
                                    for r in reports),
        "setup_s": statistics.median(setups),
        "events_per_s": statistics.median(events / s for s in run_s),
        "results_per_s": statistics.median(results / s for s in run_s),
        "peak_rss_mb": statistics.median(r["rss_kb"]
                                         for r in reports) / 1024.0,
        "sim_cycles": cycles,
    }


def fresh_cache(work: str) -> str:
    return tempfile.mkdtemp(prefix="cache-", dir=work)


def fill_cache(seed: int, work: str, tally: Tally) -> Tuple[str, Dict]:
    """A cache the cold plan filled, and the cold plan's outputs (two
    pool workers fill it faster; the results are the same)."""
    cache = fresh_cache(work)
    report = launch("fig12_cold", seed, cache=cache, jobs=2, cwd=work)
    outputs = report["outputs"]
    tally.add(operations("fig12_cold", outputs),
              failures("fig12_cold", outputs,
                       pins_for("fig12_cold", seed), None),
              "cold plan filling the replay cache")
    return cache, outputs


def digest_failures(digests: Dict[str, str], cache: str) -> int:
    """Results whose serialized form differs from the cold plan's."""
    stored = gate.cache_digests(cache)
    return sum(stored.get(fp) != d for fp, d in digests.items()) + len(
        set(stored) - set(digests))


def timed_run(workload: str, seed: int, seconds: float, work: str,
              tally: Tally) -> Tuple[List[Dict], List[float]]:
    """The iterations of a ``--trace 0`` run, and every set-up time."""
    pins = pins_for(workload, seed)
    reference = replay_cache = None
    if workload == "fig12_replay":
        replay_cache, reference = fill_cache(seed, work, tally)
    deadline = time.monotonic() + seconds
    setups = [setup_time(launch(workload, seed, cache=replay_cache,
                                setup_only=True, reference=True, cwd=work))
              for _ in range(SETUP_PROBES)]
    reports: List[Dict] = []
    while (len(reports) < MIN_ITERATIONS
           or time.monotonic() + statistics.median(
               r["t_exit"] - r["t_launch"] for r in reports) <= deadline):
        cache = replay_cache or (fresh_cache(work) if workload in FIG12
                                 else None)
        try:
            report = launch(workload, seed, cache=cache,
                            jobs=JOBS.get(workload, 1), reference=True,
                            cwd=work)
        except ChildError as err:
            tally.add(plan_size(workload), plan_size(workload), str(err))
            break
        finally:
            if cache and cache != replay_cache:
                shutil.rmtree(cache, ignore_errors=True)
        outputs = report["outputs"]
        tally.add(operations(workload, outputs),
                  failures(workload, outputs, pins, reference),
                  f"iteration {len(reports) + 1}")
        if reference is None:
            reference = outputs
        reports.append(report)
        setups.append(setup_time(report))
    if workload == "fig12_replay":
        report = launch(workload, seed, cache=replay_cache, digests=True,
                        cwd=work)
        tally.add(len(report["digests"]),
                  digest_failures(report["digests"], replay_cache),
                  "replayed results against the cold plan's")
    return reports, setups


def traced_run(workload: str, seed: int, work: str,
               tally: Tally) -> Dict[str, float]:
    pins = pins_for(workload, seed)
    replay_cache = reference = None
    if workload == "fig12_replay":
        replay_cache, reference = fill_cache(seed, work, tally)
    baseline: List[Dict] = []
    baseline_cache = replay_cache
    started = time.monotonic()
    while not baseline or time.monotonic() - started < BASELINE_S:
        cache = replay_cache or (fresh_cache(work) if workload in FIG12
                                 else None)
        report = launch(workload, seed, cache=cache,
                        jobs=JOBS.get(workload, 1), cwd=work)
        if baseline_cache is None:
            baseline_cache = cache  # kept: the traced results must match
        elif cache and cache != baseline_cache:
            shutil.rmtree(cache, ignore_errors=True)
        tally.add(operations(workload, report["outputs"]),
                  failures(workload, report["outputs"], pins, reference),
                  "untraced baseline")
        reference = reference or report["outputs"]
        baseline.append(report)

    trace_file = os.path.join(work, "trace.json")
    cache = replay_cache or (fresh_cache(work) if workload in FIG12 else None)
    traced = launch(workload, seed, cache=cache, jobs=JOBS.get(workload, 1),
                    trace=trace_file, cwd=work)
    # observing a run must not change it
    outputs = traced["outputs"]
    failed = failures(workload, outputs, pins, reference)
    if workload in FIG12:
        failed = max(failed, digest_failures(traced["digests"],
                                             baseline_cache))
    tally.add(operations(workload, outputs), failed,
              "traced run against the untraced run")

    with open(trace_file, encoding="utf-8") as fh:
        data = json.load(fh)
    # the root span runs from the end of imports to the last result, as
    # the untraced run phase does
    metrics = spans.summarize(
        data["payload"], spans.Calibration(**data["calibration"]),
        data["root_s"],
        statistics.median(b["t_done"] - b["t_imported"] for b in baseline))
    untraced_s = statistics.median(b["t_done"] - b["t_launch"]
                                   for b in baseline)
    traced_s = (traced["t_root_end"] - traced["t_launch"]
                - (traced["t_traced"] - traced["t_imported"]))
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    metrics["import_s"] = statistics.median(
        b["t_imported"] - b["t_start"] for b in baseline)
    metrics["experiments.paper_gap_pp"] = (
        baseline[0]["outputs"]["paper_gap_pp"] or 0.0
        if workload in FIG12 else 0.0)
    shutil.copyfile(trace_file,
                    os.path.join(WORK_DIR, f"trace-{workload}.json"))
    return metrics


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def render_run(workload: str, seed: int, units: Dict[str, str],
               values: Dict[str, float], reports: List[Dict],
               setups: List[float], tally: Tally) -> str:
    lines = [f"{workload} (seed {seed}): median of {len(reports)} "
             f"iterations ({len(setups)} set-ups), in reference seconds"]
    for name, unit in units.items():
        lines.append(f"{name:15s} {unit:7s} {values[name]:13.6g}")
    for what, series in (("measured wall_s", map(wall_time, reports)),
                         ("host speed", map(speed, reports))):
        q1, med, q3 = quartiles(sorted(series))
        lines.append(f"{what:23s} {med:13.6g}  quartiles {q1:.6g} "
                     f"{q3:.6g}")
    lines.append(f"failed_frac     ratio   "
                 f"{tally.failed / max(1, tally.attempted):13.6g}"
                 f"   ({tally.failed} of {tally.attempted} operations)")
    return "\n".join(lines + tally.notes)


def render_layers(workload: str, units: Dict[str, str],
                  metrics: Dict[str, float], tally: Tally) -> str:
    lines = [f"{workload}: per-layer metrics of one traced run"]
    for name, unit in units.items():
        lines.append(f"{name:28s} {unit:7s} {metrics[name]:14.6g}")
    lines.append(f"failed_frac {tally.failed / max(1, tally.attempted):.6g}"
                 f" ({tally.failed} of {tally.attempted} operations)")
    return "\n".join(lines + tally.notes)


def result_line(values: Dict[str, float], units: Dict[str, str],
                tally: Tally) -> str:
    if set(values) != set(units):
        raise RuntimeError(f"metric set mismatch: "
                           f"{sorted(set(values) ^ set(units))}")
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    })


def parse_args(argv, benchmark: Dict):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in benchmark["workloads"]])
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: 2018 for fig12_*, "
                        "11 for flit_mesh32)")
    p.add_argument("--seconds", type=float,
                   default=benchmark["run_seconds"],
                   help="measurement window of a --trace 0 run "
                        "(default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    benchmark = load_benchmark()
    args = parse_args(argv, benchmark)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program to measure: {ROOT}/src/repro is "
              f"missing", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"]
             for m in benchmark["per_layer" if args.trace else "end_to_end"]}
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    tally = Tally()
    try:
        if args.trace:
            values = traced_run(args.workload, seed, work, tally)
            print(render_layers(args.workload, units, values, tally))
        else:
            reports, setups = timed_run(args.workload, seed, args.seconds,
                                        work, tally)
            if not reports:
                print("perfbench: no run completed: " + "; ".join(
                    tally.notes), file=sys.stderr)
                return 1
            values = run_metrics(args.workload, reports, setups)
            print(render_run(args.workload, seed, units, values, reports,
                             setups, tally))
    except ChildError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(result_line(values, units, tally))
    return 0


if __name__ == "__main__":
    sys.exit(main())
