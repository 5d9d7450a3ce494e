"""Shared infrastructure for the per-figure experiment harnesses.

Every experiment module exposes ``run(...) -> <FigureResult>`` returning a
structured result whose ``render()`` prints the same rows/series the
paper's figure reports; ``inpg-experiments <name>`` (:mod:`.runner`) is
the command line for all of them.

Simulations are never run directly: each harness builds a plan of
:class:`~repro.exec.RunSpec` values and submits it through a shared
:class:`~repro.exec.Executor` (see :func:`execute`), which dedups
identical runs, caches results in memory and on disk (``.repro-cache/``
/ ``REPRO_CACHE_DIR``), and fans fresh work out over ``REPRO_JOBS``
worker processes.  Figures that share runs (11 and 12 use the same 24x4
matrix) therefore hit the cache instead of recomputing, within *and*
across invocations.

Scaling: the ``scale`` knob multiplies per-thread CS counts; ``quick``
restricts benchmark sweeps to a representative subset (two programs per
Figure 8 group), so checking every claim of the paper
(:mod:`repro.experiments.claims`) takes seconds, not hours.  Pass
``quick=False`` (``--full``, or ``REPRO_FULL=1`` for the EXPERIMENTS.md
report) to sweep all 24 programs as the paper does.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..config import AXES, MECHANISMS, SystemConfig
from ..exec import Executor, RunSpec
from ..stats.metrics import RunResult
from ..workloads.profiles import ALL_PROFILES, group_of, grouped_profiles

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.plan import FaultPlan

#: process-wide executor all harnesses share (lazily constructed so the
#: environment knobs are read at first use, not import)
_EXECUTOR: Optional[Executor] = None


def get_executor() -> Executor:
    """The shared executor (created on first use from the environment)."""
    global _EXECUTOR
    if _EXECUTOR is None:
        _EXECUTOR = Executor()
    return _EXECUTOR


def set_executor(executor: Executor) -> Executor:
    """Install a configured executor (CLI flags, tests)."""
    global _EXECUTOR
    _EXECUTOR = executor
    return executor


@dataclass(frozen=True)
class ExperimentOptions:
    """The knobs every figure harness shares, in one keyword-only value.

    Every harness's signature is ``run(options=None, *, ...)``, with
    per-figure extras keyword-only.

    The robustness knobs ride here too, so fault campaigns and resilient
    sweeps configure ``simulate()`` / ``run_plan()`` / every ``fig*``
    harness through one path: ``fault_plan`` and ``watchdog_cycles``
    overlay onto any spec that does not set its own, while ``timeout_s``
    / ``retries`` / ``on_error`` are pure execution policy (``None`` =
    the executor's configured default).
    """

    #: representative 6-benchmark subset (False sweeps all 24 programs)
    quick: bool = True
    #: per-thread CS count multiplier
    scale: float = 1.0
    #: workload generation seed (the paper runs pin 2018)
    seed: int = 2018
    #: deterministic NoC fault injection (:class:`repro.faults.FaultPlan`)
    fault_plan: Optional["FaultPlan"] = None
    #: liveness-watchdog no-progress window (cycles); None = disarmed
    watchdog_cycles: Optional[int] = None
    #: attach the online coherence protocol checker to every run
    check_protocol: bool = False
    #: one field per CLI axis of :data:`repro.config.AXES`, named like
    #: it; ``None`` keeps the config's value (see :meth:`apply_to_config`)
    protocol: Optional[str] = None
    topology: Optional[str] = None
    arbiter: Optional[str] = None
    #: per-run wall-clock budget (seconds); a timed-out run raises
    #: :class:`~repro.errors.RunTimeout` and is never cached
    timeout_s: Optional[float] = None
    #: bounded retry count for *transient* (infra) worker failures
    retries: Optional[int] = None
    #: ``"raise"`` propagates the first failure; ``"skip"`` returns
    #: partial results with failures recorded in the execution summary
    on_error: Optional[str] = None

    def benchmarks(self) -> List[str]:
        return benchmarks_for(self.quick)

    def apply_to_config(self, config: SystemConfig) -> SystemConfig:
        """``config`` with each axis these options set filled in wherever
        ``config`` keeps that axis's default.
        """
        overrides: Dict = {}
        for axis in AXES:
            # an axis without a CLI flag has no option either
            value = None if axis.help is None else getattr(self, axis.name)
            if value is not None and axis.of(config) == axis.default:
                holder = (overrides.setdefault(axis.section, {})
                          if axis.section else overrides)
                holder[axis.key] = value
        return config.with_overrides(**overrides)

    def apply_to_spec(self, spec: RunSpec) -> RunSpec:
        """Overlay the robustness knobs and the axes onto ``spec``.

        A spec's own ``fault_plan`` / ``watchdog_cycles`` /
        ``check_protocol`` and its config's non-default axis values
        always win — the overlay fills gaps only, so harness-built plans
        can pin per-run scenarios while the campaign sets the sweep-wide
        default.
        """
        return self.apply_to_plan([spec])[0]

    def apply_to_plan(self, specs: Iterable[RunSpec]) -> List[RunSpec]:
        """:meth:`apply_to_spec` over a plan, overlaying each distinct
        config object once: specs that share a config (or have none)
        share the overlaid one, so :mod:`repro.exec` encodes it once.
        Keyed by identity, not equality, as that encoding is: equal
        configs can encode differently (``2 == 2.0``)."""
        #: id(base config) -> (that config, its overlay or None if equal)
        overlaid: Dict[int, Tuple[Optional[SystemConfig],
                                  Optional[SystemConfig]]] = {}
        out = []
        for spec in specs:
            updates = {}
            if self.fault_plan is not None and spec.fault_plan is None:
                updates["fault_plan"] = self.fault_plan
            if (self.watchdog_cycles is not None
                    and spec.watchdog_cycles is None):
                updates["watchdog_cycles"] = self.watchdog_cycles
            if self.check_protocol and not spec.check_protocol:
                updates["check_protocol"] = True
            entry = overlaid.get(id(spec.config))
            if entry is None:
                base = spec.config or SystemConfig()
                config = self.apply_to_config(base)
                entry = overlaid[id(spec.config)] = (
                    spec.config, config if config != base else None)
            if entry[1] is not None:
                updates["config"] = entry[1]
            out.append(replace(spec, **updates) if updates else spec)
        return out

    def executor_policy(self) -> Dict[str, object]:
        """The per-call :meth:`repro.exec.Executor.run` policy kwargs."""
        return {
            "timeout_s": self.timeout_s,
            "retries": self.retries,
            "on_error": self.on_error,
        }


def execute(
    plan: Sequence[RunSpec],
    *,
    options: Optional[ExperimentOptions] = None,
) -> Dict[RunSpec, Optional[RunResult]]:
    """Run a plan through the shared executor.

    ``options`` is the harness's resolved :class:`ExperimentOptions`;
    its robustness knobs overlay onto each spec (spec wins) and its
    execution policy rides into the shared executor for this call.  The
    returned dict is keyed by the *caller's* spec objects, so harnesses
    index with the specs they built even when the overlay rewrote them.
    Under ``on_error="skip"`` failed specs map to ``None``.
    """
    opts = options if options is not None else ExperimentOptions()
    specs = list(plan)
    effective = opts.apply_to_plan(specs)
    results = get_executor().run(effective, **opts.executor_policy())
    return {orig: results[eff] for orig, eff in zip(specs, effective)}


def full_sweep_enabled() -> bool:
    return os.environ.get("REPRO_FULL", "") not in ("", "0")


def benchmarks_for(quick: bool) -> List[str]:
    """All 24 programs, or a representative 6 (two per group) when quick."""
    if not quick:
        return [p.name for p in ALL_PROFILES]
    groups = grouped_profiles()
    picks: List[str] = []
    for group in (1, 2, 3):
        members = groups[group]
        picks.append(members[0].name)
        picks.append(members[-1].name)
    return picks


def run_mechanism_matrix(
    benchmarks: Optional[Sequence[str]] = None,
    mechanisms: Sequence[str] = MECHANISMS,
    primitive: str = "qsl",
    scale: Optional[float] = None,
    config: Optional[SystemConfig] = None,
    *,
    options: Optional[ExperimentOptions] = None,
) -> Dict[Tuple[str, str], Optional[RunResult]]:
    """The paper's four-case comparison over a benchmark list.

    ``benchmarks``/``scale`` default from ``options`` when omitted.
    Under ``options.on_error == "skip"`` a failed run's cell is ``None``.
    """
    opts = options if options is not None else ExperimentOptions()
    if benchmarks is None:
        benchmarks = opts.benchmarks()
    if scale is None:
        scale = opts.scale
    specs = {
        (bench, mech): RunSpec(
            benchmark=bench,
            mechanism=mech,
            primitive=primitive,
            scale=scale,
            seed=opts.seed,
            config=config,
        )
        for bench in benchmarks
        for mech in mechanisms
    }
    results = execute(list(specs.values()), options=opts)
    return {key: results[spec] for key, spec in specs.items()}


# ----------------------------------------------------------------------
# Aggregation helpers
# ----------------------------------------------------------------------
def arithmetic_mean(values: Iterable[float]) -> float:
    vals = list(values)
    return sum(vals) / len(vals) if vals else 0.0


def by_group(benchmarks: Sequence[str]) -> Dict[int, List[str]]:
    """Partition a benchmark list by the Figure 8 groups."""
    out: Dict[int, List[str]] = {1: [], 2: [], 3: []}
    for bench in benchmarks:
        out[group_of(bench)].append(bench)
    return out


# ----------------------------------------------------------------------
# Plain-text table rendering
# ----------------------------------------------------------------------
def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned plain-text table."""
    cells = [[str(h) for h in headers]] + [
        [_fmt(c) for c in row] for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
