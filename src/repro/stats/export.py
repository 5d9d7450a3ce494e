"""Result exporters and ASCII renderers.

Turns a :class:`~repro.stats.metrics.RunResult` into a JSON-ready summary
(``inpg-sim --json``), and renders Figure 9-style per-thread phase
timelines (Gantt charts) and Figure 10a-style mesh heat maps as ASCII —
useful in terminals and in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from .metrics import RunResult
from .timeline import PHASES, Timeline

#: glyphs for the Gantt renderer, one per phase
_PHASE_GLYPHS = {"parallel": ".", "coh": "#", "cse": "C"}


def run_result_to_dict(result: RunResult) -> Dict:
    """A JSON-serializable summary of one run."""
    return {
        "mechanism": result.mechanism,
        "primitive": result.primitive,
        "benchmark": result.benchmark,
        "roi_cycles": result.roi_cycles,
        "cs_completed": result.cs_completed,
        "total_coh": result.total_coh,
        "total_cse": result.total_cse,
        "lco_fraction": result.lco_fraction,
        "mean_inv_rtt": result.coherence.mean_inv_rtt,
        "max_inv_rtt": result.coherence.max_inv_rtt,
        "inv_rtt_by_kind": result.coherence.mean_inv_rtt_by_kind(),
        "os_sleeps": result.os_sleeps,
        "os_wakeups": result.os_wakeups,
        "network_mean_latency": result.network_mean_latency,
        "network_packets": result.network_packets,
        "threads": [
            {
                "thread": t.thread,
                "parallel": t.parallel_cycles,
                "coh": t.coh_cycles,
                "cse": t.cse_cycles,
                "cs_completed": t.cs_completed,
            }
            for t in result.threads
        ],
    }


def render_gantt(
    timeline: Timeline,
    threads: Sequence[int],
    window: Optional[Sequence[int]] = None,
    width: int = 80,
) -> str:
    """Figure 9-style ASCII timing diagram.

    One row per thread; each column is a bucket of cycles coloured by the
    phase that dominates it: ``.`` parallel, ``#`` COH, ``C`` CSE.
    """
    if window is None:
        end = max((iv.end for iv in timeline.intervals), default=0)
        window = (0, max(1, end))
    lo, hi = window
    span = max(1, hi - lo)
    bucket = max(1, span // width)
    lines = [
        f"cycles {lo:,} .. {hi:,}  ({bucket} cycles/column; "
        f"'.'=parallel '#'=COH 'C'=CSE)"
    ]
    for thread in threads:
        row = []
        for col in range(min(width, (span + bucket - 1) // bucket)):
            b_lo = lo + col * bucket
            b_hi = min(hi, b_lo + bucket)
            best_phase, best = " ", 0
            for phase in PHASES:
                cycles = timeline.phase_cycles(
                    phase, window=(b_lo, b_hi), threads=[thread]
                )
                if cycles > best:
                    best, best_phase = cycles, _PHASE_GLYPHS[phase]
            row.append(best_phase)
        lines.append(f"t{thread:<3}|{''.join(row)}|")
    return "\n".join(lines)


def render_mesh_heat_map(
    per_node: Dict[int, float], width: int, height: int,
    title: str = "", fmt: str = "{:6.1f}",
) -> str:
    """Figure 10a-style per-node value map for a width x height mesh."""
    lines = [title] if title else []
    for y in range(height):
        row = [
            fmt.format(per_node.get(y * width + x, 0.0))
            for x in range(width)
        ]
        lines.append(" ".join(row))
    return "\n".join(lines)
