"""Figure 9: execution timing profile of freqmine under the four cases.

The paper shows, for a 30,000-cycle window of the first 8 threads, the
split of CPU cycles into parallel / COH / CSE phases and the number of
critical sections completed, for Original, OCOR, iNPG and iNPG+OCOR
(paper: parallel share rises 62.1% -> 69.8% -> 73.0% -> 80.1%, CS
completed 78 -> 92 -> 96 -> 104).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..config import MECHANISMS
from ..exec import RunSpec
from .common import (
    ExperimentOptions,
    execute,
    format_table,
)

BENCHMARK = "freqmine"
WINDOW_CYCLES = 30_000
THREADS_SHOWN = tuple(range(8))

#: paper-reported values for the same figure
PAPER = {
    "original": {"parallel": 0.621, "coh": 0.283, "cse": 0.096, "cs": 78},
    "ocor": {"parallel": 0.698, "coh": 0.198, "cse": 0.104, "cs": 92},
    "inpg": {"parallel": 0.730, "coh": 0.170, "cse": 0.100, "cs": 96},
    "inpg+ocor": {"parallel": 0.801, "coh": 0.090, "cse": 0.109, "cs": 104},
}


@dataclass
class ProfileRow:
    mechanism: str
    parallel_share: float
    coh_share: float
    cse_share: float
    cs_completed: int


@dataclass
class Fig9Result:
    rows: List[ProfileRow] = field(default_factory=list)
    window: Tuple[int, int] = (0, WINDOW_CYCLES)
    #: per-mechanism ASCII Gantt of the shown threads' phases
    gantts: Dict[str, str] = field(default_factory=dict)

    def by_mechanism(self) -> Dict[str, ProfileRow]:
        return {r.mechanism: r for r in self.rows}

    def render(self) -> str:
        table_rows = []
        for r in self.rows:
            paper = PAPER[r.mechanism]
            table_rows.append([
                r.mechanism,
                100 * r.parallel_share, 100 * r.coh_share, 100 * r.cse_share,
                r.cs_completed,
                f"{100 * paper['parallel']:.1f}/{100 * paper['coh']:.1f}/"
                f"{100 * paper['cse']:.1f}",
                paper["cs"],
            ])
        table = format_table(
            ["mechanism", "parallel %", "COH %", "CSE %", "CS done",
             "paper par/coh/cse %", "paper CS"],
            table_rows,
            title=(
                f"Figure 9: freqmine timing profile, threads 0-7, first "
                f"{self.window[1]:,} cycles"
            ),
        )
        parts = [table]
        for mech, gantt in self.gantts.items():
            parts.append(f"\n{mech}:")
            parts.append(gantt)
        return "\n".join(parts)


def run(
    options: "ExperimentOptions" = None,
    *,
    window_cycles: int = WINDOW_CYCLES,
    threads=THREADS_SHOWN,
) -> Fig9Result:
    opts = options or ExperimentOptions()
    result = Fig9Result(window=(0, window_cycles))
    specs = {
        mech: RunSpec(
            benchmark=BENCHMARK, mechanism=mech, primitive="qsl",
            scale=opts.scale, seed=opts.seed,
        )
        for mech in MECHANISMS
    }
    results = execute(list(specs.values()), options=opts)
    for mech in MECHANISMS:
        r = results[specs[mech]]
        if r is None:
            continue  # on_error="skip": drop the partial row
        window = (0, min(window_cycles, r.roi_cycles))
        breakdown = r.timeline.phase_breakdown(window=window, threads=threads)
        cs_done = r.timeline.cs_completed(window=window, threads=threads)
        result.rows.append(
            ProfileRow(
                mechanism=mech,
                parallel_share=breakdown["parallel"],
                coh_share=breakdown["coh"],
                cse_share=breakdown["cse"],
                cs_completed=cs_done,
            )
        )
        from ..stats.export import render_gantt

        result.gantts[mech] = render_gantt(
            r.timeline, threads=list(threads), window=window, width=72
        )
    return result


def main() -> None:  # pragma: no cover - CLI entry
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
