"""Figure 11: critical-section expedition by the four mechanisms.

For every program, the per-CS time (COH + CSE) of OCOR, iNPG and
iNPG+OCOR is compared against Original (normalized to 1x), aggregated by
the Figure 8 groups.  Paper: group averages rise from ~1.2-1.4x (Group 1)
to 1.6-4.0x (Group 3); across all 24 programs OCOR averages 1.45x (max
1.90x, dedup), iNPG 1.98x (max 3.48x, nab), iNPG+OCOR 2.71x (max 5.45x).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..config import MECHANISMS
from .common import (
    ExperimentOptions,
    arithmetic_mean,
    by_group,
    format_table,
    run_mechanism_matrix,
)

PAPER_AVERAGES = {"ocor": 1.45, "inpg": 1.98, "inpg+ocor": 2.71}


@dataclass
class Fig11Result:
    #: expedition factor per (benchmark, mechanism), Original == 1.0
    expedition: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def group_averages(self) -> Dict[int, Dict[str, float]]:
        groups = by_group(list(self.expedition))
        out: Dict[int, Dict[str, float]] = {}
        for group, benches in groups.items():
            if not benches:
                continue
            out[group] = {
                mech: arithmetic_mean(
                    self.expedition[b][mech] for b in benches
                )
                for mech in MECHANISMS
            }
        return out

    def overall_average(self, mechanism: str) -> float:
        return arithmetic_mean(
            per_mech[mechanism] for per_mech in self.expedition.values()
        )

    def best(self, mechanism: str):
        bench = max(
            self.expedition, key=lambda b: self.expedition[b][mechanism]
        )
        return bench, self.expedition[bench][mechanism]

    def render(self) -> str:
        rows = []
        for bench, per_mech in sorted(self.expedition.items()):
            rows.append(
                [bench] + [per_mech[m] for m in MECHANISMS]
            )
        summary = [
            ["== average =="] + [
                self.overall_average(m) for m in MECHANISMS
            ],
        ]
        table = format_table(
            ["benchmark"] + [m for m in MECHANISMS],
            rows + summary,
            title="Figure 11: relative CS improvement (Original = 1x)",
        )
        lines = [table, ""]
        for mech, paper in PAPER_AVERAGES.items():
            mine = self.overall_average(mech)
            best_bench, best_val = self.best(mech)
            lines.append(
                f"{mech}: measured avg {mine:.2f}x (paper {paper:.2f}x), "
                f"max {best_val:.2f}x on {best_bench}"
            )
        return "\n".join(lines)


def run(options: "ExperimentOptions" = None) -> Fig11Result:
    opts = options or ExperimentOptions()
    result = Fig11Result()
    benches = opts.benchmarks()
    matrix = run_mechanism_matrix(benches, primitive="qsl", options=opts)
    for bench in benches:
        baseline = matrix[(bench, "original")]
        if baseline is None or any(
            matrix[(bench, mech)] is None for mech in MECHANISMS
        ):
            continue  # on_error="skip": drop the partial benchmark row
        result.expedition[bench] = {
            mech: matrix[(bench, mech)].cs_expedition_vs(baseline)
            for mech in MECHANISMS
        }
    return result
