"""Figure 12: application ROI finish time for the four mechanisms.

ROI finish time of OCOR / iNPG / iNPG+OCOR normalized to Original (100%),
aggregated by group.  Paper: across all 24 programs OCOR reduces average
ROI time by 12.3%, iNPG by 19.9%, iNPG+OCOR by 24.7%; iNPG beats OCOR by
7.8% on average and 14.7% at maximum (bt331).
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

PAPER_REDUCTION = {"ocor": 0.123, "inpg": 0.199, "inpg+ocor": 0.247}


@dataclass
class Fig12Result:
    #: relative ROI time per (benchmark, mechanism), Original == 1.0
    relative_roi: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def group_averages(self) -> Dict[int, Dict[str, float]]:
        groups = by_group(list(self.relative_roi))
        return {
            group: {
                mech: arithmetic_mean(
                    self.relative_roi[b][mech] for b in benches
                )
                for mech in MECHANISMS
            }
            for group, benches in groups.items()
            if benches
        }

    def average_reduction(self, mechanism: str) -> float:
        return 1.0 - arithmetic_mean(
            per[mechanism] for per in self.relative_roi.values()
        )

    def inpg_vs_ocor(self) -> float:
        """Average ROI improvement of iNPG over OCOR (paper: 7.8%)."""
        ratios = [
            1.0 - per["inpg"] / per["ocor"]
            for per in self.relative_roi.values()
            if per["ocor"] > 0
        ]
        return arithmetic_mean(ratios)

    def render(self) -> str:
        rows = [
            [bench] + [100.0 * per[m] for m in MECHANISMS]
            for bench, per in sorted(self.relative_roi.items())
        ]
        rows.append(
            ["== average =="]
            + [
                100.0 * arithmetic_mean(
                    per[m] for per in self.relative_roi.values()
                )
                for m in MECHANISMS
            ]
        )
        table = format_table(
            ["benchmark"] + [f"{m} %" for m in MECHANISMS],
            rows,
            title="Figure 12: ROI finish time relative to Original (100%)",
        )
        lines = [table, ""]
        for mech, paper in PAPER_REDUCTION.items():
            mine = self.average_reduction(mech)
            lines.append(
                f"{mech}: measured avg reduction {100 * mine:.1f}% "
                f"(paper {100 * paper:.1f}%)"
            )
        lines.append(
            f"iNPG over OCOR: measured {100 * self.inpg_vs_ocor():.1f}% "
            f"(paper 7.8%)"
        )
        return "\n".join(lines)


def run(options: "ExperimentOptions" = None) -> Fig12Result:
    opts = options or ExperimentOptions()
    result = Fig12Result()
    benches = opts.benchmarks()
    matrix = run_mechanism_matrix(benches, primitive="qsl", options=opts)
    for bench in benches:
        baseline = matrix[(bench, "original")]
        if baseline is None or any(
            matrix[(bench, mech)] is None for mech in MECHANISMS
        ):
            continue  # on_error="skip": drop the partial benchmark row
        result.relative_roi[bench] = {
            mech: matrix[(bench, mech)].roi_cycles / baseline.roi_cycles
            for mech in MECHANISMS
        }
    return result
