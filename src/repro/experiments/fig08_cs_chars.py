"""Figure 8: benchmark critical-section characteristics.

(a) total CS access count and average CPU cycles per CS per program;
(b) total CS time broken into competition overhead (COH) and critical
    section execution (CSE), with programs sorted ascending and split
    into Group 1 (6) / Group 2 (12) / Group 3 (6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..exec import RunSpec
from ..workloads.profiles import get_profile, group_of
from .common import (
    ExperimentOptions,
    execute,
    format_table,
)


@dataclass
class BenchCsStats:
    benchmark: str
    short_name: str
    suite: str
    total_cs: int
    avg_cycles_per_cs: float
    total_coh: int
    total_cse: int
    group: int

    @property
    def total_cs_time(self) -> int:
        return self.total_coh + self.total_cse

    @property
    def coh_share(self) -> float:
        total = self.total_cs_time
        return self.total_coh / total if total else 0.0


@dataclass
class Fig8Result:
    stats: List[BenchCsStats] = field(default_factory=list)

    def sorted_by_cs_time(self) -> List[BenchCsStats]:
        return sorted(self.stats, key=lambda s: s.total_cs_time)

    def render(self) -> str:
        rows = [
            [
                s.short_name, s.suite, s.group, s.total_cs,
                s.avg_cycles_per_cs, s.total_coh, s.total_cse,
                100.0 * s.coh_share,
            ]
            for s in self.sorted_by_cs_time()
        ]
        return format_table(
            ["program", "suite", "group", "CS count", "avg cyc/CS",
             "COH cyc", "CSE cyc", "COH %"],
            rows,
            title=(
                "Figure 8: CS characteristics (Original, QSL), ascending "
                "total CS time"
            ),
        )


def run(options: "ExperimentOptions" = None) -> Fig8Result:
    opts = options or ExperimentOptions()
    result = Fig8Result()
    specs = {
        bench: RunSpec(
            benchmark=bench, mechanism="original", primitive="qsl",
            scale=opts.scale, seed=opts.seed,
        )
        for bench in opts.benchmarks()
    }
    results = execute(list(specs.values()), options=opts)
    for bench, spec in specs.items():
        profile = get_profile(bench)
        r = results[spec]
        if r is None:
            continue  # on_error="skip": drop the partial row
        result.stats.append(
            BenchCsStats(
                benchmark=bench,
                short_name=profile.short_name,
                suite=profile.suite,
                total_cs=r.cs_completed,
                avg_cycles_per_cs=r.avg_cycles_per_cs,
                total_coh=r.total_coh,
                total_cse=r.total_cse,
                group=group_of(bench),
            )
        )
    return result


def main() -> None:  # pragma: no cover - CLI entry
    print(run(ExperimentOptions(quick=False)).render())


if __name__ == "__main__":  # pragma: no cover
    main()
