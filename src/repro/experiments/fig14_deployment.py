"""Figure 14: sensitivity to big-router deployment (0/4/16/32/64).

CS expedition (COH + CSE, normalized to Original = 0 big routers) as the
number of evenly-distributed big routers grows.  Paper: expedition grows
with router count, with marginal gains from 32 to 64 — hence 32 big
routers is the chosen default for the 64-core CMP.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence

from ..config import SystemConfig
from ..exec import RunSpec
from .common import (
    ExperimentOptions,
    arithmetic_mean,
    execute,
    format_table,
)

DEPLOYMENTS = (0, 4, 16, 32, 64)


@dataclass
class Fig14Result:
    #: CS expedition factor per (benchmark, big-router count)
    expedition: Dict[str, Dict[int, float]] = field(default_factory=dict)
    deployments: Sequence[int] = DEPLOYMENTS

    def average(self, count: int) -> float:
        return arithmetic_mean(
            per[count] for per in self.expedition.values()
        )

    def render(self) -> str:
        rows = [
            [bench] + [per[c] for c in self.deployments]
            for bench, per in sorted(self.expedition.items())
        ]
        rows.append(
            ["== average =="]
            + [self.average(c) for c in self.deployments]
        )
        return format_table(
            ["benchmark"] + [f"{c} BRs" for c in self.deployments],
            rows,
            title="Figure 14: CS expedition vs big router deployment "
                  "(Original = 1x)",
        )


def run(options: "ExperimentOptions" = None, *,
        deployments: Sequence[int] = DEPLOYMENTS) -> Fig14Result:
    opts = options or ExperimentOptions()
    scale = opts.scale
    result = Fig14Result(deployments=deployments)
    base_cfg = SystemConfig()
    benches = opts.benchmarks()
    specs = {
        (bench, "baseline"): RunSpec(
            benchmark=bench, mechanism="original", primitive="qsl",
            scale=scale, seed=opts.seed, config=base_cfg,
        )
        for bench in benches
    }
    for count in deployments:
        if count == 0:
            continue
        cfg = replace(
            base_cfg, inpg=replace(
                base_cfg.inpg, enabled=True, num_big_routers=count
            )
        )
        for bench in benches:
            specs[(bench, count)] = RunSpec(
                benchmark=bench, mechanism="inpg", primitive="qsl",
                scale=scale, seed=opts.seed, config=cfg,
            )
    results = execute(list(specs.values()), options=opts)
    for bench in benches:
        baseline = results[specs[(bench, "baseline")]]
        if baseline is None:
            continue  # on_error="skip": nothing to normalize against
        result.expedition[bench] = {}
        for count in deployments:
            if count == 0:
                result.expedition[bench][0] = 1.0
                continue
            r = results[specs[(bench, count)]]
            if r is None:
                continue  # on_error="skip": drop the partial point
            result.expedition[bench][count] = r.cs_expedition_vs(baseline)
    return result


def main() -> None:  # pragma: no cover - CLI entry
    print(run(ExperimentOptions(quick=False)).render())


if __name__ == "__main__":  # pragma: no cover
    main()
