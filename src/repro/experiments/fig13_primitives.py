"""Figure 13: iNPG's effectiveness with the five locking primitives.

ROI finish time reduction achieved by iNPG (over Original, same
primitive) for TAS, TTL, ABQL, QSL and MCS.  Paper averages: TAS 52.8%,
TTL 33.4%, ABQL 32.6%, QSL 19.9%, MCS 16.5% — the heavier the lock
competition traffic a primitive generates, the more iNPG helps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..config import PRIMITIVES
from ..exec import RunSpec
from .common import (
    ExperimentOptions,
    arithmetic_mean,
    execute,
    format_table,
)

PAPER_REDUCTION = {
    "tas": 0.528, "ticket": 0.334, "abql": 0.326, "qsl": 0.199, "mcs": 0.165,
}
LABELS = {"tas": "TAS", "ticket": "TTL", "abql": "ABQL",
          "mcs": "MCS", "qsl": "QSL"}


@dataclass
class Fig13Result:
    #: ROI reduction by iNPG per (benchmark, primitive)
    reduction: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def average_reduction(self, primitive: str) -> float:
        return arithmetic_mean(
            per[primitive] for per in self.reduction.values()
        )

    def render(self) -> str:
        rows = []
        for bench, per in sorted(self.reduction.items()):
            rows.append([bench] + [100.0 * per[p] for p in PRIMITIVES])
        rows.append(
            ["== average =="]
            + [100.0 * self.average_reduction(p) for p in PRIMITIVES]
        )
        rows.append(
            ["== paper =="]
            + [100.0 * PAPER_REDUCTION[p] for p in PRIMITIVES]
        )
        return format_table(
            ["benchmark"] + [f"{LABELS[p]} %" for p in PRIMITIVES],
            rows,
            title="Figure 13: ROI finish time reduction by iNPG, per "
                  "locking primitive",
        )


def run(options: "ExperimentOptions" = None) -> Fig13Result:
    opts = options or ExperimentOptions()
    result = Fig13Result()
    benches = opts.benchmarks()
    specs = {
        (bench, prim, mech): RunSpec(
            benchmark=bench, mechanism=mech, primitive=prim, scale=opts.scale,
            seed=opts.seed,
        )
        for bench in benches
        for prim in PRIMITIVES
        for mech in ("original", "inpg")
    }
    results = execute(list(specs.values()), options=opts)
    for bench in benches:
        result.reduction[bench] = {}
        for prim in PRIMITIVES:
            base = results[specs[(bench, prim, "original")]]
            inpg = results[specs[(bench, prim, "inpg")]]
            if base is None or inpg is None:
                continue  # on_error="skip": drop the partial cell
            result.reduction[bench][prim] = (
                1.0 - inpg.roi_cycles / base.roi_cycles
            )
    return result


def main() -> None:  # pragma: no cover - CLI entry
    print(run(ExperimentOptions(quick=False)).render())


if __name__ == "__main__":  # pragma: no cover
    main()
