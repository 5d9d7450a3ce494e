"""Topology/placement ablation: where should the big routers go?

The paper evaluates iNPG on one fabric — the 8x8 XY mesh — with the big
routers interleaved (Figure 3), and explicitly leaves placement as an
open question.  This harness reruns the Figure 12-style comparison (ROI
finish time, Original vs iNPG) on every topology of the family
(``repro.noc.topology``: mesh, torus, ring) and, per topology, under
every big-router placement strategy (``repro.inpg.deployment``: spread /
center / perimeter).  Two readings come out of the table:

* the **per-topology reduction** — does iNPG's win survive fabrics whose
  lock-request paths differ from the mesh's XY routes?
* the **placement sensitivity** — the max-min spread of the reduction
  across placements within one topology.  A large spread on the mesh
  (the center nodes see most XY traffic) versus a small one on the torus
  (every node is equally central) quantifies how much placement matters
  per fabric.

Mesh/spread rows reuse the cached Figure 11/12 runs (the default
topology and placement are elided from the run fingerprint); every other
cell is a fresh simulation that addresses itself in the cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..config import PLACEMENTS, TOPOLOGIES, SystemConfig
from ..exec import RunSpec
from .common import (
    ExperimentOptions,
    arithmetic_mean,
    execute,
    format_table,
)

#: the two-case comparison each (topology, placement) cell reruns
ABLATION_MECHANISMS = ("original", "inpg")

#: placement marker for Original rows (no big routers to place)
NO_PLACEMENT = "-"


@dataclass
class TopologyAblationResult:
    #: ROI cycles per (topology, placement, benchmark, mechanism);
    #: Original rows carry ``NO_PLACEMENT``
    roi_cycles: Dict[Tuple[str, str, str, str], int] = field(
        default_factory=dict
    )
    topologies: Tuple[str, ...] = TOPOLOGIES
    placements: Tuple[str, ...] = PLACEMENTS

    def benchmarks(self) -> Tuple[str, ...]:
        return tuple(sorted({b for (_t, _p, b, _m) in self.roi_cycles}))

    def relative_roi(
        self, topology: str, placement: str, bench: str
    ) -> Optional[float]:
        """iNPG ROI relative to Original (1.0 = no change) for one cell,
        or ``None`` when either run failed/was skipped."""
        base = self.roi_cycles.get(
            (topology, NO_PLACEMENT, bench, "original")
        )
        inpg = self.roi_cycles.get((topology, placement, bench, "inpg"))
        if not base or inpg is None:
            return None
        return inpg / base

    def average_reduction(self, topology: str, placement: str) -> float:
        """Mean iNPG ROI reduction across benchmarks for one cell."""
        ratios = [
            r for r in (
                self.relative_roi(topology, placement, b)
                for b in self.benchmarks()
            ) if r is not None
        ]
        return 1.0 - arithmetic_mean(ratios) if ratios else 0.0

    def placement_sensitivity(self, topology: str) -> float:
        """Max-min spread of the reduction across placements — how much
        big-router placement matters on this fabric."""
        reductions = [
            self.average_reduction(topology, p) for p in self.placements
        ]
        return max(reductions) - min(reductions) if reductions else 0.0

    def _mean_roi(
        self, topology: str, placement: str, mechanism: str
    ) -> Optional[float]:
        cycles = [
            self.roi_cycles[(topology, placement, b, mechanism)]
            for b in self.benchmarks()
            if (topology, placement, b, mechanism) in self.roi_cycles
        ]
        return arithmetic_mean(cycles) if cycles else None

    def render(self) -> str:
        headers = [
            "topology", "placement", "orig kcyc", "inpg kcyc", "inpg %",
            "reduction %",
        ]
        rows = []
        for topo in self.topologies:
            base = self._mean_roi(topo, NO_PLACEMENT, "original")
            for placement in self.placements:
                inpg = self._mean_roi(topo, placement, "inpg")
                reduction = self.average_reduction(topo, placement)
                rows.append([
                    topo,
                    placement,
                    base / 1000.0 if base else "-",
                    inpg / 1000.0 if inpg is not None else "-",
                    100.0 * (1.0 - reduction),
                    100.0 * reduction,
                ])
        table = format_table(
            headers, rows,
            title=(
                "Topology/placement ablation: iNPG ROI relative to "
                "Original (100%), averaged over benchmarks"
            ),
        )
        lines = [table, ""]
        for topo in self.topologies:
            lines.append(
                f"{topo}: placement sensitivity "
                f"{100.0 * self.placement_sensitivity(topo):.1f} pp "
                f"(max-min reduction across {'/'.join(self.placements)})"
            )
        return "\n".join(lines)


def run(options: "ExperimentOptions" = None, *,
        benchmarks: Optional[Tuple[str, ...]] = None,
        ) -> TopologyAblationResult:
    opts = options or ExperimentOptions()
    benches = tuple(benchmarks) if benchmarks else opts.benchmarks()
    topologies = (
        (opts.topology,) if opts.topology is not None else TOPOLOGIES
    )
    specs: Dict[Tuple[str, str, str, str], RunSpec] = {}
    for topo in topologies:
        # the default mesh and spread placement are elided from the
        # fingerprint, so those rows stay cache-shared with fig11/fig12
        fabric = SystemConfig().with_overrides(noc={"topology": topo})
        for bench in benches:
            specs[(topo, NO_PLACEMENT, bench, "original")] = RunSpec(
                benchmark=bench,
                mechanism="original",
                primitive="qsl",
                scale=opts.scale,
                seed=opts.seed,
                config=fabric,
            )
            for placement in PLACEMENTS:
                specs[(topo, placement, bench, "inpg")] = RunSpec(
                    benchmark=bench,
                    mechanism="inpg",
                    primitive="qsl",
                    scale=opts.scale,
                    seed=opts.seed,
                    config=fabric.with_overrides(
                        inpg={"placement": placement}),
                )
    # one flat plan: the shared executor dedups/caches/parallelizes
    results = execute(list(specs.values()), options=opts)
    out = TopologyAblationResult(topologies=tuple(topologies))
    for key, spec in specs.items():
        result = results[spec]
        if result is not None:
            out.roi_cycles[key] = result.roi_cycles
    return out
