"""Figure 15: sensitivity to NoC dimension and barrier table size.

iNPG's average ROI reduction across benchmarks as the mesh scales
(2x2, 4x4, 8x8, 16x16) and as the locking barrier table holds 4, 16 or
64 lock barriers / EI entries.  Paper: reduction grows with the mesh
(4.7% at 2x2, 19.9% at 8x8, 57.5% at 16x16); a 4-entry table throttles
iNPG on large meshes while >16 entries add little — hence 16 is the
default.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence, Tuple

from ..config import NocConfig, SystemConfig
from ..exec import RunSpec
from .common import (
    ExperimentOptions,
    arithmetic_mean,
    execute,
    format_table,
)

MESH_DIMS = (2, 4, 8, 16)
TABLE_SIZES = (4, 16, 64)

PAPER_BY_DIM = {2: 0.047, 8: 0.199, 16: 0.575}


@dataclass
class Fig15Result:
    #: average ROI reduction per (mesh dim, table size)
    reduction: Dict[Tuple[int, int], float] = field(default_factory=dict)
    dims: Sequence[int] = MESH_DIMS
    table_sizes: Sequence[int] = TABLE_SIZES

    def render(self) -> str:
        rows = []
        for dim in self.dims:
            row: List[object] = [f"{dim}x{dim}"]
            for size in self.table_sizes:
                row.append(100.0 * self.reduction[(dim, size)])
            paper = PAPER_BY_DIM.get(dim)
            row.append(100.0 * paper if paper is not None else "-")
            rows.append(row)
        return format_table(
            ["mesh"] + [f"{s}-entry table %" for s in self.table_sizes]
            + ["paper (16-entry) %"],
            rows,
            title="Figure 15: iNPG avg ROI reduction vs NoC dimension and "
                  "locking barrier table size",
        )


def run(
    options: "ExperimentOptions" = None,
    *,
    dims: Sequence[int] = MESH_DIMS,
    table_sizes: Sequence[int] = TABLE_SIZES,
) -> Fig15Result:
    opts = options or ExperimentOptions()
    scale = opts.scale
    result = Fig15Result(dims=dims, table_sizes=table_sizes)
    benches = opts.benchmarks()
    specs = {}
    for dim in dims:
        num_nodes = dim * dim
        base_cfg = SystemConfig(
            noc=NocConfig(width=dim, height=dim),
            num_threads=num_nodes,
        )
        for bench in benches:
            specs[(dim, "baseline", bench)] = RunSpec(
                benchmark=bench, mechanism="original", primitive="qsl",
                scale=scale, seed=opts.seed, config=base_cfg,
            )
        for size in table_sizes:
            cfg = replace(
                base_cfg,
                inpg=replace(
                    base_cfg.inpg,
                    enabled=True,
                    num_big_routers=num_nodes // 2,
                    barrier_table_size=size,
                    ei_entries=size,
                ),
            )
            for bench in benches:
                specs[(dim, size, bench)] = RunSpec(
                    benchmark=bench, mechanism="inpg", primitive="qsl",
                    scale=scale, seed=opts.seed, config=cfg,
                )
    results = execute(list(specs.values()), options=opts)
    for dim in dims:
        for size in table_sizes:
            reductions = []
            for bench in benches:
                baseline = results[specs[(dim, "baseline", bench)]]
                r = results[specs[(dim, size, bench)]]
                if baseline is None or r is None:
                    continue  # on_error="skip": drop the partial sample
                reductions.append(
                    1.0 - r.roi_cycles / baseline.roi_cycles
                )
            if reductions:
                result.reduction[(dim, size)] = arithmetic_mean(reductions)
    return result
