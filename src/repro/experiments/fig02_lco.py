"""Figure 2: percentage of LCO in application running time.

The paper measures lock coherence overhead (LCO) as a fraction of runtime
for kdtree (OMP2012), facesim and fluidanimate (PARSEC) under each of the
five locking primitives on the baseline 64-core platform, finding TAS
worst, then TTL/ABQL, with MCS/QSL lowest (Section 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..config import PRIMITIVES
from ..exec import RunSpec
from .common import (
    ExperimentOptions,
    execute,
    format_table,
)

#: paper's motivational benchmark trio
BENCHMARKS = ("kdtree", "facesim", "fluidanimate")

#: paper display names per primitive
PRIMITIVE_LABELS = {
    "tas": "TAS",
    "ticket": "TTL",
    "abql": "ABQL",
    "mcs": "MCS",
    "qsl": "QSL",
}

#: paper-reported LCO fractions for the record (Section 2.2 text)
PAPER_LCO = {
    ("kdtree", "tas"): 0.50, ("kdtree", "ticket"): 0.31,
    ("kdtree", "abql"): 0.27, ("kdtree", "mcs"): 0.14,
    ("kdtree", "qsl"): 0.17,
    ("fluidanimate", "tas"): 0.65, ("fluidanimate", "ticket"): 0.47,
    ("fluidanimate", "abql"): 0.50, ("fluidanimate", "mcs"): 0.20,
    ("fluidanimate", "qsl"): 0.25,
    ("facesim", "tas"): 0.90, ("facesim", "ticket"): 0.57,
    ("facesim", "abql"): 0.56, ("facesim", "mcs"): 0.30,
    ("facesim", "qsl"): 0.32,
}


@dataclass
class Fig2Result:
    #: measured LCO fraction per (benchmark, primitive)
    lco: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def rows(self) -> List[List[object]]:
        out = []
        for bench, per_prim in self.lco.items():
            for prim, frac in per_prim.items():
                paper = PAPER_LCO.get((bench, prim))
                out.append([
                    bench,
                    PRIMITIVE_LABELS[prim],
                    100.0 * frac,
                    100.0 * paper if paper is not None else "-",
                ])
        return out

    def render(self) -> str:
        return format_table(
            ["benchmark", "primitive", "LCO % (measured)", "LCO % (paper)"],
            self.rows(),
            title="Figure 2: LCO share of application running time",
        )


def run(options: "ExperimentOptions" = None, *,
        benchmarks=BENCHMARKS) -> Fig2Result:
    opts = options or ExperimentOptions()
    specs = {
        (bench, prim): RunSpec(
            benchmark=bench, mechanism="original", primitive=prim,
            scale=opts.scale, seed=opts.seed,
        )
        for bench in benchmarks
        for prim in PRIMITIVES
    }
    results = execute(list(specs.values()), options=opts)
    result = Fig2Result()
    for (bench, prim), spec in specs.items():
        r = results[spec]
        if r is None:
            continue  # on_error="skip": drop the partial cell
        result.lco.setdefault(bench, {})[prim] = r.lco_fraction
    return result
