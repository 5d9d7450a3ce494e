"""Figure 10: coherence Inv-Ack round-trip delay, Original vs iNPG.

The paper's microbenchmark: all 64 threads compete for one lock variable
hosted at the shared L2 bank of core (5,6); measurement runs from when
competition starts until the last thread got its critical section.

Reported: (a/c) the average Inv-Ack round-trip delay per competing core
(an 8x8 heat map) and (b/d) the round-trip delay histogram.  Paper
numbers: Original mean 39.2 / max 97 cycles with a long tail; iNPG mean
9.5 / max 15 cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..config import SystemConfig
from ..exec import RunSpec
from ..stats.histogram import Histogram
from .common import (
    ExperimentOptions,
    execute,
    format_table,
)

#: the paper's lock home: core (5,6) on the 8x8 mesh
HOME_XY = (5, 6)

PAPER = {
    "original": {"mean": 39.2, "max": 97},
    "inpg": {"mean": 9.5, "max": 15},
}


@dataclass
class RttResult:
    mechanism: str
    mean_rtt: float
    max_rtt: int
    per_core: Dict[int, float]
    histogram: Histogram
    early_share: float


@dataclass
class Fig10Result:
    results: Dict[str, RttResult] = field(default_factory=dict)
    mesh_width: int = 8

    def heat_map(self, mechanism: str) -> List[List[float]]:
        """Per-core mean RTT as rows of the mesh (Figure 10a/c)."""
        per_core = self.results[mechanism].per_core
        width = self.mesh_width
        return [
            [per_core.get(y * width + x, 0.0) for x in range(width)]
            for y in range(width)
        ]

    def render(self) -> str:
        rows = []
        for mech, res in self.results.items():
            paper = PAPER.get(mech, {})
            rows.append([
                mech, res.mean_rtt, res.max_rtt,
                100.0 * res.early_share,
                paper.get("mean", "-"), paper.get("max", "-"),
            ])
        table = format_table(
            ["mechanism", "mean RTT", "max RTT", "early inv %",
             "paper mean", "paper max"],
            rows,
            title="Figure 10: Inv-Ack round-trip delay (64 threads, one "
                  "lock homed at core (5,6))",
        )
        parts = [table]
        from ..stats.export import render_mesh_heat_map

        for mech, res in self.results.items():
            parts.append(f"\n{mech} mean RTT per core (Figure 10a/c):")
            parts.append(
                render_mesh_heat_map(
                    res.per_core, self.mesh_width, self.mesh_width
                )
            )
            parts.append(f"\n{mech} RTT histogram (Figure 10b/d):")
            parts.append(res.histogram.render())
        return "\n".join(parts)


def run(options: "ExperimentOptions" = None, *, cs_per_thread: int = 2,
        cs_cycles: int = 100, parallel_cycles: int = 200,
        seed: int = None) -> Fig10Result:
    from dataclasses import replace

    from ..config import LockSpinConfig

    opts = options or ExperimentOptions()
    if seed is None:
        seed = opts.seed
    result = Fig10Result()
    # the paper's Algorithm 1 microbenchmark: spin on a local copy
    # (Lines 1-2), SWAP on observed-free (Lines 3-4) — i.e. TTAS
    base = replace(SystemConfig(), spin=LockSpinConfig(raw_spin=False))
    home_node = base.noc.node_at(*HOME_XY)
    specs = {
        mech: RunSpec.microbench(
            home_node=home_node,
            cs_per_thread=cs_per_thread,
            cs_cycles=cs_cycles,
            parallel_cycles=parallel_cycles,
            mechanism=mech,
            primitive="tas",
            seed=seed,
            config=base,
        )
        for mech in ("original", "inpg")
    }
    results = execute(list(specs.values()), options=opts)
    for mech in ("original", "inpg"):
        r = results[specs[mech]]
        if r is None:
            continue  # on_error="skip": drop the partial side
        stats = r.coherence
        hist = Histogram(bin_width=5)
        hist.extend(r.rtt for r in stats.inv_records)
        early = sum(1 for r in stats.inv_records if r.early)
        result.results[mech] = RttResult(
            mechanism=mech,
            mean_rtt=stats.mean_inv_rtt,
            max_rtt=stats.max_inv_rtt,
            per_core=stats.inv_rtt_by_core(),
            histogram=hist,
            early_share=early / max(1, len(stats.inv_records)),
        )
    return result


def main() -> None:  # pragma: no cover - CLI entry
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
