"""Protocol ablation: is iNPG's win MOESI-specific, or protocol-robust?

The paper's platform fixes directory MOESI (Section 3.1), which leaves
open whether the critical-section acceleration depends on the protocol
or only on *where* invalidations are generated.  This harness reruns the
Figure 12-style contention sweep (ROI finish time, Original vs iNPG)
under each protocol in the family (``repro.coherence.protocol``) and
compares the relative iNPG reduction per protocol: if the reductions
agree, the win comes from in-network packet generation, not from MOESI's
O-state forwarding behaviour.

MOESI rows reuse the cached Figure 11/12 runs (the default protocol is
elided from the run fingerprint); MSI/MESI rows are fresh simulations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..config import PROTOCOL_NAMES, SystemConfig
from ..exec import RunSpec
from .common import (
    ExperimentOptions,
    arithmetic_mean,
    execute,
    format_table,
)

#: the two-case comparison each protocol reruns (the full four-mechanism
#: matrix adds nothing to the protocol question and doubles the cost)
ABLATION_MECHANISMS = ("original", "inpg")


@dataclass
class ProtocolAblationResult:
    #: ROI cycles per (protocol, benchmark, mechanism)
    roi_cycles: Dict[Tuple[str, str, str], int] = field(default_factory=dict)
    protocols: Tuple[str, ...] = PROTOCOL_NAMES

    def relative_roi(self, protocol: str, bench: str) -> Optional[float]:
        """iNPG ROI relative to Original (1.0 = no change) under one
        protocol, or ``None`` when either run failed/was skipped."""
        base = self.roi_cycles.get((protocol, bench, "original"))
        inpg = self.roi_cycles.get((protocol, bench, "inpg"))
        if not base or inpg is None:
            return None
        return inpg / base

    def benchmarks(self) -> Tuple[str, ...]:
        return tuple(sorted({b for (_p, b, _m) in self.roi_cycles}))

    def average_reduction(self, protocol: str) -> float:
        """Mean iNPG ROI reduction across benchmarks for one protocol."""
        ratios = [
            r for r in (
                self.relative_roi(protocol, b) for b in self.benchmarks()
            ) if r is not None
        ]
        return 1.0 - arithmetic_mean(ratios) if ratios else 0.0

    def spread(self) -> float:
        """Max pairwise difference of the per-protocol avg reductions —
        small spread == the iNPG win is protocol-robust."""
        reductions = [self.average_reduction(p) for p in self.protocols]
        return max(reductions) - min(reductions) if reductions else 0.0

    def render(self) -> str:
        headers = ["benchmark"] + [
            f"{proto} {col}"
            for proto in self.protocols
            for col in ("orig kcyc", "inpg %")
        ]
        rows = []
        for bench in self.benchmarks():
            row: list = [bench]
            for proto in self.protocols:
                base = self.roi_cycles.get((proto, bench, "original"))
                rel = self.relative_roi(proto, bench)
                row.append(base / 1000.0 if base else "-")
                row.append(100.0 * rel if rel is not None else "-")
            rows.append(row)
        rows.append(
            ["== average =="]
            + [
                cell
                for proto in self.protocols
                for cell in ("", 100.0 * (1.0 - self.average_reduction(proto)))
            ]
        )
        table = format_table(
            headers, rows,
            title="Protocol ablation: iNPG ROI relative to Original (100%)",
        )
        lines = [table, ""]
        for proto in self.protocols:
            lines.append(
                f"{proto}: avg iNPG ROI reduction "
                f"{100.0 * self.average_reduction(proto):.1f}%"
            )
        lines.append(
            f"spread across protocols: {100.0 * self.spread():.1f} pp "
            "(small spread == the win is where invalidations are "
            "generated, not the protocol)"
        )
        return "\n".join(lines)


def run(options: "ExperimentOptions" = None) -> ProtocolAblationResult:
    opts = options or ExperimentOptions()
    benches = opts.benchmarks()
    protocols = (
        (opts.protocol,) if opts.protocol is not None else PROTOCOL_NAMES
    )
    specs = {
        (proto, bench, mech): RunSpec(
            benchmark=bench,
            mechanism=mech,
            primitive="qsl",
            scale=opts.scale,
            seed=opts.seed,
            config=SystemConfig(protocol=proto),
        )
        for proto in protocols
        for bench in benches
        for mech in ABLATION_MECHANISMS
    }
    # one flat plan: the shared executor dedups/caches/parallelizes, and
    # the moesi rows hit the same cache entries as fig11/fig12
    results = execute(list(specs.values()), options=opts)
    out = ProtocolAblationResult(protocols=tuple(protocols))
    for key, spec in specs.items():
        result = results[spec]
        if result is not None:
            out.roi_cycles[key] = result.roi_cycles
    return out
