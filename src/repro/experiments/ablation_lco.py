"""Ablation: how substrate choices move the baseline LCO and iNPG's gain.

Not a paper figure — this quantifies DESIGN.md §5's central observation:
the spinning discipline (raw test_and_set vs test-and-test-and-set) and
the directory's treatment of doomed swaps (full transactions vs NACKs)
together set the size of the lock-coherence-overhead pool that iNPG can
harvest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..config import CacheConfig, LockSpinConfig, SystemConfig
from ..exec import RunSpec
from .common import (
    ExperimentOptions,
    execute,
    format_table,
)

#: (label, raw_spin, directory_nacks)
VARIANTS: Tuple[Tuple[str, bool, bool], ...] = (
    ("raw spin, no NACKs (paper baseline)", True, False),
    ("raw spin, directory NACKs", True, True),
    ("TTAS, no NACKs", False, False),
    ("TTAS, directory NACKs", False, True),
)


@dataclass
class AblationRow:
    label: str
    baseline_roi: int
    baseline_lco: float
    inpg_roi: int
    inpg_gain: float


@dataclass
class AblationResult:
    rows: List[AblationRow] = field(default_factory=list)

    def render(self) -> str:
        table_rows = [
            [r.label, r.baseline_roi, 100 * r.baseline_lco, r.inpg_roi,
             100 * r.inpg_gain]
            for r in self.rows
        ]
        return format_table(
            ["baseline variant", "ROI (orig)", "LCO %", "ROI (iNPG)",
             "iNPG gain %"],
            table_rows,
            title="Ablation: baseline protocol choices vs iNPG's leverage "
                  "(64 threads, one TAS lock)",
        )


def _spec(raw_spin: bool, nacks: bool, mechanism: str) -> RunSpec:
    cfg = SystemConfig(
        spin=LockSpinConfig(raw_spin=raw_spin),
        cache=CacheConfig(directory_nacks=nacks),
    )
    return RunSpec.microbench(
        home_node=53, cs_per_thread=2, cs_cycles=100, parallel_cycles=300,
        mechanism=mechanism, primitive="tas", config=cfg,
        max_cycles=60_000_000,
    )


def run(options: "ExperimentOptions" = None) -> AblationResult:
    opts = options or ExperimentOptions()
    result = AblationResult()
    specs = {
        (label, mech): _spec(raw_spin, nacks, mech)
        for label, raw_spin, nacks in VARIANTS
        for mech in ("original", "inpg")
    }
    results = execute(list(specs.values()), options=opts)
    for label, raw_spin, nacks in VARIANTS:
        base = results[specs[(label, "original")]]
        inpg = results[specs[(label, "inpg")]]
        if base is None or inpg is None:
            continue  # on_error="skip": drop the partial row
        result.rows.append(
            AblationRow(
                label=label,
                baseline_roi=base.roi_cycles,
                baseline_lco=base.lco_fraction,
                inpg_roi=inpg.roi_cycles,
                inpg_gain=1.0 - inpg.roi_cycles / base.roi_cycles,
            )
        )
    return result
