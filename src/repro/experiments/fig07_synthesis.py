"""Figure 7: router synthesis and chip floorplan accounting.

Regenerates the module synthesis table (gate/SC/net counts, densities,
power) for the normal router, big router and packet generator, and the
whole-chip power/area summary for the default 32+32 deployment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..config import InpgConfig
from ..synthesis import (
    big_router_synthesis,
    chip_summary,
    normal_router_synthesis,
    packet_generator_gates,
    packet_generator_power_overhead,
)
from .common import ExperimentOptions, format_table


@dataclass
class Fig7Result:
    normal: object
    big: object
    generator_gates: int
    generator_power_overhead: float
    chip: Dict[str, float]

    def render(self) -> str:
        rows = [
            ["Gate count", self.normal.gates, self.big.gates,
             self.generator_gates],
            ["SC count", self.normal.standard_cells, self.big.standard_cells,
             self.big.standard_cells - self.normal.standard_cells],
            ["Net count", self.normal.nets, self.big.nets,
             self.big.nets - self.normal.nets],
            ["Dyn. power (mW)", self.normal.dynamic_power_mw,
             self.big.dynamic_power_mw,
             self.big.dynamic_power_mw - self.normal.dynamic_power_mw],
            ["SC area (mm^2)", self.normal.sc_area_mm2, self.big.sc_area_mm2,
             self.big.sc_area_mm2 - self.normal.sc_area_mm2],
            ["Cell density (%)", 100 * self.normal.cell_density,
             100 * self.big.cell_density, "-"],
        ]
        table = format_table(
            ["metric", "normal router", "big router", "packet generator"],
            rows,
            title="Figure 7a: module synthesis (modelled, TSMC 40nm constants)",
        )
        chip_rows = [[k, v] for k, v in self.chip.items()]
        chip_table = format_table(
            ["metric", "value"], chip_rows,
            title="Figure 7b/c: 64-core chip accounting (32 big + 32 normal)",
        )
        return table + "\n\n" + chip_table


def run(options: "ExperimentOptions" = None,
        table_entries: int = 16) -> Fig7Result:
    del options  # synthesis accounting: no simulation to scale
    inpg = InpgConfig(
        enabled=True, num_big_routers=32, barrier_table_size=table_entries
    )
    return Fig7Result(
        normal=normal_router_synthesis(),
        big=big_router_synthesis(table_entries),
        generator_gates=packet_generator_gates(table_entries),
        generator_power_overhead=packet_generator_power_overhead(),
        chip=chip_summary(inpg),
    )
