"""Analytical synthesis model reproducing Figure 7 / Table (a).

The paper synthesizes RTL for the normal and big routers (Synopsys DC,
TSMC 40 nm LP, 2.0 GHz, 1.1 V) and floorplans a 64-core chip (Cadence SoC
Encounter).  We cannot run those tools, so this module reproduces the
*accounting*: per-structure gate budgets calibrated to the paper's
published synthesis constants, composed into the same derived quantities
the figure reports (gate/SC/net counts, cell density, power split, chip
area).  Everything here is a model, clearly labelled — the point is to
regenerate the figure's rows and let the reader vary the configuration
(e.g. the locking barrier table size) and see the overhead accounting
move consistently.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import InpgConfig

#: Published constants from Figure 7a (TSMC 40 nm LP, typical case).
NORMAL_ROUTER_GATES = 19_900
BIG_ROUTER_GATES = 22_400
CORE_GATES = 152_500
NORMAL_ROUTER_SC = 3_600
BIG_ROUTER_SC = 4_000
CORE_SC = 23_200
NORMAL_ROUTER_NETS = 10_000
BIG_ROUTER_NETS = 11_100
CORE_NETS = 60_900
#: dynamic power, mW
CORE_POWER_MW = 623.5
NORMAL_ROUTER_POWER_MW = 84.2
BIG_ROUTER_POWER_MW = 92.6
PACKET_GENERATOR_POWER_MW = 8.4
#: areas, mm^2
CORE_AREA_MM2 = 2.03
ROUTER_TILE_AREA_MM2 = 0.21
NORMAL_ROUTER_SC_AREA_MM2 = 0.13
BIG_ROUTER_SC_AREA_MM2 = 0.14
CORE_SC_AREA_MM2 = 0.97
#: cell density (before filler insertion)
NORMAL_ROUTER_DENSITY = 0.6190
BIG_ROUTER_DENSITY = 0.6667
CORE_DENSITY = 0.4826

#: the packet generator's gate budget at the default table size
_PACKET_GENERATOR_GATES = BIG_ROUTER_GATES - NORMAL_ROUTER_GATES  # 2.5K
_DEFAULT_TABLE_ENTRIES = 16
#: roughly 90% of the generator is the locking barrier table storage
# ("with the majority coming from the locking barrier table", Section 4.2)
_TABLE_GATE_FRACTION = 0.9


@dataclass(frozen=True)
class RouterSynthesis:
    """Synthesis summary for one router instance."""

    name: str
    gates: int
    standard_cells: int
    nets: int
    dynamic_power_mw: float
    sc_area_mm2: float
    cell_density: float


def packet_generator_gates(table_entries: int = _DEFAULT_TABLE_ENTRIES) -> int:
    """Gate cost of the packet generator for a given barrier table size.

    The storage part scales linearly with the number of lock-barrier/EI
    entries; the control logic is fixed.
    """
    if table_entries < 1:
        raise ValueError("table must have at least one entry")
    storage = _PACKET_GENERATOR_GATES * _TABLE_GATE_FRACTION
    control = _PACKET_GENERATOR_GATES * (1.0 - _TABLE_GATE_FRACTION)
    return round(control + storage * table_entries / _DEFAULT_TABLE_ENTRIES)


def normal_router_synthesis() -> RouterSynthesis:
    return RouterSynthesis(
        name="normal",
        gates=NORMAL_ROUTER_GATES,
        standard_cells=NORMAL_ROUTER_SC,
        nets=NORMAL_ROUTER_NETS,
        dynamic_power_mw=NORMAL_ROUTER_POWER_MW,
        sc_area_mm2=NORMAL_ROUTER_SC_AREA_MM2,
        cell_density=NORMAL_ROUTER_DENSITY,
    )


def big_router_synthesis(table_entries: int = _DEFAULT_TABLE_ENTRIES) -> RouterSynthesis:
    generator_gates = packet_generator_gates(table_entries)
    scale = generator_gates / _PACKET_GENERATOR_GATES
    return RouterSynthesis(
        name="big",
        gates=NORMAL_ROUTER_GATES + generator_gates,
        standard_cells=round(
            NORMAL_ROUTER_SC + (BIG_ROUTER_SC - NORMAL_ROUTER_SC) * scale
        ),
        nets=round(
            NORMAL_ROUTER_NETS + (BIG_ROUTER_NETS - NORMAL_ROUTER_NETS) * scale
        ),
        dynamic_power_mw=NORMAL_ROUTER_POWER_MW
        + PACKET_GENERATOR_POWER_MW * scale,
        sc_area_mm2=NORMAL_ROUTER_SC_AREA_MM2
        + (BIG_ROUTER_SC_AREA_MM2 - NORMAL_ROUTER_SC_AREA_MM2) * scale,
        cell_density=min(
            0.95,
            NORMAL_ROUTER_DENSITY
            + (BIG_ROUTER_DENSITY - NORMAL_ROUTER_DENSITY) * scale,
        ),
    )


def packet_generator_power_overhead() -> float:
    """Fractional power overhead of the generator over a normal router."""
    return PACKET_GENERATOR_POWER_MW / NORMAL_ROUTER_POWER_MW


def chip_summary(inpg: InpgConfig, num_tiles: int = 64) -> dict:
    """Whole-chip accounting for a given big-router deployment (Fig 7b/c)."""
    num_big = min(inpg.num_big_routers, num_tiles) if inpg.enabled else 0
    num_normal = num_tiles - num_big
    normal = normal_router_synthesis()
    big = big_router_synthesis(inpg.barrier_table_size)
    total_power = (
        num_tiles * CORE_POWER_MW
        + num_normal * normal.dynamic_power_mw
        + num_big * big.dynamic_power_mw
    )
    baseline_power = num_tiles * (CORE_POWER_MW + normal.dynamic_power_mw)
    return {
        "num_tiles": num_tiles,
        "num_big_routers": num_big,
        "num_normal_routers": num_normal,
        "router_gates_normal": normal.gates,
        "router_gates_big": big.gates,
        "packet_generator_gates": packet_generator_gates(
            inpg.barrier_table_size
        ),
        "big_tile_power_mw": CORE_POWER_MW + big.dynamic_power_mw,
        "normal_tile_power_mw": CORE_POWER_MW + normal.dynamic_power_mw,
        "total_power_w": total_power / 1000.0,
        "power_overhead_pct": 100.0 * (total_power / baseline_power - 1.0),
        "chip_area_mm2": num_tiles * (CORE_AREA_MM2 + ROUTER_TILE_AREA_MM2),
    }
