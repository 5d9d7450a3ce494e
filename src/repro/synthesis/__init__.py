"""Analytical area/power/gate-count model (Figure 7)."""

from .area_power import (
    BIG_ROUTER_GATES,
    NORMAL_ROUTER_GATES,
    PACKET_GENERATOR_POWER_MW,
    RouterSynthesis,
    big_router_synthesis,
    chip_summary,
    normal_router_synthesis,
    packet_generator_gates,
    packet_generator_power_overhead,
)

__all__ = [
    "BIG_ROUTER_GATES",
    "NORMAL_ROUTER_GATES",
    "PACKET_GENERATOR_POWER_MW",
    "RouterSynthesis",
    "big_router_synthesis",
    "chip_summary",
    "normal_router_synthesis",
    "packet_generator_gates",
    "packet_generator_power_overhead",
]
