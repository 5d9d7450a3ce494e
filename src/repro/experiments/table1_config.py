"""Table 1: simulation platform configuration.

Prints the configured platform exactly as the paper's Table 1 lays it
out, sourced from the live :class:`~repro.config.SystemConfig` defaults
so any drift between documentation and code is impossible.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SystemConfig
from .common import ExperimentOptions, format_table


@dataclass
class Table1Result:
    config: SystemConfig

    def rows(self):
        c = self.config
        return [
            ["Core", f"{c.num_threads} cores",
             f"Alpha-style {c.core.frequency_ghz} GHz out-of-order"],
            ["L1-Cache", f"{c.noc.num_nodes} banks",
             f"private, {c.cache.l1_size_kb} KB/core, {c.cache.l1_assoc}-way, "
             f"{c.cache.block_bytes} B blocks, {c.cache.l1_latency}-cycle, "
             f"{c.cache.mshrs} MSHRs"],
            ["L2-Cache", f"{c.noc.num_nodes} banks",
             f"shared, {c.cache.l2_bank_size_mb} MB/bank, "
             f"{c.cache.l2_assoc}-way, {c.cache.l2_latency}-cycle"],
            ["Memory", f"{c.memory.num_controllers} controllers",
             f"{c.memory.dram_latency}-cycle DRAM"],
            ["NoC", f"{c.noc.num_nodes} nodes",
             f"{c.noc.width}x{c.noc.height} mesh, XY routing, "
             f"{c.noc.router_pipeline_cycles}-stage routers, "
             f"{c.noc.vcs_per_port} VCs/port, {c.noc.datapath_bits}-bit "
             f"datapath, {c.noc.data_packet_flits}-flit data packets"],
            ["Coherence", "directory", "MOESI, blocks interleaved by address"],
            ["OCOR", "-",
             f"{c.ocor.retry_times} retries, {c.ocor.priority_levels} "
             f"priority levels ({c.ocor.retries_per_level} retries/level), "
             f"lowest level for wakeups"],
            ["iNPG", "-",
             f"{c.inpg.num_big_routers} big routers interleaved, "
             f"{c.inpg.barrier_table_size}-entry locking barrier table, "
             f"TTL {c.inpg.barrier_ttl} cycles"],
            ["QSL", "-",
             f"{c.os.qsl_spin_retries} spin retries, context switch "
             f"{c.os.context_switch_cycles} cycles, wakeup "
             f"{c.os.wakeup_cycles} cycles"],
        ]

    def render(self) -> str:
        return format_table(
            ["item", "amount", "description"],
            self.rows(),
            title="Table 1: simulation platform configuration",
        )


def run(options: "ExperimentOptions" = None,
        config: SystemConfig = None) -> Table1Result:
    del options  # configuration table: nothing to sweep or scale
    return Table1Result(config=config or SystemConfig())
