#!/usr/bin/env python3
"""Check that two worker shards still beat the vector flit engine.

Runs the benchmark's 32x32 seed-11 drive (12,000 uniform packets, 16
injected a cycle) on the sharded worker drive with two shards and on
the kernel-driven vector engine: one warm-up pair, then three pairs,
alternating which side goes first.  Fails unless every run simulates
the pinned 2,104,038 events and the median vector/sharded wall-time
ratio is at least 1.2.  Both sides share the host and the moment, so
the ratio measures the code, not the host.

Usage:  python scripts/sharded_speedup.py
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import NocConfig  # noqa: E402
from repro.noc.engines import make_flit_network  # noqa: E402
from repro.noc.shardflit import ShardedFlitNetwork  # noqa: E402
from repro.perf.workloads import _uniform_flit_plan  # noqa: E402
from repro.sim import Simulator  # noqa: E402

WIDTH = 32
EVENTS = 2_104_038
MIN_RATIO = 1.2
PAIRS = 3


def vector(plan) -> int:
    sim = Simulator()
    net = make_flit_network(sim, NocConfig(width=WIDTH, height=WIDTH),
                            "vector")
    for cycle, src, dst, length in plan:
        sim.schedule_at(cycle, net.send, src, dst, length)
    sim.run(until=2_000_000)
    return sim.events_processed


def sharded(plan) -> int:
    net = ShardedFlitNetwork(NocConfig(width=WIDTH, height=WIDTH), 2)
    for cycle, src, dst, length in plan:
        net.send_at(cycle, src, dst, length)
    net.run(until=2_000_000)
    return net.events_processed


def main() -> int:
    plan = _uniform_flit_plan(12_000, WIDTH * WIDTH, 16, 11)
    ratios = []
    for pair in range(PAIRS + 1):
        wall = {}
        for drive in (vector, sharded) if pair % 2 else (sharded, vector):
            t0 = time.perf_counter()
            events = drive(plan)
            wall[drive.__name__] = time.perf_counter() - t0
            if events != EVENTS:
                print(f"{drive.__name__} simulated {events:,} events, "
                      f"pinned {EVENTS:,}")
                return 1
        ratio = wall["vector"] / wall["sharded"]
        print(f"{'warm-up' if pair == 0 else f'pair {pair}'}: vector "
              f"{wall['vector']:.3f} s, two shards {wall['sharded']:.3f} s, "
              f"ratio {ratio:.2f}")
        if pair:
            ratios.append(ratio)
    median = statistics.median(ratios)
    verdict = "ok" if median >= MIN_RATIO else "FAIL"
    print(f"{verdict}: median vector/sharded ratio {median:.2f} "
          f"(at least {MIN_RATIO})")
    return 0 if median >= MIN_RATIO else 1


if __name__ == "__main__":
    sys.exit(main())
