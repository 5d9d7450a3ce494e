"""The pinned uniform flit stream.

Every pinned flit drive draws its packets from this one generator: the
flit goldens (``tests/test_golden_determinism.py``), the engine and
shard parity tests, the sharded-drive speed check
(``scripts/sharded_speedup.py``) and the benchmark's 32x32
``flit_mesh32`` drive (``perfbench/test_perfbench.py`` checks its plan
against this one).
"""

from __future__ import annotations

from ..sim import make_rng


def _uniform_flit_plan(packets: int, nodes: int, per_cycle: int, seed: int):
    """Uniform random ``(cycle, src, dst, length)`` rows: ``per_cycle``
    injections a cycle, every fourth packet an 8-flit burst, the rest
    single flits, drawn from the ``make_rng(seed, "perf/flit")`` stream."""
    rng = make_rng(seed, "perf/flit")
    plan = []
    for i in range(packets):
        src = rng.randrange(nodes)
        dst = rng.randrange(nodes)
        while dst == src:
            dst = rng.randrange(nodes)
        plan.append((i // per_cycle, src, dst, 8 if i % 4 == 0 else 1))
    return plan
