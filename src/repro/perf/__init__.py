"""The pinned flit stream (:mod:`repro.perf.workloads`).

The simulator's speed is measured by the repository benchmark
(``perfbench/``, declared by ``BENCHMARK.json``).  This package stays
only because its one generator, ``_uniform_flit_plan``, is imported
from here by the benchmark's own tests and by the flit pins.
"""
