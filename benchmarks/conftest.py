"""Shared fixtures for the figure-regeneration benchmarks.

Each benchmark regenerates one of the paper's tables/figures and prints
the same rows the paper reports.  By default a representative subset of
benchmarks (two per Figure 8 group) and a reduced workload scale keep
the suite fast; set ``REPRO_FULL=1`` to sweep all 24 programs at full
scale, as the paper does.

All simulations route through the shared :mod:`repro.exec` executor, so
``REPRO_JOBS=N`` parallelizes each figure's run plan and a warm
``.repro-cache/`` (or ``REPRO_CACHE_DIR``) answers repeated figure
regeneration without re-simulating; the run-execution summary prints at
session teardown.

The flit-level NoC benches are engine-parameterized: ``--flit-engine
vector`` (or ``REPRO_FLIT_ENGINE=vector``) reruns them on the
cycle-batched vector engine instead of the event-driven reference —
both are bit-exact, so the printed latencies must not move.
"""

import os

import pytest

from repro.config import FLIT_ENGINES


def pytest_addoption(parser):
    parser.addoption(
        "--flit-engine",
        default=os.environ.get("REPRO_FLIT_ENGINE", "event"),
        choices=FLIT_ENGINES,
        help="engine the flit-level NoC benches construct their "
             "networks with (default: event, or REPRO_FLIT_ENGINE)",
    )


@pytest.fixture(scope="session")
def flit_engine(request) -> str:
    """The flit engine selected for this bench session."""
    return request.config.getoption("--flit-engine")


@pytest.fixture(scope="session", autouse=True)
def exec_summary():
    """Print executed-vs-cached accounting once the suite finishes."""
    yield
    from repro.experiments import common

    executor = common.get_executor()
    if executor.stats.requested:
        cache_dir = (
            str(executor.cache.directory)
            if executor.cache.directory is not None
            else None
        )
        print()
        print(executor.stats.render_footer(jobs=executor.jobs,
                                           cache_dir=cache_dir))


def full() -> bool:
    return os.environ.get("REPRO_FULL", "") not in ("", "0")


@pytest.fixture(scope="session")
def sweep_quick() -> bool:
    """False when REPRO_FULL=1: sweep all 24 programs."""
    return not full()


@pytest.fixture(scope="session")
def sweep_scale() -> float:
    """Workload scale for sweeps (1.0 when REPRO_FULL=1)."""
    return 1.0 if full() else 0.5


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
