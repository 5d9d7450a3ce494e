"""Synthetic PARSEC / SPEC OMP2012 workload profiles and generation.

The profiles load with the package; the generator, which a cache
replay never runs, loads on first access.
"""

from .. import _lazy
from .profiles import (
    ALL_PROFILES,
    OMP2012,
    OMP2012_PROFILES,
    PARSEC,
    PARSEC_PROFILES,
    BenchmarkProfile,
    get_profile,
    group_of,
    grouped_profiles,
)

__getattr__, __dir__ = _lazy.lazy_names(globals(), {
    "WorkItem": ".generator",
    "Workload": ".generator",
    "generate_workload": ".generator",
    "single_lock_workload": ".generator",
})

__all__ = [
    "ALL_PROFILES",
    "BenchmarkProfile",
    "OMP2012",
    "OMP2012_PROFILES",
    "PARSEC",
    "PARSEC_PROFILES",
    "WorkItem",
    "Workload",
    "generate_workload",
    "get_profile",
    "group_of",
    "grouped_profiles",
    "single_lock_workload",
]
