"""Experiment harnesses: one module per table/figure in the paper.

======================  ==============================================
Module                  Paper content
======================  ==============================================
``table1_config``       Table 1 — platform configuration
``fig02_lco``           Figure 2 — LCO share per primitive
``fig07_synthesis``     Figure 7 — router synthesis accounting
``fig08_cs_chars``      Figure 8 — CS characteristics and groups
``fig09_timing_profile`` Figure 9 — freqmine phase timing profile
``fig10_rtt``           Figure 10 — Inv-Ack round-trip delays
``fig11_cs_expedition`` Figure 11 — CS expedition by mechanism
``fig12_roi``           Figure 12 — ROI finish time by mechanism
``fig13_primitives``    Figure 13 — iNPG per locking primitive
``fig14_deployment``    Figure 14 — big-router deployment sweep
``fig15_sensitivity``   Figure 15 — mesh size and table size sweep
``ablation_lco``        LCO ablation (beyond-paper knobs)
``ablation_protocol``   protocol family ablation (beyond-paper)
``ablation_topology``   topology/placement ablation (beyond-paper)
``claims``              the paper's claims about Figures 2-15 and
                        Table 1, checked against the harnesses above
======================  ==============================================
"""

from .. import _lazy
from .common import (
    ExperimentOptions,
    benchmarks_for,
    cached_run,
    clear_cache,
    execute,
    format_table,
    get_executor,
    run_mechanism_matrix,
    set_executor,
)

#: the sweep builder and the harness modules, each imported on first
#: access: regenerating one figure loads no other figure's module
__getattr__, __dir__ = _lazy.lazy_names(globals(), {
    "Sweep": ".sweep",
    "SweepPoint": ".sweep",
    "vary": ".sweep",
    **dict.fromkeys((
        "ablation_lco",
        "ablation_protocol",
        "ablation_topology",
        "claims",
        "fig02_lco",
        "fig07_synthesis",
        "fig08_cs_chars",
        "fig09_timing_profile",
        "fig10_rtt",
        "fig11_cs_expedition",
        "fig12_roi",
        "fig13_primitives",
        "fig14_deployment",
        "fig15_sensitivity",
        "table1_config",
    )),
})

__all__ = [
    "ExperimentOptions",
    "ablation_lco",
    "ablation_protocol",
    "ablation_topology",
    "benchmarks_for",
    "cached_run",
    "claims",
    "execute",
    "get_executor",
    "run_mechanism_matrix",
    "set_executor",
    "clear_cache",
    "fig02_lco",
    "fig07_synthesis",
    "fig08_cs_chars",
    "fig09_timing_profile",
    "fig10_rtt",
    "fig11_cs_expedition",
    "fig12_roi",
    "fig13_primitives",
    "fig14_deployment",
    "fig15_sensitivity",
    "format_table",
    "Sweep",
    "SweepPoint",
    "table1_config",
    "vary",
]
