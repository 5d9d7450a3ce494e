"""The paper's claims about its figures, in one table.

Each :class:`Claim` row names a figure, the paper's value (from the
figure harness's ``PAPER*`` constant where it has one), a metric over
that figure's harness result, and the envelope the measured value must
fall in.  The envelopes check shapes (orderings, directions, "no
material regression"), not magnitudes: our baseline protocol is
stronger than the paper's, so the mechanisms' gains come out
compressed, and the rows where that shows point to DESIGN.md §5.  A
claim outside its envelope is reported as failing, never widened.

``run(options)`` regenerates every figure the table reads through the
shared executor (Figures 8, 11, 12 and 14 share runs) and evaluates
every row; ``render()`` prints each row with its verdict, and
``report()`` writes each figure followed by its rows (EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Tuple

from ..config import PRIMITIVES
from ..workloads.profiles import group_of
from . import (
    fig02_lco,
    fig07_synthesis,
    fig08_cs_chars,
    fig09_timing_profile,
    fig10_rtt,
    fig11_cs_expedition,
    fig12_roi,
    fig13_primitives,
    fig14_deployment,
    fig15_sensitivity,
    table1_config,
)
from .common import ExperimentOptions, format_table

#: where a row's measured magnitude differs from the paper's
MAGNITUDES = "DESIGN.md §5"

#: envelope operator -> test of (measured, bound, paper value); ``±``
#: bounds the distance from the paper's value
_OPS: Dict[str, Callable[[Any, Any, Any], bool]] = {
    ">": lambda measured, bound, paper: measured > bound,
    ">=": lambda measured, bound, paper: measured >= bound,
    "<": lambda measured, bound, paper: measured < bound,
    "<=": lambda measured, bound, paper: measured <= bound,
    "==": lambda measured, bound, paper: measured == bound,
    "±": lambda measured, bound, paper: abs(measured - paper) < bound,
}


@dataclass(frozen=True)
class Claim:
    """One claim: ``metric(<figure's result>) <op> bound``."""

    #: the figure, named as ``inpg-experiments`` names it
    figure: str
    name: str
    #: the paper's value of the metric; ``None`` where it reports none
    paper: Any
    metric: Callable[[Any], Any]
    op: str
    bound: Any
    #: :data:`MAGNITUDES` where our magnitude differs from the paper's
    note: str = ""

    def holds(self, measured: Any) -> bool:
        return _OPS[self.op](measured, self.bound, self.paper)

    def envelope(self) -> str:
        if self.op == "±":
            return f"{_fmt(self.paper)} ± {_fmt(self.bound)}"
        return f"{self.op} {_fmt(self.bound)}"


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _same(values: Iterable[Any]) -> Any:
    """The one value every item has, else all distinct values."""
    distinct = sorted(set(values))
    return distinct[0] if len(distinct) == 1 else tuple(distinct)


def _fig15(options: ExperimentOptions):
    # the 16x16 mesh is the suite's slowest single simulation: only a
    # full sweep runs it
    dims = fig15_sensitivity.MESH_DIMS
    return fig15_sensitivity.run(options,
                                 dims=dims if not options.quick else dims[:-1])


#: figure -> how the table regenerates it, in the paper's order
FIGURES: Dict[str, Callable[[ExperimentOptions], Any]] = {
    "table1": table1_config.run,
    "fig2": fig02_lco.run,
    "fig7": fig07_synthesis.run,
    "fig8": fig08_cs_chars.run,
    "fig9": fig09_timing_profile.run,
    "fig10": fig10_rtt.run,
    "fig11": fig11_cs_expedition.run,
    "fig12": fig12_roi.run,
    "fig13": fig13_primitives.run,
    "fig14": fig14_deployment.run,
    "fig15": _fig15,
}


def _lco_claims(bench: str) -> Tuple[Claim, ...]:
    """Figure 2 on one program: MCS at or near the bottom, TAS at or
    near the top, and LCO heavy under TAS."""
    paper = {p: fig02_lco.PAPER_LCO[(bench, p)] for p in PRIMITIVES}

    def lco(result) -> Dict[str, float]:
        return result.lco[bench]

    return (
        Claim("fig2", f"{bench}: MCS LCO minus the lowest primitive's",
              paper["mcs"] - min(paper.values()),
              lambda r: lco(r)["mcs"] - min(lco(r).values()), "<=", 0.05),
        Claim("fig2", f"{bench}: highest primitive's LCO minus TAS",
              max(paper.values()) - paper["tas"],
              lambda r: max(lco(r).values()) - lco(r)["tas"], "<=", 0.10),
        Claim("fig2", f"{bench}: TAS LCO share", paper["tas"],
              lambda r: lco(r)["tas"], ">", 0.10, MAGNITUDES),
        Claim("fig2", f"{bench}: TAS minus MCS LCO share",
              paper["tas"] - paper["mcs"],
              lambda r: lco(r)["tas"] - lco(r)["mcs"], ">", 0, MAGNITUDES),
    )


def _profile_claims(mech: str) -> Tuple[Claim, ...]:
    """Figure 9 for one mechanism against Original: no blown-up
    competition phase, and comparable progress."""
    paper = fig09_timing_profile.PAPER[mech]
    base = fig09_timing_profile.PAPER["original"]

    def rows(result):
        by_mech = result.by_mechanism()
        return by_mech[mech], by_mech["original"]

    return (
        Claim("fig9", f"{mech} COH share minus original's",
              paper["coh"] - base["coh"],
              lambda r: rows(r)[0].coh_share - rows(r)[1].coh_share,
              "<", 0.10, MAGNITUDES),
        Claim("fig9", f"{mech} CS completed / original's",
              paper["cs"] / base["cs"],
              lambda r: rows(r)[0].cs_completed / rows(r)[1].cs_completed,
              ">=", 0.85, MAGNITUDES),
    )


def _heat_map_shape(result) -> str:
    heat = result.heat_map("original")
    widths = sorted({len(row) for row in heat})
    return f"{len(heat)}x{'/'.join(map(str, widths))}"


#: every claim the paper's evaluation makes that this reproduction
#: checks, in figure order
CLAIMS: Tuple[Claim, ...] = (
    Claim("table1", "NoC", "8x8 mesh",
          lambda r: f"{r.config.noc.width}x{r.config.noc.height} mesh",
          "==", "8x8 mesh"),
    Claim("table1", "OCOR retries before sleeping", 128,
          lambda r: r.config.ocor.retry_times, "==", 128),
    *(c for bench in fig02_lco.BENCHMARKS for c in _lco_claims(bench)),
    Claim("fig7", "normal router gates", 19_900,
          lambda r: r.normal.gates, "==", 19_900),
    Claim("fig7", "big router gates", 22_400,
          lambda r: r.big.gates, "==", 22_400),
    Claim("fig7", "packet generator gates", 2_500,
          lambda r: r.generator_gates, "==", 2_500),
    Claim("fig7", "packet generator power over a normal router", 0.099,
          lambda r: r.generator_power_overhead, "±", 0.005),
    Claim("fig7", "big tile power (mW)", 716.1,
          lambda r: r.chip["big_tile_power_mw"], "±", 0.1),
    Claim("fig7", "normal tile power (mW)", 707.7,
          lambda r: r.chip["normal_tile_power_mw"], "±", 0.1),
    Claim("fig8", "programs swept", 24, lambda r: len(r.stats), ">=", 6),
    Claim("fig8", "heaviest minus lightest total CS time (cycles)", None,
          lambda r: (r.sorted_by_cs_time()[-1].total_cs_time
                     - r.sorted_by_cs_time()[0].total_cs_time), ">", 0),
    Claim("fig8", "least Group 3 COH minus CSE (cycles)", None,
          lambda r: min(s.total_coh - s.total_cse
                        for s in r.stats if s.group == 3), ">", 0),
    Claim("fig8", "group of the lightest program", 1,
          lambda r: r.sorted_by_cs_time()[0].group, "==", 1),
    Claim("fig8", "group of the heaviest program", 3,
          lambda r: r.sorted_by_cs_time()[-1].group, "==", 3),
    Claim("fig9", "original COH share",
          fig09_timing_profile.PAPER["original"]["coh"],
          lambda r: r.by_mechanism()["original"].coh_share, ">", 0.05,
          MAGNITUDES),
    *(c for mech in ("ocor", "inpg", "inpg+ocor")
      for c in _profile_claims(mech)),
    Claim("fig10", "inpg minus original mean Inv-Ack RTT (cycles)",
          fig10_rtt.PAPER["inpg"]["mean"]
          - fig10_rtt.PAPER["original"]["mean"],
          lambda r: (r.results["inpg"].mean_rtt
                     - r.results["original"].mean_rtt),
          "<", 0, MAGNITUDES),
    Claim("fig10", "inpg early-invalidation share", None,
          lambda r: r.results["inpg"].early_share, ">", 0.05),
    Claim("fig10", "inpg RTT histogram samples", None,
          lambda r: r.results["inpg"].histogram.count, ">", 0),
    Claim("fig10", "original per-core mean RTT spread (cycles)", None,
          lambda r: (max(r.results["original"].per_core.values())
                     - min(r.results["original"].per_core.values())), ">", 0),
    Claim("fig10", "original heat map (rows x columns)", "8x8",
          _heat_map_shape, "==", "8x8"),
    Claim("fig11", "original average CS expedition", 1.0,
          lambda r: r.overall_average("original"), "==", 1.0),
    Claim("fig11", "inpg average CS expedition",
          fig11_cs_expedition.PAPER_AVERAGES["inpg"],
          lambda r: r.overall_average("inpg"), ">", 0.85, MAGNITUDES),
    Claim("fig11", "lowest Group 3 inpg CS expedition", None,
          lambda r: min(per["inpg"] for bench, per in r.expedition.items()
                        if group_of(bench) == 3), ">", 0.8, MAGNITUDES),
    *(Claim("fig12", f"{mech} average ROI reduction", paper,
            lambda r, mech=mech: r.average_reduction(mech), ">", -0.08,
            MAGNITUDES)
      for mech, paper in fig12_roi.PAPER_REDUCTION.items()),
    Claim("fig12", "original ROI relative to itself, every program", 1.0,
          lambda r: _same(per["original"] for per in r.relative_roi.values()),
          "==", 1.0),
    *(Claim("fig13", f"{fig13_primitives.LABELS[prim]} average inpg ROI "
            f"reduction", fig13_primitives.PAPER_REDUCTION[prim],
            lambda r, prim=prim: r.average_reduction(prim), ">", -0.15,
            MAGNITUDES)
      for prim in PRIMITIVES),
    Claim("fig14", "average CS expedition, 0 big routers", 1.0,
          lambda r: r.average(0), "==", 1.0),
    Claim("fig14", "average CS expedition, 32 big routers", None,
          lambda r: r.average(32), ">", 0.85, MAGNITUDES),
    Claim("fig14", "64 vs 32 big routers, average CS expedition distance",
          None, lambda r: abs(r.average(64) - r.average(32)), "<", 0.25),
    Claim("fig15", "2x2 inpg ROI reduction magnitude, 16-entry table",
          fig15_sensitivity.PAPER_BY_DIM[2],
          lambda r: abs(r.reduction[(2, 16)]), "<", 0.10),
    *(Claim("fig15", f"largest mesh inpg ROI reduction, {size}-entry table",
            None, lambda r, size=size: r.reduction[(max(r.dims), size)],
            ">", -0.12, MAGNITUDES)
      for size in fig15_sensitivity.TABLE_SIZES),
)


@dataclass
class ClaimsResult:
    #: figure -> its harness result, in :data:`FIGURES` order
    figures: Dict[str, Any]

    def outcomes(self) -> List[Tuple[Claim, Any, bool]]:
        """``(claim, measured, holds)`` for every row of :data:`CLAIMS`."""
        out = []
        for claim in CLAIMS:
            measured = claim.metric(self.figures[claim.figure])
            out.append((claim, measured, claim.holds(measured)))
        return out

    def failures(self) -> List[str]:
        return [
            f"{claim.figure}: {claim.name}: measured {_fmt(measured)}, "
            f"envelope {claim.envelope()}"
            for claim, measured, holds in self.outcomes() if not holds
        ]

    def render(self) -> str:
        outcomes = self.outcomes()
        held = sum(holds for _claim, _measured, holds in outcomes)
        return format_table(
            ["figure", "claim", "paper", "measured", "envelope", "result",
             "see"],
            [[claim.figure, claim.name, _fmt(claim.paper), _fmt(measured),
              claim.envelope(), "PASS" if holds else "FAIL", claim.note]
             for claim, measured, holds in outcomes],
            title=f"The paper's claims: {held} of {len(outcomes)} hold",
        )

    def report(self) -> str:
        """Markdown: each figure's table, then its claims."""
        outcomes = self.outcomes()
        parts = []
        for figure, result in self.figures.items():
            heading = figure.replace("table", "Table ").replace("fig",
                                                                "Figure ")
            parts += [
                f"## {heading}", "", "```", result.render(), "```", "",
                "| claim | paper | measured | envelope | result | see |",
                "|---|---|---|---|---|---|",
            ]
            parts += [
                f"| {claim.name} | {_fmt(claim.paper)} | {_fmt(measured)} "
                f"| {claim.envelope()} | {'PASS' if holds else 'FAIL'} "
                f"| {claim.note} |"
                for claim, measured, holds in outcomes
                if claim.figure == figure
            ]
            parts.append("")
        return "\n".join(parts)


def run(options: "ExperimentOptions" = None) -> ClaimsResult:
    opts = options or ExperimentOptions()
    return ClaimsResult(
        figures={figure: regenerate(opts)
                 for figure, regenerate in FIGURES.items()})


def main() -> None:  # pragma: no cover - CLI entry
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
