"""Per-thread execution phase timelines (the paper's Figure 9).

Each thread's ROI is a sequence of phase intervals:

* ``parallel`` — concurrent computation between critical sections;
* ``coh``      — competition overhead: from issuing the lock acquire to
                 holding the lock (spin retries, coherence round trips,
                 and for QSL possibly a sleep);
* ``cse``      — critical section execution, including the release.

The timeline supports windowed queries so the Figure 9 experiment can
report phase percentages and completed-CS counts over (e.g.) the first
30,000 cycles for the first 8 threads.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence

PHASES = ("parallel", "coh", "cse")


class PhaseInterval(NamedTuple):
    """One thread's stretch of one phase, ``[start, end)``."""

    thread: int
    phase: str
    start: int
    end: int

    @property
    def duration(self) -> int:
        return self.end - self.start

    def overlap(self, lo: int, hi: int) -> int:
        """Cycles of this interval inside [lo, hi)."""
        return max(0, min(self.end, hi) - max(self.start, lo))


class Timeline:
    """Recorder for thread phase intervals."""

    def __init__(self) -> None:
        self.intervals: List[PhaseInterval] = []
        self._open: Dict[int, "tuple[str, int]"] = {}

    def begin(self, thread: int, phase: str, cycle: int) -> None:
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        prior = self._open.get(thread)
        if prior is not None:
            self.end(thread, cycle)
        self._open[thread] = (phase, cycle)

    def end(self, thread: int, cycle: int) -> None:
        phase, start = self._open.pop(thread)
        if cycle > start:
            self.intervals.append(PhaseInterval(thread, phase, start, cycle))

    def close_all(self, cycle: int) -> None:
        for thread in list(self._open):
            self.end(thread, cycle)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def phase_cycles(
        self,
        phase: str,
        window: Optional["tuple[int, int]"] = None,
        threads: Optional[Sequence[int]] = None,
    ) -> int:
        """Total cycles spent in ``phase``, optionally windowed/filtered."""
        total = 0
        for iv in self.intervals:
            if iv.phase != phase:
                continue
            if threads is not None and iv.thread not in threads:
                continue
            if window is None:
                total += iv.duration
            else:
                total += iv.overlap(*window)
        return total

    def phase_breakdown(
        self,
        window: Optional["tuple[int, int]"] = None,
        threads: Optional[Sequence[int]] = None,
    ) -> Dict[str, float]:
        """Fraction of observed cycles per phase (sums to 1 when nonempty)."""
        totals = {
            p: self.phase_cycles(p, window=window, threads=threads) for p in PHASES
        }
        grand = sum(totals.values())
        if grand == 0:
            return {p: 0.0 for p in PHASES}
        return {p: totals[p] / grand for p in PHASES}

    def cs_completed(
        self,
        window: Optional["tuple[int, int]"] = None,
        threads: Optional[Sequence[int]] = None,
    ) -> int:
        """Critical sections whose CSE interval ended inside the window."""
        count = 0
        for iv in self.intervals:
            if iv.phase != "cse":
                continue
            if threads is not None and iv.thread not in threads:
                continue
            if window is not None and not (window[0] <= iv.end < window[1]):
                continue
            count += 1
        return count
