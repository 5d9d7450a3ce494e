"""Unit tests for statistics: coherence stats, timeline, histogram, metrics."""

import pytest

from repro.stats import (
    CoherenceStats,
    Histogram,
    RunResult,
    ThreadMetrics,
    Timeline,
)


class TestCoherenceStats:
    def test_inv_rtt_aggregates(self):
        s = CoherenceStats()
        s.inv_completed(1, created=10, consumed=40, early=False)
        s.inv_completed(2, created=10, consumed=20, early=True)
        assert s.mean_inv_rtt == 20.0
        assert s.max_inv_rtt == 30
        by_kind = s.mean_inv_rtt_by_kind()
        assert by_kind["early"] == 10.0
        assert by_kind["normal"] == 30.0

    def test_rtt_by_core(self):
        s = CoherenceStats()
        s.inv_completed(5, 0, 10, False)
        s.inv_completed(5, 0, 30, False)
        s.inv_completed(7, 0, 8, True)
        per_core = s.inv_rtt_by_core()
        assert per_core[5] == 20.0
        assert per_core[7] == 8.0

    def test_lock_txn_lifecycle(self):
        s = CoherenceStats()
        s.txn_started(1, addr=0x100, winner=3, start=100, invs_sent=5)
        s.txn_committed(1, commit=180, early_acks_used=2)
        assert len(s.lock_txns) == 1
        rec = s.lock_txns[0]
        assert rec.duration == 80
        assert rec.invs_sent == 5
        assert rec.early_acks_used == 2
        assert s.total_lco == 80

    def test_unknown_txn_commit_ignored(self):
        s = CoherenceStats()
        s.txn_committed(99, commit=50, early_acks_used=0)
        assert s.lock_txns == []

    def test_empty_aggregates(self):
        s = CoherenceStats()
        assert s.mean_inv_rtt == 0.0
        assert s.max_inv_rtt == 0
        assert s.total_lco == 0


class TestTimeline:
    def test_phase_intervals_recorded(self):
        t = Timeline()
        t.begin(0, "parallel", 0)
        t.begin(0, "coh", 100)
        t.begin(0, "cse", 150)
        t.end(0, 200)
        assert len(t.intervals) == 3
        assert t.phase_cycles("parallel") == 100
        assert t.phase_cycles("coh") == 50
        assert t.phase_cycles("cse") == 50

    def test_unknown_phase_rejected(self):
        t = Timeline()
        with pytest.raises(ValueError):
            t.begin(0, "mystery", 0)

    def test_windowed_query_clips_intervals(self):
        t = Timeline()
        t.begin(0, "parallel", 0)
        t.end(0, 100)
        assert t.phase_cycles("parallel", window=(50, 80)) == 30
        assert t.phase_cycles("parallel", window=(90, 200)) == 10
        assert t.phase_cycles("parallel", window=(100, 200)) == 0

    def test_breakdown_fractions_sum_to_one(self):
        t = Timeline()
        t.begin(1, "parallel", 0)
        t.begin(1, "coh", 60)
        t.begin(1, "cse", 80)
        t.end(1, 100)
        frac = t.phase_breakdown()
        assert abs(sum(frac.values()) - 1.0) < 1e-9
        assert frac["parallel"] == 0.6

    def test_thread_filter(self):
        t = Timeline()
        t.begin(0, "cse", 0)
        t.end(0, 10)
        t.begin(1, "cse", 0)
        t.end(1, 30)
        assert t.phase_cycles("cse", threads=[1]) == 30

    def test_cs_completed_counts_cse_ends_in_window(self):
        t = Timeline()
        for i, (start, end) in enumerate([(0, 10), (20, 35), (50, 90)]):
            t.begin(0, "cse", start)
            t.end(0, end)
        assert t.cs_completed() == 3
        assert t.cs_completed(window=(0, 40)) == 2

    def test_close_all_flushes_open_intervals(self):
        t = Timeline()
        t.begin(3, "coh", 10)
        t.close_all(25)
        assert t.phase_cycles("coh") == 15


class TestHistogram:
    def test_binning_and_stats(self):
        h = Histogram(bin_width=10)
        h.extend([0, 5, 10, 99])
        assert h.count == 4
        assert h.max_sample == 99
        assert dict(h.bins())[0] == 2
        assert dict(h.bins())[90] == 1
        assert h.mean == pytest.approx(28.5)

    def test_negative_sample_rejected(self):
        h = Histogram()
        with pytest.raises(ValueError):
            h.add(-1)

    def test_render_produces_rows(self):
        h = Histogram(bin_width=5)
        h.extend([1, 2, 3, 11])
        out = h.render()
        assert len(out.splitlines()) == 2
        assert "#" in out


class TestRunResult:
    def _result(self, roi=1000, coh=(100, 200), cse=(50, 50)):
        threads = []
        for i, (c, e) in enumerate(zip(coh, cse)):
            tm = ThreadMetrics(thread=i)
            tm.coh_cycles = c
            tm.cse_cycles = e
            tm.cs_completed = 2
            threads.append(tm)
        return RunResult(
            mechanism="original", primitive="qsl", benchmark="x",
            roi_cycles=roi, threads=threads,
            coherence=CoherenceStats(), timeline=Timeline(),
        )

    def test_totals(self):
        r = self._result()
        assert r.total_coh == 300
        assert r.total_cse == 100
        assert r.total_cs_time == 400
        assert r.cs_completed == 4

    def test_speedup_and_expedition(self):
        slow = self._result(roi=2000, coh=(400, 400), cse=(100, 100))
        fast = self._result(roi=1000, coh=(100, 100), cse=(100, 100))
        assert fast.speedup_vs(slow) == 2.0
        assert fast.cs_expedition_vs(slow) == pytest.approx(2.5)

    def test_lco_fraction_clamped(self):
        r = self._result(roi=10)
        r.coherence.txn_started(1, 0, 0, 0, 0)
        r.coherence.txn_committed(1, 100, 0)
        assert r.lco_fraction == 1.0

    def test_summary_keys(self):
        keys = self._result().summary().keys()
        for expected in ("roi_cycles", "cs_completed", "lco_fraction"):
            assert expected in keys
