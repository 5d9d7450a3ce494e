"""Directional tests for iNPG's core mechanisms.

These pin the *mechanisms* (early invalidations happen, round trips
shorten, acks get pruned/relayed, correctness holds) rather than
end-to-end speedups, which depend on workload regime (see DESIGN.md §5).
"""

import functools
from dataclasses import replace

from repro import ManyCoreSystem, SystemConfig, single_lock_workload
from repro.config import LockSpinConfig, NocConfig


@functools.lru_cache(maxsize=None)
def contended(mechanism, config=SystemConfig()):
    """64 TAS threads on one lock homed at node 53 (runs are
    deterministic, so each distinct one is simulated once)."""
    wl = single_lock_workload(
        64, home_node=53, cs_per_thread=2,
        cs_cycles=100, parallel_cycles=300,
    )
    return ManyCoreSystem(
        config.with_mechanism(mechanism), wl, primitive="tas"
    ).run(max_cycles=60_000_000)


class TestMechanisms:
    def test_big_routers_generate_early_invalidations(self):
        r = contended("inpg")
        s = r.coherence
        assert s.getx_stopped > 100
        assert s.early_invs_generated == s.getx_stopped

    def test_early_round_trips_shorter_than_direct(self):
        r = contended("inpg")
        by_kind = r.coherence.mean_inv_rtt_by_kind()
        assert by_kind["early"] > 0
        assert by_kind["early"] < by_kind["normal"]

    def test_acks_pruned_or_used_at_winner(self):
        r = contended("inpg")
        s = r.coherence
        used = s.early_acks_consumed_before_txn + sum(
            t.early_acks_used for t in s.lock_txns
        )
        assert used > 0

    def test_mean_rtt_not_worse_under_inpg(self):
        base = contended("original")
        inpg = contended("inpg")
        assert inpg.coherence.mean_inv_rtt <= base.coherence.mean_inv_rtt * 1.1

    def test_same_work_completed(self):
        base = contended("original")
        inpg = contended("inpg")
        assert base.cs_completed == inpg.cs_completed == 128

    def test_roi_within_envelope(self):
        """iNPG must never catastrophically regress the baseline."""
        base = contended("original")
        inpg = contended("inpg")
        assert inpg.roi_cycles <= base.roi_cycles * 1.15


class TestBaselineRegime:
    def test_raw_spinning_baseline_is_lco_heavy(self):
        """With the paper's raw test_and_set spinning, LCO dominates the
        contended baseline (Figure 2's regime)."""
        r = contended("original")
        assert r.lco_fraction > 0.25

    def test_ttas_ablation_reduces_lco(self):
        raw = contended("original")
        ttas = contended("original", SystemConfig(
            spin=LockSpinConfig(raw_spin=False)))
        # the software fix removes a large share of lock txn traffic
        assert len(ttas.coherence.lock_txns) < len(raw.coherence.lock_txns)


class TestSubstrateAblations:
    """How the substrate's modelling choices (DESIGN.md §6) move the
    contended baseline."""

    def test_roi_rises_with_router_pipeline_depth(self):
        rois = {
            depth: contended("original", SystemConfig(
                noc=NocConfig(router_pipeline_cycles=depth))).roi_cycles
            for depth in (1, 2, 4)
        }
        assert rois[1] < rois[2] < rois[4]

    def test_virtual_networks_shorten_inv_ack_round_trips(self):
        """Without them, control queues behind data."""
        shared = contended("original", SystemConfig(
            noc=NocConfig(virtual_networks=False)))
        assert shared.coherence.mean_inv_rtt > \
            contended("original").coherence.mean_inv_rtt

    def test_spin_interval_paces_without_changing_the_work(self):
        """The retry interval paces raw spinning; its ROI effect is
        nonmonotonic (fewer retries also mean less contention), but the
        lock-transaction counts stay comparable."""
        counts = [
            len(contended("original", SystemConfig(
                spin=LockSpinConfig(spin_interval=interval)
            )).coherence.lock_txns)
            for interval in (10, 40, 160)
        ]
        assert all(c > 0 for c in counts)
        assert max(counts) < 2 * min(counts)

    def test_inpg_without_big_routers_is_the_baseline(self):
        base = SystemConfig()
        zero = replace(base, inpg=replace(base.inpg, num_big_routers=0))
        assert contended("inpg", zero).roi_cycles == \
            contended("original").roi_cycles
