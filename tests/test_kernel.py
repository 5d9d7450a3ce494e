"""Unit tests for the event-driven simulation kernel."""

import sys

import pytest

from repro.sim import Event, SimulationError, Simulator, kernel


class TestScheduling:
    def test_events_fire_in_cycle_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(5, lambda: fired.append(5))
        sim.schedule(1, lambda: fired.append(1))
        sim.schedule(3, lambda: fired.append(3))
        sim.run()
        assert fired == [1, 3, 5]

    def test_same_cycle_fifo_order(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(7, lambda i=i: fired.append(i))
        sim.run()
        assert fired == list(range(10))

    def test_same_cycle_fifo_across_fast_and_cancellable(self):
        """Fast tuple entries and cancellable Event entries scheduled for
        the same cycle still interleave in submission (seq) order."""
        sim = Simulator()
        fired = []
        sim.schedule(4, fired.append, "fast0")
        sim.schedule_cancellable(4, fired.append, "timer0")
        sim.schedule(4, fired.append, "fast1")
        sim.schedule_cancellable(4, fired.append, "timer1")
        sim.run()
        assert fired == ["fast0", "timer0", "fast1", "timer1"]

    def test_schedule_passes_args(self):
        sim = Simulator()
        got = []
        sim.schedule(2, lambda a, b, c: got.append((a, b, c)), 1, "x", None)
        sim.schedule(3, got.append, "bound")
        sim.run()
        assert got == [(1, "x", None), "bound"]

    def test_zero_delay_fires_same_cycle(self):
        sim = Simulator()
        seen = {}
        def outer():
            sim.schedule(0, lambda: seen.setdefault("inner", sim.cycle))
        sim.schedule(4, outer)
        sim.run()
        assert seen["inner"] == 4

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_cancellable(-1, lambda: None)

    def test_schedule_at_absolute_cycle(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(12, lambda: seen.append(sim.cycle))
        sim.run()
        assert seen == [12]

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)


class TestExecution:
    def test_run_until_pauses_and_resumes(self):
        sim = Simulator()
        fired = []
        sim.schedule(3, lambda: fired.append("a"))
        sim.schedule(10, lambda: fired.append("b"))
        sim.run(until=5)
        assert fired == ["a"]
        assert sim.cycle == 5
        sim.run()
        assert fired == ["a", "b"]
        assert sim.cycle == 10

    def test_run_until_pushback_is_exact(self):
        """Pausing at ``until`` keeps the future event intact: resuming
        fires it at exactly its original cycle, FIFO order preserved."""
        sim = Simulator()
        fired = []
        sim.schedule(100, lambda: fired.append(("x", sim.cycle)))
        sim.schedule(100, lambda: fired.append(("y", sim.cycle)))
        for pause in (10, 50, 99):
            sim.run(until=pause)
            assert sim.cycle == pause
            assert fired == []
        sim.run()
        assert fired == [("x", 100), ("y", 100)]

    def test_run_until_advances_clock_when_queue_drains(self):
        sim = Simulator()
        sim.schedule(2, lambda: None)
        sim.run(until=100)
        assert sim.cycle == 100

    def test_stop_halts_processing(self):
        sim = Simulator()
        fired = []
        def stopper():
            fired.append("stop")
            sim.stop()
        sim.schedule(1, stopper)
        sim.schedule(2, lambda: fired.append("late"))
        sim.run()
        assert fired == ["stop"]

    def test_stop_halts_within_same_cycle_batch(self):
        sim = Simulator()
        fired = []
        def stopper():
            fired.append("stop")
            sim.stop()
        sim.schedule(3, stopper)
        sim.schedule(3, lambda: fired.append("same-cycle-later"))
        sim.run()
        assert fired == ["stop"]

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_max_events_bounds_run(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(i, lambda: None)
        sim.run(max_events=4)
        assert sim.events_processed == 4


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_cancellable(5, lambda: fired.append("x"))
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancellable_fires_with_args(self):
        sim = Simulator()
        fired = []
        sim.schedule_cancellable(5, fired.append, "payload")
        sim.run()
        assert fired == ["payload"]

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_cancellable(1, fired.append, "once")
        sim.run()
        event.cancel()  # must not corrupt the corpse accounting
        assert fired == ["once"]
        assert sim.live_pending_events == 0
        assert sim.pending_events == 0

    def test_peek_next_cycle_skips_cancelled(self):
        sim = Simulator()
        first = sim.schedule_cancellable(1, lambda: None)
        sim.schedule(9, lambda: None)
        first.cancel()
        assert sim.peek_next_cycle() == 9

    def test_peek_empty_queue(self):
        sim = Simulator()
        assert sim.peek_next_cycle() is None

    def test_drain_returns_live_events(self):
        sim = Simulator()
        sim.schedule(1, lambda: None)
        dead = sim.schedule_cancellable(2, lambda: None)
        dead.cancel()
        pending = sim.drain()
        assert len(pending) == 1
        assert sim.pending_events == 0
        assert sim.live_pending_events == 0

    def test_drain_preserves_args(self):
        sim = Simulator()
        got = []
        sim.schedule(3, got.append, "early")
        sim.schedule_cancellable(7, got.append, "late")
        pending = sim.drain()
        assert [cycle for cycle, _ in pending] == [3, 7]
        for _, fn in pending:
            fn()
        assert got == ["early", "late"]

    def test_live_pending_counts_only_live(self):
        """pending_events includes lazily-deleted corpses;
        live_pending_events does not."""
        sim = Simulator()
        events = [sim.schedule_cancellable(10, lambda: None)
                  for _ in range(8)]
        sim.schedule(10, lambda: None)
        for event in events[:3]:
            event.cancel()
        assert sim.pending_events == 9
        assert sim.live_pending_events == 6


class TestCompaction:
    def test_retry_storm_triggers_compaction(self):
        """Threshold-triggered compaction bounds corpse accumulation
        (the lock-retry-storm pathology: cancel + re-arm in a loop)."""
        sim = Simulator()
        storm = 10 * Simulator.COMPACT_MIN_CANCELLED
        for _ in range(storm):
            sim.schedule_cancellable(1000, lambda: None).cancel()
        assert sim.compactions >= 1
        # corpses never exceed ~threshold once live events are few
        assert sim.pending_events < 2 * Simulator.COMPACT_MIN_CANCELLED
        assert sim.live_pending_events == 0

    def test_compaction_preserves_order_and_liveness(self):
        sim = Simulator()
        fired = []
        sim.schedule(500, lambda: fired.append("fast"))
        keeper = sim.schedule_cancellable(400, fired.append, "keeper")
        for _ in range(5 * Simulator.COMPACT_MIN_CANCELLED):
            sim.schedule_cancellable(1000, lambda: None).cancel()
        assert sim.compactions >= 1
        assert keeper.cancelled is False
        sim.run()
        assert fired == ["keeper", "fast"]

    def test_cancel_during_compacted_state_is_safe(self):
        """Cancelling an event the compactor already reaped must not
        corrupt the corpse counter (no negative live counts)."""
        sim = Simulator()
        victims = [sim.schedule_cancellable(1000, lambda: None)
                   for _ in range(3 * Simulator.COMPACT_MIN_CANCELLED)]
        for event in victims:
            event.cancel()
        assert sim.compactions >= 1
        # double-cancel every victim after compaction reaped them
        for event in victims:
            event.cancel()
        assert sim.live_pending_events >= 0
        assert sim.live_pending_events == sim.pending_events - sim._cancelled
        sim.schedule(1, lambda: None)
        assert sim.run() == 1

    def test_compaction_inside_run_keeps_new_events_live(self):
        """Compaction triggered from *inside* an event callback (the
        barrier-TTL-cancel path during a lock-retry storm) must not
        strand events scheduled afterwards: run() iterates a local alias
        of the queue, so _compact() has to rebuild it in place."""
        sim = Simulator()
        fired = []
        victims = [sim.schedule_cancellable(1000, lambda: None)
                   for _ in range(3 * Simulator.COMPACT_MIN_CANCELLED)]

        def storm():
            for event in victims:
                event.cancel()
            assert sim.compactions >= 1
            sim.schedule(5, fired.append, "after-compaction")

        sim.schedule(1, storm)
        final = sim.run()
        assert fired == ["after-compaction"]
        assert final == 6
        assert sim._cancelled >= 0
        assert sim.live_pending_events == 0
        assert sim.pending_events == 0

    def test_cancellation_of_event_popped_by_peek(self):
        sim = Simulator()
        event = sim.schedule_cancellable(5, lambda: None)
        event.cancel()
        assert sim.peek_next_cycle() is None
        event.cancel()  # corpse already reaped by peek
        assert sim.live_pending_events == 0


class TestEventOrdering:
    def test_event_lt_by_cycle_then_seq(self):
        a = Event(1, 5, lambda: None)
        b = Event(2, 0, lambda: None)
        c = Event(1, 6, lambda: None)
        assert a < b
        assert a < c
        assert not (b < a)

    def test_nested_scheduling_maintains_order(self):
        sim = Simulator()
        order = []
        def chain(n):
            order.append(n)
            if n < 5:
                sim.schedule(1, lambda: chain(n + 1))
        sim.schedule(0, lambda: chain(0))
        sim.run()
        assert order == [0, 1, 2, 3, 4, 5]
        assert sim.cycle == 5


class TestBucketContract:
    """What the run loop promises about one cycle's FIFO bucket: where a
    halted or failed run resumes, what it counts, and where a scheduled
    event lands.  Every run of the simulator depends on these."""

    def test_raise_mid_bucket_leaves_suffix_resumable(self):
        sim = Simulator()
        fired = []

        def boom():
            fired.append("boom")
            sim.schedule(0, fired.append, "z")
            raise RuntimeError("callback failed")

        sim.schedule(3, fired.append, "a")
        sim.schedule(3, boom)
        sim.schedule(3, fired.append, "b")
        sim.schedule(3, fired.append, "c")
        sim.schedule(5, fired.append, "d")
        with pytest.raises(RuntimeError):
            sim.run()
        assert fired == ["a", "boom"]
        assert sim.cycle == 3
        # only completed callbacks count; the failed one is not requeued
        assert sim.events_processed == 1
        assert sim.pending_events == 4
        assert sim.run() == 5
        assert fired == ["a", "boom", "b", "c", "z", "d"]
        assert sim.events_processed == 5

    def test_raise_on_last_entry_retires_the_bucket(self):
        sim = Simulator()

        def boom():
            raise RuntimeError("callback failed")

        sim.schedule(2, lambda: None)
        sim.schedule(2, boom)
        with pytest.raises(RuntimeError):
            sim.run()
        assert sim.events_processed == 1
        assert sim.pending_events == 0
        assert sim.peek_next_cycle() is None

    def test_stop_mid_bucket_resumes_at_next_entry(self):
        sim = Simulator()
        fired = []

        def stopper():
            fired.append("stop")
            sim.stop()

        sim.schedule(2, fired.append, "a")
        sim.schedule(2, stopper)
        sim.schedule(2, fired.append, "b")
        sim.schedule(4, fired.append, "c")
        assert sim.run() == 2
        assert fired == ["a", "stop"]
        assert sim.events_processed == 2
        sim.run()
        assert fired == ["a", "stop", "b", "c"]
        assert sim.events_processed == 4

    def test_stop_then_schedule_now_queues_behind_the_bucket(self):
        sim = Simulator()
        fired = []

        def stopper():
            fired.append("stop")
            sim.stop()
            sim.schedule(0, fired.append, "new")

        sim.schedule(2, fired.append, "a")
        sim.schedule(2, stopper)
        sim.schedule(2, fired.append, "b")
        sim.schedule(3, fired.append, "c")
        assert sim.run() == 2
        assert fired == ["a", "stop"]
        assert sim.events_processed == 2
        assert sim.pending_events == 3
        assert sim.run() == 3
        assert fired == ["a", "stop", "b", "new", "c"]
        assert sim.events_processed == 5

    def test_cancellable_event_stops_the_run(self):
        sim = Simulator()
        fired = []

        def stopper(name):
            fired.append(name)
            sim.stop()

        sim.schedule(2, fired.append, "a")
        sim.schedule_cancellable(2, stopper, "stop")
        sim.schedule_cancellable(2, fired.append, "b")
        sim.schedule(4, fired.append, "c")
        assert sim.run() == 2
        assert fired == ["a", "stop"]
        assert sim.events_processed == 2
        assert sim.pending_events == 2
        sim.run()
        assert fired == ["a", "stop", "b", "c"]
        assert sim.events_processed == 4

    def test_stop_on_last_entry_retires_the_bucket(self):
        sim = Simulator()
        fired = []

        def stopper():
            fired.append("stop")
            sim.stop()

        sim.schedule(2, fired.append, "a")
        sim.schedule(2, stopper)
        sim.schedule(5, fired.append, "b")
        assert sim.run() == 2
        assert sim.events_processed == 2
        assert sim.pending_events == 1
        assert sim.peek_next_cycle() == 5
        assert sim.run() == 5
        assert fired == ["a", "stop", "b"]
        assert sim.events_processed == 3

    def test_raise_in_cancellable_event_is_not_requeued(self):
        sim = Simulator()
        fired = []

        def boom():
            fired.append("boom")
            raise RuntimeError("callback failed")

        sim.schedule(3, fired.append, "a")
        failing = sim.schedule_cancellable(3, boom)
        sim.schedule_cancellable(3, fired.append, "b")
        sim.schedule(3, fired.append, "c")
        with pytest.raises(RuntimeError):
            sim.run()
        assert fired == ["a", "boom"]
        assert sim.events_processed == 1
        assert sim.pending_events == 2
        failing.cancel()  # it already ran: a no-op, counts no corpse
        assert sim.live_pending_events == 2
        assert sim.run() == 3
        assert fired == ["a", "boom", "b", "c"]
        assert sim.events_processed == 3

    def test_max_events_mid_bucket_resumes_at_next_entry(self):
        sim = Simulator()
        fired = []
        for name in "abcde":
            sim.schedule(4, fired.append, name)
        sim.run(max_events=2)
        assert fired == ["a", "b"]
        assert sim.cycle == 4
        assert sim.events_processed == 2
        sim.run(max_events=2)
        assert fired == ["a", "b", "c", "d"]
        assert sim.events_processed == 4
        sim.run()
        assert fired == list("abcde")
        assert sim.events_processed == 5

    def test_max_events_does_not_count_corpses(self):
        sim = Simulator()
        fired = []
        sim.schedule(4, fired.append, "a")
        dead = sim.schedule_cancellable(4, fired.append, "dead")
        sim.schedule(4, fired.append, "b")
        sim.schedule(4, fired.append, "c")
        dead.cancel()
        sim.run(max_events=2)
        assert fired == ["a", "b"]
        assert sim.events_processed == 2
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.events_processed == 3

    def test_corpse_mid_bucket_is_skipped_and_not_counted(self):
        sim = Simulator()
        fired = []

        def killer():
            fired.append("killer")
            victim.cancel()

        sim.schedule(6, killer)
        victim = sim.schedule_cancellable(6, fired.append, "victim")
        sim.schedule(6, fired.append, "after")
        sim.run()
        assert fired == ["killer", "after"]
        assert sim.events_processed == 2
        assert sim.pending_events == 0
        assert sim.live_pending_events == 0
        assert sim._cancelled == 0

    @pytest.mark.parametrize("delay", [2.0, 2.5])
    @pytest.mark.parametrize("bucket_exists", [False, True])
    def test_non_int_delay_lands_at_its_int(self, delay, bucket_exists):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        fired = []
        if bucket_exists:
            sim.schedule(2, fired.append, "first")
        sim.schedule(delay, lambda: fired.append(("x", sim.cycle)))
        sim.schedule(2, fired.append, "last")
        assert sim.peek_next_cycle() == 12
        assert type(sim.peek_next_cycle()) is int
        sim.run()
        expected = ["first"] if bucket_exists else []
        assert fired == expected + [("x", 12), "last"]
        assert type(sim.cycle) is int
        assert sim.events_processed == 1 + len(fired)


class TestBucketContractOnFallback(TestBucketContract):
    """The same contract with the kernel's ``call`` swapped for the
    Python fallback that Pythons before 3.11 run, so every runner checks
    the code the oldest supported Python runs."""

    @pytest.fixture(autouse=True)
    def _fallback(self, monkeypatch):
        monkeypatch.setattr(kernel, "call", kernel._call)

    def test_events_run_through_the_fallback(self):
        sim = Simulator()
        callers = []

        def record():
            callers.append(sys._getframe(1).f_code.co_name)

        sim.schedule(1, record)
        sim.run()
        assert callers == ["_call"]
