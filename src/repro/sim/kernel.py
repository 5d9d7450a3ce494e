"""Deterministic event-driven cycle simulator.

The kernel is a classic discrete-event engine operating in integer *cycles*.
Every component in the model (routers, cache controllers, threads, the OS
scheduler) schedules callbacks on a shared :class:`Simulator` instance.

Determinism matters for a reproduction: two events scheduled for the same
cycle fire in the order they were scheduled (FIFO tie-break), so a run is
a pure function of its configuration and seed.

Performance: events live in per-cycle FIFO *buckets* — a dict mapping
cycle -> flat list of ``fn, args`` pairs (stride 2) — plus a small heap of
the distinct pending cycles.  Scheduling the common case is one dict
lookup and two list appends; the heap is only touched when a new cycle
first appears, so the number of heap operations scales with the number of
distinct cycles rather than the number of events (the benchmark's cold
Figure 12 plan runs 2.71M events in about 290k buckets).  Bucket order
*is* FIFO order, which preserves the exact tie-break semantics of the
earlier single-heap implementation.  :meth:`Simulator.run` walks each
bucket with one list iterator and settles its counters once per bucket.
Cancellable timers (the rare case: TTL countdowns, retractable timeouts)
go through :meth:`Simulator.schedule_cancellable`, which allocates an
:class:`Event` stored as a ``_CANCELLABLE, event`` pair; cancelled
entries are lazily skipped and the buckets are compacted when corpses
pile up (lock-retry storms re-arm TTLs constantly).
"""

from __future__ import annotations

import heapq
from functools import partial
from heapq import heappush
from itertools import islice
from sys import maxsize
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# Re-homed into the unified hierarchy (repro.errors); imported here so the
# historical paths ``repro.sim.kernel.SimulationError`` / ``repro.sim
# .SimulationError`` keep working.
from ..errors import RunTimeout, SimulationError

__all__ = ["Event", "RunTimeout", "SimulationError", "Simulator"]


class Event:
    """A cancellable scheduled callback.

    Only :meth:`Simulator.schedule_cancellable` creates these;
    :meth:`cancel` marks the event dead and the kernel skips it when
    reached (or removes it during queue compaction).  This is how TTL
    countdowns and retry timeouts are retracted when superseded.
    """

    __slots__ = ("cycle", "seq", "fn", "args", "cancelled", "_dead", "_sim")

    def __init__(
        self,
        cycle: int,
        seq: int,
        fn: Callable[..., None],
        args: tuple = (),
        sim: Optional["Simulator"] = None,
    ):
        self.cycle = cycle
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        #: fired or already reaped — cancel() becomes a no-op
        self._dead = False
        self._sim = sim

    def cancel(self) -> None:
        """Mark this event dead; the kernel will skip it."""
        if self.cancelled or self._dead:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancel()

    def __lt__(self, other: "Event") -> bool:
        return (self.cycle, self.seq) < (other.cycle, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(cycle={self.cycle}, seq={self.seq}, {state})"


class _Cancellable:
    """Marker stored in the ``fn`` slot of cancellable bucket entries."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<cancellable>"


#: singleton marker: a bucket entry ``_CANCELLABLE, event`` wraps an
#: :class:`Event`; every other entry is a plain ``fn, args`` pair.
_CANCELLABLE = _Cancellable()


class Simulator:
    """Integer-cycle discrete event simulator.

    Usage::

        sim = Simulator()
        sim.schedule(5, print, "fires at cycle 5")
        sim.run()
    """

    #: compact the buckets once at least this many corpses accumulate
    #: *and* they make up at least half of the queued entries
    COMPACT_MIN_CANCELLED = 64

    def __init__(self) -> None:
        #: cycle -> flat FIFO bucket [fn0, args0, fn1, args1, ...]
        self._buckets: Dict[int, list] = {}
        #: heap of the distinct cycles present in ``_buckets``
        self._cycles: List[int] = []
        #: bucket currently being executed by run() — compaction must
        #: leave it alone (the run loop iterates it by index)
        self._active_bucket: Optional[list] = None
        self._seq = 0
        self.cycle = 0
        self._running = False
        self._stopped = False
        self.events_processed = 0
        self._cancelled = 0
        self._compactions = 0
        #: cycle-batched co-simulated engine (Simulator.attach_stepper)
        self._stepper = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, fn: Callable[..., None], *args) -> None:
        """Schedule ``fn(*args)`` to fire ``delay`` cycles from now.

        ``delay`` must be >= 0; a non-int delay fires at ``int(delay)``.
        A zero delay fires later in the current cycle, after all
        previously scheduled work for this cycle.  This is the
        allocation-free hot path: the entry cannot be cancelled (use
        :meth:`schedule_cancellable` for retractable timers).  The delay
        is validated only when it opens a new bucket: no bucket lies
        before the current cycle, so a negative delay never finds one,
        and a float delay finds only the bucket of its whole value.
        """
        bucket = self._buckets.get(self.cycle + delay)
        if bucket is None:
            if delay < 0:
                raise SimulationError(
                    f"cannot schedule in the past (delay={delay})"
                )
            cycle = self.cycle + int(delay)
            bucket = self._buckets.get(cycle)
            if bucket is None:
                self._buckets[cycle] = [fn, args]
                heappush(self._cycles, cycle)
                return
        bucket.append(fn)
        bucket.append(args)

    def schedule_at(self, cycle: int, fn: Callable[..., None], *args) -> None:
        """Schedule ``fn(*args)`` at an absolute ``cycle`` (>= current cycle)."""
        if cycle < self.cycle:
            raise SimulationError(
                f"cannot schedule at cycle {cycle} < current {self.cycle}"
            )
        self.schedule(cycle - self.cycle, fn, *args)

    def schedule_cancellable(
        self, delay: int, fn: Callable[..., None], *args
    ) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` cycles; returns the
        :class:`Event`, which may be cancelled until it fires."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        cycle = self.cycle + int(delay)
        event = Event(cycle, self._seq, fn, args, sim=self)
        self._seq += 1
        bucket = self._buckets.get(cycle)
        if bucket is None:
            self._buckets[cycle] = [_CANCELLABLE, event]
            heapq.heappush(self._cycles, cycle)
        else:
            bucket.append(_CANCELLABLE)
            bucket.append(event)
        return event

    def attach_stepper(self, stepper) -> None:
        """Register a cycle-batched engine co-simulated with the run loop.

        A stepper exposes ``next_cycle() -> Optional[int]`` (the cycle of
        its next pending work) and ``advance_n(limit) -> int`` (advance
        through every pending cycle <= ``limit``, returning how many
        emulated events were processed — folded into
        :attr:`events_processed`).  The run loop advances the stepper
        *before* processing an event bucket at the same cycle, one
        stepper cycle per iteration, so callbacks the stepper triggers
        (delivery handlers scheduling kernel events) interleave exactly
        as per-event scheduling would.
        """
        if self._stepper is not None and self._stepper is not stepper:
            raise SimulationError("a stepper is already attached")
        self._stepper = stepper

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> int:
        """Run until the event queue drains, ``until`` cycles pass, or
        ``max_events`` events are processed.  Returns the final cycle.

        ``deadline`` is an absolute ``time.perf_counter()`` timestamp:
        once the wall clock passes it the kernel raises
        :class:`~repro.errors.RunTimeout` between cycle batches.  This is
        the executor's per-run wall-clock budget hook; the check is
        skipped entirely (one ``None`` test per cycle batch) when no
        deadline is set.

        A run halted by :meth:`stop`, by ``max_events`` or by a raising
        callback leaves the rest of the current bucket queued, so the
        next run resumes at the following same-cycle entry.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        buckets = self._buckets
        cycles = self._cycles
        heappop = heapq.heappop
        canc = _CANCELLABLE
        events = self.events_processed
        #: events this run may still process
        room = maxsize if max_events is None else max_events
        stepper = self._stepper
        try:
            while room > 0 and not self._stopped:
                if deadline is not None and perf_counter() >= deadline:
                    raise RunTimeout(
                        f"wall-clock budget exhausted at cycle {self.cycle} "
                        f"({events:,} events processed)",
                        cycle=self.cycle,
                    )
                knext = cycles[0] if cycles else None
                if stepper is not None:
                    # kernel-first at equal cycles: sends scheduled via
                    # ``schedule_at(c, ...)`` land before cycle-c router
                    # ticks, exactly as the event engine orders its
                    # bucket.  One stepper cycle per iteration, so work
                    # the stepper triggers (delivery handlers scheduling
                    # events) is re-examined before it advances again.
                    snext = stepper.next_cycle()
                    if (
                        snext is not None
                        and (until is None or snext <= until)
                        and (knext is None or snext < knext)
                    ):
                        n = stepper.advance_n(snext)
                        events += n
                        room -= n
                        continue
                if knext is None:
                    # drained (any remaining stepper work lies beyond
                    # ``until``): fast-forward like the pure-event loop
                    if until is not None and until > self.cycle:
                        self.cycle = until
                    break
                cycle = knext
                bucket = buckets[cycle]
                if bucket[0] is canc:
                    # reap head corpses before they can advance the clock
                    i = 0
                    n = len(bucket)
                    while (i < n and bucket[i] is canc
                           and bucket[i + 1].cancelled):
                        bucket[i + 1]._dead = True
                        self._cancelled -= 1
                        i += 2
                    if i == n:
                        del buckets[cycle]
                        heappop(cycles)
                        continue
                    del bucket[:i]
                if until is not None and cycle > until:
                    # Leave the queue intact; the caller may resume later.
                    self.cycle = until
                    break
                # Batch every event of this cycle: the clock advances
                # once, then entries run in FIFO (append) order —
                # including zero-delay events scheduled by the batch
                # itself, which the list iterator reaches because they
                # land in this same bucket.  Counters are settled once
                # per bucket, from how far the iterator got.
                self.cycle = cycle
                self._active_bucket = bucket
                it = iter(bucket)
                pairs = zip(it, it)
                if max_events is not None:
                    # islice counts corpses too; a bucket it cuts short
                    # with room left resumes on the next pass
                    pairs = islice(pairs, room)
                skipped = 0
                try:
                    for fn, arg in pairs:
                        if fn is canc:
                            if arg.cancelled:
                                self._cancelled -= 1
                                skipped += 1
                                continue
                            arg._dead = True
                            arg.fn(*arg.args)
                        else:
                            fn(*arg)
                        if self._stopped:
                            break
                except BaseException:
                    skipped += 1  # the failed callback did not complete
                    raise
                finally:
                    left = it.__length_hint__()
                    done = (len(bucket) - left >> 1) - skipped
                    events += done
                    room -= done
                    if left:
                        # keep the unprocessed suffix resumable
                        del bucket[:len(bucket) - left]
                    else:
                        del buckets[cycle]
                        heappop(cycles)
        finally:
            self._active_bucket = None
            self._running = False
            self.events_processed = events
        return self.cycle

    def stop(self) -> None:
        """Stop the run loop after the current event completes."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        self._cancelled += 1
        if (
            self._cancelled >= self.COMPACT_MIN_CANCELLED
            and self._cancelled * 2 >= self.pending_events
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from the buckets (threshold-triggered).

        Mutates every bucket *in place* and leaves the bucket currently
        being executed untouched: :meth:`run` iterates the active bucket
        by index (and holds local aliases of the bucket dict and cycle
        heap), so a TTL cancel inside an event callback triggering
        compaction mid-run must not shift entries under the run loop or
        rebind the containers it reads.  Corpses in the active bucket
        stay counted in ``_cancelled`` and are reaped when reached.
        """
        buckets = self._buckets
        active = self._active_bucket
        canc = _CANCELLABLE
        reaped = 0
        emptied = []
        for cycle, bucket in buckets.items():
            if bucket is active:
                continue
            live: list = []
            append = live.append
            for i in range(0, len(bucket), 2):
                fn = bucket[i]
                arg = bucket[i + 1]
                if fn is canc and arg.cancelled:
                    arg._dead = True
                    reaped += 1
                else:
                    append(fn)
                    append(arg)
            if live:
                if len(live) != len(bucket):
                    bucket[:] = live
            else:
                emptied.append(cycle)
        for cycle in emptied:
            del buckets[cycle]
        if emptied:
            self._cycles[:] = list(buckets)
            heapq.heapify(self._cycles)
        self._cancelled -= reaped
        self._compactions += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def compactions(self) -> int:
        """Threshold-triggered queue compactions so far (read-only; the
        ``repro.obs`` registry reads this as the ``sim/compactions``
        gauge)."""
        return self._compactions

    @property
    def pending_events(self) -> int:
        """Number of queued entries, including cancelled corpses awaiting
        lazy deletion (see :attr:`live_pending_events`)."""
        total = 0
        for bucket in self._buckets.values():
            total += len(bucket)
        return total // 2

    @property
    def live_pending_events(self) -> int:
        """Number of queued events that will actually fire."""
        return self.pending_events - self._cancelled

    def peek_next_cycle(self) -> Optional[int]:
        """Cycle of the next live event, or ``None`` if the queue is empty."""
        buckets = self._buckets
        cycles = self._cycles
        canc = _CANCELLABLE
        while cycles:
            cycle = cycles[0]
            bucket = buckets[cycle]
            i = 0
            n = len(bucket)
            while i < n and bucket[i] is canc and bucket[i + 1].cancelled:
                bucket[i + 1]._dead = True
                self._cancelled -= 1
                i += 2
            if i:
                del bucket[:i]
            if bucket:
                return cycle
            del buckets[cycle]
            heapq.heappop(cycles)
        return None

    def drain(self) -> List[Tuple[int, Callable[[], None]]]:
        """Remove and return all pending live events (for teardown/tests)."""
        pending: List[Tuple[int, Callable[[], None]]] = []
        canc = _CANCELLABLE
        for cycle in sorted(self._buckets):
            bucket = self._buckets[cycle]
            for i in range(0, len(bucket), 2):
                fn = bucket[i]
                arg = bucket[i + 1]
                if fn is canc:
                    if arg.cancelled:
                        continue
                    arg._dead = True
                    pending.append(
                        (cycle,
                         partial(arg.fn, *arg.args) if arg.args else arg.fn)
                    )
                else:
                    pending.append(
                        (cycle, partial(fn, *arg) if arg else fn)
                    )
        self._buckets.clear()
        self._cycles.clear()
        self._cancelled = 0
        return pending
