"""Deterministic event-driven cycle simulator.

The kernel is a classic discrete-event engine operating in integer *cycles*.
Every component in the model (routers, cache controllers, threads, the OS
scheduler) schedules callbacks on a shared :class:`Simulator` instance.

Determinism matters for a reproduction: two events scheduled for the same
cycle fire in the order they were scheduled (FIFO tie-break), so a run is
a pure function of its configuration and seed.

Performance: events live in per-cycle FIFO *buckets* — a dict mapping
cycle -> list of ``(fn, *args)`` entry tuples, one per event — plus a
small heap of the distinct pending cycles.  Scheduling the common case is
one dict lookup and one list append of the tuple the call already built;
the heap is only touched when a new cycle first appears, so the number of
heap operations scales with the number of distinct cycles rather than the
number of events (the benchmark's cold Figure 12 plan runs 2.71M events
in 153,081 buckets, 17.7 events each).  Bucket order *is* FIFO order,
which preserves the exact tie-break semantics of the earlier single-heap
implementation.  :meth:`Simulator.run` hands each bucket's list iterator
to C builtins — ``deque(maxlen=0).extend(starmap(call, it))`` with
``operator.call`` — so no Python bytecode runs between two events, and
settles its counters once per bucket.  :meth:`Simulator.stop` halts after
the current event by cutting the running bucket there and filing the rest
under the same cycle.  Before Python 3.11, ``call`` is a two-line Python
function: correct, but slower than a Python loop.  Cancellable timers
(the rare case: TTL countdowns, retractable timeouts) go through
:meth:`Simulator.schedule_cancellable`, which allocates an :class:`Event`
stored as an ``(Event._fire, event)`` entry; cancelled entries are lazily
skipped and the buckets are compacted when corpses pile up (lock-retry
storms re-arm TTLs constantly).
"""

from __future__ import annotations

import heapq
import operator
from collections import deque
from functools import partial
from heapq import heappush
from itertools import islice, starmap
from sys import maxsize
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# Re-homed into the unified hierarchy (repro.errors); imported here so the
# historical paths ``repro.sim.kernel.SimulationError`` / ``repro.sim
# .SimulationError`` keep working.
from ..errors import RunTimeout, SimulationError

__all__ = ["Event", "RunTimeout", "SimulationError", "Simulator"]


def _call(fn, *args):
    """``operator.call``, which Python 3.11 added, for older Pythons."""
    return fn(*args)


#: runs one bucket entry ``(fn, *args)`` as ``fn(*args)``
call = getattr(operator, "call", _call)


class Event:
    """A cancellable scheduled callback.

    Only :meth:`Simulator.schedule_cancellable` creates these;
    :meth:`cancel` marks the event dead and the kernel skips it when
    reached (or removes it during queue compaction).  This is how TTL
    countdowns and retry timeouts are retracted when superseded.
    """

    __slots__ = ("cycle", "seq", "fn", "args", "cancelled", "_dead", "_sim")

    def __init__(self, cycle: int, seq: int, fn: Callable[..., None],
                 args: tuple = (), sim: Optional["Simulator"] = None):
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

    def _fire(self) -> None:
        """The bucket entry ``(Event._fire, event)``: run the callback,
        or skip a cancelled corpse and count it for the run loop."""
        if self.cancelled:
            self._sim._cancelled -= 1
            self._sim._corpses += 1
            return
        self._dead = True
        self.fn(*self.args)

    def __lt__(self, other: "Event") -> bool:
        return (self.cycle, self.seq) < (other.cycle, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(cycle={self.cycle}, seq={self.seq}, {state})"


#: the ``fn`` of every cancellable bucket entry
_fire = Event._fire


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
        #: cycle -> FIFO bucket [(fn0, *args0), (fn1, *args1), ...]
        self._buckets: Dict[int, list] = {}
        #: heap of the distinct cycles present in ``_buckets``
        self._cycles: List[int] = []
        #: bucket currently being executed by run() and its iterator —
        #: compaction must leave the bucket alone, and stop() cuts it
        self._active_bucket: Optional[list] = None
        self._active_it = None
        self._seq = 0
        self.cycle = 0
        self._running = False
        self._stopped = False
        self.events_processed = 0
        self._cancelled = 0
        #: cancelled entries the run loop has skipped (Event._fire)
        self._corpses = 0
        self._compactions = 0
        #: cycle-batched co-simulated engine (Simulator.attach_stepper)
        self._stepper = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, *entry) -> None:
        """Schedule ``fn(*args)`` to fire ``delay`` cycles from now; call
        it as ``schedule(delay, fn, *args)``.

        ``delay`` must be >= 0; a non-int delay fires at ``int(delay)``.
        A zero delay fires later in the current cycle, after all
        previously scheduled work for this cycle.  This is the
        allocation-free hot path: the bucket keeps the ``(fn, *args)``
        tuple the call built, and the entry cannot be cancelled (use
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
                self._buckets[cycle] = [entry]
                heappush(self._cycles, cycle)
                return
        bucket.append(entry)

    def schedule_at(self, cycle: int, *entry) -> None:
        """Schedule ``fn(*args)`` at an absolute ``cycle`` (>= current cycle)."""
        if cycle < self.cycle:
            raise SimulationError(
                f"cannot schedule at cycle {cycle} < current {self.cycle}"
            )
        self.schedule(cycle - self.cycle, *entry)

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
            self._buckets[cycle] = [(_fire, event)]
            heapq.heappush(self._cycles, cycle)
        else:
            bucket.append((_fire, event))
        return event

    def attach_stepper(self, stepper) -> None:
        """Register a cycle-batched engine co-simulated with the run loop.

        A stepper exposes ``next_cycle() -> Optional[int]`` (the cycle of
        its next pending work) and ``advance_n(limit) -> int`` (advance
        through every pending cycle <= ``limit``, returning how many
        emulated events were processed — folded into
        :attr:`events_processed`).  The run loop advances the stepper
        one stepper cycle per iteration, and only to a cycle strictly
        before the next event bucket: at equal cycles the bucket runs
        first, because sends scheduled at cycle c (``schedule_at(c,
        net.send, ...)``) must run before that cycle's step, as the
        event engine orders its bucket.
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
        # one consumer per call: threads may run simulators side by side
        consume = deque(maxlen=0).extend
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
                    # ``schedule_at(c, ...)`` must run before the cycle-c
                    # step, exactly as the event engine orders its
                    # bucket.  One stepper cycle per iteration, then the
                    # next bucket is re-examined.
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
                if bucket[0][0] is _fire:
                    # reap head corpses before they can advance the clock
                    self._reap_head(bucket)
                    if not bucket:
                        del buckets[cycle]
                        heappop(cycles)
                        continue
                if until is not None and cycle > until:
                    # Leave the queue intact; the caller may resume later.
                    self.cycle = until
                    break
                # Batch every event of this cycle: the clock advances
                # once, then C runs the entries in FIFO (append) order —
                # including zero-delay events scheduled by the batch
                # itself, which the list iterator reaches because they
                # land in this same bucket.  Counters are settled once
                # per bucket, from how far the iterator got.
                self.cycle = cycle
                self._active_bucket = bucket
                self._active_it = it = iter(bucket)
                corpses = self._corpses
                failed = 0
                try:
                    # islice counts corpses too; a bucket it cuts short
                    # with room left resumes on the next pass
                    consume(starmap(call, it if max_events is None
                                    else islice(it, room)))
                except BaseException:
                    failed = 1  # the failed callback did not complete
                    raise
                finally:
                    left = it.__length_hint__()
                    done = (len(bucket) - left - failed
                            - (self._corpses - corpses))
                    events += done
                    room -= done
                    if self._active_bucket is None:
                        pass  # stop() cut the bucket and filed the rest
                    elif left:
                        # keep the unprocessed suffix resumable
                        del bucket[:len(bucket) - left]
                    else:
                        del buckets[cycle]
                        heappop(cycles)
                    self._active_bucket = self._active_it = None
        finally:
            self._running = False
            self.events_processed = events
        return self.cycle

    def stop(self) -> None:
        """Stop the run loop after the current event completes: cut the
        running bucket there and file the rest under the same cycle as a
        fresh list (events scheduled for this cycle queue behind it); an
        empty rest retires the cycle.  The drive ends with the cut."""
        self._stopped = True
        bucket = self._active_bucket
        if bucket is None:
            return
        self._active_bucket = None
        cut = len(bucket) - self._active_it.__length_hint__()
        if cut < len(bucket):
            self._buckets[self.cycle] = bucket[cut:]
            del bucket[cut:]
        else:
            del self._buckets[self.cycle]
            heapq.heappop(self._cycles)

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

    def _reap_head(self, bucket: list) -> None:
        """Drop the cancelled entries at the head of ``bucket``."""
        i = 0
        n = len(bucket)
        while i < n and bucket[i][0] is _fire and bucket[i][1].cancelled:
            bucket[i][1]._dead = True
            i += 1
        self._cancelled -= i
        del bucket[:i]

    def _compact(self) -> None:
        """Drop cancelled entries from the buckets (threshold-triggered).

        Mutates every bucket *in place* and leaves the bucket currently
        being executed untouched: :meth:`run` iterates the active bucket
        (and holds local aliases of the bucket dict and cycle heap), so
        a TTL cancel inside an event callback triggering compaction
        mid-run must not shift entries under the run loop or rebind the
        containers it reads.  Corpses in the active bucket stay counted
        in ``_cancelled`` and are skipped when reached.
        """
        buckets = self._buckets
        active = self._active_bucket
        reaped = 0
        emptied = []
        for cycle, bucket in buckets.items():
            if bucket is active:
                continue
            live: list = []
            for entry in bucket:
                if entry[0] is _fire and entry[1].cancelled:
                    entry[1]._dead = True
                    reaped += 1
                else:
                    live.append(entry)
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
        return sum(map(len, self._buckets.values()))

    @property
    def live_pending_events(self) -> int:
        """Number of queued events that will actually fire."""
        return self.pending_events - self._cancelled

    def peek_next_cycle(self) -> Optional[int]:
        """Cycle of the next live event, or ``None`` if the queue is empty."""
        buckets = self._buckets
        cycles = self._cycles
        while cycles:
            cycle = cycles[0]
            bucket = buckets[cycle]
            self._reap_head(bucket)
            if bucket:
                return cycle
            del buckets[cycle]
            heapq.heappop(cycles)
        return None

    def drain(self) -> List[Tuple[int, Callable[[], None]]]:
        """Remove and return all pending live events (for teardown/tests)."""
        pending: List[Tuple[int, Callable[[], None]]] = []
        for cycle in sorted(self._buckets):
            for fn, *args in self._buckets[cycle]:
                if fn is _fire:
                    event = args[0]
                    if event.cancelled:
                        continue
                    event._dead = True
                    fn, args = event.fn, event.args
                pending.append((cycle, partial(fn, *args) if args else fn))
        self._buckets.clear()
        self._cycles.clear()
        self._cancelled = 0
        return pending
