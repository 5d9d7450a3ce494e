"""Vectorized array-of-ints flit fabric: cycle-batched router pipelines.

The event-driven flit model (:mod:`repro.noc.flitsim`) spends most of its
time in per-event Python callbacks: every router tick, flit hop and
credit return is a separate kernel event.  This module advances the
*entire mesh one cycle per step* instead — every router pipeline, input
buffer, credit counter and in-flight flit lives in flat parallel integer
columns (one slot per router input VC), and the per-cycle candidate
discovery (which VCs route-compute, which VCs compete for the switch)
is a handful of masked NumPy operations over boolean occupancy columns
(DESIGN.md §13).  The per-flit work — buffer pushes and pops, claims,
credit bumps, key ranks — has two equivalent forms.  A step with few
ticking routers (every step of an 8x8 drive) loops over plain Python
columns, where NumPy call dispatch would cost more than the loop.
A step with at least ``_ARRAY_TICKS`` ticking routers runs the same
phases as array operations (:meth:`VectorFlitNetwork._array_step`); the
engine's first such step moves its columns into NumPy arrays for good.

Bit-exactness contract
======================
The event engine stays the reference oracle; this engine must replay it
*event for event* — same delivered-packet stream, same delivery cycles,
same emulated event count — on every network drive.  It has no delivery
callback: a drive injects packets and reads the delivered stream, and
the full-system flit fabric is the event engine's
(:class:`~repro.noc.flit_fabric.FlitFabric`).  Equivalence hinges on
reproducing the kernel's FIFO bucket order, which the event model's
within-cycle semantics observably depend on (whether a flit or credit
arriving at cycle t is visible to a router also ticking at t is decided
purely by append order).  Every emulated event therefore carries a 64-bit *order
key*::

    key = (cycle_scheduled << 24) | (parent_rank << 6) | call_index

where ``parent_rank`` is the dense rank — in key order — of the
*scheduling* event among that cycle's appenders (ticks plus winning
wakes; nothing else appends), and ``call_index`` counts the parent's
``schedule()`` calls.  Events append to a future bucket in exactly the
order their parents ran, so sorting a bucket by key reproduces the
kernel's FIFO order (workload injections scheduled before ``run()`` use
negative keys and sort below every run-time key).  Three consequences
drive the step function:

* an arriving flit / returning credit is visible to its router's tick
  iff its key is below the tick's key (the *pre/post split*);
* local deliveries at one cycle happen in tick-key order;
* a wake is *effective* (actually schedules the next tick) iff its key
  is >= the router's own tick key and minimal among such wakes —
  ``_scheduled`` is cleared at tick entry, so pre-tick wakes are no-ops
  and the tick's own end-of-tick wake (at the tick's key) precedes any
  post-tick arrival.

Two event-engine behaviours are *derived* rather than replayed:

* a router's end-of-tick self-wake fires iff flits remain buffered at
  tick end **or** the tick granted two or more flits (every ``work_left``
  branch of :meth:`FlitRouter._tick` implies one of the two, and both
  imply ``work_left`` or a non-zero occupancy counter);
* the greedy round-robin switch-allocation scan equals, per output
  port, the eligible input VC minimizing ``(slot - rr) % (5 * vcs)``
  (in-tick credit decrements cannot flip another slot's eligibility
  because claimed (out_port, out_vc) pairs are unique per router and a
  granted output blocks before the credit check).

A third is structural: a VC activated at cycle t is switch-eligible
only from t+1 (``ready_at = now + 1``), which falls out of computing
the switch candidate mask *before* the route-compute/VC-allocation
phase mutates the columns.  All three are load-bearing for the pinned
golden fingerprints and covered by the engine-parity property tests
(``tests/test_vecflit.py``).

Fallback
========
NumPy is optional: when it is absent (or ``force_python=True``) every
step scans the ticking routers' slots and runs the phases in plain
loops.  The fallback is for correctness/portability, not speed — the
benchmark's ``flit_mesh32`` drive and CI's rate floor on it measure the
array path.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..config import NocConfig
from ..errors import UnsupportedTopology
from ..sim import Simulator
from .engines import make_flit_network  # noqa: F401  (also importable here)
from .topology import EAST, LOCAL, NORTH, REVERSE, SOUTH, WEST, Mesh

try:  # pragma: no cover - absence exercised via tests' import shim
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

HAS_NUMPY = _np is not None

#: order-key layout: cycle << _CYC_SHIFT | rank << _SUB_BITS | call index
_CYC_SHIFT = 24
_SUB_BITS = 6
#: offset for kernel-drive sends around their cycle's step
_LATE_OFF = 1 << 23
#: pre-run workload injections sort below every run-time key
_SETUP_BASE = -(1 << 40)
#: "no tick this cycle" sentinel (above every real key)
_NO_TICK = 1 << 62
#: a step with at least this many ticking routers runs the array phases
#: (:meth:`VectorFlitNetwork._array_step`); smaller steps run the
#: per-flit loops.  Set at the measured crossover (DESIGN.md §13).
_ARRAY_TICKS = 120
#: the mutable columns the array phases read and write: Python lists
#: until an engine's first array step, NumPy arrays from then on
_ARRAY_COLUMNS = ("_buf_pid", "_buf_fi", "_head", "_cnt", "_active",
                  "_out_port", "_out_slot", "_claimed", "_credits", "_rr",
                  "_buffered", "_tick_key_by_r", "_thr_next")

#: (width, height, vcs) -> the slot tables of :func:`_slot_tables`
_SLOT_TABLES: Dict[Tuple[int, int, int],
                   Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]] = {}


def _slot_tables(width: int, height: int, vcs: int):
    """``(router_of, sidx, link)`` over the input-VC slots of a
    ``width`` x ``height`` mesh with ``vcs`` VCs a port, slot
    ``r * 5 * vcs + port * vcs + vc``: the slot's router, its index
    within the router, and its link target.  Read as an output slot
    ``(r, port, vc)``, ``link`` names the downstream input slot
    ``(neighbour, REVERSE[port], vc)``; read as an input slot, the
    same entry names the upstream output slot whose credit it returns.
    ``-1`` marks LOCAL and mesh-edge slots.  Built from slices, once
    per (shape, VCs), and shared read-only by every engine."""
    key = (width, height, vcs)
    tables = _SLOT_TABLES.get(key)
    if tables is None:
        R = width * height
        SPR = 5 * vcs
        N = R * SPR
        router_of = [0] * N
        for s in range(SPR):
            router_of[s::SPR] = range(R)
        # every slot of one port lies one fixed offset from its
        # neighbour's reverse-port slot; the routers on that port's mesh
        # edge (a range of router ids) have no neighbour
        link = [-1] * N
        for port, hop, edge in (
            (NORTH, -width, range(0, width)),
            (EAST, 1, range(width - 1, R, width)),
            (SOUTH, width, range(R - width, R)),
            (WEST, -1, range(0, R, width)),
        ):
            delta = hop * SPR + (REVERSE[port] - port) * vcs
            unlinked = [-1] * len(edge)
            for first in range(port * vcs, (port + 1) * vcs):
                link[first::SPR] = range(first + delta, first + delta + N,
                                         SPR)
                link[first + edge.start * SPR:first + edge.stop * SPR:
                     edge.step * SPR] = unlinked
        tables = _SLOT_TABLES[key] = (
            tuple(router_of), tuple(range(SPR)) * R, tuple(link)
        )
    return tables


def _run_starts(a):
    """Boolean mask of the first element of each run of equal values
    in the 1-D array ``a`` (empty for an empty ``a``)."""
    starts = _np.empty(a.size, dtype=bool)
    starts[:1] = True
    _np.not_equal(a[1:], a[:-1], out=starts[1:])
    return starts


# ----------------------------------------------------------------------
class VectorFlitPacket:
    """Delivered-stream twin of :class:`~repro.noc.flitsim.FlitPacket`."""

    __slots__ = ("src", "dst", "length", "payload", "pid",
                 "injected_cycle", "delivered_cycle")

    def __init__(self, src: int, dst: int, length: int,
                 payload: object = None, pid: int = 0):
        self.src = src
        self.dst = dst
        self.length = length
        self.payload = payload
        self.pid = pid
        self.injected_cycle = -1
        self.delivered_cycle = -1

    @property
    def latency(self) -> int:
        return self.delivered_cycle - self.injected_cycle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"VectorFlitPacket(pid={self.pid}, {self.src}->{self.dst}, "
                f"len={self.length})")


class _Bucket:
    """One cycle's worth of emulated events, pre-sorted by kind.

    Link arrivals and credit returns are *fused*: because next cycle's
    tick keys are final when a step ends (``link_cycles == 1``; a send
    after the step only adds a strictly larger key), the producing step
    classifies each of them against the receiving tick right away.
    Pre-tick events are applied to the truth columns immediately (the
    columns are not read again until that cycle's step), post-tick
    events land in ``post_acc``/``post_cred``, and candidate wake keys
    accumulate per router in ``wake_min`` — re-checked for
    effectiveness at consume time, which is what keeps late-inserted
    ticks correct.
    """

    __slots__ = ("ticks", "nev", "post_acc", "post_cred", "wake_min",
                 "inj")

    def __init__(self):
        #: router -> order key of its scheduled tick
        self.ticks: Dict[int, int] = {}
        #: fused accept/credit events arriving this cycle (pre + post)
        self.nev = 0
        #: post-tick link arrivals: (slot, pid, flit index)
        self.post_acc: List[Tuple[int, int, int]] = []
        #: post-tick upstream credit returns: credit slots
        self.post_cred: List[int] = []
        #: router -> minimal candidate wake key from fused events
        self.wake_min: Dict[int, int] = {}
        #: sparse events: ("send", key, src, dst, length, payload) and
        #: ("lcred", key, node) — local credit returns re-entering the
        #: injection path
        self.inj: List[Tuple] = []

    def listed(self) -> None:
        """Turn the fields an array step left as arrays (``post_acc`` an
        (n, 3) array, ``post_cred`` an array, ``wake_min`` a (routers,
        keys) pair) back into the loop phases' Python containers."""
        if type(self.post_acc) is not list:
            self.post_acc = self.post_acc.tolist()
        if type(self.post_cred) is not list:
            self.post_cred = self.post_cred.tolist()
        if type(self.wake_min) is not dict:
            routers, keys = self.wake_min
            self.wake_min = dict(zip(routers.tolist(), keys.tolist()))


class _Arrays:
    """An engine's columns as NumPy arrays (named as the attribute less
    its underscore) and the static tables the array phases gather
    through; built once, at the engine's first array step."""


class VectorFlitNetwork:
    """Cycle-batched flit fabric, API-compatible with ``FlitNetwork``.

    Standalone use (the flit goldens and parity tests) drives it with
    :meth:`send_at` + :meth:`run`.  A kernel drive (``make_flit_network``,
    perfbench's ``flit_mesh32``) passes ``sim`` and injects with
    kernel-scheduled :meth:`send` calls; the engine registers itself as
    the kernel's stepper and is batch-advanced between event buckets
    (:meth:`Simulator.attach_stepper`).  Either drive reads the result
    from :attr:`delivered`.
    """

    def __init__(self, config: NocConfig, sim: Optional[Simulator] = None,
                 force_python: bool = False):
        if config.topology != "mesh":
            # port-direction arrays below are indexed by the 5 fixed
            # mesh directions; other fabrics run on the packet model.
            raise UnsupportedTopology(
                f"the vector flit engine models the 5-port mesh router "
                f"only; topology {config.topology!r} requires the "
                f"packet-level network",
                model="flit/vector",
                topology=config.topology,
            )
        self.config = config
        self.mesh = Mesh(config.width, config.height)
        self.sim = sim
        self._numpy = bool(HAS_NUMPY and not force_python)

        R = self.mesh.num_nodes
        V = config.vcs_per_port
        cap = config.flits_per_vc
        self.R, self.V, self.cap = R, V, cap
        #: input-VC slots per router (5 ports x V); the same index space
        #: addresses (out_port, out_vc) credit counters and claims
        self.SPR = 5 * V
        N = R * self.SPR
        self.N = N

        # -- per-slot truth columns (one row per router input VC) ------
        # flat ring buffers: flit at (slot, pos) lives at slot*cap + pos
        self._buf_pid = [0] * (N * cap)
        self._buf_fi = [0] * (N * cap)
        self._head = [0] * N
        self._cnt = [0] * N
        self._active = [0] * N        # VC holds a downstream claim
        self._out_port = [-1] * N
        self._out_slot = [0] * N      # r*SPR + out_port*V + out_vc
        self._claimed = [0] * N       # indexed like out_slot
        self._credits = [cap] * N     # indexed like out_slot
        self._rr = [0] * R            # per-router SA round-robin
        self._buffered = [0] * R      # per-router flit occupancy
        # -- static tables, shared per shape ---------------------------
        #: router -> dst -> output port (the mesh's XY port rows)
        self._route = self.mesh.port_rows()
        #: slot -> router, slot -> index within its router, and the
        #: link target (downstream input slot == upstream credit slot)
        self._router_of, self._sidx, self._link = _slot_tables(
            config.width, config.height, V
        )

        # -- NumPy candidate mirrors (discovery only) ------------------
        # two product masks: ci = "nonempty and unrouted" (route-compute
        # candidates), ca = "nonempty and routed" (switch candidates),
        # written through memoryviews at every mutation (a single-byte
        # view write is cheaper than batching + re-flushing); candidate
        # discovery reads them *before* the route-compute phase runs,
        # which is what excludes same-cycle VC activations from switch
        # allocation (ready_at = activation + 1).  Without NumPy the
        # views are throwaway lists and discovery scans the truth
        # columns directly.
        if self._numpy:
            self._ci_np = _np.zeros(N, dtype=bool)
            self._ca_np = _np.zeros(N, dtype=bool)
            self._ci_w = memoryview(self._ci_np)  # type: ignore
            self._ca_w = memoryview(self._ca_np)  # type: ignore
        else:
            self._ci_w = [False] * N
            self._ca_w = [False] * N

        # per-router scratch columns, all-zero between steps (each step
        # writes only its ticking routers' entries and resets them)
        self._subtot = [0] * R
        self._gmask = [0] * R
        self._tick_base = [0] * R
        self._ext_base = [0] * R
        #: next cycle's tick keys, valid only inside phase 7 (fused
        #: event classification); _NO_TICK between steps
        self._thr_next = [_NO_TICK] * R

        if config.link_cycles != 1:
            raise ValueError(
                "the vector flit engine models single-cycle links only "
                f"(link_cycles={config.link_cycles}); the event engine "
                "(make_flit_network(..., 'event')) models multi-cycle "
                "links"
            )

        # -- injection machinery (mirrors FlitNetwork) -----------------
        self._iqueue: Dict[int, Deque[VectorFlitPacket]] = {
            n: deque() for n in range(R)
        }
        self._streaming: Dict[int, Optional[Tuple]] = {
            n: None for n in range(R)
        }
        self._packets: List[VectorFlitPacket] = []
        self._plen: List[int] = []
        self._pdst: List[int] = []

        # -- emulated event queue --------------------------------------
        self._buckets: Dict[int, _Bucket] = {}
        self._bheap: List[int] = []
        self._tick_key_by_r = [_NO_TICK] * R
        self._setup_seq = 0
        self._late_seq = 0
        self._stepped_cycle = -1

        self.cycle = 0
        self.events_processed = 0
        self.delivered: List[VectorFlitPacket] = []
        self.injected = 0

        #: the columns as NumPy arrays, from the first array step on; an
        #: engine whose steps stay small keeps the lists, which the loops
        #: index fastest
        self._arrays: Optional[_Arrays] = None

        if sim is not None:
            sim.attach_stepper(self)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def send_at(self, cycle: int, src: int, dst: int, length: int,
                payload: object = None) -> None:
        """Schedule an injection, like ``sim.schedule_at(c, net.send, ...)``.

        Pre-run injections sort below every run-time event of their
        cycle, exactly as setup-time ``schedule_at`` entries precede
        run-time appends in the kernel's FIFO buckets.
        """
        key = _SETUP_BASE + self._setup_seq
        self._setup_seq += 1
        self._bucket(cycle).inj.append(
            ("send", key, src, dst, length, payload)
        )

    def send(self, src: int, dst: int, length: int,
             payload: object = None) -> VectorFlitPacket:
        """Inject now (event-engine ``FlitNetwork.send`` semantics)."""
        now = self.sim.cycle if self.sim is not None else self.cycle
        return self._late_send(src, dst, length, payload, now)

    def run(self, until: Optional[int] = None) -> int:
        """Standalone run loop (no kernel): drain, or pause at ``until``."""
        while True:
            nxt = self.next_cycle()
            if nxt is None:
                break
            if until is not None and nxt > until:
                self.cycle = until
                return self.cycle
            self._step(nxt)
        if until is not None and until > self.cycle:
            self.cycle = until
        return self.cycle

    @property
    def mean_latency(self) -> float:
        if not self.delivered:
            return 0.0
        return sum(p.latency for p in self.delivered) / len(self.delivered)

    # ------------------------------------------------------------------
    # Kernel stepper protocol (Simulator.attach_stepper)
    # ------------------------------------------------------------------
    def next_cycle(self) -> Optional[int]:
        """Cycle of the engine's next pending work, or None when idle."""
        heap, buckets = self._bheap, self._buckets
        while heap:
            c = heap[0]
            if c in buckets:
                return c
            heapq.heappop(heap)
        return None

    def advance_n(self, limit: Optional[int]) -> int:
        """Batch-advance through every pending cycle <= ``limit``.

        Returns the number of emulated events processed, which the
        kernel folds into ``events_processed``.  ``sim.cycle`` is moved
        along with each step.
        """
        before = self.events_processed
        while True:
            nxt = self.next_cycle()
            if nxt is None or (limit is not None and nxt > limit):
                break
            if self.sim is not None:
                self.sim.cycle = nxt
            self._step(nxt)
        return self.events_processed - before

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _bucket(self, cycle: int) -> _Bucket:
        b = self._buckets.get(cycle)
        if b is None:
            b = self._buckets[cycle] = _Bucket()
            heapq.heappush(self._bheap, cycle)
        return b

    def _new_packet(self, src, dst, length, payload, now) -> VectorFlitPacket:
        pid = len(self._packets)
        packet = VectorFlitPacket(src, dst, max(1, length), payload, pid)
        packet.injected_cycle = now
        self._packets.append(packet)
        self._plen.append(packet.length)
        self._pdst.append(packet.dst)
        self.injected += 1
        return packet

    def _late_send(self, src, dst, length, payload, now) -> VectorFlitPacket:
        """Injection at the current cycle (a kernel-scheduled or direct
        :meth:`send`): the event engine's ``send`` pushes flits into the
        local VCs synchronously and the woken router ticks next cycle."""
        self.cycle = max(self.cycle, now)
        packet = self._new_packet(src, dst, length, payload, now)
        self._iqueue[src].append(packet)
        # Kernel-first ordering: the kernel drains its cycle-``now``
        # bucket before :meth:`_step` runs ``now``, so this send's wake
        # appends to bucket ``now + 1`` *before* anything the step
        # schedules — key it below ``base_key``.  A send arriving after
        # the step (a direct send after a paused ``run(until=...)``)
        # appends last instead.
        pre = now > self._stepped_cycle
        if pre:
            key = (now << _CYC_SHIFT) - _LATE_OFF + self._late_seq
        else:
            key = (now << _CYC_SHIFT) + _LATE_OFF + self._late_seq
        self._late_seq += 1
        wakes: List[Tuple[int, int]] = []
        self._try_inject(src, key, wakes)
        if wakes:
            # A pending tick makes the wake a no-op (the event engine's
            # ``_scheduled`` flag) — including a tick at *this* cycle
            # that has not stepped yet (kernel-first ordering): that
            # tick sees the flit and re-wakes itself if work remains.
            bnow = self._buckets.get(now)
            tnow = bnow.ticks if bnow is not None else ()
            ticks = self._bucket(now + 1).ticks
            thr_next = self._thr_next
            for node, own in wakes:
                if node not in tnow and node not in ticks:
                    ticks[node] = own
                    if pre:
                        # _step(now) has yet to run: expose the tick to
                        # its fused classification and wake no-op tests
                        # (cleared by the consuming step's preamble)
                        thr_next[node] = own
        return packet

    def _try_inject(self, node: int, own: int,
                    wakes: List[Tuple[int, int]]) -> None:
        """Python twin of ``FlitNetwork._try_inject`` over the columns."""
        V, cap = self.V, self.cap
        base = node * self.SPR  # LOCAL is port 0: slots base..base+V-1
        stream = self._streaming[node]
        cnt, active = self._cnt, self._active
        if stream is None:
            queue = self._iqueue[node]
            if not queue:
                return
            for vc_index in range(V):
                i = base + vc_index
                if not active[i] and not cnt[i]:
                    stream = (queue.popleft(), vc_index, 0)
                    break
            if stream is None:
                return
        packet, vc_index, next_flit = stream
        i = base + vc_index
        buf_pid, buf_fi = self._buf_pid, self._buf_fi
        h = self._head[i]
        c = old = cnt[i]
        pid = packet.pid
        length = packet.length
        ib = i * cap
        while next_flit < length and c < cap:
            pos = ib + (h + c) % cap
            buf_pid[pos] = pid
            buf_fi[pos] = next_flit
            c += 1
            next_flit += 1
        if c != old:
            cnt[i] = c
            self._buffered[node] += c - old
            a = active[i]
            self._ci_w[i] = not a
            self._ca_w[i] = a
        if next_flit >= length:
            self._streaming[node] = None
            if self._iqueue[node]:
                self._try_inject(node, own, wakes)
        else:
            self._streaming[node] = (packet, vc_index, next_flit)
        wakes.append((node, own))

    def _deliver(self, pid: int, now: int) -> None:
        packet = self._packets[pid]
        packet.delivered_cycle = now
        self.delivered.append(packet)

    def _run_inject(self, event, tau: int,
                    wakes: List[Tuple[int, int]]) -> None:
        if event[0] == "send":
            _, own, src, dst, length, payload = event
            packet = self._new_packet(src, dst, length, payload, tau)
            self._iqueue[src].append(packet)
            self._try_inject(src, own, wakes)
        else:  # ("lcred", key, node)
            self._try_inject(event[2], event[1], wakes)

    # ------------------------------------------------------------------
    def _step(self, tau: int) -> None:  # noqa: C901 - the one hot path
        """Advance the whole mesh through cycle ``tau`` (DESIGN.md §13).

        A step with at least ``_ARRAY_TICKS`` ticking routers runs the
        same phases as array operations (:meth:`_array_step`); the rest
        run the loops below, which touch only the routers that tick.
        """
        bucket = self._buckets.pop(tau)
        self.cycle = tau
        self._stepped_cycle = tau
        if self._numpy and len(bucket.ticks) >= _ARRAY_TICKS:
            if self._arrays is None:
                self._promote()
            self._array_step(tau, bucket)
            return
        if self._arrays is not None:
            bucket.listed()
        SPR, V, cap = self.SPR, self.V, self.cap
        base_key = tau << _CYC_SHIFT

        thr = self._tick_key_by_r
        thr_next = self._thr_next
        T_items = list(bucket.ticks.items())
        for r, k in T_items:
            thr[r] = k
            thr_next[r] = _NO_TICK  # consume this tick's pre-late entry
        n_ev = len(T_items)

        router_of = self._router_of
        cnt, head = self._cnt, self._head
        buf_pid, buf_fi = self._buf_pid, self._buf_fi
        buffered, credits = self._buffered, self._credits
        active = self._active
        ci_w, ca_w = self._ci_w, self._ca_w

        #: router -> minimal effective wake key seen so far
        best_wake: Dict[int, int] = {}
        bwget = best_wake.get

        # ---- 1. collect pending events (fused arrivals are already
        # classified and pre-applied by the producing step) ------------
        # an event is visible to its router's tick iff its key is below
        # the tick's key; non-ticking routers (thr == _NO_TICK) apply
        # everything immediately.  A wake is effective iff the router
        # has no tick this cycle or the key is >= the tick key — the
        # producing step could not know about ticks inserted later by
        # late sends, so effectiveness is re-checked here.  A
        # tick already pending next cycle (a kernel send's pre-late
        # wake, recorded in thr_next) makes every wake a no-op.
        n_ev += bucket.nev
        for r, k in bucket.wake_min.items():
            t = thr[r]
            if (t == _NO_TICK or k >= t) and thr_next[r] == _NO_TICK:
                best_wake[r] = k
        post_acc = bucket.post_acc
        post_cred = bucket.post_cred
        injects = bucket.inj
        if len(injects) > 1:
            injects.sort(key=lambda e: e[1])
        n_ev += len(injects)
        post_inj: List[Tuple] = []
        if injects:
            wakes: List[Tuple[int, int]] = []
            for event in injects:
                if event[1] < thr[event[2]]:
                    self._run_inject(event, tau, wakes)
                else:
                    post_inj.append(event)
            for node, own in wakes:
                t = thr[node]
                if (t == _NO_TICK or own >= t) \
                        and thr_next[node] == _NO_TICK:
                    bw = bwget(node)
                    if bw is None or own < bw:
                        best_wake[node] = own
        self.events_processed += n_ev

        # ---- 2. candidate discovery over the product mirrors ---------
        # runs before stage 1 touches the columns, so a VC activated
        # this cycle is not yet a switch candidate (ready_at = now + 1).
        # The mirrors cover the whole mesh; non-ticking routers' slots
        # are filtered in the consuming loops (rare: a router holding
        # flits at tick end always self-wakes, so a buffered router is
        # non-ticking only on the single cycle its first flit arrives).
        stage3: List[int] = []
        sacand: List[int] = []
        if T_items:
            if self._numpy:
                stage3 = _np.flatnonzero(self._ci_np).tolist()
                sacand = _np.flatnonzero(self._ca_np).tolist()
            else:
                for r in sorted(r for r, _ in T_items):
                    b = r * SPR
                    for i in range(b, b + SPR):
                        if cnt[i]:
                            (sacand if active[i] else stage3).append(i)

        # ---- 3. stage 1: route compute + VC allocation ---------------
        if stage3:
            route = self._route
            pdst = self._pdst
            claimed = self._claimed
            out_port, out_slot = self._out_port, self._out_slot
            for i in stage3:
                r = router_of[i]
                if thr[r] == _NO_TICK:
                    continue  # not ticking this cycle
                pos = i * cap + head[i]
                if buf_fi[pos]:
                    continue  # mid-packet flit: VC awaits its head
                op = route[r][pdst[buf_pid[pos]]]
                ob = r * SPR + op * V
                for ov in range(ob, ob + V):
                    if not claimed[ov]:
                        claimed[ov] = 1
                        active[i] = 1
                        ci_w[i] = False
                        ca_w[i] = True
                        out_port[i] = op
                        out_slot[i] = ov
                        break
                # allocation failure leaves the flit buffered, which
                # already forces the end-of-tick self-wake

        # ---- 4. switch allocation + traversal ------------------------
        gmask_of = self._gmask
        subtot = self._subtot
        acc_s: List[int] = []
        acc_p: List[int] = []
        acc_f: List[int] = []
        acc_r: List[int] = []
        acc_c: List[int] = []
        ret_s: List[int] = []
        ret_r: List[int] = []
        ret_c: List[int] = []
        deliveries: List[Tuple[int, int]] = []
        if sacand:
            rr = self._rr
            sidx = self._sidx
            out_port, out_slot = self._out_port, self._out_slot
            elig: List[Tuple[int, int, int, int]] = []
            for i in sacand:
                r = router_of[i]
                if thr[r] == _NO_TICK:
                    continue  # not ticking this cycle
                op = out_port[i]
                if op != LOCAL and credits[out_slot[i]] <= 0:
                    continue
                elig.append((r, (sidx[i] - rr[r]) % SPR, i, op))
            elig.sort()
            plen = self._plen
            acc_tgt = self._link
            claimed = self._claimed
            gmask = 0
            cur_r = -1
            sub = 0
            for r, _prio, i, op in elig:
                if r != cur_r:
                    if cur_r >= 0:
                        subtot[cur_r] = sub
                        gmask_of[cur_r] = gmask
                    cur_r = r
                    gmask = 0
                    sub = 0
                ob = 1 << op
                if gmask & ob:
                    continue  # one grant per output port per cycle
                gmask |= ob
                h = head[i]
                pos = i * cap + h
                pid = buf_pid[pos]
                fi = buf_fi[pos]
                head[i] = (h + 1) % cap
                c = cnt[i] - 1
                cnt[i] = c
                buffered[r] -= 1
                if fi == plen[pid] - 1:  # tail flit frees the VC
                    active[i] = 0
                    ci_w[i] = c > 0
                    ca_w[i] = False
                    claimed[out_slot[i]] = 0
                    if op == LOCAL:
                        deliveries.append((thr[r], pid))
                else:
                    ci_w[i] = False
                    ca_w[i] = c > 0
                if op != LOCAL:
                    osl = out_slot[i]
                    credits[osl] -= 1
                    acc_s.append(acc_tgt[osl])
                    acc_p.append(pid)
                    acc_f.append(fi)
                    acc_r.append(r)
                    acc_c.append(sub)
                    sub += 1
                ret_s.append(i)
                ret_r.append(r)
                ret_c.append(sub)
                sub += 1
            if cur_r >= 0:
                subtot[cur_r] = sub
                gmask_of[cur_r] = gmask

        # deliveries fire inside the ticks, in tick-key order
        if deliveries:
            deliveries.sort()
            for _, pid in deliveries:
                self._deliver(pid, tau)

        # ---- 5. end-of-tick bookkeeping ------------------------------
        # self-wake fires iff flits remain buffered at tick end or the
        # tick granted >= 2 flits (what work_left reduces to); its key
        # is the tick's own, the minimum possible effective wake
        rr = self._rr
        for r, k in T_items:
            rr[r] = (rr[r] + 1) % SPR
            if buffered[r] > 0:
                best_wake[r] = k
            else:
                gm = gmask_of[r]
                if gm & (gm - 1):  # two or more output ports granted
                    best_wake[r] = k

        # ---- 6. post-tick arrivals (wakes already registered) --------
        for s, pid, fi in post_acc:
            pos = s * cap + (head[s] + cnt[s]) % cap
            buf_pid[pos] = pid
            buf_fi[pos] = fi
            cnt[s] += 1
            buffered[router_of[s]] += 1
            a = active[s]
            ci_w[s] = not a
            ca_w[s] = a
        for cs in post_cred:
            credits[cs] += 1
        if post_inj:
            wakes = []
            for event in post_inj:
                self._run_inject(event, tau, wakes)
            for node, own in wakes:
                t = thr[node]
                if (t == _NO_TICK or own >= t) \
                        and thr_next[node] == _NO_TICK:
                    bw = bwget(node)
                    if bw is None or own < bw:
                        best_wake[node] = own

        # ---- 7. rank this cycle's appenders; materialize keys --------
        # only ticks and winning wakes append events to future buckets,
        # so dense ranks over them (in key order) reproduce the kernel's
        # append order; gaps from silent ticks don't matter
        if T_items or best_wake:
            # encode the router in the tuple's tiebreak slot: ticks as
            # +r, external-wake winners as ~r (keys never tie, so the
            # second element only disambiguates same-key impossibles)
            ranked = [(k, r) for r, k in T_items]
            for r, own in best_wake.items():
                if own != thr[r]:
                    ranked.append((own, ~r))
            ranked.sort()
            tick_base = self._tick_base
            ext_base = self._ext_base
            for rank, (_own, r_enc) in enumerate(ranked):
                child = base_key + (rank << _SUB_BITS)
                if r_enc >= 0:
                    tick_base[r_enc] = child
                else:
                    ext_base[~r_enc] = child

            # next cycle's ticks first: together with the pre-late
            # kernel-send ticks already recorded in thr_next, the wake
            # winners fully determine them, and the fused arrival
            # classification below needs them final.  A send after the
            # step only adds a key above _LATE_OFF afterwards.
            if best_wake:
                ticks_next = self._bucket(tau + 1).ticks
                for r, own in best_wake.items():
                    if own == thr[r]:         # end-of-tick self-wake
                        child = tick_base[r] + subtot[r]
                    else:                     # external arrival's wake
                        child = ext_base[r]
                    ticks_next[r] = child
                    thr_next[r] = child

            if acc_s or ret_s:
                nb = self._bucket(tau + 1)
                wmin = nb.wake_min
                wmget = wmin.get
                post_app = nb.post_acc.append
                for s, pid, fi, r, c in zip(acc_s, acc_p, acc_f,
                                            acc_r, acc_c):
                    k = tick_base[r] + c
                    dr = router_of[s]
                    t = thr_next[dr]
                    if k < t:
                        pos = s * cap + (head[s] + cnt[s]) % cap
                        buf_pid[pos] = pid
                        buf_fi[pos] = fi
                        cnt[s] += 1
                        buffered[dr] += 1
                        a = active[s]
                        ci_w[s] = not a
                        ca_w[s] = a
                        if t == _NO_TICK:
                            w = wmget(dr)
                            if w is None or k < w:
                                wmin[dr] = k
                    else:
                        post_app((s, pid, fi))
                        w = wmget(dr)
                        if w is None or k < w:
                            wmin[dr] = k
                # freed input slots credit upstream next cycle; LOCAL
                # input ports re-enter the injection path instead
                sidx = self._sidx
                ret_cslot = self._link
                inj_app = nb.inj.append
                cred_app = nb.post_cred.append
                n_lcred = 0
                for i, r, c in zip(ret_s, ret_r, ret_c):
                    k = tick_base[r] + c
                    if sidx[i] < V:  # LOCAL is port 0
                        inj_app(("lcred", k, router_of[i]))
                        n_lcred += 1
                        continue
                    cs = ret_cslot[i]
                    dr = router_of[cs]
                    t = thr_next[dr]
                    if k < t:
                        credits[cs] += 1
                        if t == _NO_TICK:
                            w = wmget(dr)
                            if w is None or k < w:
                                wmin[dr] = k
                    else:
                        cred_app(cs)
                        w = wmget(dr)
                        if w is None or k < w:
                            wmin[dr] = k
                nb.nev += len(acc_s) + len(ret_s) - n_lcred

            for r in best_wake:
                thr_next[r] = _NO_TICK

        # reset threshold + scratch columns (all-zero-between-steps)
        for r, _k in T_items:
            thr[r] = _NO_TICK
            subtot[r] = 0
            gmask_of[r] = 0

    # ------------------------------------------------------------------
    def _promote(self) -> None:
        """Move the mutable columns into NumPy arrays, once, before the
        engine's first array step.  The scalar code (injections, the
        loop phases of later small steps) indexes them through
        memoryviews, so both paths share one truth."""
        np = _np
        A = _Arrays()
        for name in _ARRAY_COLUMNS:
            column = np.array(getattr(self, name), dtype=np.int64)
            setattr(A, name[1:], column)
            setattr(self, name, memoryview(column))
        slots = np.arange(self.N, dtype=np.int64)
        A.router_of = slots // self.SPR
        A.sidx = slots % self.SPR
        A.link = np.array(self._link, dtype=np.int64)
        #: XY output port by (sign(dx) + 1, sign(dy) + 1): the ports of
        #: Mesh.port_rows, computed instead of gathered
        A.xy_port = np.array(((WEST,) * 3, (NORTH, LOCAL, SOUTH),
                              (EAST,) * 3), dtype=np.int64)
        #: per-router scratch, zero between steps
        A.tick_base = np.zeros(self.R, dtype=np.int64)
        A.subtot = np.zeros(self.R, dtype=np.int64)
        #: packet lengths and destinations, grown as packets are made
        A.plen = np.zeros(1024, dtype=np.int64)
        A.pdst = np.zeros(1024, dtype=np.int64)
        A.npk = 0
        self._arrays = A

    def _packet_arrays(self, A: _Arrays):
        """``(plen, pdst)`` arrays covering every packet made so far."""
        n, m = len(self._plen), A.npk
        if n > m:
            if n > len(A.plen):
                size = max(n, 2 * len(A.plen))
                for name in ("plen", "pdst"):
                    grown = _np.zeros(size, dtype=_np.int64)
                    grown[:m] = getattr(A, name)[:m]
                    setattr(A, name, grown)
            A.plen[m:n] = self._plen[m:n]
            A.pdst[m:n] = self._pdst[m:n]
            A.npk = n
        return A.plen, A.pdst

    def _array_step(self, tau: int, bucket: _Bucket) -> None:  # noqa: C901
        """:meth:`_step`'s phases as NumPy array operations (a big step).

        The phases and their order are the loop path's; so are every
        key and every tie-break (DESIGN.md §13, "The array path").
        Injections, local deliveries and ``"lcred"`` returns stay
        Python.  Every wake, whatever its source, is a (router, key)
        candidate; a router's winning wake is its least effective one.
        """
        np = _np
        A = self._arrays
        SPR, V, cap, R = self.SPR, self.V, self.cap, self.R
        NO = _NO_TICK
        base_key = tau << _CYC_SHIFT
        rof, link = A.router_of, A.link
        thr_a, thrn_a = A.tick_key_by_r, A.thr_next
        head_a, cnt_a = A.head, A.cnt
        bpid_a, bfi_a = A.buf_pid, A.buf_fi
        active_a, claimed_a, credits_a = A.active, A.claimed, A.credits
        buffered_a = A.buffered
        ci_np, ca_np = self._ci_np, self._ca_np

        ticks = bucket.ticks
        nT = len(ticks)
        T_r = np.fromiter(ticks, np.int64, nT)
        T_k = np.fromiter(ticks.values(), np.int64, nT)
        thr_a[T_r] = T_k
        thrn_a[T_r] = NO  # consume this tick's pre-late entry

        # ---- 1. pending events: fused wakes, pre-tick injections -----
        wm = bucket.wake_min
        if type(wm) is dict:
            wr = np.fromiter(wm, np.int64, len(wm))
            wk = np.fromiter(wm.values(), np.int64, len(wm))
        else:
            wr, wk = wm
        thr = self._tick_key_by_r
        injects = bucket.inj
        if len(injects) > 1:
            injects.sort(key=lambda e: e[1])
        #: (router, key) wakes from the Python injection paths
        wakes: List[Tuple[int, int]] = []
        post_inj: List[Tuple] = []
        for event in injects:
            if event[1] < thr[event[2]]:
                self._run_inject(event, tau, wakes)
            else:
                post_inj.append(event)
        self.events_processed += nT + bucket.nev + len(injects)
        plen_a, pdst_a = self._packet_arrays(A)

        # ---- 2. candidate discovery (before stage 1 mutates) ---------
        s3 = np.flatnonzero(ci_np)
        sa = np.flatnonzero(ca_np)

        # ---- 3. stage 1: the j-th head flit of a (router, port) group
        # in slot order takes the j-th VC of that port free at step start
        s3 = s3[thr_a[rof[s3]] != NO]
        pos = s3 * cap + head_a[s3]
        head_flit = bfi_a[pos] == 0
        s3, pos = s3[head_flit], pos[head_flit]
        if s3.size:
            r3 = rof[s3]
            dst = pdst_a[bpid_a[pos]]
            W = self.mesh.width
            op = A.xy_port[np.sign(dst % W - r3 % W) + 1,
                           np.sign(dst // W - r3 // W) + 1]
            ob = r3 * SPR + op * V
            order = np.argsort(ob, kind="stable")
            grouped = ob[order]
            n = grouped.size
            starts = np.flatnonzero(_run_starts(grouped))
            j = np.empty(n, dtype=np.int64)
            j[order] = np.arange(n) - np.repeat(
                starts, np.diff(np.append(starts, n)))
            free = claimed_a[ob[:, None] + np.arange(V)] == 0
            hit = free & (np.cumsum(free, axis=1) == (j + 1)[:, None])
            got = hit.any(axis=1)
            s3 = s3[got]
            ov = ob[got] + hit[got].argmax(axis=1)
            claimed_a[ov] = 1
            active_a[s3] = 1
            ci_np[s3] = False
            ca_np[s3] = True
            A.out_port[s3] = op[got]
            A.out_slot[s3] = ov

        # ---- 4. switch allocation + traversal ------------------------
        sa = sa[thr_a[rof[sa]] != NO]
        op = A.out_port[sa]
        osl = A.out_slot[sa]
        # eligibility reads the credits as they were before any grant
        ok = (op == LOCAL) | (credits_a[osl] > 0)
        sa, op, osl = sa[ok], op[ok], osl[ok]
        ra = rof[sa]
        # winners in (router, prio) order: per output port, the least
        # (sidx - rr) % SPR
        order = np.argsort(ra * SPR + (A.sidx[sa] - A.rr[ra]) % SPR)
        port = (ra * 5 + op)[order]
        by_port = np.argsort(port, kind="stable")
        grouped = port[by_port]
        won = by_port[_run_starts(grouped)]
        won.sort()
        won = order[won]
        sw, rw, opw, oslw = sa[won], ra[won], op[won], osl[won]
        # the per-router schedule() counter: a non-LOCAL grant takes c
        # (its accept) and c + 1 (its credit return), a LOCAL one c
        nonlocal_ = opw != LOCAL
        inc = nonlocal_ + 1
        end = np.cumsum(inc)
        first = np.flatnonzero(_run_starts(rw))
        grants = np.diff(np.append(first, rw.size))
        c = end - inc - np.repeat(end[first] - inc[first], grants)
        granted = rw[first]
        A.subtot[granted] = c[first + grants - 1] + inc[first + grants - 1]
        # pops: a slot pops at most once a step, a router many times
        h = head_a[sw]
        pos = sw * cap + h
        pid = bpid_a[pos]
        fi = bfi_a[pos]
        head_a[sw] = (h + 1) % cap
        left = cnt_a[sw] - 1
        cnt_a[sw] = left
        buffered_a[granted] -= grants
        tail = fi == plen_a[pid] - 1  # tail flit frees the VC
        ci_np[sw] = tail & (left > 0)
        ca_np[sw] = ~tail & (left > 0)
        active_a[sw[tail]] = 0
        claimed_a[oslw[tail]] = 0
        credits_a[oslw[nonlocal_]] -= 1
        acc_s = link[oslw[nonlocal_]]
        acc_p, acc_f = pid[nonlocal_], fi[nonlocal_]
        acc_r, acc_c = rw[nonlocal_], c[nonlocal_]
        ret_c = c + nonlocal_

        # deliveries fire inside the ticks, in tick-key order
        ejected = tail & ~nonlocal_
        if ejected.any():
            keys = thr_a[rw[ejected]]
            for p in pid[ejected][np.argsort(keys)].tolist():
                self._deliver(p, tau)

        # ---- 5. end-of-tick: rr bump, self-wakes ---------------------
        A.rr[T_r] = (A.rr[T_r] + 1) % SPR
        busy = buffered_a[T_r] > 0
        multi = granted[grants >= 2]

        # ---- 6. post-tick arrivals, credits and injections -----------
        post = bucket.post_acc
        if len(post):
            post = np.asarray(post, dtype=np.int64).reshape(-1, 3)
            self._push(A, post[:, 0], post[:, 1], post[:, 2])
        if len(bucket.post_cred):
            credits_a[np.asarray(bucket.post_cred, dtype=np.int64)] += 1
        for event in post_inj:
            self._run_inject(event, tau, wakes)

        # ---- wake resolution -----------------------------------------
        # a wake is effective iff its router has no tick this cycle or
        # its key is >= the tick key, and no tick is pending next cycle
        # already; the self-wake (the tick's own key) always is
        cand_r = [wr, T_r[busy], multi]
        cand_k = [wk, T_k[busy], thr_a[multi]]
        if wakes:
            py = np.array(wakes, dtype=np.int64)
            cand_r.append(py[:, 0])
            cand_k.append(py[:, 1])
        cand_r = np.concatenate(cand_r)
        cand_k = np.concatenate(cand_k)
        t = thr_a[cand_r]
        eff = ((t == NO) | (cand_k >= t)) & (thrn_a[cand_r] == NO)
        best = np.full(R, NO, dtype=np.int64)
        np.minimum.at(best, cand_r[eff], cand_k[eff])
        win = np.flatnonzero(best != NO)
        own = best[win]

        # ---- 7. rank this cycle's appenders; materialize keys --------
        tick_base = A.tick_base
        if nT or win.size:
            self_wake = own == thr_a[win]
            ext = ~self_wake
            keys = np.concatenate((T_k, own[ext]))
            rank = np.empty(keys.size, dtype=np.int64)
            rank[np.argsort(keys)] = np.arange(keys.size)
            child_base = base_key + (rank << _SUB_BITS)
            tick_base[T_r] = child_base[:nT]
            if win.size:
                # a self-wake is the tick's last schedule(); an external
                # arrival's wake is its own appender
                child = np.empty_like(own)
                ws = win[self_wake]
                child[self_wake] = tick_base[ws] + A.subtot[ws]
                child[ext] = child_base[nT:]
                self._bucket(tau + 1).ticks.update(
                    zip(win.tolist(), child.tolist()))
                thrn_a[win] = child

            if sw.size:
                nb = self._bucket(tau + 1)
                # accepts: before the receiver's tick apply now, the
                # rest arrive post-tick
                k = tick_base[acc_r] + acc_c
                dr = rof[acc_s]
                t = thrn_a[dr]
                pre = k < t
                self._push(A, acc_s[pre], acc_p[pre], acc_f[pre])
                late = ~pre
                nb.post_acc = np.stack(
                    (acc_s[late], acc_p[late], acc_f[late]), axis=1)
                wake = late | (t == NO)
                wake_r, wake_k = [dr[wake]], [k[wake]]
                # freed input slots credit upstream next cycle; LOCAL
                # input ports re-enter the injection path instead
                k = tick_base[rw] + ret_c
                lcred = A.sidx[sw] < V  # LOCAL is port 0
                if lcred.any():
                    inj = nb.inj
                    for key, node in zip(k[lcred].tolist(),
                                         rw[lcred].tolist()):
                        inj.append(("lcred", key, node))
                cs = link[sw[~lcred]]
                k = k[~lcred]
                dr = rof[cs]
                t = thrn_a[dr]
                pre = k < t
                credits_a[cs[pre]] += 1
                nb.post_cred = cs[~pre]
                wake = ~pre | (t == NO)
                wake_r.append(dr[wake])
                wake_k.append(k[wake])
                wake_r = np.concatenate(wake_r)
                best = np.full(R, NO, dtype=np.int64)
                np.minimum.at(best, wake_r, np.concatenate(wake_k))
                routers = np.flatnonzero(best != NO)
                nb.wake_min = (routers, best[routers])
                nb.nev += acc_s.size + cs.size

            thrn_a[win] = NO

        # reset threshold + scratch columns (all-zero-between-steps)
        thr_a[T_r] = NO
        A.subtot[granted] = 0

    def _push(self, A: _Arrays, s, pid, fi) -> None:
        """Append one flit to each of the distinct input slots ``s``."""
        cnt_a = A.cnt
        pos = s * self.cap + (A.head[s] + cnt_a[s]) % self.cap
        A.buf_pid[pos] = pid
        A.buf_fi[pos] = fi
        cnt_a[s] += 1
        _np.add.at(A.buffered, A.router_of[s], 1)
        routed = A.active[s] != 0
        self._ci_np[s] = ~routed
        self._ca_np[s] = routed

