"""Vectorized flit fabric: the whole mesh one cycle per step, in arrays.

The event-driven flit model (:mod:`repro.noc.flitsim`) spends most of its
time in per-event Python callbacks: every router tick, flit hop and
credit return is a separate kernel event.  This module advances the
*entire mesh one cycle per step* instead — every router pipeline, input
buffer, credit counter and in-flight flit lives in flat parallel NumPy
integer columns (one slot per router input VC), and each phase of a
step — candidate discovery, route compute and VC allocation, switch
allocation and traversal, wake resolution, key ranking — is a handful
of array operations over them (DESIGN.md §13).  Injections, local
deliveries and local credit returns stay scalar Python, over
memoryviews of the same columns.

The engine runs under the kernel: ``VectorFlitNetwork(config, sim)``
(what ``make_flit_network(sim, config, "vector")`` builds) registers
itself as the kernel's stepper and is batch-advanced between event
buckets (:meth:`Simulator.attach_stepper`); a drive injects with
:meth:`VectorFlitNetwork.send`, kernel-scheduled or direct, and reads
:attr:`VectorFlitNetwork.delivered`.

Bit-exactness contract
======================
The event engine stays the reference oracle; this engine must replay it
*event for event* — same delivered-packet stream, same delivery cycles,
same emulated event count — on every network drive.  It has no delivery
callback: the full-system flit fabric is the event engine's
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
kernel's FIFO order.  Three consequences drive the step function:

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

NumPy is required: without it, importing this module raises
:class:`ImportError`, and ``make_flit_network(sim, config, "event")``
runs the same drive bit for bit.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

try:
    import numpy as np
except ImportError as exc:  # pragma: no cover - run by the no-NumPy leg
    raise ImportError(
        "the vector flit engine (repro.noc.vecflit) needs NumPy, which "
        "is not installed; make_flit_network(sim, config, 'event') runs "
        "the same drive bit for bit without it"
    ) from exc

from ..config import NocConfig
from ..errors import UnsupportedTopology
from ..sim import Simulator
from .topology import EAST, LOCAL, NORTH, REVERSE, SOUTH, WEST, Mesh

#: order-key layout: cycle << _CYC_SHIFT | rank << _SUB_BITS | call index
_CYC_SHIFT = 24
_SUB_BITS = 6
#: offset for sends around their cycle's step
_LATE_OFF = 1 << 23
#: "no tick this cycle" sentinel (above every real key)
_NO_TICK = 1 << 62

#: XY output port by (sign(dx) + 1, sign(dy) + 1): the ports of
#: Mesh.port_rows, computed instead of gathered
_XY_PORT = np.array(((WEST,) * 3, (NORTH, LOCAL, SOUTH), (EAST,) * 3),
                    dtype=np.int64)
#: an empty slot column and an empty (slot, pid, flit index) table: a
#: bucket's fields until a step fills them
_NO_SLOTS = np.zeros(0, dtype=np.int64)
_NO_ROWS = np.zeros((0, 3), dtype=np.int64)
_NO_SLOTS.flags.writeable = _NO_ROWS.flags.writeable = False

#: (width, height, vcs) -> the link table of :func:`_link_table`
_LINK_TABLES: Dict[Tuple[int, int, int], np.ndarray] = {}


def _link_table(width: int, height: int, vcs: int) -> np.ndarray:
    """The link target of each input-VC slot of a ``width`` x
    ``height`` mesh with ``vcs`` VCs a port, slot
    ``r * 5 * vcs + port * vcs + vc``.  Read as an output slot
    ``(r, port, vc)``, an entry names the downstream input slot
    ``(neighbour, REVERSE[port], vc)``; read as an input slot, the same
    entry names the upstream output slot whose credit it returns.
    ``-1`` marks LOCAL and mesh-edge slots.  Built from slices, once
    per (shape, VCs), and shared read-only by every engine."""
    key = (width, height, vcs)
    link = _LINK_TABLES.get(key)
    if link is None:
        R = width * height
        SPR = 5 * vcs
        N = R * SPR
        link = np.full(N, -1, dtype=np.int64)
        # every slot of one port lies one fixed offset from its
        # neighbour's reverse-port slot; the routers on that port's mesh
        # edge (a range of router ids) have no neighbour
        for port, hop, edge in (
            (NORTH, -width, range(0, width)),
            (EAST, 1, range(width - 1, R, width)),
            (SOUTH, width, range(R - width, R)),
            (WEST, -1, range(0, R, width)),
        ):
            delta = hop * SPR + (REVERSE[port] - port) * vcs
            for first in range(port * vcs, (port + 1) * vcs):
                link[first::SPR] = np.arange(first + delta,
                                             first + delta + N, SPR)
                link[first + edge.start * SPR:first + edge.stop * SPR:
                     edge.step * SPR] = -1
        link.flags.writeable = False
        _LINK_TABLES[key] = link
    return link


def _run_starts(a):
    """Boolean mask of the first element of each run of equal values
    in the 1-D array ``a`` (empty for an empty ``a``)."""
    starts = np.empty(a.size, dtype=bool)
    starts[:1] = True
    np.not_equal(a[1:], a[:-1], out=starts[1:])
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
                 "lcred")

    def __init__(self):
        #: router -> order key of its scheduled tick
        self.ticks: Dict[int, int] = {}
        #: fused accept/credit events arriving this cycle (pre + post)
        self.nev = 0
        #: post-tick link arrivals: rows of (slot, pid, flit index)
        self.post_acc = _NO_ROWS
        #: post-tick upstream credit returns: credit slots
        self.post_cred = _NO_SLOTS
        #: fused events' candidate wakes: (routers, each one's least key)
        self.wake_min = (_NO_SLOTS, _NO_SLOTS)
        #: local credit returns re-entering the injection path:
        #: (key, node) pairs
        self.lcred: List[Tuple[int, int]] = []


class _Arrays:
    """An engine's columns as NumPy arrays, and the static tables its
    step gathers through."""


class VectorFlitNetwork:
    """Cycle-batched flit fabric, API-compatible with ``FlitNetwork``.

    It registers itself as ``sim``'s stepper and is batch-advanced
    between event buckets (:meth:`Simulator.attach_stepper`).  A drive
    injects with :meth:`send` — scheduled on the kernel or called
    directly between ``sim.run(until=...)`` slices — and reads the
    result from :attr:`delivered`.
    """

    def __init__(self, config: NocConfig, sim: Simulator):
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
        if config.link_cycles != 1:
            raise ValueError(
                "the vector flit engine models single-cycle links only "
                f"(link_cycles={config.link_cycles}); the event engine "
                "(make_flit_network(..., 'event')) models multi-cycle "
                "links"
            )
        self.config = config
        self.mesh = Mesh(config.width, config.height)
        self.sim = sim

        R = self.mesh.num_nodes
        V = config.vcs_per_port
        cap = config.flits_per_vc
        self.R, self.V, self.cap = R, V, cap
        #: input-VC slots per router (5 ports x V); the same index space
        #: addresses (out_port, out_vc) credit counters and claims
        self.SPR = SPR = 5 * V
        N = R * SPR

        A = self._arrays = _Arrays()
        # -- truth columns: per slot (one row per router input VC), per
        # router and per packet ----------------------------------------
        for name, size, fill in (
            # flat ring buffers: flit at (slot, pos) lives at slot*cap + pos
            ("buf_pid", N * cap, 0), ("buf_fi", N * cap, 0),
            ("head", N, 0), ("cnt", N, 0),
            ("active", N, 0),         # VC holds a downstream claim
            ("out_port", N, -1),
            ("out_slot", N, 0),       # r*SPR + out_port*V + out_vc
            ("claimed", N, 0),        # indexed like out_slot
            ("credits", N, cap),      # indexed like out_slot
            ("rr", R, 0),             # per-router SA round-robin
            ("buffered", R, 0),       # per-router flit occupancy
            # the tick key of each router ticking this step (_NO_TICK
            # between steps), and next cycle's tick keys: set while a
            # step classifies its fused events, and by a kernel send
            # ahead of its cycle's step, which clears them
            ("tick_key_by_r", R, _NO_TICK), ("thr_next", R, _NO_TICK),
            # per-router scratch: a step writes its ticking routers'
            # tick_base before reading it, and leaves subtot zero
            ("tick_base", R, 0), ("subtot", R, 0),
            # packet lengths and destinations by pid, grown by doubling
            ("plen", 1024, 0), ("pdst", 1024, 0),
        ):
            setattr(A, name, np.full(size, fill, dtype=np.int64))
        # two product masks: ci = "nonempty and unrouted" (route-compute
        # candidates), ca = "nonempty and routed" (switch candidates),
        # kept at every mutation; candidate discovery reads them *before*
        # the route-compute phase runs, which is what excludes same-cycle
        # VC activations from switch allocation (ready_at = activation + 1)
        A.ci = np.zeros(N, dtype=bool)
        A.ca = np.zeros(N, dtype=bool)
        # -- static tables ---------------------------------------------
        slots = np.arange(N, dtype=np.int64)
        A.router_of = slots // SPR
        A.sidx = slots % SPR
        #: the link target (downstream input slot == upstream credit slot)
        A.link = _link_table(config.width, config.height, V)

        # the scalar injection path reads and writes the same columns
        # through memoryviews, whose item access costs a fraction of an
        # array's
        self._buf_pid = memoryview(A.buf_pid)
        self._buf_fi = memoryview(A.buf_fi)
        self._head = memoryview(A.head)
        self._cnt = memoryview(A.cnt)
        self._active = memoryview(A.active)
        self._buffered = memoryview(A.buffered)
        self._ci = memoryview(A.ci)
        self._ca = memoryview(A.ca)
        self._tick_key_by_r = memoryview(A.tick_key_by_r)
        self._thr_next = memoryview(A.thr_next)

        # -- injection machinery (mirrors FlitNetwork) -----------------
        self._iqueue: Dict[int, Deque[VectorFlitPacket]] = {
            n: deque() for n in range(R)
        }
        self._streaming: Dict[int, Optional[Tuple]] = {
            n: None for n in range(R)
        }
        self._packets: List[VectorFlitPacket] = []

        # -- emulated event queue --------------------------------------
        self._buckets: Dict[int, _Bucket] = {}
        self._bheap: List[int] = []
        self._late_seq = 0
        self._stepped_cycle = -1

        self.events_processed = 0
        self.delivered: List[VectorFlitPacket] = []
        self.injected = 0

        sim.attach_stepper(self)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, length: int,
             payload: object = None) -> VectorFlitPacket:
        """Inject now (event-engine ``FlitNetwork.send`` semantics)."""
        return self._late_send(src, dst, length, payload, self.sim.cycle)

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

    def _late_send(self, src, dst, length, payload, now) -> VectorFlitPacket:
        """Injection at the current cycle (a kernel-scheduled or direct
        :meth:`send`): the event engine's ``send`` pushes flits into the
        local VCs synchronously and the woken router ticks next cycle."""
        pid = len(self._packets)
        packet = VectorFlitPacket(src, dst, max(1, length), payload, pid)
        packet.injected_cycle = now
        self._packets.append(packet)
        A = self._arrays
        if pid == A.plen.size:
            A.plen = np.concatenate((A.plen, np.zeros_like(A.plen)))
            A.pdst = np.concatenate((A.pdst, np.zeros_like(A.pdst)))
        A.plen[pid] = packet.length
        A.pdst[pid] = dst
        self.injected += 1
        self._iqueue[src].append(packet)
        # Kernel-first ordering: the kernel drains its cycle-``now``
        # bucket before :meth:`_step` runs ``now``, so this send's wake
        # appends to bucket ``now + 1`` *before* anything the step
        # schedules — key it below ``base_key``.  A send arriving after
        # the step (a direct send after a paused ``sim.run(until=...)``)
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
            self._ci[i] = not a
            self._ca[i] = a
        if next_flit >= length:
            self._streaming[node] = None
            if self._iqueue[node]:
                self._try_inject(node, own, wakes)
        else:
            self._streaming[node] = (packet, vc_index, next_flit)
        wakes.append((node, own))

    # ------------------------------------------------------------------
    def _step(self, tau: int) -> None:  # noqa: C901 - the one hot path
        """Advance the whole mesh through cycle ``tau`` (DESIGN.md §13).

        The phases run as array operations over the whole mesh, and each
        reproduces the event engine's keys and tie-breaks.  Injections,
        local deliveries and local credit returns stay Python.  Every
        wake, whatever its source, is a (router, key) candidate; a
        router's winning wake is its least effective one.
        """
        bucket = self._buckets.pop(tau)
        self._stepped_cycle = tau
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
        ci_a, ca_a = A.ci, A.ca

        ticks = bucket.ticks
        nT = len(ticks)
        T_r = np.fromiter(ticks, np.int64, nT)
        T_k = np.fromiter(ticks.values(), np.int64, nT)
        thr_a[T_r] = T_k
        thrn_a[T_r] = NO  # consume this tick's pre-late entry

        # ---- 1. pending events: fused wakes, pre-tick credit returns -
        # an event is visible to its router's tick iff its key is below
        # the tick's key; fused arrivals were classified and pre-applied
        # by the producing step
        wr, wk = bucket.wake_min
        thr = self._tick_key_by_r
        lcred = bucket.lcred
        if len(lcred) > 1:
            lcred.sort()
        #: (router, key) wakes from the Python injection path
        wakes: List[Tuple[int, int]] = []
        post_lcred: List[Tuple[int, int]] = []
        for key, node in lcred:
            if key < thr[node]:
                self._try_inject(node, key, wakes)
            else:
                post_lcred.append((key, node))
        self.events_processed += nT + bucket.nev + len(lcred)
        plen_a, pdst_a = A.plen, A.pdst

        # ---- 2. candidate discovery (before stage 1 mutates) ---------
        # the masks cover the whole mesh; non-ticking routers' slots are
        # dropped below (rare: a router holding flits at tick end always
        # self-wakes, so a buffered router is non-ticking only on the
        # single cycle its first flit arrives)
        s3 = np.flatnonzero(ci_a)
        sa = np.flatnonzero(ca_a)

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
            op = _XY_PORT[np.sign(dst % W - r3 % W) + 1,
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
            ci_a[s3] = False
            ca_a[s3] = True
            A.out_port[s3] = op[got]
            A.out_slot[s3] = ov
            # an allocation failure leaves the flit buffered, which
            # already forces the end-of-tick self-wake

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
        ci_a[sw] = tail & (left > 0)
        ca_a[sw] = ~tail & (left > 0)
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
            packets, delivered = self._packets, self.delivered
            for p in pid[ejected][np.argsort(keys)].tolist():
                packet = packets[p]
                packet.delivered_cycle = tau
                delivered.append(packet)

        # ---- 5. end-of-tick: rr bump, self-wakes ---------------------
        # a self-wake fires iff flits remain buffered at tick end or the
        # tick granted >= 2 flits (what work_left reduces to)
        A.rr[T_r] = (A.rr[T_r] + 1) % SPR
        busy = buffered_a[T_r] > 0
        multi = granted[grants >= 2]

        # ---- 6. post-tick arrivals, credits and credit returns -------
        post = bucket.post_acc
        if post.size:
            self._push(A, post[:, 0], post[:, 1], post[:, 2])
        if bucket.post_cred.size:
            credits_a[bucket.post_cred] += 1
        for key, node in post_lcred:
            self._try_inject(node, key, wakes)

        # ---- wake resolution -----------------------------------------
        # a wake is effective iff its router has no tick this cycle or
        # its key is >= the tick key, and no tick is pending next cycle
        # already (a kernel send's pre-late wake, recorded in thr_next);
        # the self-wake (the tick's own key) always is
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
        # only ticks and winning wakes append events to future buckets,
        # so dense ranks over them (in key order) reproduce the kernel's
        # append order; gaps from silent ticks don't matter
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
                # next cycle's ticks first: the fused classification
                # below needs them final.  A self-wake is the tick's last
                # schedule(); an external arrival's wake is its own
                # appender
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
                local = A.sidx[sw] < V  # LOCAL is port 0
                if local.any():
                    nb.lcred.extend(zip(k[local].tolist(),
                                        rw[local].tolist()))
                cs = link[sw[~local]]
                k = k[~local]
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

        # reset the tick keys and subtot for the next step
        thr_a[T_r] = NO
        A.subtot[granted] = 0

    def _push(self, A: _Arrays, s, pid, fi) -> None:
        """Append one flit to each of the distinct input slots ``s``."""
        cnt_a = A.cnt
        pos = s * self.cap + (A.head[s] + cnt_a[s]) % self.cap
        A.buf_pid[pos] = pid
        A.buf_fi[pos] = fi
        cnt_a[s] += 1
        np.add.at(A.buffered, A.router_of[s], 1)
        routed = A.active[s] != 0
        A.ci[s] = ~routed
        A.ca[s] = routed
