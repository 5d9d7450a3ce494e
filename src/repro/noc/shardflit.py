"""Spatially sharded flit fabric: row-band partitions of the vector engine.

The vector engine (:mod:`repro.noc.vecflit`) advances the whole mesh one
cycle per step in a single process.  This module partitions the mesh
into contiguous *row bands*, each owned by a :class:`_ShardCore` — a
``VectorFlitNetwork`` subclass whose per-cycle step is split into two
phases around a boundary exchange — so a *single* run can scale past
one CPU core.  Shards advance in lockstep cycles (the conservative
lookahead equals the minimum cross-boundary link latency, which the
vector engine already pins to ``link_cycles == 1``), swapping
boundary-crossing flits and credits through flat int64 columns in one
``multiprocessing.shared_memory`` block.

Bit-exactness contract
======================
The sharded engine must replay the vector engine *event for event* —
same delivered stream, same delivery cycles, same emulated event count
— which reduces to reproducing the PR 7 order-key contract across the
partition.  Three mechanisms carry it:

* **Global appender ranks.**  The vector engine ranks each cycle's
  appenders (ticks + winning wakes) densely over the whole mesh.  Each
  shard publishes its sorted appender keys (barrier *g1*); every shard
  then offsets its local rank by the count of foreign keys below each
  of its own — a two-pointer sweep over the merged sorted lists — so
  the materialized child keys equal the vector engine's exactly.
* **Receiver-side classification.**  The vector engine classifies each
  link arrival / credit return against the *receiving* router's
  next-cycle tick key (``thr_next``) at produce time.  A boundary
  event's receiver lives in another shard, so the producer ships the
  raw ``(slot, pid, flit, key)`` / ``(credit slot, key)`` tuple and
  the receiver's :meth:`_ShardCore.absorb` performs the identical
  classification against its own materialized ``ticks_next`` — which
  is final by then (its own phase B ran before the exchange barrier).
  Absorb order cannot matter: at most one flit arrives per input slot
  per cycle (claimed (port, vc) pairs are unique per router), and
  credit bumps / wake-key minima commute.
* **Global delivery merge.**  Order keys embed the cycle, so one sort
  of all shards' ``(tick key, pid)`` delivery records reproduces the
  vector engine's per-step sorted delivery order globally (a router
  grants its LOCAL port at most once per cycle, so keys never tie).

Execution
=========
The engine is a plan-driven standalone drive: queue injections with
:meth:`ShardedFlitNetwork.send_at`, then :meth:`~ShardedFlitNetwork.run`
once.  The run fans out one worker process per band (one shard is one
worker) over the shared-memory barrier protocol (two barriers per
cycle: *g1* publishes appender keys, *g2* publishes outboxes + each
shard's next pending cycle, from which every worker derives the same
global next cycle).  There is no kernel attachment and no delivery
handler: a full-system run steps the vector engine, whose schedule the
bands could only replay one after another in one process (DESIGN.md
§16).  A worker that dies flips the shared abort flag (or is detected
by the parent's liveness poll) and surfaces as a structured
:class:`repro.errors.ShardWorkerError` instead of a hang.

The barrier is spin-then-yield (``sleep(0)`` then a 200 us nap), so an
oversubscribed host — including a single-CPU container — degrades to
roughly single-process speed instead of livelocking in the spins.
Publish-then-flag ordering over the shared block assumes total store
order (x86) or a sequentially consistent single core; see DESIGN.md
§16 for the write-after-read hazard argument.
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Dict, List, Optional, Tuple

from ..config import NocConfig
from ..errors import ShardWorkerError, UnsupportedTopology
from .topology import Mesh
from .vecflit import (
    _CYC_SHIFT,
    _NO_TICK,
    _SETUP_BASE,
    _SUB_BITS,
    VectorFlitNetwork,
    VectorFlitPacket,
    _np,
)

#: wall-clock ceiling for one barrier wait before a worker gives up
_SYNC_TIMEOUT_ENV = "REPRO_SHARD_SYNC_TIMEOUT"
#: test hook: the named shard index raises at startup (crash-path tests)
_TEST_CRASH_ENV = "REPRO_SHARD_TEST_CRASH"


class _Aborted(Exception):
    """A sibling shard failed; unwind quietly (the parent reports)."""


# ----------------------------------------------------------------------
class _ShardCore(VectorFlitNetwork):
    """One row band of the mesh, stepped in two phases.

    Owns the full-mesh column layout of the parent class (so slot,
    router and credit indices are mesh-global and boundary tuples need
    no translation) but only ever activates its own band's rows:
    candidate discovery is sliced to the band and every event that
    targets a foreign router is diverted to a per-direction outbox
    instead of applied.  Packets are pure integers here — the worker
    bootstrap announces ``(pid, dst, length)`` via :meth:`note_packet`;
    real packet objects live with the parent.
    """

    def __init__(self, config: NocConfig, band: Tuple[int, int],
                 force_python: bool = False):
        super().__init__(config, sim=None, on_delivery=None,
                         force_python=force_python)
        y0, y1 = band
        self.band = (y0, y1)
        self.r_lo = y0 * config.width
        self.r_hi = y1 * config.width
        self._s_lo = self.r_lo * self.SPR
        self._s_hi = self.r_hi * self.SPR
        #: boundary outboxes, refilled by phase B: index 0 = up (toward
        #: the band above), 1 = down; acc entries are (slot, pid, flit,
        #: key), credit entries (credit slot, key)
        self._out_acc: Tuple[List, List] = ([], [])
        self._out_cred: Tuple[List, List] = ([], [])
        self.boundary_flits = [0, 0]
        self.boundary_credits = [0, 0]
        #: phase A handoff to phase B / the worker loop
        self._deliveries: List[Tuple[int, int]] = []
        self._pa_T: List[Tuple[int, int]] = []
        self._pa_wake: Dict[int, int] = {}
        self._pa_acc: Tuple[List, ...] = ([], [], [], [], [])
        self._pa_ret: Tuple[List, ...] = ([], [], [])
        self._ranked: List[Tuple[int, int]] = []

    # -- integer packet registry (parent owns the real objects) --------
    def note_packet(self, pid: int, dst: int, length: int) -> None:
        plen, pdst = self._plen, self._pdst
        n = len(plen)
        if pid >= n:
            grow = pid + 1 - n
            plen.extend([1] * grow)
            pdst.extend([0] * grow)
        plen[pid] = length
        pdst[pid] = dst

    def load_inject(self, cycle: int, key: int, src: int, dst: int,
                    length: int, pid: int) -> None:
        """Queue a pre-keyed injection event (plan row) at ``cycle``."""
        self._bucket(cycle).inj.append(("send", key, src, dst, length, pid))

    # -- tuple twins of the parent's injection path --------------------
    def _try_inject(self, node: int, own: int,
                    wakes: List[Tuple[int, int]]) -> None:
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
                    pid, length = queue.popleft()
                    stream = (pid, length, vc_index, 0)
                    break
            if stream is None:
                return
        pid, length, vc_index, next_flit = stream
        i = base + vc_index
        buf_pid, buf_fi = self._buf_pid, self._buf_fi
        h = self._head[i]
        c = old = cnt[i]
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
            self._streaming[node] = (pid, length, vc_index, next_flit)
        wakes.append((node, own))

    def _run_inject(self, event, tau: int,
                    wakes: List[Tuple[int, int]]) -> None:
        if event[0] == "send":
            _, own, src, _dst, length, pid = event
            self._iqueue[src].append((pid, length))
            self._try_inject(src, own, wakes)
        else:  # ("lcred", key, node)
            self._try_inject(event[2], event[1], wakes)

    # ------------------------------------------------------------------
    def phase_a(self, tau: int) -> None:  # noqa: C901 - mirrors _step
        """Phases 1-6 of the parent's ``_step`` over this band only.

        Deliveries are collected (``self._deliveries``), not fired — the
        parent merges the workers' logs into global key order.
        The phase-7 appender material is parked for :meth:`phase_b`.
        """
        SPR, V, cap = self.SPR, self.V, self.cap
        bucket = self._buckets.pop(tau, None)
        self.cycle = tau

        thr = self._tick_key_by_r
        T_items = list(bucket.ticks.items()) if bucket is not None else []
        for r, k in T_items:
            thr[r] = k
        n_ev = len(T_items)

        router_of = self._router_of
        cnt, head = self._cnt, self._head
        buf_pid, buf_fi = self._buf_pid, self._buf_fi
        buffered, credits = self._buffered, self._credits
        active = self._active
        ci_w, ca_w = self._ci_w, self._ca_w

        best_wake: Dict[int, int] = {}
        bwget = best_wake.get

        # ---- 1. collect pending events (see vecflit._step) -----------
        if bucket is not None:
            n_ev += bucket.nev
            for r, k in bucket.wake_min.items():
                t = thr[r]
                if t == _NO_TICK or k >= t:
                    best_wake[r] = k
            post_acc = bucket.post_acc
            post_cred = bucket.post_cred
            injects = bucket.inj
        else:
            post_acc = ()
            post_cred = ()
            injects = ()
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
                if t == _NO_TICK or own >= t:
                    bw = bwget(node)
                    if bw is None or own < bw:
                        best_wake[node] = own
        self.events_processed += n_ev

        # ---- 2. candidate discovery, sliced to the band --------------
        stage3: List[int] = []
        sacand: List[int] = []
        if T_items:
            if self._numpy:
                s_lo = self._s_lo
                stage3 = (_np.flatnonzero(self._ci_np[s_lo:self._s_hi])
                          + s_lo).tolist()
                sacand = (_np.flatnonzero(self._ca_np[s_lo:self._s_hi])
                          + s_lo).tolist()
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
                if op != 0 and credits[out_slot[i]] <= 0:
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
                    if op == 0:  # LOCAL
                        deliveries.append((thr[r], pid))
                else:
                    ci_w[i] = False
                    ca_w[i] = c > 0
                if op != 0:
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

        # (the parent fires deliveries, in merged key order)

        # ---- 5. end-of-tick bookkeeping ------------------------------
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
                if t == _NO_TICK or own >= t:
                    bw = bwget(node)
                    if bw is None or own < bw:
                        best_wake[node] = own

        self._pa_T = T_items
        self._pa_wake = best_wake
        self._pa_acc = (acc_s, acc_p, acc_f, acc_r, acc_c)
        self._pa_ret = (ret_s, ret_r, ret_c)
        self._deliveries = deliveries

    def appender_keys(self) -> List[int]:
        """Build + sort this band's appender entries; return the keys.

        Every shard's sorted key list is exchanged so :meth:`phase_b`
        can offset local ranks into mesh-global dense ranks.
        """
        thr = self._tick_key_by_r
        ranked = [(k, r) for r, k in self._pa_T]
        for r, own in self._pa_wake.items():
            if own != thr[r]:  # an external arrival's wake
                ranked.append((own, ~r))
        ranked.sort()
        self._ranked = ranked
        return [k for k, _ in ranked]

    def phase_b(self, tau: int, foreign: List[int]) -> None:
        """Phase 7 of the parent's ``_step`` with mesh-global ranks.

        ``foreign`` is the merged, sorted list of every other shard's
        appender keys.  Events targeting a foreign router are shipped
        raw through the per-direction outboxes for the receiver's
        :meth:`absorb` to classify.
        """
        V = self.V
        cap = self.cap
        base_key = tau << _CYC_SHIFT
        T_items = self._pa_T
        best_wake = self._pa_wake
        thr = self._tick_key_by_r
        thr_next = self._thr_next
        subtot = self._subtot
        gmask_of = self._gmask
        out_acc_u, out_acc_d = self._out_acc
        out_cred_u, out_cred_d = self._out_cred
        del out_acc_u[:], out_acc_d[:], out_cred_u[:], out_cred_d[:]

        if T_items or best_wake:
            ranked = self._ranked
            tick_base = self._tick_base
            ext_base = self._ext_base
            # global dense rank = local position + count of foreign
            # keys below; both lists are sorted, so one two-pointer
            # sweep covers every entry (keys never tie across shards)
            fidx = 0
            nf = len(foreign)
            for j, (own, r_enc) in enumerate(ranked):
                while fidx < nf and foreign[fidx] < own:
                    fidx += 1
                child = base_key + ((j + fidx) << _SUB_BITS)
                if r_enc >= 0:
                    tick_base[r_enc] = child
                else:
                    ext_base[~r_enc] = child

            if best_wake:
                ticks_next = self._bucket(tau + 1).ticks
                for r, own in best_wake.items():
                    if own == thr[r]:         # end-of-tick self-wake
                        child = tick_base[r] + subtot[r]
                    else:                     # external arrival's wake
                        child = ext_base[r]
                    ticks_next[r] = child
                    thr_next[r] = child

            acc_s, acc_p, acc_f, acc_r, acc_c = self._pa_acc
            ret_s, ret_r, ret_c = self._pa_ret
            if acc_s or ret_s:
                router_of = self._router_of
                cnt, head = self._cnt, self._head
                buf_pid, buf_fi = self._buf_pid, self._buf_fi
                buffered, credits = self._buffered, self._credits
                active = self._active
                ci_w, ca_w = self._ci_w, self._ca_w
                r_lo, r_hi = self.r_lo, self.r_hi
                nb = self._bucket(tau + 1)
                wmin = nb.wake_min
                wmget = wmin.get
                post_app = nb.post_acc.append
                n_remote = 0
                for s, pid, fi, r, c in zip(acc_s, acc_p, acc_f,
                                            acc_r, acc_c):
                    k = tick_base[r] + c
                    dr = router_of[s]
                    if dr < r_lo or dr >= r_hi:
                        # the receiving shard classifies (absorb)
                        if dr < r_lo:
                            out_acc_u.append((s, pid, fi, k))
                        else:
                            out_acc_d.append((s, pid, fi, k))
                        n_remote += 1
                        continue
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
                    if dr < r_lo or dr >= r_hi:
                        if dr < r_lo:
                            out_cred_u.append((cs, k))
                        else:
                            out_cred_d.append((cs, k))
                        n_remote += 1
                        continue
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
                # boundary events are counted by the receiving shard
                nb.nev += len(acc_s) + len(ret_s) - n_lcred - n_remote

            for r in best_wake:
                thr_next[r] = _NO_TICK

        self.boundary_flits[0] += len(out_acc_u)
        self.boundary_flits[1] += len(out_acc_d)
        self.boundary_credits[0] += len(out_cred_u)
        self.boundary_credits[1] += len(out_cred_d)

        for r, _k in T_items:
            thr[r] = _NO_TICK
            subtot[r] = 0
            gmask_of[r] = 0

    def absorb(self, tau: int, acc_in: List[Tuple[int, int, int, int]],
               cred_in: List[Tuple[int, int]]) -> None:
        """Apply inbound boundary events, classified against this
        shard's own (final) next-cycle tick keys — the exact test the
        vector engine's producing step performs via ``thr_next``."""
        if not acc_in and not cred_in:
            return
        cap = self.cap
        nb = self._bucket(tau + 1)
        ticks_next = nb.ticks
        tget = ticks_next.get
        wmin = nb.wake_min
        wmget = wmin.get
        router_of = self._router_of
        cnt, head = self._cnt, self._head
        buf_pid, buf_fi = self._buf_pid, self._buf_fi
        credits = self._credits
        active = self._active
        ci_w, ca_w = self._ci_w, self._ca_w
        buffered = self._buffered
        for s, pid, fi, k in acc_in:
            dr = router_of[s]
            t = tget(dr, _NO_TICK)
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
                nb.post_acc.append((s, pid, fi))
                w = wmget(dr)
                if w is None or k < w:
                    wmin[dr] = k
        for cs, k in cred_in:
            dr = router_of[cs]
            t = tget(dr, _NO_TICK)
            if k < t:
                credits[cs] += 1
                if t == _NO_TICK:
                    w = wmget(dr)
                    if w is None or k < w:
                        wmin[dr] = k
            else:
                nb.post_cred.append(cs)
                w = wmget(dr)
                if w is None or k < w:
                    wmin[dr] = k
        nb.nev += len(acc_in) + len(cred_in)


# ----------------------------------------------------------------------
# Shared-memory exchange protocol (multiprocess mode)
# ----------------------------------------------------------------------
class _ShmLayout:
    """Index map over the one int64 shared block.

    Word 0 is the abort flag.  Each shard then owns a fixed block:
    its barrier sequence word, its next-pending-cycle word, its
    published appender keys, and two direction sub-blocks (up, down)
    of boundary flit quads ``(slot, pid, flit, key)`` and credit pairs
    ``(credit slot, key)``, each behind a count word.  Capacities are
    structural maxima: appenders per cycle are at most two per band
    router (tick + external wake), at most one flit crosses per
    boundary column per cycle (one grant per output port), and at most
    five credits return per boundary router per cycle (one per granted
    output port).
    """

    def __init__(self, config: NocConfig, bands: Tuple[Tuple[int, int], ...]):
        W = config.width
        band_r = max((y1 - y0) for y0, y1 in bands) * W
        self.nshards = len(bands)
        self.maxk = 2 * band_r + 4
        self.maxf = W + 2
        self.maxc = 5 * W + 2
        self._dir_words = 2 + 4 * self.maxf + 2 * self.maxc
        self.block = 3 + self.maxk + 2 * self._dir_words
        self.total = 1 + self.nshards * self.block

    def seq_i(self, s: int) -> int:
        return 1 + s * self.block

    def next_i(self, s: int) -> int:
        return 2 + s * self.block

    def nkeys_i(self, s: int) -> int:
        return 3 + s * self.block

    def keys_i(self, s: int) -> int:
        return 4 + s * self.block

    def _dir_i(self, s: int, d: int) -> int:
        return 4 + s * self.block + self.maxk + d * self._dir_words

    def nacc_i(self, s: int, d: int) -> int:
        return self._dir_i(s, d)

    def acc_i(self, s: int, d: int) -> int:
        return self._dir_i(s, d) + 1

    def ncred_i(self, s: int, d: int) -> int:
        return self._dir_i(s, d) + 1 + 4 * self.maxf

    def cred_i(self, s: int, d: int) -> int:
        return self._dir_i(s, d) + 2 + 4 * self.maxf


def _global_next(mv, lay: _ShmLayout, tau: Optional[int]) -> Optional[int]:
    """The cycle every shard steps next, derived from published state.

    Deterministic in the shared block alone, so each worker computes it
    independently and all agree: the minimum of the shards' own next
    pending cycles, floored by ``tau + 1`` whenever any outbox was
    non-empty this cycle (the receiver's bucket for ``tau + 1`` exists
    even though its published ``next`` predates the exchange).
    """
    best: Optional[int] = None
    for s in range(lay.nshards):
        v = mv[lay.next_i(s)]
        if v >= 0 and (best is None or v < best):
            best = v
    if tau is not None and (best is None or best > tau + 1):
        for s in range(lay.nshards):
            if (mv[lay.nacc_i(s, 0)] or mv[lay.nacc_i(s, 1)]
                    or mv[lay.ncred_i(s, 0)] or mv[lay.ncred_i(s, 1)]):
                return tau + 1
    return best


def _shard_worker(shard_id: int, nshards: int, config: NocConfig,
                  band: Tuple[int, int], rows: List[Tuple],
                  pmeta: List[Tuple[int, int]], until: Optional[int],
                  shm_name: str, conn, force_python: bool,
                  lay: _ShmLayout) -> None:
    """One shard's process: step the band under the 2-barrier protocol."""
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=shm_name)
    raw = memoryview(shm.buf)
    mv = raw.cast("q")
    try:
        crash = os.environ.get(_TEST_CRASH_ENV)
        if crash is not None and crash == str(shard_id):
            raise RuntimeError(
                f"shard {shard_id} crashed on request ({_TEST_CRASH_ENV})"
            )
        core = _ShardCore(config, band, force_python=force_python)
        for pid, (dst, length) in enumerate(pmeta):
            core.note_packet(pid, dst, length)
        for cycle, key, src, dst, length, pid in rows:
            core.load_inject(cycle, key, src, dst, length, pid)

        timeout = float(os.environ.get(_SYNC_TIMEOUT_ENV, "120"))
        seq_idx = [lay.seq_i(s) for s in range(nshards)]
        bseq = 0

        def barrier() -> None:
            nonlocal bseq
            bseq += 1
            mv[seq_idx[shard_id]] = bseq
            deadline = None
            for s in range(nshards):
                if s == shard_id:
                    continue
                si = seq_idx[s]
                spins = 0
                while mv[si] < bseq:
                    if mv[0]:
                        raise _Aborted()
                    spins += 1
                    if spins < 200:
                        continue
                    if spins < 2000:
                        time.sleep(0)  # yield: single-core hosts degrade
                        continue       # gracefully instead of livelocking
                    time.sleep(0.0002)
                    if deadline is None:
                        deadline = time.monotonic() + timeout
                    elif time.monotonic() > deadline:
                        raise RuntimeError(
                            f"shard {shard_id} waited more than "
                            f"{timeout:.0f}s for shard {s} at barrier "
                            f"{bseq} ({_SYNC_TIMEOUT_ENV} to raise)"
                        )

        dlog: List[Tuple[int, int, int]] = []
        nxt = core.next_cycle()
        mv[lay.next_i(shard_id)] = -1 if nxt is None else nxt
        barrier()  # bootstrap: everyone's initial next is published
        gnext = _global_next(mv, lay, None)
        while gnext is not None and (until is None or gnext <= until):
            tau = gnext
            core.phase_a(tau)
            for k, pid in core._deliveries:
                dlog.append((k, tau, pid))
            keys = core.appender_keys()
            mv[lay.nkeys_i(shard_id)] = len(keys)
            o = lay.keys_i(shard_id)
            for k in keys:
                mv[o] = k
                o += 1
            barrier()  # g1: appender keys published
            foreign: List[int] = []
            for s in range(nshards):
                if s == shard_id:
                    continue
                si = lay.keys_i(s)
                foreign.extend(mv[si:si + mv[lay.nkeys_i(s)]])
            if nshards > 2:
                foreign.sort()
            core.phase_b(tau, foreign)
            for d in (0, 1):
                acc = core._out_acc[d]
                mv[lay.nacc_i(shard_id, d)] = len(acc)
                o = lay.acc_i(shard_id, d)
                for s_, pid, fi, k in acc:
                    mv[o] = s_
                    mv[o + 1] = pid
                    mv[o + 2] = fi
                    mv[o + 3] = k
                    o += 4
                cred = core._out_cred[d]
                mv[lay.ncred_i(shard_id, d)] = len(cred)
                o = lay.cred_i(shard_id, d)
                for cs, k in cred:
                    mv[o] = cs
                    mv[o + 1] = k
                    o += 2
            nxt = core.next_cycle()
            mv[lay.next_i(shard_id)] = -1 if nxt is None else nxt
            barrier()  # g2: outboxes + next published
            acc_in: List[Tuple[int, int, int, int]] = []
            cred_in: List[Tuple[int, int]] = []
            for nb_s, d in ((shard_id - 1, 1), (shard_id + 1, 0)):
                if nb_s < 0 or nb_s >= nshards:
                    continue
                n = mv[lay.nacc_i(nb_s, d)]
                o = lay.acc_i(nb_s, d)
                for _ in range(n):
                    acc_in.append((mv[o], mv[o + 1], mv[o + 2], mv[o + 3]))
                    o += 4
                n = mv[lay.ncred_i(nb_s, d)]
                o = lay.cred_i(nb_s, d)
                for _ in range(n):
                    cred_in.append((mv[o], mv[o + 1]))
                    o += 2
            core.absorb(tau, acc_in, cred_in)
            gnext = _global_next(mv, lay, tau)
        if until is not None and until > core.cycle:
            core.cycle = until
        conn.send(("done", shard_id, {
            "events": core.events_processed,
            "deliveries": dlog,
            "last_cycle": core.cycle,
            "rows": core.band,
            "boundary_flits": list(core.boundary_flits),
            "boundary_credits": list(core.boundary_credits),
        }))
    except _Aborted:
        conn.send(("aborted", shard_id, None))
    except BaseException:
        mv[0] = 1  # release every sibling spinning at a barrier
        try:
            conn.send(("error", shard_id, traceback.format_exc()))
        except Exception:  # pragma: no cover - parent already gone
            pass
    finally:
        mv.release()
        raw.release()
        shm.close()
        conn.close()


# ----------------------------------------------------------------------
class ShardedFlitNetwork:
    """Row-band sharded flit fabric: a plan-driven standalone drive.

    Queue injections with :meth:`send_at`, then :meth:`run` once: the
    run fans out one worker process per row band and merges their
    deliveries into the vector engine's order.  ``shards`` is the band
    count, between 1 and the mesh height.
    """

    def __init__(self, config: NocConfig, shards: int,
                 force_python: bool = False):
        if config.topology != "mesh":
            raise UnsupportedTopology(
                f"the sharded flit engine partitions the 5-port mesh "
                f"router fabric only; topology {config.topology!r} "
                f"requires the packet-level network",
                model="flit/sharded",
                topology=config.topology,
            )
        if config.link_cycles != 1:
            raise ValueError(
                "the sharded flit engine models single-cycle links only "
                f"(link_cycles={config.link_cycles}): its conservative "
                "lookahead equals the cross-boundary link latency"
            )
        n = int(shards)
        if not 1 <= n <= config.height:
            raise ValueError(
                f"shards={n} must be between 1 and the mesh height "
                f"({config.height}): each shard owns at least one row"
            )
        self.config = config
        self.mesh = Mesh(config.width, config.height)
        self.shards = n
        self._force_python = force_python
        # balanced contiguous row bands, top row band first
        base, rem = divmod(config.height, n)
        bands: List[Tuple[int, int]] = []
        y = 0
        for i in range(n):
            h = base + (1 if i < rem else 0)
            bands.append((y, y + h))
            y += h
        self.bands: Tuple[Tuple[int, int], ...] = tuple(bands)

        self._setup_rows: List[Tuple] = []
        self._setup_seq = 0
        self._ran = False
        self._counters: Tuple[Dict, ...] = ()

        self.cycle = 0
        self.events_processed = 0
        self.delivered: List[VectorFlitPacket] = []
        self.injected = 0

    def send_at(self, cycle: int, src: int, dst: int, length: int,
                payload: object = None) -> None:
        """Schedule an injection; keys mirror the vector engine's
        setup-time ordering (call order below every run-time key)."""
        key = _SETUP_BASE + self._setup_seq
        self._setup_seq += 1
        self._setup_rows.append((cycle, key, src, dst, length, payload))

    def shard_counters(self) -> Tuple[Dict, ...]:
        """Per-shard counter snapshots from the worker reports."""
        return self._counters

    def run(self, until: Optional[int] = None) -> int:
        """Run the plan on one worker process per shard: drain, or
        pause at ``until``.  One-shot."""
        if self._ran:
            raise RuntimeError(
                "the sharded run is one-shot; build a fresh "
                "ShardedFlitNetwork for another run"
            )
        self._ran = True
        import multiprocessing as mp
        from multiprocessing import shared_memory

        config, n = self.config, self.shards
        shard_of_node: List[int] = []
        for i, (y0, y1) in enumerate(self.bands):
            shard_of_node.extend([i] * ((y1 - y0) * config.width))
        # pid assignment in execution order (cycle, then key), matching
        # the vector engine's lazy creation inside its inject events
        packets: List[VectorFlitPacket] = []
        rows_by_shard: List[List[Tuple]] = [[] for _ in range(n)]
        for cycle, key, src, dst, length, payload in sorted(
            self._setup_rows, key=lambda t: (t[0], t[1])
        ):
            pid = len(packets)
            packet = VectorFlitPacket(src, dst, max(1, length), payload, pid)
            packet.injected_cycle = cycle
            packets.append(packet)
            rows_by_shard[shard_of_node[src]].append(
                (cycle, key, src, dst, packet.length, pid)
            )
        self.injected = len(packets)
        pmeta = [(p.dst, p.length) for p in packets]

        lay = _ShmLayout(config, self.bands)
        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX hosts
            ctx = mp.get_context()
        shm = shared_memory.SharedMemory(create=True, size=lay.total * 8)
        raw = memoryview(shm.buf)
        mv = raw.cast("q")
        procs: List = []
        conns: List = []
        try:
            for i in range(lay.total):
                mv[i] = 0
            for i in range(n):
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                p = ctx.Process(
                    target=_shard_worker,
                    args=(i, n, config, self.bands[i], rows_by_shard[i],
                          pmeta, until, shm.name, child_conn,
                          self._force_python, lay),
                    daemon=True,
                )
                procs.append(p)
                conns.append(parent_conn)
                p.start()
                child_conn.close()
            results: List[Optional[Dict]] = [None] * n
            failure: Optional[Tuple] = None
            pending = set(range(n))
            while pending and failure is None:
                for i in list(pending):
                    if conns[i].poll(0.02):
                        try:
                            kind, sid, payload = conns[i].recv()
                        except (EOFError, OSError):
                            failure = ("shard worker died without "
                                       "reporting", i, None,
                                       procs[i].exitcode)
                            pending.discard(i)
                            continue
                        if kind == "done":
                            results[sid] = payload
                            pending.discard(i)
                        elif kind == "error":
                            failure = ("shard worker raised", sid,
                                       payload, None)
                            pending.discard(i)
                        else:  # "aborted": a sibling already failed
                            pending.discard(i)
                    elif not procs[i].is_alive():
                        if conns[i].poll(0):
                            continue  # drain its final message first
                        failure = ("shard worker died without reporting",
                                   i, None, procs[i].exitcode)
                        pending.discard(i)
            if failure is not None:
                mv[0] = 1  # release siblings spinning at a barrier
                for p in procs:
                    p.join(timeout=5)
                for p in procs:
                    if p.is_alive():  # pragma: no cover - stuck worker
                        p.terminate()
                msg, sid, tb, exitcode = failure
                raise ShardWorkerError(
                    f"{msg} (shard {sid} of {n})",
                    shard=sid,
                    shards=n,
                    exitcode=exitcode,
                    worker_traceback=tb,
                )
            for p in procs:
                p.join()
            dl: List[Tuple[int, int, int]] = []
            counters: List[Dict] = []
            last = 0
            for sid in range(n):
                res = results[sid]
                self.events_processed += res["events"]
                last = max(last, res["last_cycle"])
                dl.extend(res["deliveries"])
                counters.append({
                    "shard": sid,
                    "rows": tuple(res["rows"]),
                    "events": res["events"],
                    "boundary_flits": tuple(res["boundary_flits"]),
                    "boundary_credits": tuple(res["boundary_credits"]),
                })
            # keys embed the cycle and never tie (one LOCAL grant per
            # router per cycle): one sort = the global delivery order
            dl.sort()
            for _k, dtau, pid in dl:
                packet = packets[pid]
                packet.delivered_cycle = dtau
                self.delivered.append(packet)
            self.cycle = last
            self._counters = tuple(counters)
            return self.cycle
        finally:
            for c in conns:
                c.close()
            mv.release()
            raw.release()
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
