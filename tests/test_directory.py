"""Focused unit tests for directory-controller behaviours."""

from repro.config import NocConfig, OcorConfig, SystemConfig
from repro.coherence import MemorySystem, MessageType
from repro.coherence.messages import CoherenceMessage
from repro.noc import Network
from repro.sim import Simulator


def make_system(ocor=False, **cfg_kw):
    cfg = SystemConfig(
        noc=NocConfig(width=4, height=4),
        ocor=OcorConfig(enabled=ocor),
        num_threads=16,
        **cfg_kw,
    )
    sim = Simulator()
    net = Network(sim, cfg.noc, priority_arbitration=True)
    mem = MemorySystem(sim, cfg, net)
    net.memsys = mem
    return sim, mem


class TestQueueOrdering:
    def _contend(self, mem, sim, priorities):
        """Open a transaction, queue plain stores with given priorities,
        and return the commit order of the stores."""
        addr = mem.addr_for_home(2)
        # sharers so the first store opens a slow transaction
        for core in (1, 3, 4, 6, 9):
            mem.load(core, addr, lambda v: None)
        sim.run()
        order = []
        mem.store(5, addr, 1, lambda v: None)  # opens the txn
        sim.run(until=sim.cycle + 10)
        for i, (core, prio) in enumerate(priorities):
            mem.store(core, addr, 10 + i,
                      lambda v, c=core: order.append(c), priority=prio)
        sim.run()
        return order

    def test_fifo_without_ocor(self):
        sim, mem = make_system(ocor=False)
        order = self._contend(mem, sim, [(10, 0), (11, 5), (12, 9)])
        assert order == [10, 11, 12]

    def test_priority_order_with_ocor(self):
        sim, mem = make_system(ocor=True)
        order = self._contend(mem, sim, [(10, 1), (11, 5), (12, 9)])
        assert order == [12, 11, 10]

    def test_aging_prevents_starvation(self):
        """With aggressive aging, a low-priority request that waited
        long enough overtakes fresher high-priority ones."""
        cfg_kw = dict(
            ocor=OcorConfig(enabled=True, aging_cycles=50),
        )
        cfg = SystemConfig(
            noc=NocConfig(width=4, height=4), num_threads=16, **cfg_kw
        )
        sim = Simulator()
        net = Network(sim, cfg.noc, priority_arbitration=True)
        mem = MemorySystem(sim, cfg, net)
        net.memsys = mem
        addr = mem.addr_for_home(2)
        for core in (1, 3, 4, 6, 9):
            mem.load(core, addr, lambda v: None)
        sim.run()
        order = []
        mem.store(5, addr, 1, lambda v: None)
        sim.run(until=sim.cycle + 10)
        # the low-priority request arrives FIRST and then waits while the
        # transaction is open; with 50-cycle aging it out-levels prio 3
        mem.store(10, addr, 2, lambda v: order.append(10), priority=0)
        sim.run(until=sim.cycle + 400)
        mem.store(11, addr, 3, lambda v: order.append(11), priority=3)
        sim.run()
        assert order == [10, 11]


class TestDirectoryBookkeeping:
    def test_sharer_list_tracks_readers(self):
        sim, mem = make_system()
        addr = mem.addr_for_home(7)
        for core in (0, 2, 8):
            mem.load(core, addr, lambda v: None)
        sim.run()
        ent = mem.dirs[7].entry(addr)
        assert ent.sharers == {0, 2, 8}
        assert ent.owner is None

    def test_txn_clears_sharers_and_sets_owner(self):
        sim, mem = make_system()
        addr = mem.addr_for_home(7)
        for core in (0, 2, 8):
            mem.load(core, addr, lambda v: None)
        sim.run()
        mem.store(4, addr, 1, lambda v: None)
        sim.run()
        ent = mem.dirs[7].entry(addr)
        assert ent.owner == 4
        assert ent.sharers == set()

    def test_unblock_ignores_stale_txn_id(self):
        sim, mem = make_system()
        addr = mem.addr_for_home(7)
        mem.store(4, addr, 1, lambda v: None)
        sim.run()
        home = mem.home_of(addr)
        ent = mem.dirs[home].entry(addr)
        stale = CoherenceMessage(
            mtype=MessageType.UNBLOCK, addr=addr, requester=4, txn_id=999999
        )
        mem.dirs[home].handle(stale)
        sim.run()
        assert not ent.busy  # unchanged, no crash


class TestWinnerGetXOvertakingItsUnblock:
    def test_second_rmw_completes_without_a_self_fwd_fail(self):
        """A fabric that keeps no per-pair order can deliver a winner's
        next fail-fast GetX to the home before the Unblock that closes
        the winner's transaction (DESIGN.md §12).  Hold that Unblock
        back until the GetX has reached the home: the GetX must wait
        for the transaction to close, not come back to its sender as a
        FwdFail that parks the RMW for a commit that never comes."""
        sim, mem = make_system()
        home, winner, loser = 6, 1, 9
        addr = mem.addr_for_home(home)
        directory = mem.dirs[home]
        # far sharers keep the first transaction open long enough for
        # the loser's FwdFail to reach the winner before its commit
        for core in (3, 12, 15):
            mem.load(core, addr, lambda v: None)
        sim.run()

        fwd_fails = []
        send = mem.send

        def recording_send(src, dst, msg, data_packet=False):
            if msg.mtype is MessageType.FWD_FAIL:
                fwd_fails.append((dst, msg.requester))
            send(src, dst, msg, data_packet)

        mem.send = recording_send

        held, released = [], []
        on_unblock, on_getx = directory._on_unblock, directory._on_getx

        def holding_unblock(msg):
            if msg.requester == winner and not held:
                held.append(msg)
            else:
                on_unblock(msg)

        def releasing_getx(msg):
            on_getx(msg)
            if msg.requester == winner and held and not released:
                released.append(held[0])
                on_unblock(held[0])

        directory._on_unblock = holding_unblock
        directory._on_getx = releasing_getx

        def occupied(value):
            return value == 1

        done = []

        def first_done(value):
            done.append(("first", value))
            # sharing a copy with the loser demoted the winner's line,
            # so this RMW misses and sends a GetX while the Unblock is
            # still held back
            mem.rmw(winner, addr, lambda old: (2, old),
                    lambda v: done.append(("second", v)), fails_if=occupied)

        mem.rmw(winner, addr, lambda old: (1, old), first_done,
                fails_if=occupied)
        sim.run(until=sim.cycle + 2)
        mem.rmw(loser, addr, lambda old: (1, old),
                lambda v: done.append(("loser", v)), fails_if=occupied)
        sim.run()

        assert (winner, loser) in fwd_fails  # a real loser was forwarded
        assert released  # the GetX reached the home before the Unblock
        assert [dst for dst, requester in fwd_fails if dst == requester] == []
        assert ("loser", 1) in done
        assert ("second", 1) in done
        assert mem.read(addr) == 2
        ent = directory.entry(addr)
        assert not ent.busy and ent.owner == winner
