"""Tests for the declarative protocol tables and their compiler.

Covers the table layer the golden fingerprints cannot see: table
exhaustiveness (the lint), permissions derived from table metadata
rather than hard-coded MOESI properties, the attach-time lowering onto
the tag-indexed dispatch fast path, per-variant semantics (the MESI
exclusive grant and silent upgrade), the table-validating checker's
structured violations, and that the bitmask/message-pool fast paths
stay active under every variant.
"""

import pytest

from repro import ManyCoreSystem, SystemConfig, single_lock_workload
from repro.config import NocConfig, PROTOCOL_NAMES
from repro.coherence import L1State, MemorySystem
from repro.coherence.checker import ProtocolChecker, ProtocolViolation
from repro.coherence.directory import _HANDLER_NAMES as DIR_HANDLER_NAMES
from repro.coherence.l1cache import _HANDLER_NAMES as L1_HANDLER_NAMES
from repro.coherence.messages import CoherenceMessage, MessageType
from repro.coherence.protocol import (
    DIR_MESSAGE_EVENTS,
    L1_MESSAGE_EVENTS,
    LOAD,
    MESI,
    MOESI,
    MSI,
    PROTOCOLS,
    ProtocolSpec,
    UNHANDLED,
    get_protocol,
    lint_protocol,
)
from repro.noc import Network
from repro.sim import Simulator

I, S, E, O, M = (L1State.INVALID, L1State.SHARED, L1State.EXCLUSIVE,
                 L1State.OWNED, L1State.MODIFIED)


def make_system(**cfg_kw):
    cfg = SystemConfig(noc=NocConfig(width=4, height=4), num_threads=16,
                       **cfg_kw)
    sim = Simulator()
    net = Network(sim, cfg.noc)
    mem = MemorySystem(sim, cfg, net)
    net.memsys = mem
    return sim, mem


# ----------------------------------------------------------------------
# Exhaustiveness lint
# ----------------------------------------------------------------------
class TestLint:
    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_shipped_tables_are_well_formed(self, name):
        assert lint_protocol(PROTOCOLS[name]) == []

    def test_registry_matches_config_axis(self):
        assert set(PROTOCOLS) == set(PROTOCOL_NAMES)
        for name, spec in PROTOCOLS.items():
            assert get_protocol(name) is spec
            assert get_protocol(name.upper()) is spec
        with pytest.raises(ValueError):
            get_protocol("mosi")

    def test_missing_pair_rejected_at_definition(self):
        l1 = dict(MSI.l1_table)
        del l1[(S, LOAD)]
        with pytest.raises(ValueError, match=r"\(S, Load\) missing"):
            ProtocolSpec("broken", MSI.l1_states, l1, MSI.dir_table)

    def test_unknown_action_rejected(self):
        l1 = dict(MSI.l1_table)
        entry = l1[(S, LOAD)]
        l1[(S, LOAD)] = type(entry)(entry.next_state, "warp_core_breach")
        with pytest.raises(ValueError, match="unknown action"):
            ProtocolSpec("broken", MSI.l1_states, l1, MSI.dir_table)

    def test_result_state_outside_protocol_rejected(self):
        l1 = dict(MSI.l1_table)
        entry = l1[(S, LOAD)]
        l1[(S, LOAD)] = type(entry)(O, entry.action)
        with pytest.raises(ValueError, match="result state O"):
            ProtocolSpec("broken", MSI.l1_states, l1, MSI.dir_table)

    def test_declared_impossible_pairs_are_explicit(self):
        """UNHANDLED is a real entry, not a missing key: the one-shot
        ack-collection messages must never land on a Modified line."""
        for spec in PROTOCOLS.values():
            assert spec.l1_entry(M, MessageType.DATA_EXCL) is UNHANDLED
            assert spec.l1_entry(M, MessageType.ACK_COUNT) is UNHANDLED
            assert spec.l1_entry(I, "Evict") is UNHANDLED


# ----------------------------------------------------------------------
# Derived metadata (permissions come from the table, not the Enum)
# ----------------------------------------------------------------------
class TestDerivedPermissions:
    def test_moesi_matches_the_enum_convenience_view(self):
        for st in MOESI.l1_states:
            assert MOESI.can_read[st.idx] == st.can_read
            assert MOESI.owns_data[st.idx] == st.owns_data
        # E is not in MOESI's state set, so the one divergence from the
        # Enum view (E.can_write) never materializes at run time
        assert E not in MOESI.l1_states

    def test_per_protocol_write_permission(self):
        assert [st for st in MOESI.l1_states if MOESI.can_write[st.idx]] == [M]
        assert [st for st in MSI.l1_states if MSI.can_write[st.idx]] == [M]
        # MESI: the silent E -> M upgrade is a write hit
        assert [st for st in MESI.l1_states if MESI.can_write[st.idx]] == \
            [E, M]

    def test_per_protocol_ownership(self):
        assert [st for st in MOESI.l1_states if MOESI.owns_data[st.idx]] == \
            [O, M]
        assert [st for st in MSI.l1_states if MSI.owns_data[st.idx]] == [M]
        assert [st for st in MESI.l1_states if MESI.owns_data[st.idx]] == \
            [E, M]

    def test_variant_flags(self):
        assert MOESI.fwd_gets_next is O
        assert MOESI.fail_share_next is O
        assert not MOESI.home_takes_ownership
        assert not MOESI.grant_exclusive_clean
        for spec in (MSI, MESI):
            assert spec.fwd_gets_next is S
            assert spec.fail_share_next is S
            assert spec.home_takes_ownership
        assert not MSI.grant_exclusive_clean
        assert MESI.grant_exclusive_clean
        assert MSI.exclusive_fill_state is S
        assert MESI.exclusive_fill_state is E


# ----------------------------------------------------------------------
# Attach-time compiler
# ----------------------------------------------------------------------
class TestCompiler:
    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_l1_dispatch_lowered_to_named_handlers(self, protocol):
        """The compiled tuple is exactly the tag-indexed bound-method
        layout the hand-built fast path used."""
        _sim, mem = make_system(protocol=protocol)
        l1 = mem.l1s[0]
        assert l1.protocol is PROTOCOLS[protocol]
        for mtype in L1_MESSAGE_EVENTS:
            handler = l1._dispatch[mtype.tag]
            assert handler is not None
            assert handler.__func__.__name__ == L1_HANDLER_NAMES[mtype.tag]
            assert handler.__self__ is l1
        for mtype in MessageType:
            if mtype not in L1_MESSAGE_EVENTS:
                assert l1._dispatch[mtype.tag] is None

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_dir_dispatch_lowered_to_named_handlers(self, protocol):
        _sim, mem = make_system(protocol=protocol)
        directory = mem.dirs[0]
        assert directory.protocol is PROTOCOLS[protocol]
        for mtype in DIR_MESSAGE_EVENTS:
            handler = directory._dispatch[mtype.tag]
            assert handler.__func__.__name__ == DIR_HANDLER_NAMES[mtype.tag]
        for mtype in MessageType:
            if mtype not in DIR_MESSAGE_EVENTS:
                assert directory._dispatch[mtype.tag] is None

    def test_compiled_flags_reach_the_controllers(self):
        _sim, mem = make_system(protocol="mesi")
        l1 = mem.l1s[3]
        assert l1._fwd_gets_state is S
        assert l1._fail_share_state is S
        assert l1._excl_fill_state is E
        assert l1._can_write[E.idx] and not l1._can_write[S.idx]
        directory = mem.dirs[0]
        assert directory._home_takes_ownership
        assert directory._grant_exclusive_clean


# ----------------------------------------------------------------------
# Variant semantics
# ----------------------------------------------------------------------
class TestMesiSemantics:
    def test_clean_gets_grants_exclusive(self):
        sim, mem = make_system(protocol="mesi")
        addr = mem.addr_for_home(3)
        mem.load(5, addr, lambda _v: None)
        sim.run()
        assert mem.l1s[5].state_of(addr) is E
        ent = mem.dirs[3].entry(addr)
        assert ent.owner == 5 and ent.sharer_mask == 0

    def test_second_sharer_demotes_the_grant(self):
        sim, mem = make_system(protocol="mesi")
        addr = mem.addr_for_home(3)
        mem.load(5, addr, lambda _v: None)
        sim.run()
        mem.load(9, addr, lambda _v: None)
        sim.run()
        assert mem.l1s[5].state_of(addr) is S
        assert mem.l1s[9].state_of(addr) is S
        ent = mem.dirs[3].entry(addr)
        assert ent.owner is None and ent.sharers == {5, 9}

    def test_silent_upgrade_issues_no_getx(self):
        sim, mem = make_system(protocol="mesi")
        addr = mem.addr_for_home(3)
        mem.load(5, addr, lambda _v: None)
        sim.run()
        sent = []
        original_send = mem.send

        def spying_send(src, dst, msg, **kw):
            sent.append(msg.mtype)
            return original_send(src, dst, msg, **kw)

        mem.send = spying_send
        done = []
        mem.store(5, addr, 42, done.append)
        sim.run()
        mem.send = original_send
        assert len(done) == 1  # store completed (callback sees old value)
        assert mem.l1s[5].state_of(addr) is M
        assert MessageType.GETX not in sent
        assert mem.read(addr) == 42

    def test_msi_never_grants_exclusive(self):
        sim, mem = make_system(protocol="msi")
        addr = mem.addr_for_home(3)
        mem.load(5, addr, lambda _v: None)
        sim.run()
        assert mem.l1s[5].state_of(addr) is S
        ent = mem.dirs[3].entry(addr)
        assert ent.owner is None and ent.sharers == {5}

    @pytest.mark.parametrize("protocol", ["msi", "mesi"])
    def test_sharing_a_dirty_block_returns_ownership_home(self, protocol):
        """No O state: after a reader hits a written block, the writer is
        demoted to Shared and the home reclaims ownership."""
        sim, mem = make_system(protocol=protocol)
        addr = mem.addr_for_home(3)
        mem.rmw(4, addr, lambda old: (old + 1, old), lambda _v: None)
        sim.run()
        assert mem.l1s[4].state_of(addr) is M
        mem.load(11, addr, lambda _v: None)
        sim.run()
        assert mem.l1s[4].state_of(addr) is S
        assert mem.l1s[11].state_of(addr) is S
        ent = mem.dirs[3].entry(addr)
        assert ent.owner is None and ent.sharers == {4, 11}

    def test_moesi_keeps_the_demoted_owner(self):
        sim, mem = make_system(protocol="moesi")
        addr = mem.addr_for_home(3)
        mem.rmw(4, addr, lambda old: (old + 1, old), lambda _v: None)
        sim.run()
        mem.load(11, addr, lambda _v: None)
        sim.run()
        assert mem.l1s[4].state_of(addr) is O
        ent = mem.dirs[3].entry(addr)
        assert ent.owner == 4 and ent.sharers == {11}


# ----------------------------------------------------------------------
# The table-validating checker: structured violations
# ----------------------------------------------------------------------
class TestStructuredViolations:
    def make_checked(self, protocol):
        sim, mem = make_system(protocol=protocol)
        checker = ProtocolChecker(sim, mem)
        return sim, mem, checker

    def test_state_outside_protocol_names_the_pair(self):
        """A forged Exclusive line under MSI is flagged the moment any
        message reaches it, with the (state, event) pair attached."""
        sim, mem, _checker = self.make_checked("msi")
        addr = mem.addr_for_home(3)
        mem.load(7, addr, lambda _v: None)
        sim.run()
        mem.l1s[7].lines[addr] = L1State.EXCLUSIVE  # not an MSI state
        inv = CoherenceMessage(MessageType.INV, addr, requester=0,
                               sender=3, inv_target=7)
        with pytest.raises(ProtocolViolation) as exc:
            mem.l1s[7]._dispatch[MessageType.INV.tag](inv)
        assert exc.value.state == "E"
        assert exc.value.event == "Inv"
        assert exc.value.core == 7
        assert exc.value.addr == addr

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_unhandled_pair_names_the_pair(self, protocol):
        """Delivering an AckCount to a line already in M hits the
        explicit UNHANDLED entry in every variant."""
        sim, mem, _checker = self.make_checked(protocol)
        addr = mem.addr_for_home(3)
        mem.rmw(4, addr, lambda old: (old + 1, old), lambda _v: None)
        sim.run()
        assert mem.l1s[4].state_of(addr) is M
        stray = CoherenceMessage(MessageType.ACK_COUNT, addr, requester=4,
                                 sender=3)
        with pytest.raises(ProtocolViolation) as exc:
            mem.l1s[4]._dispatch[MessageType.ACK_COUNT.tag](stray)
        assert exc.value.state == "M"
        assert exc.value.event == "AckCount"
        assert exc.value.core == 4

    def test_non_strict_records_the_pair_in_the_report(self):
        sim, mem, checker = self.make_checked("msi")
        checker.strict = False
        addr = mem.addr_for_home(3)
        mem.load(7, addr, lambda _v: None)
        sim.run()
        mem.l1s[7].lines[addr] = L1State.OWNED
        inv = CoherenceMessage(MessageType.INV, addr, requester=0,
                               sender=3, inv_target=7)
        mem.l1s[7]._dispatch[MessageType.INV.tag](inv)
        assert not checker.report.clean
        assert "(O, Inv)" in checker.report.violations[-1] or \
            "state O outside" in checker.report.violations[-1]

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_clean_contended_traffic_checks_transitions(self, protocol):
        sim, mem, checker = self.make_checked(protocol)
        addr = mem.addr_for_home(3)
        for core in range(8):
            mem.rmw(core, addr, lambda old: (old + 1, old), lambda v: None,
                    ll_sc=True)
        sim.run(until=1_000_000)
        checker.check_tracked_copies()
        assert checker.report.clean, checker.report.violations[:3]
        assert checker.report.transitions_checked > 0


# ----------------------------------------------------------------------
# Checked full runs + fast-path behavior per protocol
# ----------------------------------------------------------------------
class TestProtocolFamilyRuns:
    @pytest.mark.parametrize("protocol", ["msi", "mesi"])
    @pytest.mark.parametrize("mechanism", ["original", "inpg"])
    def test_contended_run_is_protocol_clean(self, protocol, mechanism):
        cfg = SystemConfig(
            noc=NocConfig(width=4, height=4), num_threads=16,
            protocol=protocol,
        ).with_mechanism(mechanism)
        wl = single_lock_workload(16, home_node=5, cs_per_thread=2,
                                  cs_cycles=60, parallel_cycles=150)
        system = ManyCoreSystem(cfg, wl, primitive="qsl")
        checker = ProtocolChecker(system.sim, system.memsys, period=500)
        result = system.run(max_cycles=20_000_000)
        system.sim.run(until=system.sim.cycle + 100_000)
        checker.check_tracked_copies()
        assert result.cs_completed == 32
        assert checker.report.clean, checker.report.violations[:3]
        assert checker.report.transitions_checked > 0

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_bitmask_and_pool_stay_active(self, protocol):
        """Every variant keeps the integer sharer masks and recycles
        messages through the pool (the PR-5 fast paths are
        protocol-independent)."""
        from test_golden_determinism import run_dir_invalidation_storm

        _sim, net = run_dir_invalidation_storm(rounds=3, protocol=protocol)
        mem = net.memsys
        pool = mem.msg_pool
        assert pool.reused > 0
        assert pool.released >= pool.reused
        masks = [ent.sharer_mask
                 for d in mem.dirs.values() for ent in d.entries.values()]
        assert masks and all(isinstance(m, int) for m in masks)
