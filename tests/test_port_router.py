"""Unit tests for output ports, routers, and the network fabric."""

import pytest

from repro.config import NocConfig
from repro.noc import Network, OutputPort, Packet, Router
from repro.sim import Simulator


def make_network(width=4, height=4, priority=False, record_traces=False):
    sim = Simulator()
    net = Network(sim, NocConfig(width=width, height=height),
                  priority_arbitration=priority,
                  record_traces=record_traces)
    return sim, net


class TestOutputPort:
    def test_cut_through_head_and_serialization(self):
        """Wormhole semantics: the head proceeds after one cycle; the
        port stays busy for the full flit serialization before granting
        the next packet."""
        sim = Simulator()
        port = OutputPort(sim, "p")
        done = []
        first = Packet(src=0, dst=1, payload="x", size_flits=8)
        second = Packet(src=0, dst=1, payload="y", size_flits=1)
        port.request(first, lambda p: done.append(("first", sim.cycle)))
        port.request(second, lambda p: done.append(("second", sim.cycle)))
        sim.run()
        assert done[0] == ("first", 1)     # head after 1 cycle
        assert done[1] == ("second", 9)    # blocked 8 cycles + 1

    def test_fifo_order_without_priority(self):
        sim = Simulator()
        port = OutputPort(sim, "p")
        order = []
        for i in range(3):
            pkt = Packet(src=0, dst=1, payload=i, size_flits=2)
            port.request(pkt, lambda p: order.append(p.payload))
        sim.run()
        assert order == [0, 1, 2]

    def test_priority_arbitration(self):
        sim = Simulator()
        port = OutputPort(sim, "p", priority_aware=True)
        order = []
        # first packet grabs the port; among the queued ones the
        # high-priority packet must win even though it was queued last.
        port.request(Packet(src=0, dst=1, payload="head", size_flits=4),
                     lambda p: order.append(p.payload))
        port.request(Packet(src=0, dst=1, payload="low", priority=1),
                     lambda p: order.append(p.payload))
        port.request(Packet(src=0, dst=1, payload="high", priority=7),
                     lambda p: order.append(p.payload))
        sim.run()
        assert order == ["head", "high", "low"]

    def test_priority_ignored_when_not_priority_aware(self):
        sim = Simulator()
        port = OutputPort(sim, "p", priority_aware=False)
        order = []
        port.request(Packet(src=0, dst=1, payload="head", size_flits=4),
                     lambda p: order.append(p.payload))
        port.request(Packet(src=0, dst=1, payload="first", priority=0),
                     lambda p: order.append(p.payload))
        port.request(Packet(src=0, dst=1, payload="second", priority=9),
                     lambda p: order.append(p.payload))
        sim.run()
        assert order == ["head", "first", "second"]

    def test_wait_statistics(self):
        sim = Simulator()
        port = OutputPort(sim, "p")
        port.request(Packet(src=0, dst=1, payload=0, size_flits=10),
                     lambda p: None)
        port.request(Packet(src=0, dst=1, payload=1, size_flits=1),
                     lambda p: None)
        sim.run()
        assert port.packets_sent == 2
        assert port.flits_sent == 11
        assert port.total_wait_cycles == 10  # second waited for the first


class TestRouterDispatch:
    @pytest.mark.parametrize("topology", ["mesh", "torus", "ring"])
    def test_one_dispatch_entry_per_output_port(self, topology):
        """Every destination resolves to the entry of the output port
        toward it: one entry per port, shared by all the destinations
        behind that port."""
        net = Network(Simulator(),
                      NocConfig(width=4, height=4, topology=topology))
        for router in net.routers.values():
            assert len(router._dest) == net.mesh.num_nodes
            assert len({id(entry) for entry in router._dest}) == len(
                router.ports)


class TestNetworkDelivery:
    def test_packet_reaches_destination(self):
        sim, net = make_network()
        got = []
        for n in range(16):
            net.register_endpoint(n, lambda p, n=n: got.append((n, p.payload)))
        net.send(0, 15, "hello")
        sim.run()
        assert got == [(15, "hello")]

    def test_latency_scales_with_distance(self):
        sim, net = make_network(8, 8)
        for n in range(64):
            net.register_endpoint(n, lambda p: None)
        near = net.send(0, 1, "near")
        far = net.send(0, 63, "far")
        sim.run()
        assert near.latency > 0
        assert far.latency > near.latency
        # 14 hops of (2-cycle pipeline + 1-cycle link) + ejection
        assert far.latency >= 14 * 3

    def test_local_delivery(self):
        sim, net = make_network()
        got = []
        net.register_endpoint(5, lambda p: got.append(p.payload))
        for n in range(16):
            if n != 5:
                net.register_endpoint(n, lambda p: None)
        net.send(5, 5, "self")
        sim.run()
        assert got == ["self"]

    def test_trace_records_xy_path(self):
        sim, net = make_network(4, 4, record_traces=True)
        for n in range(16):
            net.register_endpoint(n, lambda p: None)
        pkt = net.send(0, 10, "x")
        sim.run()
        assert pkt.trace == net.mesh.route(0, 10) == [0, 1, 2, 6, 10]
        assert pkt.hops == len(pkt.trace)

    def test_hops_counted_without_tracing(self):
        """Tracing is off by default but hop counts are always kept."""
        sim, net = make_network(4, 4)
        for n in range(16):
            net.register_endpoint(n, lambda p: None)
        pkt = net.send(0, 10, "x")
        sim.run()
        assert pkt.trace == []
        assert pkt.hops == len(net.mesh.route(0, 10))
        assert net.total_hops == pkt.hops - 1

    def test_duplicate_endpoint_rejected(self):
        sim, net = make_network()
        net.register_endpoint(0, lambda p: None)
        with pytest.raises(ValueError):
            net.register_endpoint(0, lambda p: None)

    def test_missing_endpoint_raises(self):
        sim, net = make_network()
        net.send(0, 3, "x")
        with pytest.raises(RuntimeError):
            sim.run()

    def test_network_statistics(self):
        sim, net = make_network()
        for n in range(16):
            net.register_endpoint(n, lambda p: None)
        net.send(0, 3, "a")
        net.send(1, 2, "b")
        sim.run()
        assert net.packets_injected == 2
        assert net.packets_delivered == 2
        assert net.in_flight == 0
        assert net.mean_latency > 0

    def test_contention_increases_latency(self):
        """Many packets to one node must queue at its ejection port."""
        sim, net = make_network(4, 4)
        for n in range(16):
            net.register_endpoint(n, lambda p: None)
        solo_sim, solo_net = make_network(4, 4)
        for n in range(16):
            solo_net.register_endpoint(n, lambda p: None)
        solo = solo_net.send(0, 5, "solo", size_flits=8)
        solo_sim.run()
        packets = [
            net.send(src, 5, f"p{src}", size_flits=8)
            for src in (0, 1, 2, 3, 4, 6, 8, 12)
        ]
        sim.run()
        worst = max(p.latency for p in packets)
        assert worst > solo.latency
