"""Tests for the topology family (torus, ring, degenerate meshes), the
per-class shape caches, the WRR arbiter, placement strategies, and the
flit-engine topology guard."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    InpgConfig,
    NocConfig,
    PLACEMENTS,
    TOPOLOGIES,
    SystemConfig,
)
from repro.errors import ReproError, UnsupportedTopology
from repro.noc.arbiter import WeightedRoundRobinArbiter, WrrOutputPort
from repro.noc.network import Network
from repro.noc.port import OutputPort
from repro.noc.topology import (
    TOPOLOGY_CLASSES,
    Mesh,
    Ring,
    Topology,
    Torus,
    make_topology,
)
from repro.sim import Simulator


class TestFactory:
    def test_axis_and_classes_agree(self):
        # the config axis and the class registry are the same vocabulary
        assert tuple(sorted(TOPOLOGY_CLASSES)) == tuple(sorted(TOPOLOGIES))
        assert TOPOLOGIES[0] == "mesh"  # default first, by convention

    @pytest.mark.parametrize("name", sorted(TOPOLOGY_CLASSES))
    def test_make_topology_roundtrip(self, name):
        topo = make_topology(name, 4, 4)
        assert isinstance(topo, TOPOLOGY_CLASSES[name])
        assert topo.name == name
        assert topo.num_nodes == 16

    def test_case_insensitive(self):
        assert isinstance(make_topology("Torus", 4, 4), Torus)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown topology"):
            make_topology("hypercube", 4, 4)


class TestShapeCaches:
    def test_caches_are_per_class(self):
        # same shape, different classes: rows must never leak across
        mesh, torus, ring = Mesh(4, 4), Torus(4, 4), Ring(4, 4)
        assert Mesh._SHAPE_CACHE is not Torus._SHAPE_CACHE
        assert Torus._SHAPE_CACHE is not Ring._SHAPE_CACHE
        # node 0 -> node 3: mesh goes right, torus wraps left, the ring
        # wraps backward through N-1; all three disagree at the first hop
        assert mesh.next_hop(0, 3) == 1
        assert torus.next_hop(0, 3) == 3
        assert ring.next_hop(0, 12) == 15

    def test_cache_keyed_per_shape(self):
        # 2x3 and 3x2 have the same node count but different geometry;
        # a shared row would route (node 1 -> node 5) identically
        a, b = Mesh(2, 3), Mesh(3, 2)
        assert a.next_hop_row(1) != b.next_hop_row(1)
        assert (2, 3) in Mesh._SHAPE_CACHE and (3, 2) in Mesh._SHAPE_CACHE
        assert Mesh._SHAPE_CACHE[(2, 3)] is not Mesh._SHAPE_CACHE[(3, 2)]

    def test_instances_share_rows(self):
        # the whole point of the cache: a fig12 sweep builds hundreds of
        # 8x8 meshes but computes each routing row exactly once
        first, second = Mesh(8, 8), Mesh(8, 8)
        assert first.next_hop_row(5) is second.next_hop_row(5)

    def test_base_class_cache_untouched(self):
        # concrete classes write to their own dicts, never the base's
        Mesh(5, 5).next_hop_row(0)
        assert (5, 5) not in Topology._SHAPE_CACHE


class TestDegenerateMeshes:
    """1xN and Nx1 meshes are lines: XY routing degenerates cleanly."""

    @pytest.mark.parametrize("width,height", [(1, 6), (6, 1), (1, 1)])
    def test_route_and_next_hop(self, width, height):
        mesh = make_topology("mesh", width, height)
        n = mesh.num_nodes
        for src in range(n):
            for dst in range(n):
                path = mesh.route(src, dst)
                assert len(path) - 1 == mesh.hop_distance(src, dst)
                step = 1 if dst >= src else -1
                assert path == list(range(src, dst + step, step))

    def test_line_neighbors(self):
        line = Mesh(1, 4)
        assert sorted(line.neighbors(0)) == [1]
        assert sorted(line.neighbors(2)) == [1, 3]
        assert list(Mesh(1, 1).neighbors(0)) == []

    def test_no_datelines(self):
        assert not Mesh(1, 6).has_datelines
        assert not Mesh(6, 1).crosses_dateline(5, 4)


class TestTorusRouting:
    def test_wraparound_shortens_paths(self):
        torus = Torus(8, 8)
        # corner to corner: 2 wrap hops instead of the mesh's 14
        assert torus.hop_distance(0, 63) == 2
        assert torus.route(0, 63) == [0, 7, 63]

    def test_interior_matches_mesh(self):
        torus, mesh = Torus(8, 8), Mesh(8, 8)
        # when no dimension benefits from wrapping, routes coincide
        assert torus.route(9, 27) == mesh.route(9, 27)

    def test_tie_breaks_forward(self):
        torus = Torus(4, 1)
        # distance 2 both ways on a 4-ring: deterministic forward tie
        assert torus.next_hop(0, 2) == 1

    def test_neighbors_wrap_and_dedup(self):
        torus = Torus(4, 4)
        assert sorted(torus.neighbors(0)) == [1, 3, 4, 12]
        # a 2-wide dimension: wrap link coincides with the direct link
        assert sorted(Torus(2, 2).neighbors(0)) == [1, 2]

    def test_dateline_predicate(self):
        torus = Torus(4, 4)
        assert torus.crosses_dateline(3, 0)      # x wrap
        assert torus.crosses_dateline(0, 3)
        assert torus.crosses_dateline(0, 12)     # y wrap
        assert not torus.crosses_dateline(1, 2)  # plain hop
        # width/height 2: no distinct wrap link, no dateline
        assert not Torus(2, 2).crosses_dateline(0, 1)


class TestRingRouting:
    def test_shortest_direction(self):
        ring = Ring(8, 8)  # 64 nodes on one ring
        assert ring.route(2, 62) == [2, 1, 0, 63, 62]
        assert ring.hop_distance(2, 62) == 4

    def test_tie_breaks_forward(self):
        ring = Ring(4, 1)
        assert ring.next_hop(0, 2) == 1

    def test_neighbors(self):
        ring = Ring(4, 2)
        assert sorted(ring.neighbors(0)) == [1, 7]
        assert sorted(Ring(2, 1).neighbors(0)) == [1]
        assert list(Ring(1, 1).neighbors(0)) == []

    def test_dateline_is_the_wrap_link(self):
        ring = Ring(4, 2)
        assert ring.crosses_dateline(7, 0) and ring.crosses_dateline(0, 7)
        assert not ring.crosses_dateline(3, 4)
        assert not Ring(2, 1).crosses_dateline(0, 1)

    def test_addressing_stays_row_major(self):
        # coords/node_at keep the shared scheme placement relies on
        ring = Ring(8, 8)
        assert ring.node_at(5, 6) == 53
        assert ring.coords(53) == (5, 6)


@st.composite
def topo_and_pair(draw):
    name = draw(st.sampled_from(sorted(TOPOLOGY_CLASSES)))
    w = draw(st.integers(min_value=1, max_value=9))
    h = draw(st.integers(min_value=1, max_value=9))
    topo = make_topology(name, w, h)
    src = draw(st.integers(min_value=0, max_value=topo.num_nodes - 1))
    dst = draw(st.integers(min_value=0, max_value=topo.num_nodes - 1))
    return topo, src, dst


class TestFamilyProperties:
    """The mesh routing properties hold for every topology in the axis."""

    @given(topo_and_pair())
    @settings(max_examples=300)
    def test_route_is_minimal(self, data):
        topo, src, dst = data
        path = topo.route(src, dst)
        assert len(path) - 1 == topo.hop_distance(src, dst)

    @given(topo_and_pair())
    @settings(max_examples=300)
    def test_route_endpoints_and_adjacency(self, data):
        topo, src, dst = data
        path = topo.route(src, dst)
        assert path[0] == src and path[-1] == dst
        assert len(set(path)) == len(path)
        for a, b in zip(path, path[1:]):
            assert b in set(topo.neighbors(a))

    @given(topo_and_pair())
    @settings(max_examples=200)
    def test_at_most_one_dateline_crossing_per_dimension(self, data):
        # the deadlock argument (DESIGN.md §15) needs every minimal route
        # to cross each dateline at most once: one escalation suffices
        topo, src, dst = data
        path = topo.route(src, dst)
        crossings = sum(
            topo.crosses_dateline(a, b) for a, b in zip(path, path[1:])
        )
        assert crossings <= (2 if isinstance(topo, Torus) else 1)


class TestWrrArbiter:
    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            WeightedRoundRobinArbiter(())
        with pytest.raises(ValueError):
            WeightedRoundRobinArbiter((2, 0))

    def test_weight_of_wraps_by_index(self):
        arb = WeightedRoundRobinArbiter((3, 1))
        assert arb.weight_of(0) == 3
        assert arb.weight_of(1) == 1
        assert arb.weight_of(2) == 3  # dateline class inherits pattern

    def _drain(self, arb):
        order = []
        while True:
            granted = arb.pop()
            if granted is None:
                return order
            order.append(granted[1].payload)

    def test_weighted_interleave_under_backlog(self):
        from repro.noc.packet import Packet

        arb = WeightedRoundRobinArbiter((2, 1))
        for i, (payload, vnet) in enumerate([
            ("c1", 0), ("c2", 0), ("c3", 0), ("c4", 0),
            ("d1", 1), ("d2", 1),
        ]):
            arb.push(Packet(0, 1, payload, vnet=vnet), lambda p: None, now=i)
        # strict priority would drain c1..c4 first; WRR rotates 2:1
        assert self._drain(arb) == ["c1", "c2", "d1", "c3", "c4", "d2"]
        assert arb.pending == 0

    def test_deterministic_replay(self):
        from repro.noc.packet import Packet

        def run():
            arb = WeightedRoundRobinArbiter((2, 1), priority_aware=True)
            for i in range(12):
                arb.push(
                    Packet(0, 1, f"p{i}", priority=i % 3, vnet=i % 2),
                    lambda p: None, now=i // 4,
                )
            return self._drain(arb)

        assert run() == run()


class TestWrrOutputPort:
    def _port_order(self, port_cls, **kwargs):
        from repro.noc.packet import Packet

        sim = Simulator()
        port = port_cls(sim, "p", **kwargs)
        order = []
        seen = lambda p: order.append(p.payload)
        # a 4-flit data burst occupies the port; the rest queue behind it
        sim.schedule(0, port.request,
                     Packet(0, 1, "burst", size_flits=4, vnet=1), seen)
        for i, (payload, vnet) in enumerate([
            ("c1", 0), ("c2", 0), ("c3", 0), ("d1", 1),
        ]):
            sim.schedule(1, port.request, Packet(0, 1, payload, vnet=vnet),
                         seen)
        sim.run()
        return port, order

    def test_interleaves_where_base_port_prioritizes(self):
        base, base_order = self._port_order(OutputPort)
        wrr, wrr_order = self._port_order(WrrOutputPort, weights=(2, 1))
        assert base_order == ["burst", "c1", "c2", "c3", "d1"]
        assert wrr_order == ["burst", "c1", "c2", "d1", "c3"]

    def test_stats_contract_matches_base(self):
        base, _ = self._port_order(OutputPort)
        wrr, _ = self._port_order(WrrOutputPort, weights=(2, 1))
        for stat in ("packets_sent", "flits_sent", "peak_queue_depth"):
            assert getattr(wrr, stat) == getattr(base, stat), stat
        assert wrr.total_wait_cycles > 0
        assert wrr.mean_wait == wrr.total_wait_cycles / wrr.packets_sent
        assert wrr.queue_depth == 0

    def test_uncontended_fast_path(self):
        from repro.noc.packet import Packet

        sim = Simulator()
        port = WrrOutputPort(sim, "p", weights=(2, 1))
        granted = []
        port.request(Packet(0, 1, "only"), lambda p: granted.append(p))
        sim.run()
        assert [p.payload for p in granted] == ["only"]
        assert port.total_wait_cycles == 0
        assert port.peak_queue_depth == 1  # base-port invariant kept


def _delivering_network(noc):
    sim = Simulator()
    net = Network(sim, noc)
    delivered = []
    for n in range(noc.num_nodes):
        net.register_endpoint(n, delivered.append)
    return sim, net, delivered


class TestNetworkIntegration:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_all_pairs_deliver(self, topology):
        noc = NocConfig(width=4, height=4, topology=topology)
        sim, net, delivered = _delivering_network(noc)
        for src in range(16):
            for dst in range(16):
                if src != dst:
                    net.send(src, dst, (src, dst))
        sim.run()
        assert len(delivered) == 16 * 15
        assert {p.payload for p in delivered} == {
            (s, d) for s in range(16) for d in range(16) if s != d
        }

    def test_topology_alias(self):
        sim = Simulator()
        net = Network(sim, NocConfig(width=4, height=4, topology="torus"))
        assert net.topology is net.mesh
        assert isinstance(net.topology, Torus)

    def test_dateline_escalates_vnet_once(self):
        noc = NocConfig(width=4, height=2, topology="ring")
        sim, net, delivered = _delivering_network(noc)
        net.send(1, 7, "wrap")  # shortest path 1 -> 0 -> 7 wraps
        net.send(1, 3, "plain")
        sim.run()
        by_payload = {p.payload: p for p in delivered}
        assert net.dateline_crossings == 1
        assert by_payload["wrap"].vnet == 2   # 0 -> dateline class
        assert by_payload["plain"].vnet == 0  # never crossed

    def test_mesh_has_no_dateline_path(self):
        sim, net, _ = _delivering_network(NocConfig(width=4, height=4))
        assert net.dateline_crossings == 0
        router = net.routers[0]
        assert not hasattr(router, "_dateline_row")

    def test_make_port_selects_arbiter(self):
        sim = Simulator()
        rr = Network(sim, NocConfig(width=2, height=2))
        assert type(rr.make_port("x")) is OutputPort
        wrr = Network(
            Simulator(),
            NocConfig(width=2, height=2, arbiter="wrr", wrr_weights=(3, 1)),
        )
        port = wrr.make_port("x")
        assert isinstance(port, WrrOutputPort)
        assert port._arbiter.weight_of(0) == 3


class TestFlitEngineGuard:
    """The flit engines model a mesh pipeline; other fabrics must fail
    loudly and structurally, never silently route as a mesh."""

    def _check(self, exc):
        assert isinstance(exc, ReproError)
        assert isinstance(exc, ValueError)
        assert exc.topology in ("torus", "ring")
        assert exc.supported == ("mesh",)

    @pytest.mark.parametrize("topology", ["torus", "ring"])
    def test_event_engine_rejects(self, topology):
        from repro.noc.flitsim import FlitNetwork

        with pytest.raises(UnsupportedTopology) as excinfo:
            FlitNetwork(Simulator(), NocConfig(width=4, height=4,
                                               topology=topology))
        self._check(excinfo.value)
        assert excinfo.value.model == "flit/event"

    @pytest.mark.parametrize("topology", ["torus", "ring"])
    def test_vector_engine_rejects(self, topology):
        pytest.importorskip("numpy")
        from repro.noc.vecflit import VectorFlitNetwork

        with pytest.raises(UnsupportedTopology) as excinfo:
            VectorFlitNetwork(NocConfig(width=4, height=4,
                                        topology=topology), Simulator())
        self._check(excinfo.value)
        assert excinfo.value.model == "flit/vector"


class TestPlacement:
    def test_axis_vocabulary(self):
        assert PLACEMENTS == ("spread", "center", "perimeter")
        with pytest.raises(ValueError, match="placement"):
            InpgConfig(placement="corners")

    def test_spread_is_the_paper_default(self):
        from repro.inpg.deployment import (
            evenly_spread_nodes,
            place_big_routers,
        )

        mesh = Mesh(8, 8)
        inpg = InpgConfig(enabled=True, num_big_routers=32)
        assert place_big_routers(mesh, inpg) == evenly_spread_nodes(mesh, 32)

    def test_center_picks_the_middle_of_the_mesh(self):
        from repro.inpg.deployment import central_nodes

        assert central_nodes(Mesh(4, 4), 4) == frozenset({5, 6, 9, 10})

    def test_perimeter_picks_the_corners(self):
        from repro.inpg.deployment import perimeter_nodes

        assert perimeter_nodes(Mesh(4, 4), 4) == frozenset({0, 3, 12, 15})

    def test_strategies_disjoint_styles(self):
        from repro.inpg.deployment import central_nodes, perimeter_nodes

        mesh = Mesh(8, 8)
        assert not central_nodes(mesh, 8) & perimeter_nodes(mesh, 8)

    def test_torus_centrality_degenerates_to_id_order(self):
        from repro.inpg.deployment import central_nodes

        # every torus node is equally central: ties break by node id
        assert central_nodes(Torus(4, 4), 3) == frozenset({0, 1, 2})

    def test_count_clamped_to_fabric(self):
        from repro.inpg.deployment import place_big_routers

        small = Mesh(2, 2)
        inpg = InpgConfig(enabled=True, num_big_routers=32)
        assert place_big_routers(small, inpg) == frozenset(range(4))

    @pytest.mark.parametrize("placement", sorted(PLACEMENTS))
    def test_system_runs_under_every_placement(self, placement):
        from repro.system import run_benchmark

        config = SystemConfig().with_overrides(
            noc={"width": 4, "height": 4},
            inpg={"enabled": True, "num_big_routers": 8,
                  "placement": placement},
            num_threads=16,
        )
        result = run_benchmark("vips", mechanism=None, scale=0.2,
                               config=config)
        assert result.roi_cycles > 0
