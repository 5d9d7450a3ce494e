"""Unit and property tests for mesh topology and XY routing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NocConfig
from repro.noc.flitsim import FlitNetwork
from repro.noc.topology import (
    EAST,
    LOCAL,
    NORTH,
    REVERSE,
    SOUTH,
    WEST,
    Mesh,
)
from repro.noc.engines import make_flit_network
from repro.sim import Simulator


class TestMeshBasics:
    def test_dimensions(self):
        mesh = Mesh(8, 8)
        assert mesh.num_nodes == 64

    def test_coords_roundtrip(self):
        mesh = Mesh(8, 8)
        for node in range(64):
            x, y = mesh.coords(node)
            assert mesh.node_at(x, y) == node

    def test_paper_home_node_5_6(self):
        """The Figure 10 lock home is core (5,6) -> node 53 on the 8x8."""
        mesh = Mesh(8, 8)
        assert mesh.node_at(5, 6) == 53

    def test_out_of_range_coords(self):
        mesh = Mesh(4, 4)
        with pytest.raises(ValueError):
            mesh.node_at(4, 0)
        with pytest.raises(ValueError):
            mesh.coords(16)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Mesh(0, 4)

    def test_neighbors_corner_and_center(self):
        mesh = Mesh(4, 4)
        assert sorted(mesh.neighbors(0)) == [1, 4]
        assert sorted(mesh.neighbors(5)) == [1, 4, 6, 9]


class TestXYRouting:
    def test_route_same_node(self):
        mesh = Mesh(4, 4)
        assert mesh.xy_route(5, 5) == [5]

    def test_route_goes_x_first(self):
        mesh = Mesh(4, 4)
        # (0,0) -> (2,2): X to column 2, then Y down
        assert mesh.xy_route(0, 10) == [0, 1, 2, 6, 10]

    def test_route_negative_directions(self):
        mesh = Mesh(4, 4)
        # (3,3)=15 -> (0,0)=0
        assert mesh.xy_route(15, 0) == [15, 14, 13, 12, 8, 4, 0]

    def test_next_hop_matches_route(self):
        mesh = Mesh(8, 8)
        path = mesh.xy_route(3, 60)
        for i in range(len(path) - 1):
            assert mesh.next_hop(path[i], 60) == path[i + 1]

    def test_next_hop_at_destination(self):
        mesh = Mesh(4, 4)
        assert mesh.next_hop(7, 7) == 7


def xy_port(mesh, node, dst):
    """The XY output-port decision, one (node, destination) at a time."""
    x, y = mesh.coords(node)
    dx, dy = mesh.coords(dst)
    if dx > x:
        return EAST
    if dx < x:
        return WEST
    if dy > y:
        return SOUTH
    if dy < y:
        return NORTH
    return LOCAL


class TestXYPortRows:
    """The flit engines' shared output-port table (``Mesh.port_rows``)."""

    @pytest.mark.parametrize("width,height", [
        (1, 1), (1, 5), (5, 1), (3, 6), (6, 3), (8, 8), (32, 32),
    ])
    def test_rows_equal_the_xy_decision(self, width, height):
        mesh = Mesh(width, height)
        rows = mesh.port_rows()
        assert len(rows) == mesh.num_nodes
        for node, row in enumerate(rows):
            assert type(row) is bytes
            assert list(row) == [xy_port(mesh, node, dst)
                                 for dst in range(mesh.num_nodes)], node

    def test_ports_lead_to_the_next_hop(self):
        mesh = Mesh(6, 3)
        step = {NORTH: -6, EAST: 1, SOUTH: 6, WEST: -1, LOCAL: 0}
        for node, row in enumerate(mesh.port_rows()):
            for dst, port in enumerate(row):
                assert node + step[port] == mesh.next_hop(node, dst)
                if port != LOCAL:
                    # the link arrives on the neighbour's opposite port
                    assert step[REVERSE[port]] == -step[port]

    @pytest.mark.parametrize("width,height", [(6, 3), (8, 8)])
    def test_every_engine_shares_one_table(self, width, height):
        """Every event router indexes its mesh's cached row; every
        vector engine of one shape gathers through one read-only link
        table (and computes the XY port from coordinates)."""
        rows = Mesh(width, height).port_rows()
        assert Mesh(width, height).port_rows() is rows
        cfg = NocConfig(width=width, height=height)
        event = FlitNetwork(Simulator(), cfg)
        for node, row in enumerate(rows):
            assert event.routers[node]._route_row is row
        pytest.importorskip("numpy")
        vector, again = (make_flit_network(Simulator(), cfg, "vector")
                         for _ in range(2))
        assert again._arrays.link is vector._arrays.link
        assert not vector._arrays.link.flags.writeable


@st.composite
def mesh_and_pair(draw):
    w = draw(st.integers(min_value=1, max_value=12))
    h = draw(st.integers(min_value=1, max_value=12))
    mesh = Mesh(w, h)
    src = draw(st.integers(min_value=0, max_value=mesh.num_nodes - 1))
    dst = draw(st.integers(min_value=0, max_value=mesh.num_nodes - 1))
    return mesh, src, dst


class TestRoutingProperties:
    @given(mesh_and_pair())
    @settings(max_examples=200)
    def test_route_length_is_manhattan_distance(self, data):
        mesh, src, dst = data
        path = mesh.xy_route(src, dst)
        assert len(path) - 1 == mesh.hop_distance(src, dst)

    @given(mesh_and_pair())
    @settings(max_examples=200)
    def test_route_endpoints_and_adjacency(self, data):
        mesh, src, dst = data
        path = mesh.xy_route(src, dst)
        assert path[0] == src
        assert path[-1] == dst
        for a, b in zip(path, path[1:]):
            assert b in set(mesh.neighbors(a))

    @given(mesh_and_pair())
    @settings(max_examples=200)
    def test_route_never_revisits_nodes(self, data):
        mesh, src, dst = data
        path = mesh.xy_route(src, dst)
        assert len(set(path)) == len(path)

    @given(mesh_and_pair())
    @settings(max_examples=100)
    def test_dimension_order(self, data):
        """Once the path starts moving in Y it never moves in X again."""
        mesh, src, dst = data
        path = mesh.xy_route(src, dst)
        moved_y = False
        for a, b in zip(path, path[1:]):
            ax, ay = mesh.coords(a)
            bx, by = mesh.coords(b)
            if ay != by:
                moved_y = True
            if ax != bx:
                assert not moved_y
