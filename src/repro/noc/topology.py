"""Topologies and routing functions for the packet-level NoC.

The paper's platform is an 8x8 mesh with XY routing (Table 1, Figure 3):
packets first travel along the X dimension to the destination column, then
along Y.  XY routing is deterministic and deadlock-free, which also makes
the path of every lock request predictable — the property iNPG exploits
when placing big routers.

This module abstracts that pair behind a :class:`Topology` interface, each
subclass computing its own routing rows, so the placement question the
paper leaves open can be swept across fabrics:

* :class:`Mesh` — the paper's platform, XY dimension-order routing.
* :class:`Torus` — mesh plus wraparound links in both dimensions;
  shortest-direction XY routing with dateline virtual channels for
  deadlock freedom (see DESIGN.md §15).
* :class:`Ring` — all N nodes on one bidirectional ring addressed by
  node id; shortest-direction routing, one dateline between the last
  and first node.

Routing is table-driven: every ``(width, height)`` shape builds its
coordinate table once and next-hop rows on first use, shared process-wide
across all instances of that topology class and shape (a fig12 sweep
builds hundreds of 8x8 meshes).  ``next_hop`` is then two tuple lookups
with no arithmetic on the router hot path.  Caches are **per topology
class** — a torus row can never leak into a mesh of the same shape.

The flit-level engines' 5-port mesh router numbering lives here too,
with the XY output-port rows (:meth:`Mesh.port_rows`) that both flit
engines index, cached beside the next-hop rows.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

#: the flit router's physical ports; LOCAL is the injection/ejection port
LOCAL, NORTH, EAST, SOUTH, WEST = range(5)
#: output port -> the neighbour's input port the link arrives on
#: (LOCAL has no link and maps to itself)
REVERSE = (LOCAL, SOUTH, WEST, NORTH, EAST)


class _ShapeTables:
    """The routing tables of one (topology class, shape), shared
    read-only by every instance of that class and shape."""

    __slots__ = ("coords", "hop_rows", "port_rows")

    def __init__(self, coords: Tuple[Tuple[int, int], ...]):
        self.coords = coords
        #: node -> next-hop row, filled on first use
        self.hop_rows: Dict[int, Tuple[int, ...]] = {}
        #: node -> XY output-port row (meshes only), built on first use
        self.port_rows: Optional[Tuple[bytes, ...]] = None


_ShapeCache = Dict[Tuple[int, int], _ShapeTables]


def _ring_step(c: int, d: int, size: int) -> int:
    """Next position from ``c`` toward ``d`` on a ring of ``size``, the
    shorter way round (forward on a tie)."""
    if (d - c) % size <= (c - d) % size:
        return (c + 1) % size
    return (c - 1) % size


class Topology:
    """A ``width`` x ``height`` fabric of routers addressed 0..N-1 row-major.

    Concrete topologies define adjacency (:meth:`neighbors`), the metric
    (:meth:`hop_distance`), their routing (:meth:`compute_row`, memoized
    in a per-class, process-wide shape cache) and, when links wrap
    around, the dateline predicate (:meth:`crosses_dateline`).
    """

    #: axis value (``NocConfig.topology``); set by concrete subclasses.
    name = "?"
    #: True when some links wrap around and packets need dateline VCs to
    #: break the channel-dependency cycle (torus, ring).
    has_datelines = False

    _SHAPE_CACHE: _ShapeCache = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # every concrete topology gets its own shape cache: rows are
        # keyed per (class, shape) and can never leak across classes.
        cls._SHAPE_CACHE = {}

    def __init__(self, width: int, height: int):
        if width < 1 or height < 1:
            raise ValueError("topology dimensions must be positive")
        self.width = width
        self.height = height
        self.num_nodes = width * height
        cache = type(self)._SHAPE_CACHE
        tables = cache.get((width, height))
        if tables is None:
            tables = cache[(width, height)] = _ShapeTables(tuple(
                (node % width, node // width) for node in range(self.num_nodes)
            ))
        self._tables = tables
        self._coords = tables.coords
        self._hop_rows = tables.hop_rows

    # ------------------------------------------------------------------
    # Addressing (identical row-major scheme for every topology)
    # ------------------------------------------------------------------
    def coords(self, node: int) -> Tuple[int, int]:
        """(x, y) of ``node``; raises for out-of-range ids."""
        if not 0 <= node < self.num_nodes:
            raise ValueError(
                f"node {node} outside {self.name} of {self.num_nodes}"
            )
        return self._coords[node]

    def node_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(
                f"({x},{y}) outside {self.width}x{self.height} {self.name}"
            )
        return y * self.width + x

    # ------------------------------------------------------------------
    # Structure (per topology)
    # ------------------------------------------------------------------
    def neighbors(self, node: int) -> Iterator[int]:
        """Adjacent node ids (each physical link once, no self-loops)."""
        raise NotImplementedError

    def hop_distance(self, src: int, dst: int) -> int:
        """Minimal hop count between two nodes."""
        raise NotImplementedError

    def crosses_dateline(self, current: int, nxt: int) -> bool:
        """True when the ``current -> nxt`` link wraps around a dateline.

        Only meaningful for topologies with ``has_datelines``; the base
        (and the mesh) have no wraparound links.
        """
        return False

    # ------------------------------------------------------------------
    # Routing (table-driven, shared per class+shape)
    # ------------------------------------------------------------------
    def compute_row(self, current: int) -> Tuple[int, ...]:
        """Deterministic next-hop row of ``current``: ``row[dst]`` is the
        next node toward ``dst`` (``row[current] == current``).  Runs once
        per (class, shape, source) per process."""
        raise NotImplementedError

    def next_hop_row(self, current: int) -> Tuple[int, ...]:
        """Per-source routing row: ``row[dst]`` is the next hop on the
        path from ``current``.  Built on first use and shared across all
        instances of this topology class and shape; routers index their
        row directly."""
        row = self._hop_rows.get(current)
        if row is None:
            self.coords(current)  # range check before caching
            row = self.compute_row(current)
            self._hop_rows[current] = row
        return row

    def next_hop(self, current: int, dst: int) -> int:
        """Next router on the path from ``current`` toward ``dst``."""
        if not 0 <= dst < self.num_nodes:
            raise ValueError(
                f"node {dst} outside {self.name} of {self.num_nodes}"
            )
        return self.next_hop_row(current)[dst]

    def route(self, src: int, dst: int) -> List[int]:
        """Full path from ``src`` to ``dst``, inclusive of both ends."""
        self.coords(src)
        self.coords(dst)
        path = [src]
        node = src
        while node != dst:
            node = self.next_hop_row(node)[dst]
            path.append(node)
            if len(path) > self.num_nodes:  # pragma: no cover - guard
                raise RuntimeError(
                    f"{self.name} route {src}->{dst} does not converge"
                )
        return path


class Mesh(Topology):
    """The paper's platform: a 2D mesh with XY dimension-order routing."""

    name = "mesh"

    def neighbors(self, node: int) -> Iterator[int]:
        """Mesh-adjacent node ids."""
        x, y = self.coords(node)
        if x > 0:
            yield self.node_at(x - 1, y)
        if x < self.width - 1:
            yield self.node_at(x + 1, y)
        if y > 0:
            yield self.node_at(x, y - 1)
        if y < self.height - 1:
            yield self.node_at(x, y + 1)

    def compute_row(self, current: int) -> Tuple[int, ...]:
        """Dimension-order routing: correct X first, then Y."""
        cx, cy = self._coords[current]
        width = self.width
        hops = []
        for dx, dy in self._coords:
            if cx != dx:
                hops.append(cy * width + cx + (1 if dx > cx else -1))
            elif cy != dy:
                hops.append((cy + (1 if dy > cy else -1)) * width + cx)
            else:
                hops.append(current)
        return tuple(hops)

    def hop_distance(self, src: int, dst: int) -> int:
        """Manhattan distance between two nodes."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        return abs(sx - dx) + abs(sy - dy)

    def port_rows(self) -> Tuple[bytes, ...]:
        """XY output-port rows: ``rows[node][dst]`` is the port a flit at
        ``node`` bound for ``dst`` leaves by (``LOCAL`` at ``dst``
        itself).  Built once per shape and shared by every flit engine.

        Destinations are row-major, so a row is ``y`` copies of one
        destination-row segment, then one, then ``height - 1 - y``: each
        segment is ``x`` WESTs and ``width - 1 - x`` EASTs around the
        column's NORTH, LOCAL or SOUTH.
        """
        rows = self._tables.port_rows
        if rows is None:
            width, height = self.width, self.height
            built = []
            for y in range(height):
                for x in range(width):
                    west = bytes((WEST,)) * x
                    east = bytes((EAST,)) * (width - 1 - x)
                    built.append(
                        (west + bytes((NORTH,)) + east) * y
                        + west + bytes((LOCAL,)) + east
                        + (west + bytes((SOUTH,)) + east) * (height - 1 - y)
                    )
            rows = self._tables.port_rows = tuple(built)
        return rows


class Torus(Topology):
    """A 2D torus: mesh plus wraparound links in both dimensions.

    Shortest-direction XY routing; the wraparound links between the last
    and first column (and row) are the datelines — a packet crossing one
    escalates to the dateline VC class (``repro.noc.router``), which
    breaks the ring channel-dependency cycle.
    """

    name = "torus"
    has_datelines = True

    def neighbors(self, node: int) -> Iterator[int]:
        """Torus-adjacent node ids (wraparound, each link once)."""
        x, y = self.coords(node)
        seen = {node}
        for nx, ny in (
            ((x - 1) % self.width, y),
            ((x + 1) % self.width, y),
            (x, (y - 1) % self.height),
            (x, (y + 1) % self.height),
        ):
            neighbor = self.node_at(nx, ny)
            if neighbor not in seen:
                seen.add(neighbor)
                yield neighbor

    def hop_distance(self, src: int, dst: int) -> int:
        """Per-dimension ring distance, summed."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        ring_x = min((dx - sx) % self.width, (sx - dx) % self.width)
        ring_y = min((dy - sy) % self.height, (sy - dy) % self.height)
        return ring_x + ring_y

    def compute_row(self, current: int) -> Tuple[int, ...]:
        """Dimension-order routing with per-dimension shortest direction.

        Each dimension is a ring: travel the direction with fewer hops,
        breaking exact ties toward increasing coordinate.  X is still
        fully corrected before Y, so routes stay deterministic and
        minimal.
        """
        cx, cy = self._coords[current]
        width, height = self.width, self.height
        hops = []
        for dx, dy in self._coords:
            if cx != dx:
                hops.append(cy * width + _ring_step(cx, dx, width))
            elif cy != dy:
                hops.append(_ring_step(cy, dy, height) * width + cx)
            else:
                hops.append(current)
        return tuple(hops)

    def crosses_dateline(self, current: int, nxt: int) -> bool:
        """True when the hop wraps between the last and first row/column."""
        cx, cy = self.coords(current)
        nx, ny = self.coords(nxt)
        if cx != nx and abs(cx - nx) == self.width - 1:
            return self.width > 2
        if cy != ny and abs(cy - ny) == self.height - 1:
            return self.height > 2
        return False


class Ring(Topology):
    """All ``width * height`` nodes on one bidirectional ring, by node id.

    The shape is kept as ``(width, height)`` purely for addressing
    compatibility (``coords``/``node_at`` keep the row-major scheme that
    memory interleaving and placement use); the physical links form a
    single ring ``0 - 1 - ... - N-1 - 0``.  The ``N-1 <-> 0`` link is the
    dateline.
    """

    name = "ring"
    has_datelines = True

    def neighbors(self, node: int) -> Iterator[int]:
        """The two ring neighbours (one for N == 2, none for N == 1)."""
        self.coords(node)
        n = self.num_nodes
        if n == 1:
            return
        seen = {node}
        for neighbor in ((node - 1) % n, (node + 1) % n):
            if neighbor not in seen:
                seen.add(neighbor)
                yield neighbor

    def hop_distance(self, src: int, dst: int) -> int:
        """Shortest-direction ring distance."""
        self.coords(src)
        self.coords(dst)
        n = self.num_nodes
        return min((dst - src) % n, (src - dst) % n)

    def compute_row(self, current: int) -> Tuple[int, ...]:
        """Shortest-direction routing by node id; ties (exactly opposite
        nodes on an even-sized ring) break toward increasing node id."""
        n = self.num_nodes
        return tuple(
            current if dst == current else _ring_step(current, dst, n)
            for dst in range(n)
        )

    def crosses_dateline(self, current: int, nxt: int) -> bool:
        """True when the hop uses the ``N-1 <-> 0`` wraparound link."""
        n = self.num_nodes
        if n <= 2:
            return False
        return {current, nxt} == {0, n - 1}


#: axis value -> topology class; the config axis ``TOPOLOGIES`` mirrors
#: these keys (pinned by tests/test_topology_family.py).
TOPOLOGY_CLASSES: Dict[str, type] = {
    Mesh.name: Mesh,
    Torus.name: Torus,
    Ring.name: Ring,
}


def make_topology(name: str, width: int, height: int) -> Topology:
    """Instantiate the topology named by the ``NocConfig.topology`` axis."""
    cls = TOPOLOGY_CLASSES.get(str(name).lower())
    if cls is None:
        raise ValueError(
            f"unknown topology {name!r}; choose from "
            f"{tuple(sorted(TOPOLOGY_CLASSES))}"
        )
    return cls(width, height)
