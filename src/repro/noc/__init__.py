"""Network-on-chip substrate: topologies, routing, routers, fabric.

Two fidelity levels: the packet-granularity :class:`Network` used by the
full system (any :class:`Topology`: mesh, torus, ring — selected by the
``NocConfig.topology`` axis via :func:`make_topology`), and the
flit-level validation model — itself available as two bit-exact
mesh-only engines, the event-driven reference (:mod:`repro.noc.flitsim`)
and the cycle-batched vector engine (:mod:`repro.noc.vecflit`), which
:func:`make_flit_network` (:mod:`repro.noc.engines`) selects by name.
A full system at flit granularity (``NocConfig(flit_level=True)``) runs
on the event engine, through :mod:`repro.noc.flit_fabric`; the vector
engine drives network-only traffic.
Output-port arbitration is selectable per the ``NocConfig.arbiter`` axis
(:class:`OutputPort` round-robin or :mod:`repro.noc.arbiter` weighted
round-robin).  Synthetic traffic patterns and load sweeps live in
:mod:`repro.noc.traffic`.

Importing the package loads the packet-level fabric only; the flit
engines (and NumPy, which the vector engine uses) load on first access
to one of their names.
"""

from .. import _lazy
from .arbiter import WeightedRoundRobinArbiter, WrrOutputPort
from .network import Network
from .packet import Packet
from .port import OutputPort
from .router import CONTINUE, STOPPED, Router
from .topology import (
    TOPOLOGY_CLASSES,
    Mesh,
    Ring,
    Topology,
    Torus,
    make_topology,
)
from .traffic import (
    PATTERNS,
    TrafficResult,
    latency_load_curve,
    run_packet_traffic,
)

__getattr__, __dir__ = _lazy.lazy_names(globals(), {
    "FlitNetwork": ".flitsim",
    "FlitPacket": ".flitsim",
    "FlitRouter": ".flitsim",
    "HAS_NUMPY": ".vecflit",
    "VectorFlitNetwork": ".vecflit",
    "make_flit_network": ".engines",
})

__all__ = [
    "CONTINUE",
    "FlitNetwork",
    "FlitPacket",
    "FlitRouter",
    "HAS_NUMPY",
    "Mesh",
    "Network",
    "OutputPort",
    "PATTERNS",
    "Packet",
    "Ring",
    "Router",
    "STOPPED",
    "TOPOLOGY_CLASSES",
    "Topology",
    "Torus",
    "TrafficResult",
    "VectorFlitNetwork",
    "WeightedRoundRobinArbiter",
    "WrrOutputPort",
    "latency_load_curve",
    "make_flit_network",
    "make_topology",
    "run_packet_traffic",
]
