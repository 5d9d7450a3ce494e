"""The flit engines: one factory for the standalone flit networks.

:func:`make_flit_network` imports only the engine it is asked for, so
building the event-driven reference loads neither NumPy nor the vector
engine.
"""

from __future__ import annotations

from ..config import NocConfig
from ..sim import Simulator


def make_flit_network(sim: Simulator, config: NocConfig, engine: str):
    """Engine-axis factory: the standalone flit network for ``engine``.

    Returns a :class:`~repro.noc.flitsim.FlitNetwork` for ``"event"`` or
    a kernel-attached :class:`~repro.noc.vecflit.VectorFlitNetwork` for
    ``"vector"``.
    """
    if engine == "vector":
        from .vecflit import VectorFlitNetwork

        return VectorFlitNetwork(config, sim=sim)
    if engine == "event":
        from .flitsim import FlitNetwork

        return FlitNetwork(sim, config)
    raise ValueError(f"unknown flit engine: {engine!r}")
