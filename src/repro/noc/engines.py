"""The flit-engine axis: one factory for the standalone flit networks.

:func:`make_flit_network` imports only the engine it is asked for, so
building the event-driven reference loads neither NumPy nor the vector
or sharded engines.
"""

from __future__ import annotations

from ..config import NocConfig
from ..sim import Simulator


def make_flit_network(sim: Simulator, config: NocConfig, engine: str):
    """Engine-axis factory: the standalone flit network for ``engine``.

    Returns a :class:`~repro.noc.flitsim.FlitNetwork` for ``"event"``, a
    kernel-attached :class:`~repro.noc.vecflit.VectorFlitNetwork` for
    ``"vector"``, or a :class:`~repro.noc.shardflit.ShardedFlitNetwork`
    for ``"sharded"``.  A multi-shard config forced onto a
    single-process engine is refused with a structured error rather
    than silently run on one process.
    """
    shards = getattr(config, "shards", 1)
    if shards > 1 and engine in ("event", "vector"):
        from ..errors import ShardConfigError

        raise ShardConfigError(
            f"shards={shards} requires the sharded flit engine; the "
            f"{engine!r} engine advances the whole mesh in one process",
            engine=engine,
            shards=shards,
        )
    if engine == "vector":
        from .vecflit import VectorFlitNetwork

        return VectorFlitNetwork(config, sim=sim)
    if engine == "event":
        from .flitsim import FlitNetwork

        return FlitNetwork(sim, config)
    if engine == "sharded":
        from .shardflit import ShardedFlitNetwork

        return ShardedFlitNetwork(config, sim=sim)
    raise ValueError(f"unknown flit engine: {engine!r}")
