"""``repro.serve``: the simulation service and its versioned client API.

The package splits along the wire:

* :mod:`repro.serve.proto` — the schema both sides share (versioned
  envelopes; ``PROTO_SCHEMA_VERSION``);
* :mod:`repro.serve.store` — failure provenance and the result index
  over the executor's cache directory (the executor keeps the results);
* :mod:`repro.serve.server` — the ``inpg-serve`` asyncio service
  (job queue, dedupe, worker fan-out, polled progress);
* :mod:`repro.serve.client` — ``ServiceClient`` (HTTP) and
  ``RemoteExecutor``, the :class:`~repro.exec.Executor` that runs on the
  service (the ``--remote`` drop-in for the harnesses).
"""

from .. import _lazy
from .client import RemoteExecutor, ServiceClient, ServiceError
from .proto import PROTO_SCHEMA_VERSION, ProtoError
from .store import ResultStore

#: the asyncio service loads on first access: a client never needs it
__getattr__, __dir__ = _lazy.lazy_names(globals(), {
    "ServiceHandle": ".server",
    "SimulationService": ".server",
    "start_in_thread": ".server",
})

__all__ = [
    "PROTO_SCHEMA_VERSION",
    "ProtoError",
    "RemoteExecutor",
    "ResultStore",
    "ServiceClient",
    "ServiceError",
    "ServiceHandle",
    "SimulationService",
    "start_in_thread",
]
