"""``repro.errors``: the single exception hierarchy of the reproduction.

Everything the library raises on purpose derives from :class:`ReproError`,
so callers can fence off *any* simulation/execution failure with one
``except`` clause while still discriminating the interesting cases::

    from repro import errors

    try:
        result = api.simulate(config, workload, "tas")
    except errors.LivelockDetected as err:
        print(err.stalled_threads, err.locks)
    except errors.ReproError:
        ...

Historically three of these classes lived next to the code that raised
them (``repro.system.DeadlockError``, ``repro.sim.kernel.SimulationError``,
``repro.coherence.checker.ProtocolViolation``); those import paths keep
working as aliases of the classes below.  The secondary bases
(``RuntimeError``, ``AssertionError``) are preserved so pre-existing
``except RuntimeError`` / ``except AssertionError`` handlers continue to
catch what they used to.

This module is dependency-free on purpose: it is imported by the kernel,
the coherence layer, the executor and the fault subsystem, and must never
participate in an import cycle.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

__all__ = [
    "DeadlockError",
    "ExecutorError",
    "LivelockDetected",
    "ProtocolViolation",
    "ReproError",
    "RunTimeout",
    "SimulationError",
    "UnsupportedFaultSite",
    "UnsupportedMechanism",
    "UnsupportedTopology",
]


class ReproError(Exception):
    """Base class of every intentional failure the library raises."""


class SimulationError(ReproError, RuntimeError):
    """Kernel misuse or a simulation that cannot make progress.

    (Re-homed from ``repro.sim.kernel``; ``RuntimeError`` stays a base so
    legacy handlers keep catching it.)
    """


class DeadlockError(SimulationError):
    """The ROI did not finish within the cycle budget.

    (Re-homed from ``repro.system``.  Now a :class:`SimulationError`:
    a deadlocked ROI is one way a simulation fails to make progress.)
    """


class LivelockDetected(SimulationError):
    """The liveness watchdog saw no forward progress for a full window.

    Unlike :class:`DeadlockError` (cycle budget exhausted, or the event
    queue drained with threads still pending), a livelock is *active*
    non-progress: events keep firing — spinning cores, polling loops,
    retransmissions — while the progress signature (lock acquisitions /
    releases, finished threads) stays frozen.  The structured fields
    mirror the ``repro.obs`` counters the watchdog samples.
    """

    def __init__(
        self,
        message: str = "no forward progress",
        *,
        cycle: Optional[int] = None,
        window: Optional[int] = None,
        stalled_threads: Tuple[int, ...] = (),
        locks: Optional[Dict[int, int]] = None,
    ):
        super().__init__(message)
        #: cycle the watchdog fired at
        self.cycle = cycle
        #: size of the no-progress window, cycles
        self.window = window
        #: thread ids that had not finished when the watchdog fired
        self.stalled_threads = tuple(stalled_threads)
        #: ``lock_id -> acquisitions`` at detection time
        self.locks = dict(locks or {})


class ProtocolViolation(ReproError, AssertionError):
    """A coherence invariant failed during simulation.

    (Re-homed from ``repro.coherence.checker``; ``AssertionError`` stays
    a base for backward compatibility.)

    Since the table-driven protocol refactor the checker validates
    observed transitions against the active protocol's transition table;
    a violation triggered by a specific event names the offending
    ``(state, event)`` pair in the structured fields.
    """

    def __init__(
        self,
        message: str = "coherence invariant violated",
        *,
        state: Optional[str] = None,
        event: Optional[str] = None,
        core: Optional[int] = None,
        addr: Optional[int] = None,
    ):
        super().__init__(message)
        #: the stable state the event hit (e.g. ``"M"``), if applicable
        self.state = state
        #: the event name (message type value or local pseudo-event)
        self.event = event
        #: the core / home node where the pair occurred
        self.core = core
        #: the block address involved
        self.addr = addr


class UnsupportedFaultSite(ReproError, ValueError):
    """A fault plan names sites the active network cannot honor.

    The flit-level fabric exposes no per-router/per-link hooks, so only
    ``inject`` sites are installable there; on the packet-level network
    a router or link site must name a router or link of the built
    topology.  A plan that breaks either rule is refused at install time
    — with the offending site kinds and the network model named —
    rather than silently dropped.  (``ValueError`` stays a base so
    legacy handlers keep catching it.)
    """

    def __init__(
        self,
        message: str = "fault plan names unsupported sites",
        *,
        model: Optional[str] = None,
        site_kinds: Tuple[str, ...] = (),
    ):
        super().__init__(message)
        #: the refusing network model (e.g. ``"flit/event"``)
        self.model = model
        #: the unsupported site kinds in the plan (e.g. ``("router",)``)
        self.site_kinds = tuple(site_kinds)


class UnsupportedTopology(ReproError, ValueError):
    """The selected network model cannot run the configured topology.

    The flit-level fabrics (event and vector engines) hard-wire the
    5-port mesh router (LOCAL/N/E/S/W) and XY routing; a config naming a
    non-mesh ``NocConfig.topology`` is refused up front — with the model
    and topology named — rather than silently routed as a mesh.
    (``ValueError`` stays a base so generic config-validation handlers
    keep catching it.)
    """

    def __init__(
        self,
        message: str = "topology unsupported by this network model",
        *,
        model: Optional[str] = None,
        topology: Optional[str] = None,
        supported: Tuple[str, ...] = ("mesh",),
    ):
        super().__init__(message)
        #: the refusing network model (e.g. ``"flit/vector"``)
        self.model = model
        #: the requested topology axis value (e.g. ``"torus"``)
        self.topology = topology
        #: topologies this model can run
        self.supported = tuple(supported)


class UnsupportedMechanism(ReproError, ValueError):
    """The selected network model cannot run the configured mechanism.

    iNPG's big routers inspect and generate packets inside the
    packet-level routers, and OCOR's lock-request priorities are read by
    the packet-level port arbiters; the flit-level fabric has neither
    hook.  A run asking for either there is refused up front — with the
    model and the mechanism named — rather than run without it.
    (``ValueError`` stays a base so generic config-validation handlers
    keep catching it.)
    """

    def __init__(
        self,
        message: str = "mechanism unsupported by this network model",
        *,
        model: Optional[str] = None,
        mechanism: Optional[str] = None,
    ):
        super().__init__(message)
        #: the refusing network model (e.g. ``"flit/event"``)
        self.model = model
        #: the refused mechanism (``"inpg"`` or ``"ocor"``)
        self.mechanism = mechanism


class RunTimeout(ReproError):
    """A run exhausted its wall-clock budget before finishing its ROI.

    Raised from inside the kernel's run loop (the deadline check), so it
    aborts the simulation wherever it happens to be; the executor treats
    it as a per-run failure and never caches the partial run.
    """

    def __init__(
        self,
        message: str = "wall-clock budget exhausted",
        *,
        timeout_s: Optional[float] = None,
        cycle: Optional[int] = None,
    ):
        super().__init__(message)
        self.timeout_s = timeout_s
        self.cycle = cycle


class ExecutorError(ReproError):
    """A run failed inside the executor (inline or in a pool worker).

    Carries the originating spec's identity — content-address
    ``fingerprint`` and human ``spec_label`` — plus the worker's
    formatted ``worker_traceback`` when the failure crossed a process
    boundary (a pickled exception loses its traceback, so workers ship
    the text alongside).
    """

    def __init__(
        self,
        message: str = "run failed",
        *,
        fingerprint: Optional[str] = None,
        spec_label: Optional[str] = None,
        worker_traceback: Optional[str] = None,
    ):
        super().__init__(message)
        self.fingerprint = fingerprint
        self.spec_label = spec_label
        self.worker_traceback = worker_traceback
