"""System configuration, mirroring Table 1 of the paper.

All timing is expressed in CPU cycles of the 2.0 GHz cores; the NoC runs at
core frequency (as in the paper's Gem5/GARNET setup).  A single
:class:`SystemConfig` fully determines a simulation run (together with the
workload), so experiments are declarative parameter sweeps over it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, NamedTuple, Optional, Tuple


@dataclass(frozen=True)
class CoreConfig:
    """Processor core parameters (Table 1: Alpha 2.0 GHz out-of-order)."""

    frequency_ghz: float = 2.0
    #: cycles a thread needs to issue the next instruction of the lock FSM
    #: after a memory response arrives (models non-memory pipeline work).
    issue_latency: int = 1


@dataclass(frozen=True)
class CacheConfig:
    """L1/L2 cache parameters (Table 1)."""

    l1_size_kb: int = 32
    l1_assoc: int = 4
    l1_latency: int = 2
    l2_bank_size_mb: int = 1
    l2_assoc: int = 16
    l2_latency: int = 6
    block_bytes: int = 128
    mshrs: int = 32
    #: model finite L1 capacity with LRU eviction and PutS/PutM
    #: writebacks.  Off by default: the lock-centric workloads fit
    #: comfortably, and infinite capacity keeps runs deterministic with
    #: respect to unrelated data placement.
    model_capacity: bool = False
    #: directory-side NACKing of doomed conditional RMWs (a SWAP that
    #: would observe "occupied" gets a copy instead of a transaction).
    #: Off by default — the paper's baseline runs the full
    #: invalidate-everyone transaction for every competing test_and_set,
    #: which is precisely the cache-line bouncing its Figure 2 measures.
    #: Turning this on is a *software-transparent directory optimization*
    #: that removes most of the traffic iNPG targets (ablation knob).
    directory_nacks: bool = False

    @property
    def l1_num_sets(self) -> int:
        return (self.l1_size_kb * 1024) // (self.block_bytes * self.l1_assoc)


@dataclass(frozen=True)
class MemoryConfig:
    """Off-chip DRAM parameters (Table 1: 4 GB, 8 controllers)."""

    dram_latency: int = 100
    num_controllers: int = 8


@dataclass(frozen=True)
class NocConfig:
    """Mesh NoC parameters (Table 1: 8x8, XY routing, 2-stage routers)."""

    width: int = 8
    height: int = 8
    #: two-stage pipelined speculative router (RC/VA/SA then ST).
    router_pipeline_cycles: int = 2
    link_cycles: int = 1
    vcs_per_port: int = 6
    flits_per_vc: int = 4
    datapath_bits: int = 128
    #: separate control/data virtual networks (Table 1 has 4 VNs); when
    #: disabled, single-flit control packets queue behind data bursts —
    #: an ablation knob for the port arbitration model.
    virtual_networks: bool = True
    #: run on the detailed flit-level router model instead of the
    #: packet-level one (validation mode; ~10x slower, no iNPG or OCOR
    #: support): the event engine's ``repro.noc.flit_fabric.FlitFabric``
    flit_level: bool = False
    #: fabric topology (``repro.noc.topology``): the paper's ``mesh`` by
    #: default; ``torus`` (wraparound XY, dateline VCs) and ``ring``
    #: (bidirectional, shortest direction) for the placement sweeps.
    #: The flit-level fabrics are mesh-only and refuse other values with
    #: a structured :class:`repro.errors.UnsupportedTopology`.
    topology: str = "mesh"
    #: output-port arbitration across virtual-network classes: ``rr``
    #: (strict VC priority + oldest-first, the paper's baseline) or
    #: ``wrr`` (credit-based weighted round-robin over VC classes,
    #: ``repro.noc.arbiter``).
    arbiter: str = "rr"
    #: WRR weights per VC class, by index (class ``i`` gets
    #: ``weights[i % len(weights)]``); inert unless ``arbiter == "wrr"``.
    wrr_weights: Tuple[int, ...] = (2, 1)

    def __post_init__(self) -> None:
        _check_axes(self, "noc")
        # JSON round-trips turn tuples into lists; normalize so configs
        # stay hashable (frozen RunSpecs embed them) and compare equal.
        weights = tuple(int(w) for w in self.wrr_weights)
        if not weights or any(w < 1 for w in weights):
            raise ValueError(
                f"wrr_weights must be positive integers, got "
                f"{self.wrr_weights!r}"
            )
        object.__setattr__(self, "wrr_weights", weights)
    #: one cache block = one 8-flit packet; control messages are 1 flit.
    data_packet_flits: int = 8
    ctrl_packet_flits: int = 1

    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    def coords(self, node: int) -> Tuple[int, int]:
        """(x, y) coordinate of a node id."""
        return node % self.width, node // self.width

    def node_at(self, x: int, y: int) -> int:
        """Node id at coordinate (x, y)."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"({x},{y}) outside {self.width}x{self.height} mesh")
        return y * self.width + x


@dataclass(frozen=True)
class InpgConfig:
    """iNPG big-router parameters (Section 4, Table 1).

    The default deployment interleaves 32 big routers with 32 normal ones on
    the 8x8 mesh (paper Figure 3).
    """

    enabled: bool = False
    num_big_routers: int = 32
    #: number of lock-barrier entries in the locking barrier table.
    barrier_table_size: int = 16
    #: early-invalidation entries available per big router (shared pool, as
    #: Figure 6 sizes 16 lock barriers and 16 EI entries).
    ei_entries: int = 16
    #: time-to-live for an idle lock barrier, cycles (Section 4.1).
    barrier_ttl: int = 128
    #: big-router placement strategy (``repro.inpg.deployment``):
    #: ``spread`` is the paper's interleaved/evenly-strided deployment
    #: (Figure 3); ``center`` and ``perimeter`` rank nodes by total hop
    #: distance for the placement-sensitivity sweeps.
    placement: str = "spread"

    def __post_init__(self) -> None:
        _check_axes(self, "inpg")


@dataclass(frozen=True)
class OcorConfig:
    """OCOR parameters (Table 1: 128 retries, 9 priority levels)."""

    enabled: bool = False
    retry_times: int = 128
    priority_levels: int = 9
    retries_per_level: int = 16
    #: lowest level is reserved for wakeup (post-sleep) requests.
    wakeup_level: int = 0
    #: anti-starvation aging: a queued request gains one priority level
    #: per this many waiting cycles (the paper embeds "program progress
    #: information ... to avoid starvation for low-priority requests").
    aging_cycles: int = 2000


@dataclass(frozen=True)
class OsConfig:
    """OS model parameters for the queue spin-lock sleep phase.

    Linux 4.2 QSL spins up to 128 times, then context-switches out.  The
    sleep path costs a context switch on the way out plus a wakeup (IPI +
    switch-in) on the way back; both are far larger than a spin retry.
    """

    qsl_spin_retries: int = 128
    context_switch_cycles: int = 600
    wakeup_cycles: int = 400


@dataclass(frozen=True)
class LockSpinConfig:
    """Spin-loop pacing shared by all primitives."""

    #: cycles between successive retries / polls.
    spin_interval: int = 20
    #: cycles to execute the local ADD/compare before an RMW attempt.
    local_op_cycles: int = 2
    #: raw spinning (the paper's Section 2.1: "each core repeatedly
    #: executes an atomic test_and_set"): every TAS/QSL retry is an
    #: atomic SWAP attempt generating a GetX, and losers receive fresh
    #: copies from the winner each round.  False switches to
    #: test-and-test-and-set (poll a local copy, swap only on observed
    #: free) — a common software optimization that removes most of the
    #: lock coherence traffic iNPG targets (ablation knob).
    raw_spin: bool = True


@dataclass(frozen=True)
class SystemConfig:
    """Aggregate configuration for one simulated many-core run."""

    core: CoreConfig = field(default_factory=CoreConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    noc: NocConfig = field(default_factory=NocConfig)
    inpg: InpgConfig = field(default_factory=InpgConfig)
    ocor: OcorConfig = field(default_factory=OcorConfig)
    os: OsConfig = field(default_factory=OsConfig)
    spin: LockSpinConfig = field(default_factory=LockSpinConfig)
    #: one thread per core, as in the paper.
    num_threads: int = 64
    seed: int = 2018
    #: coherence protocol variant (``repro.coherence.protocol``): the
    #: paper's directory MOESI by default; ``msi`` / ``mesi`` select the
    #: sibling transition tables for protocol ablations.
    protocol: str = "moesi"

    def __post_init__(self) -> None:
        _check_axes(self, "")

    def with_overrides(self, **overrides) -> "SystemConfig":
        """Return a copy with fields deep-replaced into nested sections.

        Section keyword arguments take a mapping of field overrides (or a
        ready section instance); top-level fields take plain values::

            cfg.with_overrides(noc={"topology": "torus"}, num_threads=32)
            cfg.with_overrides(inpg={"enabled": True, "placement": "center"})

        Strict: an unknown section field or top-level field raises
        ``TypeError`` instead of being dropped.
        This is the supported way to derive configs — it keeps every
        section a frozen value object (no mutation patterns) and runs all
        ``__post_init__`` validation on the rebuilt sections.
        """
        updates = {}
        for name, value in overrides.items():
            section = _SECTION_TYPES.get(name)
            if section is not None:
                if isinstance(value, section):
                    updates[name] = value
                    continue
                if not isinstance(value, dict):
                    raise TypeError(
                        f"section {name!r} takes a mapping of field "
                        f"overrides or a {section.__name__}, got "
                        f"{type(value).__name__}"
                    )
                current = getattr(self, name)
                known = {f.name for f in fields(current)}
                unknown = sorted(set(value) - known)
                if unknown:
                    raise TypeError(
                        f"unknown field(s) {unknown} for config section "
                        f"{name!r}"
                    )
                updates[name] = replace(current, **value)
            else:
                if name not in {
                    f.name for f in fields(self)
                }:
                    raise TypeError(
                        f"unknown SystemConfig field {name!r}"
                    )
                updates[name] = value
        if not updates:
            return self
        return replace(self, **updates)

    def with_mechanism(self, mechanism: str) -> "SystemConfig":
        """Return a copy configured as one of the paper's four cases.

        ``mechanism`` is one of ``original``, ``ocor``, ``inpg``,
        ``inpg+ocor`` (case-insensitive).
        """
        key = mechanism.lower().replace(" ", "")
        flags = {
            "original": (False, False),
            "ocor": (False, True),
            "inpg": (True, False),
            "inpg+ocor": (True, True),
            "ocor+inpg": (True, True),
            "both": (True, True),
        }.get(key)
        if flags is None:
            raise ValueError(f"unknown mechanism {mechanism!r}")
        inpg_on, ocor_on = flags
        return self.with_overrides(
            inpg={"enabled": inpg_on}, ocor={"enabled": ocor_on}
        )


#: the dataclass type behind each :class:`SystemConfig` section, for
#: rebuilding a config from its ``asdict`` encoding
_SECTION_TYPES = {
    "core": CoreConfig,
    "cache": CacheConfig,
    "memory": MemoryConfig,
    "noc": NocConfig,
    "inpg": InpgConfig,
    "ocor": OcorConfig,
    "os": OsConfig,
    "spin": LockSpinConfig,
}


def config_to_dict(config: SystemConfig) -> Dict:
    """JSON-compatible encoding of a config (inverse of
    :func:`config_from_dict`)."""
    return asdict(config)


def config_from_dict(payload: Dict) -> SystemConfig:
    """Rebuild a :class:`SystemConfig` from its :func:`config_to_dict`
    encoding.

    Strict by design, like :meth:`SystemConfig.with_overrides`: a config
    that crossed a process or network boundary must mean exactly what it
    meant at the sender, or fingerprints would diverge.
    """
    return SystemConfig().with_overrides(**payload)


#: The four comparative cases of Section 5.1.
MECHANISMS = ("original", "ocor", "inpg", "inpg+ocor")

#: The five locking primitives (Section 2.1), as named throughout the
#: paper's figures; the classes are in :mod:`repro.locks`.
PRIMITIVES = ("tas", "ticket", "abql", "mcs", "qsl")

#: paper aliases
_PRIMITIVE_ALIASES = {"ttl": "ticket"}


def canonical_primitive(name: str) -> str:
    """Resolve a primitive name or paper alias (e.g. TTL) to canonical form."""
    key = name.lower()
    key = _PRIMITIVE_ALIASES.get(key, key)
    if key not in PRIMITIVES:
        raise ValueError(f"unknown lock primitive {name!r}; use one of {PRIMITIVES}")
    return key


class Axis(NamedTuple):
    """One simulation axis: a config field swept over named values."""

    name: str
    #: dotted :class:`SystemConfig` field, e.g. ``noc.topology``
    path: str
    #: the valid values, default first
    choices: Tuple[str, ...]
    #: the CLI flag's help text; ``None`` keeps the axis config-only
    help: Optional[str]

    @property
    def default(self) -> str:
        return self.choices[0]

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    @property
    def section(self) -> str:
        """The config section holding the axis; ``""`` is the top level."""
        return self.path.rpartition(".")[0]

    @property
    def key(self) -> str:
        return self.path.rpartition(".")[2]

    def of(self, config: SystemConfig) -> str:
        """This axis's value in ``config``."""
        holder = getattr(config, self.section) if self.section else config
        return getattr(holder, self.key)


#: Every simulation axis, in one table.  Validation, the name tuples
#: below, :func:`describe_axes`, the CLI flags (``repro.cli``), the
#: ``ExperimentOptions`` overlay and the fingerprint's default elision
#: (``repro.exec.spec``) all derive from these rows.
AXES = (
    # the protocol specs live in repro.coherence.protocol
    Axis("protocol", "protocol", ("moesi", "msi", "mesi"),
         "coherence protocol variant (default: the paper's directory "
         "MOESI)"),
    # classes in repro.noc.topology
    Axis("topology", "noc.topology", ("mesh", "torus", "ring"),
         "NoC fabric topology (default: the paper's 8x8 mesh; torus/ring "
         "need the packet-level model)"),
    # WRR in repro.noc.arbiter
    Axis("arbiter", "noc.arbiter", ("rr", "wrr"),
         "output-port arbitration across VC classes (default: "
         "round-robin; 'wrr' = weighted round-robin with noc.wrr_weights "
         "credits)"),
    # repro.inpg.deployment; set through the config only
    Axis("placement", "inpg.placement", ("spread", "center", "perimeter"),
         None),
)

PROTOCOL_NAMES, TOPOLOGIES, ARBITERS, PLACEMENTS = (
    axis.choices for axis in AXES
)


def _check_axes(holder, section: str) -> None:
    """Reject an axis value of ``holder`` (one config section) that is
    not among its choices."""
    for axis in AXES:
        if axis.section == section:
            value = getattr(holder, axis.key)
            if value not in axis.choices:
                raise ValueError(
                    f"unknown {axis.name.replace('_', ' ')} {value!r}; "
                    f"choose from {axis.choices}"
                )


def describe_axes() -> Dict[str, Dict[str, object]]:
    """One record per CLI axis of :data:`AXES`, in a single convention.

    Each record names the valid ``choices`` (default first), the
    ``default``, the dotted config field that carries the axis, and the
    shared CLI flag (identical spelling on ``inpg-sim`` and
    ``inpg-experiments``).  Re-exported by :mod:`repro.api`.
    """
    return {
        axis.name: {
            "choices": axis.choices,
            "default": axis.default,
            "config_field": axis.path,
            "flag": axis.flag,
        }
        for axis in AXES
        if axis.help is not None
    }
