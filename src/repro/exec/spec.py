"""RunSpec: a frozen, canonically-fingerprinted description of one run.

A :class:`RunSpec` captures *everything* that determines a simulation's
outcome — benchmark, primitive, scale, seed, lock placement, cycle
budget and the full resolved :class:`~repro.config.SystemConfig` — per
the deterministic kernel contract (:mod:`repro.sim.kernel`): a run is a
pure function of its spec.  The SHA-256 fingerprint over the canonical
JSON encoding of those fields is therefore a content address for the
result, used by both the in-memory and the on-disk caches.

Two specs that resolve to the same effective parameters share one
fingerprint even if they were phrased differently (e.g. ``config=None``
vs an explicit default config, or ``mechanism="inpg"`` vs a config with
the iNPG flags pre-baked), which is what lets Figures 11/12/13 reuse one
run matrix across invocations.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from typing import Dict, Optional, TYPE_CHECKING, Tuple

from ..config import SystemConfig, config_from_dict, config_to_dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.plan import FaultPlan

#: bump when the canonical payload below changes shape
SPEC_SCHEMA_VERSION = 1

#: sentinel benchmark name for the single-lock all-compete scenario
#: (paper Figure 10); ``lock_homes[0]`` is the lock's home node.
MICROBENCH = "microbench"

#: Figure 10's lock home — core (5, 6) on the 8x8 mesh.
DEFAULT_MICROBENCH_HOME = 53

#: ``single_lock_workload`` defaults, resolved into the fingerprint so a
#: spec that spells them out and one that relies on defaults coincide.
_MICROBENCH_DEFAULTS = {
    "cs_per_thread": 4,
    "cs_cycles": 100,
    "parallel_cycles": 200,
}


@dataclass(frozen=True)
class RunSpec:
    """Declarative description of one simulation.

    ``mechanism=None`` means "use ``config`` exactly as passed" (for
    callers that baked iNPG/OCOR flags in); otherwise the mechanism is
    applied on top of ``config`` (or the Table 1 defaults).

    ``benchmark=MICROBENCH`` selects the deterministic single-lock
    workload; ``cs_per_thread`` / ``cs_cycles`` / ``parallel_cycles``
    parameterize it (``None`` picks the generator defaults) and
    ``lock_homes`` pins its home node.

    The robustness knobs (``fault_plan``, ``watchdog_cycles``,
    ``check_protocol``) change what the simulation *does*, so they enter
    the canonical payload — but only when set, which keeps every
    pre-existing fingerprint (and thus every cached result) stable.
    """

    benchmark: str
    mechanism: Optional[str] = "original"
    primitive: str = "qsl"
    scale: float = 1.0
    seed: int = 2018
    lock_homes: Tuple[int, ...] = ()
    config: Optional[SystemConfig] = None
    max_cycles: int = 50_000_000
    cs_per_thread: Optional[int] = None
    cs_cycles: Optional[int] = None
    parallel_cycles: Optional[int] = None
    #: deterministic NoC fault injection (:class:`repro.faults.FaultPlan`)
    fault_plan: Optional["FaultPlan"] = None
    #: arm the liveness watchdog with this no-progress window (cycles)
    watchdog_cycles: Optional[int] = None
    #: attach the online coherence :class:`~repro.coherence.checker.ProtocolChecker`
    check_protocol: bool = False
    #: coherence protocol variant (``moesi`` / ``msi`` / ``mesi``);
    #: ``None`` keeps whatever ``config`` carries (MOESI by default)
    protocol: Optional[str] = None
    #: NoC topology (``mesh`` / ``torus`` / ``ring``); ``None`` keeps
    #: whatever ``config`` carries (the paper's mesh by default)
    topology: Optional[str] = None
    #: output-port arbiter (``rr`` / ``wrr``); ``None`` keeps whatever
    #: ``config`` carries (round-robin by default)
    arbiter: Optional[str] = None

    def __post_init__(self):
        # normalize so equal specs hash equally regardless of the
        # sequence type the caller used for lock placement
        object.__setattr__(self, "lock_homes", tuple(self.lock_homes))

    # ------------------------------------------------------------------
    @classmethod
    def microbench(
        cls,
        home_node: int = DEFAULT_MICROBENCH_HOME,
        cs_per_thread: int = 4,
        cs_cycles: int = 100,
        parallel_cycles: int = 200,
        **kwargs,
    ) -> "RunSpec":
        """The Figure 10 single-lock scenario as a spec."""
        return cls(
            benchmark=MICROBENCH,
            lock_homes=(home_node,),
            cs_per_thread=cs_per_thread,
            cs_cycles=cs_cycles,
            parallel_cycles=parallel_cycles,
            **kwargs,
        )

    @property
    def is_microbench(self) -> bool:
        return self.benchmark == MICROBENCH

    def resolved_config(self) -> SystemConfig:
        """The effective config: base (or defaults) + axes + mechanism."""
        base = self.config or SystemConfig()
        if self.protocol is not None and self.protocol != base.protocol:
            base = replace(base, protocol=self.protocol)
        noc_updates = {}
        if self.topology is not None and self.topology != base.noc.topology:
            noc_updates["topology"] = self.topology
        if self.arbiter is not None and self.arbiter != base.noc.arbiter:
            noc_updates["arbiter"] = self.arbiter
        if noc_updates:
            base = base.with_overrides(noc=noc_updates)
        if self.mechanism is None:
            return base
        return base.with_mechanism(self.mechanism)

    def microbench_params(self) -> Dict[str, int]:
        """Workload-generator kwargs with defaults resolved."""
        return {
            name: getattr(self, name) if getattr(self, name) is not None
            else default
            for name, default in _MICROBENCH_DEFAULTS.items()
        }

    # ------------------------------------------------------------------
    # Wire round-trip (the serve proto and anything else that ships
    # specs across a network or process boundary)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """Lossless JSON-compatible encoding of this spec *as phrased*.

        Unlike :meth:`canonical_payload` (which resolves the mechanism
        into the config and elides defaults to keep fingerprints
        stable), this keeps every field the caller set, so
        :meth:`from_dict` rebuilds an **equal** spec — same fields, same
        fingerprint, same label.  Optional fields are present only when
        set, keeping payloads small and forward-readable.
        """
        out: Dict = {
            "benchmark": self.benchmark,
            "mechanism": self.mechanism,
            "primitive": self.primitive,
            "scale": float(self.scale),
            "seed": self.seed,
            "max_cycles": self.max_cycles,
        }
        if self.lock_homes:
            out["lock_homes"] = list(self.lock_homes)
        if self.config is not None:
            out["config"] = config_to_dict(self.config)
        for name in ("cs_per_thread", "cs_cycles", "parallel_cycles",
                     "watchdog_cycles", "protocol", "topology", "arbiter"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.check_protocol:
            out["check_protocol"] = True
        if self.fault_plan is not None and self.fault_plan.enabled:
            out["fault_plan"] = self.fault_plan.canonical_payload()
        return out

    @classmethod
    def from_dict(cls, payload: Dict) -> "RunSpec":
        """Inverse of :meth:`to_dict` (bit-identical fingerprint)."""
        data = dict(payload)
        if "config" in data:
            data["config"] = config_from_dict(data["config"])
        if "lock_homes" in data:
            data["lock_homes"] = tuple(data["lock_homes"])
        if "fault_plan" in data:
            from ..faults.plan import FAULT_SCHEMA_VERSION, FaultPlan, FaultSite

            plan = data["fault_plan"]
            schema = plan.get("schema")
            if schema != FAULT_SCHEMA_VERSION:
                raise ValueError(
                    f"fault plan payload has schema {schema!r}, "
                    f"expected {FAULT_SCHEMA_VERSION}"
                )
            data["fault_plan"] = FaultPlan(
                sites=tuple(FaultSite(**site) for site in plan["sites"]),
                seed=plan["seed"],
            )
        return cls(**data)

    # ------------------------------------------------------------------
    # Fingerprinting
    # ------------------------------------------------------------------
    def canonical_payload(self) -> Dict:
        """Everything that determines the result, mechanism resolved."""
        payload = {
            "schema": SPEC_SCHEMA_VERSION,
            "benchmark": self.benchmark,
            "primitive": self.primitive,
            "scale": float(self.scale),
            "seed": self.seed,
            "lock_homes": list(self.lock_homes),
            "max_cycles": self.max_cycles,
            "config": asdict(self.resolved_config()),
        }
        # the default protocol is elided so every pre-protocol-axis
        # fingerprint (= cache address) and golden stays valid; a
        # non-default protocol is a different run and addresses itself
        if payload["config"].get("protocol") == "moesi":
            del payload["config"]["protocol"]
        # same treatment for the flit-engine axis: the default event
        # engine keeps pre-axis fingerprints; "vector" is bit-exact but
        # addresses itself (distinct cache entries, honest provenance)
        if payload["config"]["noc"].get("flit_engine") == "event":
            del payload["config"]["noc"]["flit_engine"]
        # topology/arbiter axes, same elide-the-default convention; WRR
        # weights are inert under the default round-robin arbiter, so
        # they only address themselves when the WRR arbiter reads them
        noc = payload["config"]["noc"]
        if noc.get("topology") == "mesh":
            del noc["topology"]
        if noc.get("arbiter") == "rr":
            del noc["arbiter"]
            noc.pop("wrr_weights", None)
        # big-router placement: the paper's evenly-spread deployment is
        # the pre-axis behaviour, so the default keeps fingerprints
        if payload["config"]["inpg"].get("placement") == "spread":
            del payload["config"]["inpg"]["placement"]
        if self.is_microbench:
            payload["workload"] = self.microbench_params()
        # robustness knobs: keys exist only when active so legacy
        # fingerprints (= cache addresses) are untouched
        if self.fault_plan is not None and self.fault_plan.enabled:
            payload["faults"] = self.fault_plan.canonical_payload()
        if self.watchdog_cycles:
            payload["watchdog_cycles"] = int(self.watchdog_cycles)
        if self.check_protocol:
            payload["check_protocol"] = True
        return payload

    @property
    def fingerprint(self) -> str:
        """SHA-256 content address over the canonical payload."""
        blob = json.dumps(
            self.canonical_payload(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Short human-readable identity for logs and errors."""
        mech = self.mechanism if self.mechanism is not None else "custom-cfg"
        text = (
            f"{self.benchmark}[{mech}/{self.primitive}"
            f" scale={self.scale} seed={self.seed}"
        )
        resolved = self.resolved_config()
        if resolved.protocol != "moesi":
            text += f" protocol={resolved.protocol}"
        if resolved.noc.topology != "mesh":
            text += f" topology={resolved.noc.topology}"
        if resolved.noc.arbiter != "rr":
            text += f" arbiter={resolved.noc.arbiter}"
        if self.fault_plan is not None and self.fault_plan.enabled:
            text += f" faults={self.fault_plan.describe()}"
        return text + "]"
