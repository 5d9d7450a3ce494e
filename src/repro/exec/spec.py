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
from dataclasses import asdict, dataclass
from typing import Dict, Optional, TYPE_CHECKING, Tuple

from ..config import AXES, SystemConfig, config_from_dict, config_to_dict

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

#: how many configs :func:`_config_payload` keeps encoded
CONFIG_MEMO_SIZE = 64

#: (id of a spec's config, mechanism) -> (that config, its encoding)
_config_payloads: Dict[Tuple[int, Optional[str]], Tuple[object, Dict]] = {}


def _config_payload(spec: "RunSpec") -> Dict:
    """The canonical encoding of ``spec``'s resolved config, shared: a
    caller must not change it.

    A plan's specs share a few configs (the Figure 12 plan: no config
    and four mechanisms), so each is resolved and encoded once per
    process.  The memo is keyed by the config *object*, not its value:
    equal configs can encode differently (``2 == 2.0``), and an address
    must not depend on which of them a process saw first.  An entry
    holds its config, so the id in its key is not reused while it
    lives; the memo is emptied when it reaches :data:`CONFIG_MEMO_SIZE`.
    Threads racing on one config encode it twice, identically: a race
    costs time, never a wrong address.
    """
    key = (id(spec.config), spec.mechanism)
    entry = _config_payloads.get(key)
    if entry is None:
        config = asdict(spec.resolved_config())
        # an axis at its default is elided, so every fingerprint (= cache
        # address) and golden taken before the axis existed stays valid;
        # a non-default value is a different run and addresses itself
        for axis in AXES:
            holder = config[axis.section] if axis.section else config
            if holder[axis.key] == axis.default:
                del holder[axis.key]
        # WRR weights are inert under the default round-robin arbiter,
        # so they address a run only when the WRR arbiter reads them
        if "arbiter" not in config["noc"]:
            del config["noc"]["wrr_weights"]
        if len(_config_payloads) >= CONFIG_MEMO_SIZE:
            _config_payloads.clear()
        entry = _config_payloads[key] = (spec.config, config)
    return entry[1]


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
        """The effective config: base (or defaults) + mechanism."""
        base = self.config or SystemConfig()
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
                     "watchdog_cycles"):
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
        """Everything that determines the result, mechanism resolved;
        a new dict, the caller's to keep or change."""
        # the config's sections are its only nested dicts
        config = {key: dict(value) if isinstance(value, dict) else value
                  for key, value in _config_payload(self).items()}
        return self._payload(config)

    def _payload(self, config: Dict) -> Dict:
        """The canonical payload around the config encoding ``config``."""
        payload = {
            "schema": SPEC_SCHEMA_VERSION,
            "benchmark": self.benchmark,
            "primitive": self.primitive,
            "scale": float(self.scale),
            "seed": self.seed,
            "lock_homes": list(self.lock_homes),
            "max_cycles": self.max_cycles,
            "config": config,
        }
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
            self._payload(_config_payload(self)), sort_keys=True,
            separators=(",", ":")
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
        for axis in AXES:
            value = axis.of(resolved)
            if value != axis.default:
                text += f" {axis.name}={value}"
        if self.fault_plan is not None and self.fault_plan.enabled:
            text += f" faults={self.fault_plan.describe()}"
        return text + "]"
