"""Output correctness checks: each returns how many operations failed.

An operation is one RunResult of the Figure 12 plan, or one injected
packet of the flit drive.  It fails if it is missing, if it differs
from the output pinned for its seed, if it differs from the reference
output of the same run (the first plan of a run, or the cold plan a
replay reads), or, on a replay, if it was simulated instead of read.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "pins.json")


def load_pins(path: str = PINS_PATH) -> Dict[str, Dict[str, Dict]]:
    """``"fig12"`` or ``"flit_mesh32"`` -> pinned seed -> outputs."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def payload_digest(payload) -> str:
    """Order-independent digest of a JSON-ready value."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cache_digests(directory: str) -> Dict[str, str]:
    """fingerprint -> digest of the stored result, for every entry of a
    result-cache directory (the spec, timestamps and wall time that sit
    beside the result are left out)."""
    out = {}
    for entry in sorted(os.listdir(directory)):
        if entry.endswith(".json") and not entry.startswith("."):
            with open(os.path.join(directory, entry), encoding="utf-8") as fh:
                out[entry[:-5]] = payload_digest(json.load(fh)["result"])
    return out


def fig12_failures(outputs: Dict, pins: Optional[Dict] = None,
                   reference: Optional[Dict] = None) -> int:
    """Failed RunResults of one Figure 12 plan.

    ``outputs["runs"]`` maps ``benchmark/mechanism`` to ``[roi_cycles,
    sim_events]`` (``None`` for a run that failed).  ``pins`` are the
    pinned outputs when the plan ran a pinned seed;
    ``reference`` is another plan's outputs the runs must equal.
    """
    runs = outputs["runs"]
    expected = pins["runs"] if pins else None
    failed = 0
    for key, got in runs.items():
        bad = got is None or got[0] <= 0 or got[1] <= 0
        if expected is not None and got != expected.get(key):
            bad = True
        if reference is not None and got != reference["runs"].get(key):
            bad = True
        failed += bad
    if expected is not None:
        failed += len(set(expected) - set(runs))
        if failed == 0 and outputs["paper_gap_pp"] != pins["paper_gap_pp"]:
            failed = len(runs)  # the aggregation itself is wrong
    if reference is not None:
        failed += len(set(reference["runs"]) - set(runs))
    # a replay must read every result, never simulate one
    failed += min(outputs.get("executed") or 0, len(runs) - failed)
    return failed


def flit_failures(outputs: Dict, pins: Optional[Dict] = None,
                  reference: Optional[Dict] = None) -> int:
    """Failed packets of one flit drive.

    Every injected packet must be delivered.  When the event count, the
    last delivery cycle or the delivered-stream digest differs from the
    pin or the reference, no packet of the drive can be trusted.
    """
    injected = outputs["injected"]
    for expected in (pins, reference):
        if expected is None:
            continue
        for key in ("injected", "events", "delivered", "last_cycle",
                    "digest"):
            if outputs[key] != expected[key]:
                return injected
    return injected - outputs["delivered"]
