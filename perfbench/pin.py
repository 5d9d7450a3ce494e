"""Write pins.json: the outputs the correctness gate pins, per seed.

    python3 perfbench/pin.py

Pins seeds 0 to 99 and the default seeds, for the Figure 12 plan and
the flit drive, from runs of the program as it stands.  Re-pin only
when a change to the modelled design changes the outputs on purpose; a
simulator-only change must leave every pin as it is.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import Dict

import gate
import run

SEEDS = sorted(set(range(100)) | set(run.DEFAULT_SEEDS.values()))


def fig12_pin(seed: int, work: str) -> Dict:
    cache = tempfile.mkdtemp(prefix="cache-", dir=work)
    try:
        outputs = run.launch("fig12_cold", seed, cache=cache, jobs=2,
                             cwd=work)["outputs"]
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    if gate.fig12_failures(outputs):
        raise SystemExit(f"fig12 seed {seed}: a run failed")
    return {"runs": outputs["runs"], "paper_gap_pp": outputs["paper_gap_pp"]}


def flit_pin(seed: int, work: str) -> Dict:
    outputs = run.launch("flit_mesh32", seed, cwd=work)["outputs"]
    if gate.flit_failures(outputs):
        raise SystemExit(f"flit_mesh32 seed {seed}: a packet was lost")
    return outputs


def dump(pins: Dict[str, Dict[str, Dict]]) -> str:
    """JSON with one line per pinned seed."""
    families = []
    for family, by_seed in pins.items():
        rows = ",\n".join(f'  "{seed}": {json.dumps(entry)}'
                          for seed, entry in by_seed.items())
        families.append(f' "{family}": {{\n{rows}\n }}')
    return "{\n" + ",\n".join(families) + "\n}\n"


def main() -> int:
    os.makedirs(run.WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="pin-", dir=run.WORK_DIR)
    try:
        fig12 = {str(seed): fig12_pin(seed, work) for seed in SEEDS}
        # the flit drive is one process: two at a time fill two CPUs
        with ThreadPoolExecutor(2) as pool:
            flit = dict(zip(map(str, SEEDS),
                            pool.map(lambda s: flit_pin(s, work), SEEDS)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(gate.PINS_PATH, "w", encoding="utf-8") as fh:
        fh.write(dump({"fig12": fig12, "flit_mesh32": flit}))
    print(f"pinned {len(SEEDS)} seeds in {gate.PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
