"""What a process imports (DESIGN.md, "What a process imports").

Package facades import eagerly only what a packet-level full-system run
needs, and the root facade nothing.  A process that only reads the
result cache therefore never loads the simulator, NumPy, the process
pool or the service; the event-driven flit engine needs no NumPy; and a
vector flit drive loads neither the Figure 12 stack nor the event
engine.  Each check runs in a fresh interpreter, so nothing this test
process imported can hide a load.
"""

import json
import os
import pathlib
import subprocess
import sys

from repro import api
from repro.config import NocConfig

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: the simulator, NumPy, the process pool and the service
REPLAY_NEVER_LOADS = (
    "numpy",
    "asyncio",
    "http.client",
    "multiprocessing",
    "concurrent.futures.process",
    "repro.system",
    "repro.coherence",
    "repro.noc",
    "repro.serve.server",
)
#: the Figure 12 stack and the event engine, which a vector flit drive
#: never runs
FLIT_DRIVE_NEVER_LOADS = (
    "repro.api",
    "repro.exec",
    "repro.experiments",
    "repro.stats",
    "repro.workloads",
    "repro.obs",
    "repro.noc.flitsim",
)
#: the only ``repro.experiments`` modules a Figure 12 replay loads
FIG12_EXPERIMENT_MODULES = {
    "repro.experiments.common",
    "repro.experiments.fig12_roi",
    "repro.experiments.sweep",
}


def fresh_process(code: str) -> dict:
    """Run ``code`` in a new interpreter.  Returns the dict ``code``
    leaves in ``out``, plus ``modules``: everything it loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    script = (f"out = {{}}\n{code}\nimport json, sys\n"
              "out['modules'] = sorted(sys.modules)\nprint(json.dumps(out))")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_fig12_facades_load_no_simulator():
    out = fresh_process("from repro import api\n"
                        "from repro.experiments import fig12_roi")
    loaded = set(out["modules"])
    assert loaded.isdisjoint(REPLAY_NEVER_LOADS), \
        sorted(loaded.intersection(REPLAY_NEVER_LOADS))
    experiments = {m for m in loaded if m.startswith("repro.experiments.")}
    assert experiments <= FIG12_EXPERIMENT_MODULES, \
        sorted(experiments - FIG12_EXPERIMENT_MODULES)


def test_cache_replay_loads_no_simulator(tmp_path):
    spec = api.RunSpec(
        benchmark="vips", mechanism="inpg", primitive="qsl", scale=0.3,
        config=api.SystemConfig(noc=NocConfig(width=4, height=4),
                                num_threads=16))
    [filled] = api.run_plan([spec], cache=str(tmp_path))
    out = fresh_process(
        "from repro import api\n"
        f"executor = api.Executor(jobs=1, cache_dir={str(tmp_path)!r})\n"
        f"spec = api.RunSpec.from_dict({spec.to_dict()!r})\n"
        "result = executor.run([spec])[spec]\n"
        "out['executed'] = executor.stats.executed\n"
        "out['roi_cycles'] = result.roi_cycles")
    assert out["executed"] == 0
    assert out["roi_cycles"] == filled.roi_cycles
    assert "repro.system" not in out["modules"]


def test_event_flit_engine_needs_no_numpy():
    out = fresh_process(
        "from repro.config import NocConfig\n"
        "from repro.noc import make_flit_network\n"
        "from repro.sim import Simulator\n"
        "net = make_flit_network(Simulator(), "
        "NocConfig(width=4, height=4), 'event')\n"
        "out['engine'] = type(net).__name__")
    assert out["engine"] == "FlitNetwork"
    assert "numpy" not in out["modules"]
    assert "repro.noc.vecflit" not in out["modules"]


def test_vector_flit_drive_loads_only_its_engine():
    out = fresh_process(
        "from repro.config import NocConfig\n"
        "from repro.noc import make_flit_network\n"
        "from repro.sim import Simulator\n"
        "net = make_flit_network(Simulator(), "
        "NocConfig(width=32, height=32), 'vector')\n"
        "out['engine'] = type(net).__name__")
    assert out["engine"] == "VectorFlitNetwork"
    loaded = set(out["modules"])
    assert loaded.isdisjoint(FLIT_DRIVE_NEVER_LOADS), \
        sorted(loaded.intersection(FLIT_DRIVE_NEVER_LOADS))
