"""What a process imports (DESIGN.md, "What a process imports").

Package facades import eagerly only what a cache replay reads, and the
root facade nothing.  A process that only reads the result cache
therefore never loads the simulator, the kernel, the workload
generator, observability, the lock classes, NumPy, the process pool or
the service; a pool worker finds everything it runs already imported
before the pool forks; the event-driven flit engine needs no NumPy; and
a vector flit drive loads neither the Figure 12 stack nor the event
engine.  Each check runs in a fresh interpreter, so nothing this test
process imported can hide a load.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro import api
from repro.config import NocConfig
from repro.exec import Executor
from repro.experiments import fig12_roi
from repro.experiments.common import (
    ExperimentOptions,
    get_executor,
    set_executor,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: the simulator and what only a simulation, an export or a pool uses
REPLAY_NEVER_LOADS = (
    "numpy",
    "asyncio",
    "http.client",
    "multiprocessing",
    "concurrent.futures",
    "repro.system",
    "repro.coherence",
    "repro.noc",
    "repro.sim",
    "repro.obs",
    "repro.locks",
    "repro.workloads.generator",
    "repro.experiments.sweep",
    "repro.stats.export",
    "repro.serve.server",
)
#: the most ``repro`` modules a Figure 12 replay may load
REPLAY_MODULE_BUDGET = 20
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


def never_loaded(modules) -> list:
    """The loaded modules a replay must not load, packages or inside."""
    return sorted(m for m in modules for never in REPLAY_NEVER_LOADS
                  if m == never or m.startswith(never + "."))


def test_fig12_facades_load_no_simulator():
    out = fresh_process("from repro import api\n"
                        "from repro.experiments import fig12_roi")
    loaded = set(out["modules"])
    assert never_loaded(loaded) == []
    experiments = {m for m in loaded if m.startswith("repro.experiments.")}
    assert experiments <= FIG12_EXPERIMENT_MODULES, \
        sorted(experiments - FIG12_EXPERIMENT_MODULES)


def test_experiments_cli_loads_no_simulator():
    out = fresh_process("from repro.experiments import runner")
    assert never_loaded(out["modules"]) == []


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
    assert never_loaded(out["modules"]) == []


def test_fig12_replay_loads_only_what_it_reads(tmp_path):
    """The Figure 12 quick harness (small scale), filled by this
    process, then replayed and rendered in fresh ones: by the harness
    on one worker, and by ``inpg-experiments`` at ``--jobs 2``, whose
    full-hit plan must start no pool."""
    options = ExperimentOptions(scale=0.05)
    previous = get_executor()
    set_executor(Executor(jobs=1, cache_dir=tmp_path))
    try:
        filled = fig12_roi.run(options).render()
    finally:
        set_executor(previous)
    out = fresh_process(
        "from repro.exec import Executor\n"
        "from repro.experiments import common, fig12_roi\n"
        "executor = common.set_executor(\n"
        f"    Executor(jobs=1, cache_dir={str(tmp_path)!r}))\n"
        "out['figure'] = fig12_roi.run(\n"
        f"    common.ExperimentOptions(scale={options.scale!r})).render()\n"
        "out['executed'] = executor.stats.executed")
    assert out["executed"] == 0
    assert out["figure"] == filled
    assert never_loaded(out["modules"]) == []
    ours = [m for m in out["modules"] if m == "repro" or m.startswith("repro.")]
    assert len(ours) <= REPLAY_MODULE_BUDGET, ours
    argv = ["fig12", "--quick", "--scale", str(options.scale),
            "--jobs", "2", "--cache-dir", str(tmp_path)]
    cli = fresh_process(
        "import contextlib, io\n"
        "from repro.experiments import runner\n"
        "stdout = io.StringIO()\n"
        "with contextlib.redirect_stdout(stdout):\n"
        f"    out['rc'] = runner.main({argv!r})\n"
        "out['stdout'] = stdout.getvalue()")
    assert cli["rc"] == 0
    assert f"=== fig12 ===\n{filled}\n[fig12 took " in cli["stdout"]
    assert "executed: 0" in cli["stdout"]
    assert "hit rate: 100.0%" in cli["stdout"]
    assert never_loaded(cli["modules"]) == []


def test_pool_workers_inherit_every_module_they_run():
    """After the pool's pre-fork import, running a Figure 12 spec as a
    worker does loads no further ``repro`` module: no worker compiles
    one while the plan is timed."""
    out = fresh_process(
        "import sys\n"
        "from repro.exec.executor import _pool_worker, load_worker_modules\n"
        "from repro.exec.spec import RunSpec\n"
        "load_worker_modules()\n"
        "before = set(sys.modules)\n"
        "for mech in ('original', 'ocor', 'inpg', 'inpg+ocor'):\n"
        "    _pool_worker(RunSpec(benchmark='bwaves', mechanism=mech,\n"
        "                         scale=0.05))\n"
        "out['new'] = sorted(m for m in set(sys.modules) - before\n"
        "                    if m.startswith('repro'))")
    assert out["new"] == []


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
    pytest.importorskip("numpy")
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
