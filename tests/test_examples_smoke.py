"""Smoke-test the example scripts (the fast ones run fully)."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: int = 600) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_examples_exist(self):
        names = {p.name for p in EXAMPLES.glob("*.py")}
        assert {
            "quickstart.py", "lock_comparison.py",
            "inpg_deployment_study.py", "custom_workload.py",
            "spin_ablation.py",
        } <= names

    def test_custom_workload_runs(self):
        out = run_example("custom_workload.py")
        assert "iNPG speedup" in out
        assert "ROI cycles" in out
