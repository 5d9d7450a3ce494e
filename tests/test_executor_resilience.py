"""Executor resilience: timeouts, bounded retry, graceful degradation."""

from concurrent.futures import BrokenExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.exec.executor as executor_mod
from repro.errors import (
    DeadlockError,
    ExecutorError,
    ReproError,
    RunTimeout,
    SimulationError,
)
from repro.exec import Executor, RunSpec, is_transient_error

from test_exec import small_spec


def deadlocking_spec(**kwargs) -> RunSpec:
    """A spec whose cycle budget is far too small: it fails fast and
    deterministically with DeadlockError, in any process."""
    defaults = dict(max_cycles=200)
    defaults.update(kwargs)
    return small_spec(**defaults)


class TestTransientClassification:
    @pytest.mark.parametrize("error,transient", [
        (OSError("pipe"), True),
        (EOFError(), True),
        (RunTimeout("budget"), False),        # ReproError: deterministic
        (DeadlockError("stuck"), False),
        (SimulationError("bad"), False),      # RuntimeError subclass, still not
        (ValueError("nope"), False),
        (KeyboardInterrupt(), False),
        (BrokenExecutor(), True),             # a pool lost a worker
        (BrokenProcessPool(), True),
    ])
    def test_is_transient_error(self, error, transient):
        assert is_transient_error(error) is transient


class TestTimeout:
    def test_zero_budget_raises_runtimeout(self, tmp_path):
        executor = Executor(cache_dir=tmp_path, timeout_s=0.0)
        spec = small_spec()
        with pytest.raises(RunTimeout) as excinfo:
            executor.run_one(spec)
        assert excinfo.value.cycle is not None
        assert "wall-clock budget" in str(excinfo.value)

    def test_timed_out_run_is_never_cached(self, tmp_path):
        executor = Executor(cache_dir=tmp_path)
        spec = small_spec()
        with pytest.raises(RunTimeout):
            executor.run_one(spec, timeout_s=0.0)
        assert executor.cache.get(spec.fingerprint) is None
        # ...so a re-run with a sane budget really simulates and succeeds
        result = executor.run_one(spec, timeout_s=None)
        assert result.roi_cycles > 0
        assert executor.cache.get(spec.fingerprint) is not None

    def test_per_call_override_beats_constructor(self, tmp_path):
        executor = Executor(cache_dir=tmp_path, timeout_s=0.0)
        result = executor.run_one(small_spec(), timeout_s=300.0)
        assert result.roi_cycles > 0


class TestRetry:
    def test_transient_failures_retry_until_success(self, tmp_path,
                                                    monkeypatch):
        calls = {"n": 0}
        real = executor_mod.execute_spec

        def flaky(spec, observe=None, timeout_s=None):
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("worker pipe burst")
            return real(spec, observe=observe, timeout_s=timeout_s)

        monkeypatch.setattr(executor_mod, "execute_spec", flaky)
        executor = Executor(cache_dir=tmp_path, retries=2, backoff_s=0.0)
        result = executor.run_one(small_spec())
        assert result.roi_cycles > 0
        assert calls["n"] == 3

    def test_retries_exhausted_reraises_original(self, tmp_path,
                                                 monkeypatch):
        calls = {"n": 0}

        def always_down(spec, observe=None, timeout_s=None):
            calls["n"] += 1
            raise OSError("worker pipe burst")

        monkeypatch.setattr(executor_mod, "execute_spec", always_down)
        executor = Executor(cache_dir=tmp_path, retries=2, backoff_s=0.0)
        with pytest.raises(OSError):
            executor.run_one(small_spec())
        assert calls["n"] == 3  # initial + 2 retries

    def test_deterministic_failures_never_retry(self, tmp_path,
                                                monkeypatch):
        calls = {"n": 0}

        def deadlocked(spec, observe=None, timeout_s=None):
            calls["n"] += 1
            raise DeadlockError("same spec, same deadlock")

        monkeypatch.setattr(executor_mod, "execute_spec", deadlocked)
        executor = Executor(cache_dir=tmp_path, retries=5, backoff_s=0.0)
        with pytest.raises(DeadlockError):
            executor.run_one(small_spec())
        assert calls["n"] == 1

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            Executor(use_cache=False, retries=-1)


class TestSkipMode:
    def test_partial_results_and_failure_records(self, tmp_path):
        executor = Executor(cache_dir=tmp_path, on_error="skip")
        bad = deadlocking_spec()
        good = small_spec()
        results = executor.run([bad, good])
        assert results[bad] is None
        assert results[good].roi_cycles > 0
        assert executor.stats.failed == 1
        [record] = executor.stats.failures
        assert record.fingerprint == bad.fingerprint
        assert record.error_type == "DeadlockError"
        assert record.label == bad.label()

    def test_footer_reports_failures(self, tmp_path):
        executor = Executor(cache_dir=tmp_path, on_error="skip")
        executor.run([deadlocking_spec()])
        footer = executor.stats.render_footer(jobs=1)
        assert "failed: 1" in footer
        assert "FAILED" in footer
        assert "DeadlockError" in footer

    def test_raise_mode_propagates_original_inline(self, tmp_path):
        # back-compat: inline callers keep catching DeadlockError itself
        executor = Executor(cache_dir=tmp_path)
        with pytest.raises(DeadlockError):
            executor.run_one(deadlocking_spec())

    def test_failed_spec_is_retried_by_a_later_run(self, tmp_path,
                                                   monkeypatch):
        down = {"yes": True}
        real = executor_mod.execute_spec

        def sometimes(spec, observe=None, timeout_s=None):
            if down["yes"]:
                raise OSError("cache node rebooting")
            return real(spec, observe=observe, timeout_s=timeout_s)

        monkeypatch.setattr(executor_mod, "execute_spec", sometimes)
        executor = Executor(cache_dir=tmp_path, on_error="skip")
        spec = small_spec()
        assert executor.run_one(spec) is None
        down["yes"] = False  # infra recovered; failure was not memoized
        assert executor.run_one(spec).roi_cycles > 0

    def test_bad_on_error_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            Executor(use_cache=False, on_error="explode")
        executor = Executor(cache_dir=tmp_path)
        with pytest.raises(ValueError):
            executor.run([small_spec()], on_error="explode")


class TestPoolResilience:
    def test_worker_failure_raises_executor_error(self, tmp_path):
        executor = Executor(jobs=2, cache_dir=tmp_path)
        bad = deadlocking_spec()
        good = small_spec()
        with pytest.raises(ExecutorError) as excinfo:
            executor.run([bad, good])
        err = excinfo.value
        assert isinstance(err, ReproError)
        assert err.fingerprint == bad.fingerprint
        assert err.spec_label == bad.label()
        assert "DeadlockError" in err.worker_traceback

    def test_pool_skip_returns_partial_results(self, tmp_path):
        executor = Executor(jobs=2, cache_dir=tmp_path, on_error="skip")
        bad = deadlocking_spec()
        good = small_spec()
        results = executor.run([bad, good])
        assert results[bad] is None
        assert results[good].roi_cycles > 0
        assert executor.stats.failures[0].error_type == "DeadlockError"
