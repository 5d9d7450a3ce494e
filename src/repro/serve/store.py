"""Queryable result store: the disk cache plus failure provenance.

The executor's :class:`~repro.exec.cache.ResultCache` already content-
addresses every successful run by spec fingerprint; the service needs
two more things from the same directory:

* **failures** — a skipped/failed run leaves no cache entry, so the
  store records its :class:`~repro.exec.executor.FailureRecord` (through
  the versioned serialize layer) under ``failures/<fingerprint>.json``.
  A campaign client can then ask *why* a fingerprint has no result —
  previously that provenance died with the executor process.
* **queries** — cache entries carry the spec's canonical payload, so the
  store can answer "which benchmarks and fingerprints do you hold?" without
  a separate index.

When the executor runs uncached (``NullCache``), the store degrades to
an in-memory table with the same interface — results survive for the
service's lifetime, not across restarts.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..exec.cache import NullCache, ResultCache
from ..stats.metrics import RunResult
from ..stats.serialize import (
    deserialize_run_result,
    failure_record_from_dict,
    failure_record_to_dict,
)


class ResultStore:
    """Fingerprint-keyed results + failures over one cache directory."""

    def __init__(self, cache: Union[ResultCache, NullCache]):
        self.cache = cache
        #: memory fallbacks (NullCache mode, and always for failures so
        #: a dead disk never loses the current session's provenance)
        self._results: Dict[str, Dict] = {}
        self._failures: Dict[str, Dict] = {}

    @property
    def directory(self) -> Optional[Path]:
        return self.cache.directory

    @property
    def _failure_dir(self) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / "failures"

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def put_result(self, spec, result: RunResult, payload: Dict,
                   wall: float = 0.0) -> None:
        """Record one completed run (``payload`` = serialized result).

        When the underlying cache persists (the executor also writes
        through it), this is belt-and-braces; in ``NullCache`` mode it
        is the only copy.
        """
        self._results[spec.fingerprint] = payload
        self.cache.put(spec.fingerprint, spec.canonical_payload(), payload,
                       meta={"wall_time": wall})
        # a fresh result supersedes any stale failure for the address
        self._failures.pop(spec.fingerprint, None)

    def get_payload(self, fingerprint: str) -> Optional[Dict]:
        """The serialized result for a fingerprint, or ``None``."""
        payload = self.cache.get(fingerprint)
        if payload is not None:
            return payload
        return self._results.get(fingerprint)

    def get_result(self, fingerprint: str) -> Optional[RunResult]:
        payload = self.get_payload(fingerprint)
        if payload is None:
            return None
        return deserialize_run_result(payload)

    def __contains__(self, fingerprint: str) -> bool:
        return (fingerprint in self._results
                or fingerprint in self.cache)

    # ------------------------------------------------------------------
    # Failures
    # ------------------------------------------------------------------
    def record_failure(self, record) -> None:
        """Persist one :class:`FailureRecord` under its fingerprint."""
        payload = failure_record_to_dict(record)
        self._failures[record.fingerprint] = payload
        directory = self._failure_dir
        if directory is None:
            return
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=directory, prefix=f".{record.fingerprint[:12]}-",
            suffix=".tmp",
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            os.replace(tmp, directory / f"{record.fingerprint}.json")
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def get_failure_payload(self, fingerprint: str) -> Optional[Dict]:
        payload = self._failures.get(fingerprint)
        if payload is not None:
            return payload
        directory = self._failure_dir
        if directory is None:
            return None
        try:
            with open(directory / f"{fingerprint}.json", "r",
                      encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def get_failure(self, fingerprint: str):
        """The recorded :class:`FailureRecord`, or ``None``."""
        payload = self.get_failure_payload(fingerprint)
        if payload is None:
            return None
        return failure_record_from_dict(payload)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def index(self) -> List[Dict]:
        """One row per stored result: fingerprint + spec identity."""
        rows: List[Dict] = []
        seen = set()
        directory = self.directory
        if directory is not None and directory.is_dir():
            for path in sorted(directory.glob("*.json")):
                try:
                    with open(path, "r", encoding="utf-8") as fh:
                        entry = json.load(fh)
                except (OSError, ValueError):
                    continue
                fp = entry.get("fingerprint")
                spec = entry.get("spec") or {}
                if not fp:
                    continue
                seen.add(fp)
                rows.append({
                    "fingerprint": fp,
                    "benchmark": spec.get("benchmark"),
                    "primitive": spec.get("primitive"),
                    "seed": spec.get("seed"),
                    "scale": spec.get("scale"),
                })
        for fp in sorted(self._results):
            if fp not in seen:
                rows.append({"fingerprint": fp})
        return rows

    def summary(self) -> Dict:
        """The store block of the service ``stats`` message."""
        failed = set(self._failures)
        if self._failure_dir is not None and self._failure_dir.is_dir():
            failed.update(p.stem for p in self._failure_dir.glob("*.json"))
        return {
            "directory": (str(self.directory)
                          if self.directory is not None else None),
            "results": len(self.index()),
            "failures": len(failed),
        }
