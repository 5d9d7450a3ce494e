"""What the service keeps beside its executor: failure provenance and
the result index.

The executor holds each result once — its
:class:`~repro.exec.cache.ResultCache` content-addresses every
successful run by spec fingerprint — so the service reads results
there, and drops each batch's results from the executor's memory once
the cache holds them.  The store adds two things over the same
directory:

* **failures** — a skipped/failed run leaves no cache entry, so the
  store records its :class:`~repro.exec.executor.FailureRecord` (through
  the versioned serialize layer) under ``failures/<fingerprint>.json``.
  A campaign client can then ask *why* a fingerprint has no result —
  previously that provenance died with the executor process.  A fresh
  result for the fingerprint deletes the record.
* **queries** — cache entries carry the spec's canonical payload, so the
  store can answer "which benchmarks and fingerprints do you hold?" without
  a separate index.

When the executor runs uncached (``NullCache``), its memory is the
store: results survive for the service's lifetime, not across restarts,
and the index and counts read the fingerprints the service passes in.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Collection, Dict, List, Optional, Union

from ..exec.cache import NullCache, ResultCache
from ..stats.serialize import (
    RESULT_SCHEMA_VERSION,
    failure_record_from_dict,
    failure_record_to_dict,
)


def _current(payload) -> bool:
    """Was ``payload`` written under this schema?  One written under
    another is absent, as a stale cache entry is a miss."""
    return (isinstance(payload, dict)
            and payload.get("schema") == RESULT_SCHEMA_VERSION)


class ResultStore:
    """Failures and the result index over one executor's cache."""

    def __init__(self, cache: Union[ResultCache, NullCache]):
        self.cache = cache
        #: failures are also kept in memory, so a dead disk never loses
        #: the current session's provenance
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

    def forget_failure(self, fingerprint: str) -> None:
        """Delete a failure its fingerprint's fresh result supersedes."""
        self._failures.pop(fingerprint, None)
        directory = self._failure_dir
        if directory is not None:
            (directory / f"{fingerprint}.json").unlink(missing_ok=True)

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
                payload = json.load(fh)
        except (OSError, ValueError):
            return None
        return payload if _current(payload) else None

    def get_failure(self, fingerprint: str):
        """The recorded :class:`FailureRecord`, or ``None``."""
        payload = self.get_failure_payload(fingerprint)
        if payload is None:
            return None
        return failure_record_from_dict(payload)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def index(self, memory: Collection[str] = ()) -> List[Dict]:
        """One row per stored result: fingerprint + spec identity.

        Without a cache directory the results are the fingerprints in
        the executor's ``memory``, one bare row each.
        """
        directory = self.directory
        if directory is None:
            return [{"fingerprint": fp} for fp in sorted(memory)]
        rows: List[Dict] = []
        if directory.is_dir():
            for path in sorted(directory.glob("*.json")):
                try:
                    with open(path, "r", encoding="utf-8") as fh:
                        entry = json.load(fh)
                except (OSError, ValueError):
                    continue
                if not _current(entry):
                    continue  # the executor reads it as a miss
                fp = entry.get("fingerprint")
                spec = entry.get("spec") or {}
                if not fp:
                    continue
                rows.append({
                    "fingerprint": fp,
                    "benchmark": spec.get("benchmark"),
                    "primitive": spec.get("primitive"),
                    "seed": spec.get("seed"),
                    "scale": spec.get("scale"),
                })
        return rows

    def summary(self, memory: Collection[str] = ()) -> Dict:
        """The store block of the service ``stats`` message.

        It counts from directory listings (or the executor's ``memory``
        without a cache directory) and parses no entry: a result counts
        when its cache entry's leading bytes name this schema.
        """
        failed = set(self._failures)
        if self._failure_dir is not None and self._failure_dir.is_dir():
            failed.update(p.stem for p in self._failure_dir.glob("*.json"))
        directory = self.directory
        return {
            "directory": str(directory) if directory is not None else None,
            "results": (len(self.cache) if directory is not None
                        else len(memory)),
            "failures": len(failed),
        }
