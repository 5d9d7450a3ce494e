"""Persistent on-disk result cache, keyed by spec fingerprint.

One JSON file per completed run under the cache directory (default
``.repro-cache/``, overridable via the ``REPRO_CACHE_DIR`` environment
variable or explicitly).  Entries are versioned with
:data:`~repro.stats.serialize.RESULT_SCHEMA_VERSION`: an entry written
under a different schema — or one that fails to parse at all — is
treated as a miss and never mis-read.

The cache stores the spec's canonical payload next to the result, so a
cache directory is self-describing and greppable; the fingerprint alone
decides hits.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional

from ..stats.serialize import RESULT_SCHEMA_VERSION

#: environment override for the cache location
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: default cache directory (relative to the working directory)
DEFAULT_CACHE_DIR = ".repro-cache"

#: the leading bytes of every entry :meth:`ResultCache.put` writes under
#: this schema: ``put`` encodes ``"schema"`` first
_ENTRY_HEAD = (json.dumps({"schema": RESULT_SCHEMA_VERSION})[:-1]
               + ",").encode("utf-8")


def default_cache_dir() -> Path:
    return Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)


class ResultCache:
    """Filesystem-backed fingerprint -> serialized-result store."""

    def __init__(self, directory: Optional[os.PathLike] = None):
        self.directory = Path(directory) if directory else default_cache_dir()
        self.hits = 0
        self.misses = 0

    def _path(self, fingerprint: str) -> Path:
        return self.directory / f"{fingerprint}.json"

    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> Optional[Dict]:
        """The stored result payload, or ``None`` on miss/stale schema."""
        path = self._path(fingerprint)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if entry.get("schema") != RESULT_SCHEMA_VERSION:
            self.misses += 1
            return None
        result = entry.get("result")
        if not isinstance(result, dict):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(
        self,
        fingerprint: str,
        spec_payload: Dict,
        result_payload: Dict,
        meta: Optional[Dict] = None,
    ) -> None:
        """Atomically persist one run (write-to-temp + rename)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema": RESULT_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "created": time.time(),
            "spec": spec_payload,
            "result": result_payload,
            "meta": meta or {},
        }
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=f".{fingerprint[:12]}-", suffix=".tmp"
        )
        try:
            # dumps() encodes in C; dump() streams through the
            # pure-Python encoder.  The bytes are the same.
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(entry))
            os.replace(tmp, self._path(fingerprint))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def __contains__(self, fingerprint: str) -> bool:
        return self._path(fingerprint).exists()

    def __len__(self) -> int:
        """How many entries this schema reads; an entry of another
        schema is a miss and does not count.  Compares each entry's
        leading bytes and parses none."""
        if not self.directory.is_dir():
            return 0
        count = 0
        for path in self.directory.glob("*.json"):
            try:
                with open(path, "rb") as fh:
                    count += fh.read(len(_ENTRY_HEAD)) == _ENTRY_HEAD
            except OSError:
                pass
        return count

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


class NullCache:
    """Cache-shaped no-op for ``--no-cache`` runs."""

    directory = None

    def __init__(self):
        self.hits = 0
        self.misses = 0

    def get(self, fingerprint: str) -> Optional[Dict]:
        self.misses += 1
        return None

    def put(self, fingerprint, spec_payload, result_payload, meta=None):
        pass

    def __contains__(self, fingerprint: str) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def clear(self) -> int:
        return 0
