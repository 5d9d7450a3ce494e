"""Clients of ``inpg-serve``: the thin HTTP side of the serve proto.

Two layers, outermost first:

* :class:`ServiceClient` — a stdlib :mod:`http.client` wrapper speaking
  :mod:`repro.serve.proto` verbatim: submit, poll, fetch results/failures
  by fingerprint.
* :class:`RemoteExecutor` — an :class:`~repro.exec.Executor` whose
  missing specs run on the service.  The experiment harnesses and
  the fault campaign all talk to *an executor*; installing a
  ``RemoteExecutor`` (``--remote <url>``) redirects every one of them to
  the service without a line of harness code changing.  It inherits
  memory, in-plan dedupe and the run policy, and replaces only the step
  that runs what memory lacks.  Local semantics are preserved
  client-side: the service always runs ``on_error="skip"`` internally,
  and this executor re-raises (:class:`ExecutorError`) when the caller
  asked for ``"raise"``.

Local by default, remote by URL: :func:`repro.api.run_plan` (or an
:class:`~repro.exec.Executor`) runs a plan in-process, and
``RemoteExecutor(url)`` offers the same ``run`` / ``run_one`` on a
running service.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Sequence

from ..errors import ExecutorError
from ..exec import Executor, RunSpec
from ..exec.cache import NullCache
from ..exec.executor import RunRecord
from ..stats.metrics import RunResult
from ..stats.serialize import (
    deserialize_run_result,
    failure_record_from_dict,
)
from . import proto


class ServiceError(ConnectionError):
    """The service was unreachable or answered outside the proto."""


# ----------------------------------------------------------------------
# HTTP client
# ----------------------------------------------------------------------
class ServiceClient:
    """Talk the serve proto to one ``inpg-serve`` instance."""

    def __init__(self, url: str, timeout: float = 30.0):
        import urllib.parse

        parsed = urllib.parse.urlsplit(url if "//" in url
                                       else f"http://{url}")
        if parsed.scheme not in ("http", ""):
            raise ValueError(
                f"inpg-serve speaks plain http, got {parsed.scheme!r}")
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or 80
        self.timeout = timeout

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def _request(self, method: str, path: str,
                 payload: Optional[Dict] = None,
                 kind: Optional[str] = None) -> Dict:
        """One request/response cycle; opens the proto envelope."""
        import http.client

        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
            except (OSError, http.client.HTTPException) as err:
                raise ServiceError(
                    f"{method} {self.url}{path} failed: "
                    f"{type(err).__name__}: {err}") from err
            try:
                decoded = json.loads(raw.decode("utf-8"))
            except ValueError as err:
                raise ServiceError(
                    f"{self.url}{path} returned non-JSON "
                    f"(HTTP {response.status})") from err
            return proto.open_envelope(decoded, kind)
        finally:
            conn.close()

    # ------------------------------------------------------------------
    # Proto surface
    # ------------------------------------------------------------------
    def health(self) -> Dict:
        return self._request("GET", "/v1/health", kind="health")

    def stats(self) -> Dict:
        return self._request("GET", "/v1/stats", kind="stats")

    def store_index(self) -> List[Dict]:
        body = self._request("GET", "/v1/store", kind="stats")
        return body["store"]["index"]

    def submit(self, specs: Sequence[RunSpec], *,
               timeout_s: Optional[float] = None,
               retries: Optional[int] = None) -> Dict:
        """POST a plan; returns the initial ``job`` snapshot."""
        request = proto.submit_request(
            specs, timeout_s=timeout_s, retries=retries)
        return self._request("POST", "/v1/jobs", request, kind="job")

    def job(self, job_id: str) -> Dict:
        return self._request("GET", f"/v1/jobs/{job_id}", kind="job")

    def wait(self, job_id: str, poll_s: float = 0.25,
             timeout_s: Optional[float] = None) -> Dict:
        """Poll until the job reaches a terminal state."""
        deadline = (time.monotonic() + timeout_s
                    if timeout_s is not None else None)
        while True:
            snapshot = self.job(job_id)
            if snapshot["state"] in ("done", "error"):
                return snapshot
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {snapshot['state']!r} after "
                    f"{timeout_s}s ({snapshot['resolved']}"
                    f"/{snapshot['total']} resolved)")
            time.sleep(poll_s)

    def result_payload(self, fingerprint: str) -> Dict:
        body = self._request("GET", f"/v1/results/{fingerprint}",
                             kind="result")
        return body["result"]

    def result(self, fingerprint: str) -> RunResult:
        return deserialize_run_result(self.result_payload(fingerprint))

    def failure_payload(self, fingerprint: str) -> Optional[Dict]:
        try:
            body = self._request("GET", f"/v1/failures/{fingerprint}",
                                 kind="failure")
        except proto.ProtoError:
            return None
        return body["failure"]

    def failure(self, fingerprint: str):
        payload = self.failure_payload(fingerprint)
        if payload is None:
            return None
        return failure_record_from_dict(payload)


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------
class RemoteExecutor(Executor):
    """An :class:`~repro.exec.Executor` that executes on an ``inpg-serve``.

    Drop-in for the process-global executor the harnesses share
    (:func:`repro.experiments.common.set_executor`): ``run`` / ``run_one``,
    memory, in-plan dedupe, the run policy and the ``stats`` footer
    counters are the executor's own, but every simulation happens on the
    service — one shared cache and one shared worker pool for every
    client on the machine.  It holds no local cache: what memory lacks
    goes to the service, which dedupes against its store, and a spec
    the service already held counts as a disk hit.  ``jobs`` is the
    service's pool width.
    """

    def __init__(self, url: str, timeout_s: Optional[float] = None,
                 retries: int = 0, on_error: str = "raise",
                 poll_s: float = 0.25):
        self.client = url if isinstance(url, ServiceClient) \
            else ServiceClient(url)
        health = self.client.health()  # fail fast + discover the pool
        super().__init__(jobs=health["jobs"], cache=NullCache(),
                         timeout_s=timeout_s, retries=retries,
                         on_error=on_error)
        self.poll_s = poll_s

    def _execute(self, missing: Dict[str, RunSpec],
                 timeout_s: Optional[float], retries: int,
                 on_error: str) -> None:
        """Submit what memory lacks, wait, and fold the finished job
        into memory and the footer counters."""
        job = self.client.submit(list(missing.values()),
                                 timeout_s=timeout_s, retries=retries)
        final = self.client.wait(job["id"], poll_s=self.poll_s)
        if final["state"] == "error":
            raise ExecutorError(
                f"service failed executing job {job['id']}: "
                f"{final.get('error')}")
        for row in final["specs"]:
            fp = row["fingerprint"]
            spec = missing[fp]
            state = row["state"]
            if state == "failed":
                record = self.client.failure(fp)
                if on_error == "raise":
                    detail = (f"{record.error_type}: {record.message}"
                              if record is not None else "unknown failure")
                    raise ExecutorError(
                        f"service run failed for {spec.label()}: {detail}",
                        fingerprint=fp,
                        spec_label=spec.label(),
                    )
                if record is not None:
                    self.stats.record_failure(record)
                else:
                    self.stats.failed += 1
                continue
            self._memory[fp] = self.client.result(fp)
            if state == "done":
                self.stats.record_run(RunRecord(
                    fingerprint=fp,
                    label=spec.label(),
                    wall_time=float(row.get("wall_time", 0.0)),
                    sim_cycles=int(row.get("sim_cycles", 0)),
                    sim_events=int(row.get("sim_events", 0)),
                ))
            else:  # cached / deduped service-side: a shared-cache hit
                self.stats.disk_hits += 1


__all__ = [
    "RemoteExecutor",
    "ServiceClient",
    "ServiceError",
]
