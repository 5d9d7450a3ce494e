"""Clients of ``inpg-serve``: the thin HTTP side of the serve proto.

Three layers, outermost first:

* :class:`ServiceClient` — a stdlib :mod:`http.client` wrapper speaking
  :mod:`repro.serve.proto` verbatim: submit, poll, stream events, fetch
  results/failures by fingerprint.
* :class:`RemoteExecutor` — an :class:`~repro.exec.Executor`-shaped
  facade over a :class:`ServiceClient`.  The experiment harnesses, the
  sweep and the fault campaign all talk to *an executor*; installing a
  ``RemoteExecutor`` (``--remote <url>``) redirects every one of them to
  the service without a line of harness code changing.  Local semantics
  are preserved client-side: the service always runs ``on_error="skip"``
  internally, and this facade re-raises (:class:`ExecutorError`) when
  the caller asked for ``"raise"``.
* :func:`connect` — the one-call entry point (re-exported from
  :mod:`repro.api`): ``connect()`` gives a :class:`LocalClient` over an
  in-process executor, ``connect("http://host:port")`` the remote
  client; both expose the identical ``submit`` / ``wait`` / ``result`` /
  ``run`` surface, so "local by default, remote by URL" is a call-site
  decision, not an architecture.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Iterator, List, Optional, Sequence

from ..errors import ExecutorError
from ..exec import Executor, RunSpec
from ..exec.executor import ExecStats, RunRecord
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
               retries: Optional[int] = None,
               on_error: Optional[str] = None) -> Dict:
        """POST a plan; returns the initial ``job`` snapshot."""
        request = proto.submit_request(
            specs, timeout_s=timeout_s, retries=retries,
            on_error=on_error)
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

    def iter_events(self, job_id: str) -> Iterator[Dict]:
        """Stream SSE ``job`` snapshots until the job is terminal."""
        import http.client

        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            response = conn.getresponse()
            if response.status != 200:
                decoded = json.loads(response.read().decode("utf-8"))
                proto.open_envelope(decoded, "job")  # raises ProtoError
                return
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.decode("utf-8").strip()
                if not line.startswith("data:"):
                    continue
                snapshot = proto.open_envelope(
                    json.loads(line[len("data:"):].strip()), "job")
                yield snapshot
                if snapshot["state"] in ("done", "error"):
                    return
        finally:
            conn.close()

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

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[RunSpec], *,
            timeout_s: Optional[float] = None,
            retries: Optional[int] = None,
            poll_s: float = 0.25,
            wait_timeout_s: Optional[float] = None,
            ) -> Dict[RunSpec, Optional[RunResult]]:
        """Submit, wait, fetch: the blocking convenience round trip.

        Failed specs map to ``None`` (skip semantics — ask
        :meth:`failure` why); :class:`RemoteExecutor` layers raise
        semantics on top.
        """
        specs = list(specs)
        job = self.submit(specs, timeout_s=timeout_s, retries=retries)
        final = self.wait(job["id"], poll_s=poll_s,
                          timeout_s=wait_timeout_s)
        if final["state"] == "error":
            raise ServiceError(
                f"service failed executing job {job['id']}: "
                f"{final.get('error')}")
        results: Dict[str, Optional[RunResult]] = {}
        for row in final["specs"]:
            fp = row["fingerprint"]
            if fp in results:
                continue
            if row["state"] == "failed":
                results[fp] = None
            else:
                results[fp] = self.result(fp)
        return {spec: results[spec.fingerprint] for spec in specs}


# ----------------------------------------------------------------------
# Executor facade
# ----------------------------------------------------------------------
class _RemoteCache:
    """Footer shim: the remote store, shaped like a local cache."""

    def __init__(self, directory: Optional[str], url: str):
        self.directory = (f"{url} ({directory})"
                          if directory is not None else url)


class RemoteExecutor:
    """An Executor-shaped facade that executes on an ``inpg-serve``.

    Drop-in for the process-global executor the harnesses share
    (:func:`repro.experiments.common.set_executor`): ``run`` / ``run_one``
    signatures, ``stats`` footer counters, ``jobs`` and
    ``cache.directory`` all behave as the harness code expects, but
    every simulation happens on the service — one shared cache and one
    shared worker pool for every client on the machine.
    """

    def __init__(self, url: str, timeout_s: Optional[float] = None,
                 retries: int = 0, on_error: str = "raise",
                 poll_s: float = 0.25):
        self.client = url if isinstance(url, ServiceClient) \
            else ServiceClient(url)
        health = self.client.health()  # fail fast + discover the pool
        self.jobs = health["jobs"]
        self.cache = _RemoteCache(health.get("store"), self.client.url)
        self.timeout_s = timeout_s
        self.retries = retries
        self.on_error = on_error
        self.poll_s = poll_s
        self.stats = ExecStats()
        self._memory: Dict[str, RunResult] = {}
        #: observed runs can't cross the wire (trace rings are local)
        self.observe_factory = None
        self.observations: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def run(
        self,
        plan: Sequence[RunSpec],
        *,
        timeout_s: Optional[float] = None,
        retries: Optional[int] = None,
        on_error: Optional[str] = None,
    ) -> Dict[RunSpec, Optional[RunResult]]:
        timeout_s = self.timeout_s if timeout_s is None else timeout_s
        retries = self.retries if retries is None else retries
        on_error = self.on_error if on_error is None else on_error
        specs = list(plan)
        fingerprints = [spec.fingerprint for spec in specs]

        # mirror the local executor: dedupe against client memory first
        todo: Dict[str, RunSpec] = {}
        for spec, fp in zip(specs, fingerprints):
            if fp in self._memory or fp in todo:
                self.stats.memory_hits += 1
            else:
                todo[fp] = spec

        if todo:
            job = self.client.submit(
                list(todo.values()), timeout_s=timeout_s,
                retries=retries)
            final = self.client.wait(job["id"], poll_s=self.poll_s)
            if final["state"] == "error":
                raise ExecutorError(
                    f"service failed executing job {job['id']}: "
                    f"{final.get('error')}")
            self._absorb(final, todo, on_error)

        return {
            spec: self._memory.get(fp)
            for spec, fp in zip(specs, fingerprints)
        }

    def run_one(self, spec: RunSpec, **policy) -> Optional[RunResult]:
        return self.run([spec], **policy)[spec]

    def observation_for(self, spec: RunSpec):
        return None

    def clear_memory(self) -> None:
        self._memory.clear()

    # ------------------------------------------------------------------
    def _absorb(self, final: Dict, todo: Dict[str, RunSpec],
                on_error: str) -> None:
        """Fold one finished job into local memory + footer stats."""
        for row in final["specs"]:
            fp = row["fingerprint"]
            spec = todo.get(fp)
            if spec is None or fp in self._memory:
                continue
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


# ----------------------------------------------------------------------
# Local twin + entry point
# ----------------------------------------------------------------------
class LocalClient:
    """The in-process twin of :class:`ServiceClient`.

    Same ``submit`` / ``job`` / ``wait`` / ``result`` / ``run`` surface,
    zero sockets: jobs execute synchronously at submit time on a private
    (or supplied) :class:`~repro.exec.Executor`.  Code written against
    :func:`connect` runs identically with and without a service.
    """

    def __init__(self, executor: Optional[Executor] = None, **kwargs):
        self.executor = executor if executor is not None \
            else Executor(**kwargs)
        self._jobs: Dict[str, Dict] = {}
        self._specs: Dict[str, RunSpec] = {}
        self._seq = 0

    @property
    def url(self) -> None:
        return None

    def health(self) -> Dict:
        directory = self.executor.cache.directory
        return proto.health_message(
            jobs=self.executor.jobs,
            store=str(directory) if directory is not None else None,
        )

    def submit(self, specs: Sequence[RunSpec], *,
               timeout_s: Optional[float] = None,
               retries: Optional[int] = None,
               on_error: Optional[str] = None) -> Dict:
        specs = list(specs)
        before = {spec.fingerprint for spec in specs
                  if spec.fingerprint in self.executor._memory
                  or spec.fingerprint in self.executor.cache}
        results = self.executor.run(
            specs, timeout_s=timeout_s, retries=retries,
            on_error=on_error or "skip")
        self._seq += 1
        job_id = f"local-j{self._seq}"
        rows = []
        for spec in specs:
            fp = spec.fingerprint
            self._specs[fp] = spec
            rows.append({
                "fingerprint": fp,
                "label": spec.label(),
                "state": ("failed" if results[spec] is None
                          else "cached" if fp in before else "done"),
            })
        snapshot = proto.envelope(
            "job", id=job_id, state="done", version=1,
            total=len(specs), resolved=len(specs),
            counts={}, specs=rows, error=None,
        )
        self._jobs[job_id] = snapshot
        return snapshot

    def job(self, job_id: str) -> Dict:
        return self._jobs[job_id]

    def wait(self, job_id: str, poll_s: float = 0.25,
             timeout_s: Optional[float] = None) -> Dict:
        return self._jobs[job_id]

    def result_payload(self, fingerprint: str) -> Dict:
        from ..stats.serialize import serialize_run_result

        return serialize_run_result(self.result(fingerprint))

    def result(self, fingerprint: str) -> RunResult:
        result = self.executor._memory.get(fingerprint)
        if result is None:
            raise KeyError(f"no result for {fingerprint[:16]}...")
        return result

    def failure(self, fingerprint: str):
        for record in self.executor.stats.failures:
            if record.fingerprint == fingerprint:
                return record
        return None

    def run(self, specs: Sequence[RunSpec], *,
            timeout_s: Optional[float] = None,
            retries: Optional[int] = None,
            poll_s: float = 0.25,
            wait_timeout_s: Optional[float] = None,
            ) -> Dict[RunSpec, Optional[RunResult]]:
        return self.executor.run(
            list(specs), timeout_s=timeout_s, retries=retries,
            on_error="skip")


def connect(url: Optional[str] = None, **executor_kwargs):
    """Open the simulation service — or its in-process twin.

    ``connect("http://host:port")`` returns a :class:`ServiceClient`
    bound to a running ``inpg-serve`` (executor kwargs are rejected:
    the service owns its executor policy).  ``connect()`` returns a
    :class:`LocalClient` over a private executor built from
    ``executor_kwargs`` (``jobs=``, ``cache_dir=``, ...) — the same
    submit/wait/result surface with zero infrastructure.
    """
    if url is None:
        return LocalClient(**executor_kwargs)
    if executor_kwargs:
        raise TypeError(
            "executor kwargs only apply to local connections; the "
            f"service at {url!r} owns its own executor policy "
            f"(got {sorted(executor_kwargs)})")
    return ServiceClient(url)


__all__ = [
    "LocalClient",
    "RemoteExecutor",
    "ServiceClient",
    "ServiceError",
    "connect",
]
