"""``inpg-serve``: the simulation service.

One long-running process owns an :class:`~repro.exec.Executor` (and
through it the persistent disk cache and the worker-process pool) and
exposes it over HTTP/JSON to every harness and fault campaign on the
machine.  The implementation is pure stdlib ``asyncio``
(``asyncio.start_server`` plus a hand-rolled minimal HTTP/1.1 layer):
the repository's zero-extra-dependency rule holds for the service too.

Lifecycle of a submission (``POST /v1/jobs``):

1. the request body is opened through the versioned proto
   (:mod:`repro.serve.proto`); a version mismatch or undecodable spec is
   a structured 400, never a half-read plan;
2. every spec is **deduped by fingerprint** — against results the
   service already holds in memory, against the disk store, and against
   specs already queued by earlier (or the same) submission; deduped
   specs resolve instantly without executing;
3. the remainder is queued.  A single consumer task feeds the executor
   in chunks (chunk size = the worker-pool width) inside a thread, so
   the event loop keeps serving status polls while simulations run;
   per-chunk completion updates job progress;
4. results persist once, where the executor keeps them (its cache
   directory, or its memory under ``--no-cache``); failures are
   recorded in the :class:`~repro.serve.store.ResultStore` through the
   serialize layer, and a fresh result deletes its fingerprint's
   failure.  Both are queryable by fingerprint afterwards.

Endpoints (all JSON, proto-enveloped)::

    GET  /v1/health                 liveness + proto/schema versions
    GET  /v1/stats                  service counters + executor stats
    GET  /v1/store                  result-store index
    POST /v1/jobs                   submit a plan (proto 'submit')
    GET  /v1/jobs/<id>              job status snapshot (proto 'job')
    GET  /v1/results/<fingerprint>  serialized result (proto 'result')
    GET  /v1/failures/<fingerprint> failure provenance (proto 'failure')

The executor always runs campaigns with ``on_error="skip"`` internally —
a deterministic simulation failure must not take the service down; the
*client* re-raises when the caller asked for ``on_error="raise"``
(:class:`repro.serve.client.RemoteExecutor` preserves inline semantics).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from ..exec import Executor, RunSpec
from ..obs.registry import Registry
from ..stats.serialize import serialize_run_result
from . import proto
from .store import ResultStore

#: default service port (0 = ephemeral, printed at startup)
DEFAULT_PORT = 8731

#: spec states a job tracks; "cached" resolved at submit time,
#: "deduped" resolved against an earlier in-flight submission
SPEC_STATES = ("queued", "running", "done", "failed", "cached", "deduped")


class Job:
    """One submission: an ordered plan plus per-spec resolution."""

    def __init__(self, job_id: str, specs: Sequence[RunSpec],
                 policy: Dict):
        self.id = job_id
        self.specs = list(specs)
        self.policy = dict(policy)
        self.fingerprints = [spec.fingerprint for spec in self.specs]
        #: the deduped subset this job actually executes (set at submit)
        self.fresh: List[RunSpec] = []
        #: per-position states — a plan may submit one fingerprint twice
        #: (that is the point of dedupe), so states can't key on it
        self.states: List[str] = ["queued"] * len(self.specs)
        self.state = "queued"
        self.error: Optional[str] = None

    def mark_fp(self, fingerprint: str, state: str,
                only: Optional[Tuple[str, ...]] = None) -> None:
        """Move every position holding ``fingerprint`` to ``state``.

        ``only`` restricts which current states transition — execution
        updates must not stomp positions resolved as cached/deduped.
        """
        for i, fp in enumerate(self.fingerprints):
            if fp == fingerprint and (only is None
                                      or self.states[i] in only):
                self.states[i] = state

    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        out = {state: 0 for state in SPEC_STATES}
        for state in self.states:
            out[state] += 1
        return out

    def payload(self, records: Dict[str, Dict]) -> Dict:
        """The proto ``job`` message body (``records``: fp -> run info)."""
        spec_rows = []
        for i, (spec, fp) in enumerate(zip(self.specs,
                                           self.fingerprints)):
            row: Dict = {
                "fingerprint": fp,
                "label": spec.label(),
                "state": self.states[i],
            }
            record = records.get(fp)
            if record is not None and row["state"] == "done":
                row.update(record)
            spec_rows.append(row)
        counts = self.counts()
        done = counts["done"] + counts["failed"] + counts["cached"] \
            + counts["deduped"]
        return proto.envelope(
            "job",
            id=self.id,
            state=self.state,
            total=len(self.specs),
            resolved=done,
            counts=counts,
            specs=spec_rows,
            error=self.error,
        )


class SimulationService:
    """The job queue, dedupe logic and HTTP front-end in one object."""

    def __init__(self, executor: Optional[Executor] = None):
        self.executor = executor if executor is not None else Executor()
        self.store = ResultStore(self.executor.cache)
        self.jobs: Dict[str, Job] = {}
        self.counters = Registry()
        self._queue: asyncio.Queue = asyncio.Queue()
        self._seq = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._consumer: Optional[asyncio.Task] = None
        #: fingerprints owned by a queued/running job (in-flight dedupe)
        self._inflight: set = set()
        #: fp -> RunRecord-ish dict for executed runs (job payloads)
        self._records: Dict[str, Dict] = {}

    # ------------------------------------------------------------------
    # Submission / dedupe
    # ------------------------------------------------------------------
    def _known(self, fingerprint: str) -> bool:
        """Does the service already hold a result for this address?  A
        cache entry of another schema is no result: the executor reads
        it as a miss."""
        return (fingerprint in self.executor._memory
                or self.executor.cache.get(fingerprint) is not None)

    def _result_payload(self, fingerprint: str) -> Optional[Dict]:
        """The serialized result the executor holds, or ``None``."""
        payload = self.executor.cache.get(fingerprint)
        if payload is None and fingerprint in self.executor._memory:
            payload = serialize_run_result(self.executor._memory[fingerprint])
        return payload

    def submit(self, specs: Sequence[RunSpec], policy: Dict) -> Job:
        """Dedupe and enqueue one plan; returns the (queued) job."""
        self._seq += 1
        job = Job(f"j{self._seq}", specs, policy)
        self.jobs[job.id] = job
        fresh: List[RunSpec] = []
        claimed: set = set()
        for i, (spec, fp) in enumerate(zip(job.specs,
                                           job.fingerprints)):
            self.counters.inc("serve/specs_submitted")
            if self._known(fp):
                job.states[i] = "cached"
                self.counters.inc("serve/deduped_cache")
            elif fp in self._inflight or fp in claimed:
                job.states[i] = "deduped"
                self.counters.inc("serve/deduped_inflight")
            else:
                job.states[i] = "queued"
                claimed.add(fp)
                fresh.append(spec)
        job.fresh = fresh
        self._inflight.update(claimed)
        self.counters.inc("serve/jobs_submitted")
        if fresh or "deduped" in job.states:
            self._queue.put_nowait(job)
        else:
            job.state = "done"
            self.counters.inc("serve/jobs_done")
        return job

    # ------------------------------------------------------------------
    # Execution (consumer task + worker thread)
    # ------------------------------------------------------------------
    async def _consume(self) -> None:
        while True:
            job = await self._queue.get()
            job.state = "running"
            try:
                await self._execute(job)
            except Exception as err:  # defensive: keep the service alive
                job.state = "error"
                job.error = f"{type(err).__name__}: {err}"
                self.counters.inc("serve/jobs_errored")
            else:
                job.state = "done"
                self.counters.inc("serve/jobs_done")
            finally:
                for fp in {spec.fingerprint for spec in job.fresh}:
                    self._inflight.discard(fp)
                self._queue.task_done()

    async def _execute(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        chunk = max(1, self.executor.jobs)
        fresh = job.fresh
        for start in range(0, len(fresh), chunk):
            batch = fresh[start:start + chunk]
            for spec in batch:
                job.mark_fp(spec.fingerprint, "running",
                            only=("queued",))
            await loop.run_in_executor(None, self._run_batch, job, batch)
        # specs deduped against an in-flight sibling resolve once the
        # owner executed (or failed); re-check them now
        for i, fp in enumerate(job.fingerprints):
            if job.states[i] == "deduped":
                if self.store.get_failure_payload(fp) is not None \
                        and not self._known(fp):
                    job.states[i] = "failed"

    def _run_batch(self, job: Job, batch: List[RunSpec]) -> None:
        """One executor call, in a worker thread (never the loop)."""
        policy = job.policy
        stats = self.executor.stats
        ran_before = len(stats.records)
        failed_before = len(stats.failures)
        self.executor.run(
            batch,
            timeout_s=policy.get("timeout_s"),
            retries=policy.get("retries"),
            on_error="skip",
        )
        # the records this call appended (one batch runs at a time)
        runs = {rec.fingerprint: rec for rec in stats.records[ran_before:]}
        failures = {
            rec.fingerprint: rec for rec in stats.failures[failed_before:]
        }
        for spec in batch:
            fp = spec.fingerprint
            if fp in self.executor._memory:
                job.mark_fp(fp, "done", only=("queued", "running"))
                self.counters.inc("serve/specs_executed")
                record = runs.get(fp)
                if record is not None:
                    self._records[fp] = {
                        "wall_time": record.wall_time,
                        "sim_cycles": record.sim_cycles,
                        "sim_events": record.sim_events,
                    }
                self.store.forget_failure(fp)
            else:
                job.mark_fp(fp, "failed", only=("queued", "running"))
                self.counters.inc("serve/specs_failed")
                record = failures.get(fp)
                if record is not None:
                    self.store.record_failure(record)
        if self.store.directory is not None:
            # the cache now holds each result, and the service reads it
            # there: memory would keep every one for the service's life
            for spec in batch:
                self.executor._memory.pop(spec.fingerprint, None)

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> Tuple[str, int]:
        """Bind and start serving; returns the actual (host, port)."""
        self._loop = asyncio.get_running_loop()
        self._consumer = self._loop.create_task(self._consume())
        self._server = await asyncio.start_server(
            self._handle, host, port)
        sock = self._server.sockets[0]
        actual = sock.getsockname()
        return actual[0], actual[1]

    async def serve_forever(self, host: str = "127.0.0.1",
                            port: int = DEFAULT_PORT,
                            announce=print) -> None:
        bound_host, bound_port = await self.start(host, port)
        if announce is not None:
            store = self.store.directory
            announce(
                f"inpg-serve listening on http://{bound_host}:{bound_port} "
                f"(store: {store if store is not None else 'memory'}, "
                f"jobs: {self.executor.jobs}, "
                f"proto v{proto.PROTO_SCHEMA_VERSION})",
                flush=True,
            )
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self) -> None:
        if self._consumer is not None:
            self._consumer.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            method, path, body = await self._read_request(reader)
            await self._route(method, path, body, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as err:  # malformed request: answer, don't die
            try:
                await self._respond(
                    writer, 400,
                    proto.error_message("bad-request",
                                        f"{type(err).__name__}: {err}"),
                )
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_request(self, reader) -> Tuple[str, str, Optional[Dict]]:
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise ValueError("malformed request line")
        method, path = parts[0].upper(), parts[1]
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        body = None
        if length:
            raw = await reader.readexactly(length)
            body = json.loads(raw.decode("utf-8"))
        return method, path, body

    async def _respond(self, writer, status: int, payload: Dict) -> None:
        blob = json.dumps(payload).encode("utf-8")
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed"}.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(blob)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + blob)
        await writer.drain()

    async def _route(self, method: str, path: str, body: Optional[Dict],
                     writer) -> None:
        segments = [s for s in path.split("?")[0].split("/") if s]
        if segments[:1] != ["v1"]:
            await self._respond(writer, 404, proto.error_message(
                "not-found", f"unknown path {path!r} (try /v1/health)"))
            return
        tail = segments[1:]
        if tail == ["health"] and method == "GET":
            await self._respond(writer, 200, proto.health_message(
                jobs=self.executor.jobs,
                store=(str(self.store.directory)
                       if self.store.directory is not None else None),
            ))
        elif tail == ["stats"] and method == "GET":
            await self._respond(writer, 200, self._stats_payload())
        elif tail == ["store"] and method == "GET":
            # the index reads every entry, so it is built on a worker
            # thread while the loop answers other requests; it reads a
            # snapshot of the results in memory, which a batch's worker
            # thread adds to
            memory = list(self.executor._memory)
            index = await asyncio.get_running_loop().run_in_executor(
                None, self.store.index, memory)
            await self._respond(writer, 200, proto.envelope(
                "stats", counters={}, exec={},
                store={"index": index, **self.store.summary(memory)}))
        elif tail == ["jobs"] and method == "POST":
            await self._handle_submit(body, writer)
        elif len(tail) == 2 and tail[0] == "jobs" and method == "GET":
            job = self.jobs.get(tail[1])
            if job is None:
                await self._respond(writer, 404, proto.error_message(
                    "unknown-job", f"no job {tail[1]!r}"))
            else:
                await self._respond(writer, 200,
                                    job.payload(self._records))
        elif len(tail) == 2 and tail[0] == "results" and method == "GET":
            payload = self._result_payload(tail[1])
            if payload is None:
                await self._respond(writer, 404, proto.error_message(
                    "unknown-result", f"no result for {tail[1][:16]}..."))
            else:
                await self._respond(
                    writer, 200, proto.result_message(tail[1], payload))
        elif len(tail) == 2 and tail[0] == "failures" and method == "GET":
            payload = self.store.get_failure_payload(tail[1])
            if payload is None:
                await self._respond(writer, 404, proto.error_message(
                    "unknown-failure",
                    f"no failure recorded for {tail[1][:16]}..."))
            else:
                await self._respond(
                    writer, 200, proto.failure_message(tail[1], payload))
        else:
            await self._respond(writer, 405, proto.error_message(
                "bad-route", f"{method} {path} is not part of proto "
                f"v{proto.PROTO_SCHEMA_VERSION}"))

    async def _handle_submit(self, body: Optional[Dict], writer) -> None:
        try:
            specs, policy = proto.decode_submit(body)
        except proto.ProtoError as err:
            await self._respond(writer, 400, proto.error_message(
                "proto-error", str(err)))
            return
        job = self.submit(specs, policy)
        await self._respond(writer, 200, job.payload(self._records))

    def _stats_payload(self) -> Dict:
        stats = self.executor.stats
        return proto.stats_message(
            counters=self.counters.snapshot(),
            exec_stats={
                "executed": stats.executed,
                "memory_hits": stats.memory_hits,
                "disk_hits": stats.disk_hits,
                "failed": stats.failed,
                "wall_time": stats.wall_time,
                "sim_events": stats.sim_events,
                "jobs": self.executor.jobs,
            },
            store=self.store.summary(self.executor._memory),
        )


# ----------------------------------------------------------------------
# Embedded service (tests, notebooks): run the loop in a thread
# ----------------------------------------------------------------------
class ServiceHandle:
    """A service running on a background thread, with its URL."""

    def __init__(self, service: SimulationService, host: str, port: int,
                 loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread):
        self.service = service
        self.host = host
        self.port = port
        self._loop = loop
        self._thread = thread

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self, timeout: float = 5.0) -> None:
        loop = self._loop

        def _shutdown():
            task = loop.create_task(self.service.shutdown())
            task.add_done_callback(lambda _: loop.stop())

        loop.call_soon_threadsafe(_shutdown)
        self._thread.join(timeout)


def start_in_thread(executor: Optional[Executor] = None,
                    host: str = "127.0.0.1",
                    port: int = 0) -> ServiceHandle:
    """Boot a service on a daemon thread; returns a stoppable handle."""
    holder: Dict = {}
    started = threading.Event()

    def _runner():
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        service = SimulationService(executor=executor)
        bound = loop.run_until_complete(service.start(host, port))
        holder["service"] = service
        holder["host"], holder["port"] = bound
        holder["loop"] = loop
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=_runner, name="inpg-serve",
                              daemon=True)
    thread.start()
    if not started.wait(10.0):
        raise RuntimeError("inpg-serve thread failed to start")
    return ServiceHandle(holder["service"], holder["host"],
                         holder["port"], holder["loop"], thread)


# ----------------------------------------------------------------------
# Console entry point
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    from ..cli import execution_parent

    parser = argparse.ArgumentParser(
        prog="inpg-serve",
        description="Run the iNPG simulation service: an HTTP/JSON job "
                    "queue over the cached, parallel run executor.",
        parents=[execution_parent(remote=False)],
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"bind port (default {DEFAULT_PORT}; "
                             "0 = ephemeral, printed at startup)")
    parser.add_argument("--retries", type=int, default=0,
                        help="default retry count for transient (infra) "
                             "worker failures, with exponential backoff")
    return parser


def main(argv=None) -> int:
    from ..cli import executor_from_args

    args = build_parser().parse_args(argv)
    service = SimulationService(
        executor=executor_from_args(args, retries=args.retries))
    try:
        asyncio.run(service.serve_forever(args.host, args.port))
    except KeyboardInterrupt:
        print("inpg-serve: shutting down")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
