"""The versioned client/server wire schema of ``inpg-serve``.

This module is the *entire* shared surface between the service
(:mod:`repro.serve.server`) and its clients
(:mod:`repro.serve.client`): every request and response body is a JSON
envelope built and opened here, so the two sides can evolve
independently as long as they speak the same ``PROTO_SCHEMA_VERSION`` —
the same discipline :data:`~repro.stats.serialize.RESULT_SCHEMA_VERSION`
applies to results on disk.

An envelope is a JSON object::

    {"proto": 2, "kind": "<message kind>", ...body...}

``open_envelope`` rejects a payload whose ``proto`` does not match this
module's version (or whose ``kind`` is not the expected one) with a
structured :class:`ProtoError` — a v2 client talking to a v1 server
fails loudly at the boundary instead of mis-reading fields.

Specs travel as :meth:`repro.exec.RunSpec.to_dict` payloads (lossless,
fingerprint-preserving), results as
:func:`repro.stats.serialize.serialize_run_result` payloads, and
failures as :func:`repro.stats.serialize.failure_record_to_dict`
payloads — the serve proto adds the envelope, never a second encoding.

Message kinds
=============

========== ==========================================================
kind        body
========== ==========================================================
submit      ``specs`` (list of spec payloads), ``policy`` (executor
            policy overrides: ``timeout_s`` / ``retries`` /
            ``on_error``)
job         one job's status snapshot (see :func:`job_payload` on the
            server side): id, state, per-spec states, counters
result      ``fingerprint`` + ``result`` (serialized run result)
failure     ``fingerprint`` + ``failure`` (serialized failure record)
stats       ``counters`` (service registry snapshot) + ``exec``
            (executor counters) + ``store`` (result-store summary)
health      ``status`` / ``proto`` / ``result_schema`` / ``jobs`` /
            ``store``
error       ``error`` (symbolic name) + ``message``
========== ==========================================================
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..exec import RunSpec
from ..stats.serialize import RESULT_SCHEMA_VERSION

#: bump when any envelope body below changes shape.  2: specs carry
#: their axes in ``config`` only; a v1 spec's ``protocol`` /
#: ``topology`` / ``arbiter`` keys no longer decode
PROTO_SCHEMA_VERSION = 2

#: every message kind the proto defines (closed vocabulary: an unknown
#: kind is a proto error, not a silent pass-through)
MESSAGE_KINDS = (
    "submit", "job", "result", "failure", "stats", "health", "error",
)


class ProtoError(ValueError):
    """A payload that is not a valid message of this proto version."""


# ----------------------------------------------------------------------
# Envelopes
# ----------------------------------------------------------------------
def envelope(kind: str, **body) -> Dict:
    """Wrap a message body in the versioned envelope."""
    if kind not in MESSAGE_KINDS:
        raise ProtoError(f"unknown message kind {kind!r}")
    out = {"proto": PROTO_SCHEMA_VERSION, "kind": kind}
    out.update(body)
    return out


def open_envelope(payload: Dict, kind: Optional[str] = None) -> Dict:
    """Validate an envelope; returns it for chained access.

    Raises :class:`ProtoError` when ``payload`` is not a mapping, was
    written under a different proto version, carries an unknown kind, or
    (when ``kind`` is given) is not the expected message.  An ``error``
    message is surfaced as a :class:`ProtoError` carrying the server's
    symbolic error name and text, whatever kind was expected.
    """
    if not isinstance(payload, dict):
        raise ProtoError(
            f"expected a JSON object, got {type(payload).__name__}"
        )
    version = payload.get("proto")
    if version != PROTO_SCHEMA_VERSION:
        raise ProtoError(
            f"payload has proto version {version!r}, "
            f"expected {PROTO_SCHEMA_VERSION}"
        )
    got = payload.get("kind")
    if got not in MESSAGE_KINDS:
        raise ProtoError(f"unknown message kind {got!r}")
    if got == "error" and kind != "error":
        raise ProtoError(
            f"{payload.get('error', 'error')}: {payload.get('message', '')}"
        )
    if kind is not None and got != kind:
        raise ProtoError(f"expected a {kind!r} message, got {got!r}")
    return payload


def error_message(name: str, message: str) -> Dict:
    """The ``error`` envelope a server returns for a failed request."""
    return envelope("error", error=name, message=message)


# ----------------------------------------------------------------------
# Submission
# ----------------------------------------------------------------------
def submit_request(
    specs: Sequence[RunSpec],
    *,
    timeout_s: Optional[float] = None,
    retries: Optional[int] = None,
    on_error: Optional[str] = None,
) -> Dict:
    """Encode a plan submission (specs + executor policy overrides)."""
    policy: Dict = {}
    if timeout_s is not None:
        policy["timeout_s"] = float(timeout_s)
    if retries is not None:
        policy["retries"] = int(retries)
    if on_error is not None:
        policy["on_error"] = on_error
    return envelope(
        "submit",
        specs=[spec.to_dict() for spec in specs],
        policy=policy,
    )


def decode_submit(payload: Dict) -> tuple:
    """Open a submission; returns ``(specs, policy)``.

    Spec decoding errors surface as :class:`ProtoError` (the client sent
    a spec this side cannot represent — schema drift or corruption).
    """
    body = open_envelope(payload, "submit")
    raw_specs = body.get("specs")
    if not isinstance(raw_specs, list):
        raise ProtoError("submit message carries no spec list")
    try:
        specs = [RunSpec.from_dict(raw) for raw in raw_specs]
    except (KeyError, TypeError, ValueError) as err:
        raise ProtoError(f"undecodable spec in submission: {err}") from err
    policy = body.get("policy") or {}
    if not isinstance(policy, dict):
        raise ProtoError("submit policy must be a mapping")
    unknown = set(policy) - {"timeout_s", "retries", "on_error"}
    if unknown:
        raise ProtoError(f"unknown policy keys: {sorted(unknown)}")
    return specs, policy


# ----------------------------------------------------------------------
# Results / failures / stats
# ----------------------------------------------------------------------
def result_message(fingerprint: str, result_payload: Dict) -> Dict:
    return envelope("result", fingerprint=fingerprint,
                    result=result_payload)


def failure_message(fingerprint: str, failure_payload: Dict) -> Dict:
    return envelope("failure", fingerprint=fingerprint,
                    failure=failure_payload)


def health_message(jobs: int, store: Optional[str]) -> Dict:
    return envelope(
        "health",
        status="ok",
        result_schema=RESULT_SCHEMA_VERSION,
        jobs=jobs,
        store=store,
    )


def stats_message(counters: Dict, exec_stats: Dict, store: Dict) -> Dict:
    return envelope("stats", counters=counters, exec=exec_stats,
                    store=store)


__all__: List[str] = [
    "MESSAGE_KINDS",
    "PROTO_SCHEMA_VERSION",
    "ProtoError",
    "decode_submit",
    "envelope",
    "error_message",
    "failure_message",
    "health_message",
    "open_envelope",
    "result_message",
    "stats_message",
    "submit_request",
]
