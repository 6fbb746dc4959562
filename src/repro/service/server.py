"""Stdlib HTTP front end over the :class:`~repro.service.jobs.JobStore`.

One :class:`http.server.ThreadingHTTPServer` answers the four routes
:data:`~repro.service.schema.ENDPOINTS` declares.  Handlers are thin:
parse -> :class:`JobStore` call -> JSON.  All failures use one error
envelope::

    {"error": {"code": "<ERROR_CODES key>", "message": "...",
               "detail": "..."?}}

so clients can branch on ``code`` without parsing prose.  Spec
validation errors surface the typed
:class:`~repro.core.config.ConfigError` message as ``detail`` — the
same text a bad CLI invocation prints.

The envelope contract is total: *every* response the server writes —
including the stdlib's own error paths (malformed request line, bad
``Content-Length``, unsupported method) and unexpected handler
exceptions — is a JSON envelope, never an HTML error page, a bare
traceback, or a dropped connection.  The HTTP fuzz suite in
``tests/test_service.py`` enforces this over arbitrary method x path x
body combinations.

Backpressure and lifecycle surface here too: over-capacity submits
answer 429 ``over_capacity`` and drains answer 503 ``draining``, both
with a ``Retry-After`` header; TTL-evicted job ids answer 410 ``gone``.
"""

from __future__ import annotations

import json
import re
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional

from repro.core.config import ConfigError
from repro.service.jobs import AdmissionError, DrainingError, JobStore
from repro.service.schema import (
    ERROR_CODES,
    SERVICE_SCHEMA_VERSION,
    validate_job_spec,
)

#: Largest request body the service will read (a job spec is tiny; this
#: guards the shared server against accidental multi-megabyte POSTs).
MAX_BODY_BYTES = 64 * 1024

_JOB_ROUTE = re.compile(r"^/v1/jobs/([A-Za-z0-9_.-]+)$")
_RESULT_ROUTE = re.compile(r"^/v1/jobs/([A-Za-z0-9_.-]+)/result$")

#: Envelope codes for the HTTP statuses the *stdlib* error machinery
#: can emit on its own (malformed request line, oversized headers,
#: unsupported method/version) — routed through :meth:`send_error` so
#: even those failures keep the JSON envelope contract.
_STDLIB_ERROR_CODES = {
    400: "bad_request",
    404: "not_found",
    405: "method_not_allowed",
    414: "bad_request",
    431: "bad_request",
    501: "not_implemented",
    505: "not_implemented",
}


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes one request; the store lives on the server object."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------------
    @property
    def store(self) -> JobStore:
        return self.server.store  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "quiet", True):
            return
        super().log_message(format, *args)

    def _send(self, status: int, document: Any,
              raw: Optional[bytes] = None,
              headers: Optional[Dict[str, str]] = None) -> None:
        body = raw if raw is not None else json.dumps(
            document, sort_keys=True, indent=1).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, code: str, message: Optional[str] = None,
               detail: Optional[str] = None,
               retry_after_s: Optional[float] = None) -> None:
        assert code in ERROR_CODES, f"undeclared error code {code!r}"
        self.store.counter.add("errors")
        envelope: dict = {"code": code,
                          "message": message or ERROR_CODES[code]}
        if detail is not None:
            envelope["detail"] = detail
        headers = None
        if retry_after_s is not None:
            envelope["retry_after_s"] = retry_after_s
            # The header is integer seconds (RFC 9110); round up so a
            # compliant client never retries early.
            headers = {"Retry-After": str(max(1, int(-(-retry_after_s // 1))))}
        self._send(status, {"error": envelope}, headers=headers)

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """Route the stdlib's own error paths through the JSON envelope.

        ``BaseHTTPRequestHandler`` calls this for failures that happen
        before any ``do_*`` method runs — an unparseable request line,
        an unsupported method (501), oversized headers — and would
        normally emit an HTML error page.  The service's contract is
        envelope-or-nothing, so map the status onto a declared code.
        """
        self.close_connection = True
        try:
            self._error(code, _STDLIB_ERROR_CODES.get(code, "bad_request"),
                        message=message, detail=explain)
        except Exception:  # noqa: BLE001 — the socket may already be gone
            pass

    def _read_body(self) -> Optional[bytes]:
        """The request body, or ``None`` after sending a 400/413."""
        raw_length = self.headers.get("Content-Length")
        try:
            length = int(raw_length) if raw_length is not None else 0
        except ValueError:
            self._error(400, "bad_request",
                        detail=f"malformed Content-Length header "
                               f"{raw_length!r}")
            return None
        if length < 0:
            self._error(400, "bad_request",
                        detail=f"negative Content-Length {length}")
            return None
        if length > MAX_BODY_BYTES:
            self._error(413, "payload_too_large",
                        detail=f"body is {length} bytes; the service "
                               f"accepts at most {MAX_BODY_BYTES}")
            return None
        return self.rfile.read(length)

    # -- dispatch ----------------------------------------------------------
    def _dispatch(self, route: Callable[[], None]) -> None:
        """Run one routed handler under the envelope guarantee.

        An unexpected handler exception must produce a 500 envelope,
        never a traceback over a dropped connection; a client that
        vanished mid-response is the one case there is nobody left to
        answer.
        """
        try:
            route()
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
        except Exception as error:  # noqa: BLE001 — envelope everything
            try:
                self._error(500, "internal",
                            detail=f"{type(error).__name__}: {error}")
            except Exception:  # noqa: BLE001 — response already underway
                self.close_connection = True

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        self._dispatch(self._route_post)

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        self._dispatch(self._route_get)

    def do_PUT(self) -> None:  # noqa: N802 — http.server API
        self._dispatch(self._route_unsupported)

    def do_DELETE(self) -> None:  # noqa: N802 — http.server API
        self._dispatch(self._route_unsupported)

    def do_PATCH(self) -> None:  # noqa: N802 — http.server API
        self._dispatch(self._route_unsupported)

    def _route_unsupported(self) -> None:
        self.store.counter.add("requests")
        self._error(405, "method_not_allowed",
                    detail=f"{self.command} is not supported on any route")

    def _route_post(self) -> None:
        self.store.counter.add("requests")
        if self.path == "/v1/jobs":
            self._post_job()
        elif (self.path == "/v1/healthz" or _JOB_ROUTE.match(self.path)
              or _RESULT_ROUTE.match(self.path)):
            self._error(405, "method_not_allowed")
        else:
            self._error(404, "not_found")

    def _route_get(self) -> None:
        self.store.counter.add("requests")
        if self.path == "/v1/healthz":
            self._get_healthz()
            return
        match = _RESULT_ROUTE.match(self.path)
        if match:
            self._get_result(match.group(1))
            return
        match = _JOB_ROUTE.match(self.path)
        if match:
            self._get_job(match.group(1))
            return
        if self.path == "/v1/jobs":
            self._error(405, "method_not_allowed")
        else:
            self._error(404, "not_found")

    # -- handlers ----------------------------------------------------------
    def _post_job(self) -> None:
        body = self._read_body()
        if body is None:
            return
        try:
            payload = json.loads(body or b"null")
        except ValueError as error:
            self._error(400, "invalid_json", detail=str(error))
            return
        try:
            spec = validate_job_spec(payload)
        except ConfigError as error:
            self._error(400, "invalid_spec", detail=str(error))
            return
        try:
            job, created = self.store.submit(spec)
        except DrainingError as error:
            self._error(503, "draining", detail=str(error),
                        retry_after_s=error.retry_after_s)
            return
        except AdmissionError as error:
            self._error(429, "over_capacity", detail=str(error),
                        retry_after_s=error.retry_after_s)
            return
        with self.store._lock:
            document = job.as_dict()
        document["deduplicated"] = not created
        self._send(201 if created else 200, document)

    def _get_job(self, job_id: str) -> None:
        job = self.store.get(job_id)
        if job is None:
            if self.store.evicted_at(job_id) is not None:
                self._error(410, "gone", detail=job_id)
            else:
                self._error(404, "unknown_job", detail=job_id)
            return
        with self.store._lock:
            self._send(200, job.as_dict())

    def _get_result(self, job_id: str) -> None:
        job = self.store.get(job_id)
        if job is None:
            if self.store.evicted_at(job_id) is not None:
                self._error(410, "gone", detail=job_id)
            else:
                self._error(404, "unknown_job", detail=job_id)
            return
        with self.store._lock:
            state = job.state
            result_bytes = job.result_bytes
            document = {"pending": True, "job": job.as_dict()}
            error = job.error
        if state == "done" and result_bytes is not None:
            self._send(200, None, raw=result_bytes)
        elif state == "failed":
            self._error(409, "job_failed", detail=error)
        else:
            self._send(202, document)

    def _get_healthz(self) -> None:
        self._send(200, {
            "ok": True,
            "schema": SERVICE_SCHEMA_VERSION,
            "draining": self.store.draining,
            "jobs": self.store.jobs_by_state(),
            "workers": self.store.workers,
            "metrics": self.store.registry.snapshot(),
        })


def make_server(store: JobStore, host: str = "127.0.0.1", port: int = 0,
                quiet: bool = True) -> ThreadingHTTPServer:
    """A ready-to-serve HTTP server bound to ``host:port`` over ``store``.

    ``port=0`` picks a free port (tests); the bound port is
    ``server.server_address[1]``.  The caller owns both lifecycles:
    ``server.shutdown()`` then ``store.close()``.
    """
    server = ThreadingHTTPServer((host, port), ServiceHandler)
    server.store = store  # type: ignore[attr-defined]
    server.quiet = quiet  # type: ignore[attr-defined]
    server.daemon_threads = True
    # Replay the journal (if any) before workers start: recovered jobs
    # must be registered before the first request can race them.
    store.recover()
    store.start()
    return server

