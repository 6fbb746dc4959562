"""Minimal stdlib client for the simulation service.

Used by ``examples/service_client.py``, the test suite, and the CI
smoke job — anything that talks to ``repro serve`` without pulling in
an HTTP library.  Error envelopes become :class:`ServiceError` (with
the machine-readable ``code``); everything else returns parsed JSON.

Backpressure-aware: a 429 ``over_capacity`` / 503 ``draining`` submit
is retried (up to ``retries`` times) with capped exponential backoff
plus jitter, never sooner than the server's ``Retry-After`` header
advertises.  :meth:`wait` polls with its own capped exponential
schedule (:func:`poll_schedule`) instead of a fixed interval, so a
long-running job costs O(log) requests instead of O(duration).  Both
the sleep function and the jitter RNG are injectable, so the backoff
behavior is unit-testable without wall-clock time.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

#: Submit statuses that mean "try again later", not "you are wrong".
RETRYABLE_STATUSES = (429, 503)


def backoff_delay(attempt: int, base_s: float = 0.25,
                  factor: float = 2.0, cap_s: float = 10.0) -> float:
    """Capped exponential backoff delay for retry ``attempt`` (0-based)."""
    return min(cap_s, base_s * (factor ** attempt))


def poll_schedule(initial_s: float = 0.1, factor: float = 1.5,
                  cap_s: float = 2.0) -> Iterator[float]:
    """The infinite sequence of poll delays :meth:`ServiceClient.wait` uses.

    Starts fast (a short job answers quickly) and decays to ``cap_s``
    (a long job is not hammered at 10 Hz forever).
    """
    delay = initial_s
    while True:
        yield min(delay, cap_s)
        delay = min(delay * factor, cap_s)


class ServiceError(RuntimeError):
    """A non-2xx service response, carrying the error envelope."""

    def __init__(self, status: int, code: str, message: str,
                 detail: Optional[str] = None,
                 retry_after_s: Optional[float] = None) -> None:
        text = f"HTTP {status} {code}: {message}"
        if detail:
            text += f" ({detail})"
        super().__init__(text)
        self.status = status
        self.code = code
        self.detail = detail
        #: Server-advertised retry delay (from the ``Retry-After``
        #: header or the envelope's ``retry_after_s``), when present.
        self.retry_after_s = retry_after_s


def _retry_after(headers: Any, document: Any) -> Optional[float]:
    """The server's advertised retry delay, header first, envelope second."""
    raw = None
    if headers is not None:
        raw = headers.get("Retry-After")
    if raw is not None:
        try:
            return float(raw)
        except ValueError:
            pass
    if isinstance(document, dict):
        envelope = document.get("error")
        if isinstance(envelope, dict):
            value = envelope.get("retry_after_s")
            if isinstance(value, (int, float)):
                return float(value)
    return None


class ServiceClient:
    """One service endpoint (``http://host:port``) as Python calls."""

    def __init__(self, base_url: str, timeout_s: float = 30.0,
                 retries: int = 0,
                 backoff_base_s: float = 0.25,
                 backoff_factor: float = 2.0,
                 backoff_max_s: float = 10.0,
                 jitter_fraction: float = 0.1,
                 rng: Optional[random.Random] = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.backoff_factor = backoff_factor
        self.backoff_max_s = backoff_max_s
        self.jitter_fraction = jitter_fraction
        self._rng = rng if rng is not None else random.Random()
        self._sleep = sleep

    # -- transport ---------------------------------------------------------
    def _request(self, method: str, path: str,
                 body: Optional[dict] = None) -> Tuple[int, bytes, Any]:
        data = (json.dumps(body).encode() if body is not None else None)
        request = urllib.request.Request(
            f"{self.base_url}{path}", data=data, method=method,
            headers={"Content-Type": "application/json"} if data else {})
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout_s) as response:
                return response.status, response.read(), response.headers
        except urllib.error.HTTPError as error:
            return error.code, error.read(), error.headers

    def _json(self, method: str, path: str,
              body: Optional[dict] = None) -> Tuple[int, Any]:
        status, raw, headers = self._request(method, path, body)
        document = json.loads(raw) if raw else None
        if isinstance(document, dict) and "error" in document:
            envelope = document["error"]
            raise ServiceError(status, envelope.get("code", "unknown"),
                               envelope.get("message", ""),
                               envelope.get("detail"),
                               retry_after_s=_retry_after(headers, document))
        return status, document

    def _retry_delay(self, attempt: int,
                     retry_after_s: Optional[float]) -> float:
        """Backoff delay for retry ``attempt``, honoring ``Retry-After``.

        Never shorter than what the server asked for; jitter spreads
        simultaneous retriers so they do not re-stampede in lockstep.
        """
        delay = backoff_delay(attempt, self.backoff_base_s,
                              self.backoff_factor, self.backoff_max_s)
        if retry_after_s is not None:
            delay = max(delay, retry_after_s)
        return delay * (1.0 + self.jitter_fraction * self._rng.random())

    # -- API ---------------------------------------------------------------
    def submit(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """POST a job spec; the returned status document includes
        ``deduplicated`` (True when an identical job already existed).

        Retries 429 ``over_capacity`` / 503 ``draining`` rejections up
        to ``self.retries`` times with :meth:`_retry_delay` backoff;
        any other error raises immediately.
        """
        attempt = 0
        while True:
            try:
                status, document = self._json("POST", "/v1/jobs", spec)
            except ServiceError as error:
                if (error.status not in RETRYABLE_STATUSES
                        or attempt >= self.retries):
                    raise
                self._sleep(self._retry_delay(attempt, error.retry_after_s))
                attempt += 1
                continue
            document["_http_status"] = status
            return document

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._json("GET", f"/v1/jobs/{job_id}")[1]

    def result_bytes(self, job_id: str) -> bytes:
        """The finished job's frozen result document, verbatim.

        Raises :class:`ServiceError` if the job failed (code
        ``job_failed``) or is still running (code ``pending`` — the
        202 envelope); callers normally :meth:`wait` first.
        """
        status, raw, headers = self._request("GET",
                                             f"/v1/jobs/{job_id}/result")
        if status != 200:
            document = json.loads(raw) if raw else {}
            if isinstance(document, dict) and "error" in document:
                envelope = document["error"]
                raise ServiceError(status, envelope.get("code", "unknown"),
                                   envelope.get("message", ""),
                                   envelope.get("detail"),
                                   retry_after_s=_retry_after(headers,
                                                              document))
            raise ServiceError(status, "pending", "job is still running")
        return raw

    def result(self, job_id: str) -> Dict[str, Any]:
        return json.loads(self.result_bytes(job_id))

    def healthz(self) -> Dict[str, Any]:
        return self._json("GET", "/v1/healthz")[1]

    def wait(self, job_id: str, timeout_s: float = 300.0,
             poll_s: float = 0.1, poll_factor: float = 1.5,
             poll_max_s: float = 2.0) -> Dict[str, Any]:
        """Poll until the job leaves the queue; returns final status.

        Polls on the capped exponential :func:`poll_schedule` starting
        at ``poll_s`` and decaying toward ``poll_max_s``.
        """
        deadline = time.monotonic() + timeout_s
        delays = poll_schedule(poll_s, poll_factor, poll_max_s)
        while True:
            document = self.status(job_id)
            if document["state"] in ("done", "failed"):
                return document
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {document['state']} after "
                    f"{timeout_s}s ({document['cells']})")
            self._sleep(next(delays))

    def run(self, spec: Dict[str, Any],
            timeout_s: float = 300.0) -> Dict[str, Any]:
        """Submit, wait, and return the parsed result document."""
        submitted = self.submit(spec)
        status = self.wait(submitted["id"], timeout_s=timeout_s)
        if status["state"] != "done":
            raise ServiceError(409, "job_failed", "job failed",
                               status.get("error"))
        return self.result(submitted["id"])
