"""The simulation service: HTTP lifecycle, dedupe, validation, fuzzing.

Suites:

* ``TestJobSpecValidation`` — the schema-first validator's typed-error
  contract on hand-picked payloads.
* ``TestJobSpecFuzz`` — Hypothesis drives arbitrary JSON at
  :func:`~repro.service.schema.validate_job_spec` (schemathesis-style,
  per ROADMAP): it may accept or raise ``ConfigError``, never anything
  else, and whatever it accepts the :class:`JobStore` can key.
* ``TestServiceLifecycle`` — a real ``ThreadingHTTPServer`` on an
  ephemeral port: submit/poll/result, in-process dedupe with
  byte-identical results, restart dedupe through a shared result cache,
  concurrent clients, warm derived-artifact serving, error envelopes.
* ``TestClientBackoff`` — the client's capped-exponential poll schedule
  and 429/503 retry backoff, deterministically (injected sleep/RNG, no
  wall clock).
* ``TestStoreHardening`` — idempotent close, straggler accounting.
* ``TestHttpFuzz`` — Hypothesis drives method x path x body at a live
  server: every non-2xx answer is a well-formed JSON error envelope
  with a declared code, and the server stays serviceable afterwards.

Grids are tiny (two designs x one benchmark at a few thousand refs) so
the whole module stays inside the tier-1 time budget.

The chaos suite — kill -9 restart recovery, admission-control floods,
TTL eviction, graceful drain — lives in ``tests/test_service_chaos.py``.
"""

import http.client
import json
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import ConfigError
from repro.service import (
    ENDPOINTS,
    ERROR_CODES,
    JOB_SPEC_SCHEMA,
    JobStore,
    ServiceClient,
    ServiceError,
    backoff_delay,
    job_key,
    make_server,
    poll_schedule,
    validate_job_spec,
)

SMALL_SPEC = {"designs": ["SNUCA2", "TLC"], "benchmarks": ["gcc"],
              "n_refs": 1_500}


@pytest.fixture()
def service(tmp_path):
    """A live server over fresh cache lanes; yields (client, store)."""
    store = JobStore(cache=tmp_path / "results",
                     derived=tmp_path / "derived", workers=2)
    server = make_server(store)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    try:
        yield client, store
    finally:
        server.shutdown()
        server.server_close()
        store.close()


class TestJobSpecValidation:
    def test_minimal_spec_fills_defaults(self):
        spec = validate_job_spec({"designs": ["TLC"]})
        assert spec.designs == ("TLC",)
        assert len(spec.benchmarks) == 12
        assert spec.n_refs == JOB_SPEC_SCHEMA["properties"]["n_refs"]["default"]
        assert spec.seed == 7
        assert spec.sanitize is False

    def test_design_names_resolve_registry_spellings(self):
        spec = validate_job_spec({"designs": ["tlc", "s-nuca2"]})
        assert spec.designs == ("TLC", "SNUCA2")

    def test_unknown_design_is_config_error(self):
        with pytest.raises(ConfigError, match="job spec"):
            validate_job_spec({"designs": ["NOPE"]})

    def test_duplicate_designs_rejected_after_resolution(self):
        with pytest.raises(ConfigError, match="duplicate"):
            validate_job_spec({"designs": ["TLC", "tlc"]})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown field"):
            validate_job_spec({"designs": ["TLC"], "refs": 100})

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ConfigError, match="n_refs"):
            validate_job_spec({"designs": ["TLC"], "n_refs": True})

    def test_warmup_fraction_must_stay_below_one(self):
        with pytest.raises(ConfigError, match="warmup_fraction"):
            validate_job_spec({"designs": ["TLC"], "warmup_fraction": 1.0})

    def test_non_object_body_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            validate_job_spec(["designs"])

    def test_cell_cap_enforced(self):
        # 7 designs x 12 benchmarks = 84 cells is fine; n_refs cap isn't.
        with pytest.raises(ConfigError, match="n_refs"):
            validate_job_spec({"designs": ["TLC"], "n_refs": 10**9})

    def test_job_key_is_spelling_insensitive(self):
        a = validate_job_spec({"designs": ["tlc"], "benchmarks": ["gcc"]})
        b = validate_job_spec({"designs": ["TLC"], "benchmarks": ["gcc"]})
        assert job_key(a) == job_key(b)

    def test_job_key_separates_different_grids(self):
        a = validate_job_spec({"designs": ["TLC"], "benchmarks": ["gcc"]})
        b = validate_job_spec({"designs": ["TLC"], "benchmarks": ["mcf"]})
        assert job_key(a) != job_key(b)


# Payloads shaped like job specs (right field names, wrong-ish values)
# plus arbitrary JSON — the adversarial half of the fuzz.
_json_scalars = st.none() | st.booleans() | st.integers() | st.floats(
    allow_nan=False) | st.text(max_size=20)
_json_values = st.recursive(
    _json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=10)
_speclike = st.fixed_dictionaries(
    {},
    optional={
        "designs": st.lists(st.sampled_from(
            ["TLC", "tlc", "SNUCA2", "DNUCA", "NOPE", ""]), max_size=4)
        | _json_values,
        "benchmarks": st.lists(st.sampled_from(
            ["gcc", "mcf", "bogus"]), max_size=3) | _json_values,
        "n_refs": st.integers(-5, 10**7) | _json_values,
        "seed": st.integers(-2, 2**33) | _json_values,
        "warmup_fraction": st.floats(allow_nan=True, allow_infinity=True)
        | _json_values,
        "sanitize": st.booleans() | _json_values,
        "extra": _json_values,
    })


class TestJobSpecFuzz:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(payload=_speclike | _json_values)
    def test_validator_accepts_or_raises_config_error_only(self, payload):
        try:
            spec = validate_job_spec(payload)
        except ConfigError:
            return
        # Whatever survives validation must be a well-formed, keyable
        # grid the store could run.
        assert spec.designs and spec.benchmarks
        assert 1 <= spec.n_refs
        assert 0.0 <= spec.warmup_fraction < 1.0
        assert len(job_key(spec)) == 64


class TestServiceLifecycle:
    def test_submit_poll_result_lifecycle(self, service):
        client, store = service
        submitted = client.submit(SMALL_SPEC)
        assert submitted["_http_status"] == 201
        assert submitted["deduplicated"] is False
        assert submitted["id"].startswith("job-")

        status = client.wait(submitted["id"], timeout_s=120)
        assert status["state"] == "done"
        assert status["cells"]["total"] == 2
        assert status["cells"]["simulated"] == 2
        assert status["cells"]["from_cache"] == 0
        assert {cell["state"] for cell in status["cell_status"]} == {"done"}
        assert status["manifest"]["kind"] == "service.job"

        result = client.result(submitted["id"])
        assert result["designs"] == ["SNUCA2", "TLC"]
        assert result["cells"]["TLC"]["gcc"]["l2_requests"] > 0
        assert result["normalized_time"]["dataset"][0][0] == "gcc"

    def test_duplicate_submission_returns_identical_bytes(self, service):
        client, store = service
        first = client.submit(SMALL_SPEC)
        client.wait(first["id"], timeout_s=120)
        bytes_one = client.result_bytes(first["id"])

        second = client.submit(SMALL_SPEC)
        assert second["_http_status"] == 200
        assert second["deduplicated"] is True
        assert second["id"] == first["id"]
        assert client.result_bytes(second["id"]) == bytes_one
        assert store.counter["jobs_deduplicated"] == 1
        assert store.counter["cells_simulated"] == 2

    def test_restart_dedupe_through_shared_result_cache(self, tmp_path):
        """A fresh store over a warm result cache simulates nothing."""
        payloads = []
        simulated = []
        for _ in range(2):
            store = JobStore(cache=tmp_path / "results",
                            derived=tmp_path / "derived", workers=2)
            server = make_server(store)
            threading.Thread(target=server.serve_forever,
                             daemon=True).start()
            client = ServiceClient(
                f"http://127.0.0.1:{server.server_address[1]}")
            job = client.submit(SMALL_SPEC)
            status = client.wait(job["id"], timeout_s=120)
            simulated.append(status["cells"]["simulated"])
            payloads.append(client.result_bytes(job["id"]))
            server.shutdown()
            server.server_close()
            store.close()
        assert simulated == [2, 0]
        assert payloads[0] == payloads[1]

    def test_concurrent_clients_share_one_store(self, service):
        client, store = service
        specs = [dict(SMALL_SPEC, benchmarks=[bench])
                 for bench in ("gcc", "mcf", "gcc", "mcf")]
        results = [None] * len(specs)
        errors = []

        def run(index):
            try:
                results[index] = ServiceClient(client.base_url).run(
                    specs[index], timeout_s=120)
            except Exception as error:  # noqa: BLE001 — surfaced below
                errors.append(error)

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(specs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert results[0] == results[2]
        assert results[1] == results[3]
        assert results[0] != results[1]
        # The duplicate pair deduped to one job each.
        assert store.counter["jobs_submitted"] == 2
        assert store.counter["jobs_deduplicated"] == 2

    def test_result_before_completion_is_202_pending(self, service):
        client, store = service
        # Submit straight to the store but never start a server-side
        # worker race: ask for the result of a job that cannot be done
        # yet by submitting a larger grid and checking immediately.
        submitted = client.submit(dict(SMALL_SPEC,
                                       benchmarks=["gcc", "mcf", "swim"]))
        status, raw, _headers = client._request(
            "GET", f"/v1/jobs/{submitted['id']}/result")
        assert status in (200, 202)
        if status == 202:
            document = json.loads(raw)
            assert document["pending"] is True
            assert document["job"]["state"] in ("queued", "running")
        client.wait(submitted["id"], timeout_s=120)

    def test_invalid_spec_is_400_with_config_error_detail(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"designs": ["NOPE"]})
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid_spec"
        # The detail is the typed ConfigError's own message.
        assert "job spec" in excinfo.value.detail
        with pytest.raises(ConfigError) as config_excinfo:
            validate_job_spec({"designs": ["NOPE"]})
        assert excinfo.value.detail == str(config_excinfo.value)

    def test_malformed_json_is_400_invalid_json(self, service):
        client, _ = service
        import urllib.request

        request = urllib.request.Request(
            f"{client.base_url}/v1/jobs", data=b"{not json",
            method="POST", headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        envelope = json.load(excinfo.value)["error"]
        assert envelope["code"] == "invalid_json"

    def test_unknown_job_and_bad_artifact_key(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.status("job-doesnotexist00")
        assert (excinfo.value.status, excinfo.value.code) == (
            404, "unknown_job")
        with pytest.raises(ServiceError) as excinfo:
            client.artifact("not-a-key")
        assert (excinfo.value.status, excinfo.value.code) == (
            400, "invalid_key")
        with pytest.raises(ServiceError) as excinfo:
            client.artifact("0" * 64)
        assert (excinfo.value.status, excinfo.value.code) == (
            404, "unknown_artifact")

    def test_warm_derived_artifact_served_by_key(self, service):
        client, store = service
        result = client.run(SMALL_SPEC, timeout_s=120)
        key = result["artifacts"]["grid.normalized"]
        served = client.artifact(key)
        assert served["lane"] == "derived"
        assert served["artifact"]["dataset"] == \
            result["normalized_time"]["dataset"]

    def test_result_cache_key_served_as_result_lane_artifact(self, service):
        client, store = service
        submitted = client.submit(SMALL_SPEC)
        status = client.wait(submitted["id"], timeout_s=120)
        # Every cell's provenance key resolves through the artifact
        # endpoint to the raw result document.
        manifest_metrics = status["manifest"]["metrics"]
        assert manifest_metrics["service.jobs_submitted"] >= 1
        result = client.result(submitted["id"])
        cell_key = store.get(submitted["id"]).outcomes[0].key
        served = client.artifact(cell_key)
        assert served["lane"] == "result"
        assert served["result"]["design"] == "SNUCA2"

    def test_healthz_exposes_all_metric_families(self, service):
        client, _ = service
        client.run(SMALL_SPEC, timeout_s=120)
        health = client.healthz()
        assert health["ok"] is True
        names = set(health["metrics"])
        assert any(name.startswith("service.") for name in names)
        assert any(name.startswith("runner.") for name in names)
        assert any(name.startswith("analysis.derived.") for name in names)
        assert health["jobs"]["done"] == 1

    def test_route_table_matches_handlers(self, service):
        """Every declared endpoint answers something other than 404."""
        client, _ = service
        submitted = client.submit(SMALL_SPEC)
        client.wait(submitted["id"], timeout_s=120)
        substitutions = {"{id}": submitted["id"], "{key}": "0" * 64}
        for method, path, _summary in ENDPOINTS:
            for template, value in substitutions.items():
                path = path.replace(template, value)
            status, raw, _headers = client._request(method, path,
                                                    body=SMALL_SPEC
                                                    if method == "POST"
                                                    else None)
            if status in (400, 404):
                envelope = json.loads(raw)["error"]
                assert envelope["code"] != "not_found", (method, path)
            assert status != 405, (method, path)

    def test_error_codes_documented(self):
        for code in ("invalid_json", "invalid_spec", "unknown_job",
                     "unknown_artifact", "invalid_key", "not_found",
                     "method_not_allowed", "job_failed", "bad_request",
                     "over_capacity", "draining", "gone", "internal",
                     "not_implemented"):
            assert code in ERROR_CODES

    def test_malformed_content_length_is_400_envelope(self, service):
        """Regression: a garbage Content-Length used to crash the
        handler thread (ValueError in int()) and drop the connection."""
        client, _ = service
        host, port = client.base_url.split("//")[1].split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            connection.putrequest("POST", "/v1/jobs")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", "banana")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            envelope = json.loads(response.read())["error"]
            assert envelope["code"] == "bad_request"
            assert "banana" in envelope["detail"]
        finally:
            connection.close()
        # The server survived and still answers.
        assert client.healthz()["ok"] is True

    def test_unsupported_method_is_405_envelope(self, service):
        client, _ = service
        status, raw, _headers = client._request("DELETE", "/v1/jobs")
        assert status == 405
        assert json.loads(raw)["error"]["code"] == "method_not_allowed"


class TestClientBackoff:
    def test_backoff_delay_grows_then_caps(self):
        delays = [backoff_delay(a, base_s=0.25, factor=2.0, cap_s=10.0)
                  for a in range(8)]
        assert delays[:6] == [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        assert delays[6:] == [10.0, 10.0]

    def test_poll_schedule_starts_fast_and_caps(self):
        schedule = poll_schedule(0.1, factor=1.5, cap_s=2.0)
        delays = [next(schedule) for _ in range(12)]
        assert delays[0] == pytest.approx(0.1)
        assert all(a <= b or b == 2.0
                   for a, b in zip(delays, delays[1:]))
        assert delays[-1] == 2.0

    def test_wait_sleeps_on_the_poll_schedule(self):
        """wait() is deterministic given an injected sleep: statuses
        stubbed to stay 'running' N times produce exactly the schedule's
        first N delays, with no wall-clock sleeping."""
        slept = []
        client = ServiceClient("http://invalid.test", sleep=slept.append)
        states = iter(["queued", "running", "running", "done"])
        client.status = lambda job_id: {"state": next(states), "cells": {}}
        document = client.wait("job-x", timeout_s=60, poll_s=0.1)
        assert document["state"] == "done"
        expected = poll_schedule(0.1)
        assert slept == [next(expected) for _ in range(3)]

    def test_submit_retries_429_honoring_retry_after(self):
        """A 429 with Retry-After=3 forces a >= 3s delay even though
        attempt-0 backoff alone would be 0.25s; jitter is pinned to 0."""
        slept = []

        class _Rng:
            def random(self):
                return 0.0

        client = ServiceClient("http://invalid.test", retries=2,
                               jitter_fraction=0.5, rng=_Rng(),
                               sleep=slept.append)
        calls = {"n": 0}

        def fake_json(method, path, body=None):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise ServiceError(429, "over_capacity", "busy",
                                   retry_after_s=3.0)
            return 201, {"id": "job-x", "deduplicated": False}

        client._json = fake_json
        document = client.submit(SMALL_SPEC)
        assert document["_http_status"] == 201
        assert calls["n"] == 3
        # Both delays floor at the server's Retry-After, not the
        # (smaller) exponential backoff.
        assert slept == [3.0, 3.0]

    def test_submit_gives_up_after_retries(self):
        client = ServiceClient("http://invalid.test", retries=1,
                               jitter_fraction=0.0,
                               sleep=lambda _s: None)

        def always_busy(method, path, body=None):
            raise ServiceError(503, "draining", "bye", retry_after_s=0.01)

        client._json = always_busy
        with pytest.raises(ServiceError) as excinfo:
            client.submit(SMALL_SPEC)
        assert excinfo.value.status == 503

    def test_non_retryable_error_raises_immediately(self):
        client = ServiceClient("http://invalid.test", retries=5,
                               sleep=lambda _s: pytest.fail("slept"))

        def bad_spec(method, path, body=None):
            raise ServiceError(400, "invalid_spec", "nope")

        client._json = bad_spec
        with pytest.raises(ServiceError):
            client.submit(SMALL_SPEC)


class TestStoreHardening:
    def test_close_is_idempotent(self, tmp_path):
        store = JobStore(cache=tmp_path / "results", workers=2)
        store.start()
        assert store.close() == 0
        assert store.close() == 0  # second close: no-op, no error
        assert store.counter["close.stragglers"] == 0

    def test_close_counts_stragglers(self, tmp_path):
        """A worker that cannot join within the timeout is counted in
        service.close.stragglers, not silently abandoned."""
        store = JobStore(cache=tmp_path / "results", workers=1)
        release = threading.Event()
        blocked = threading.Event()

        def stuck():
            blocked.set()
            release.wait(30)

        store.start()
        store._queue.put(None)  # consume the real worker...
        store._threads[0].join(timeout=10)
        stuck_thread = threading.Thread(target=stuck, daemon=True)
        stuck_thread.start()
        store._threads[0] = stuck_thread  # ...and plant a stuck one
        blocked.wait(10)
        try:
            assert store.close(timeout_s=0.1) == 1
            assert store.counter["close.stragglers"] == 1
        finally:
            release.set()


# One live server shared by every fuzz example: booting a server per
# example would dominate the runtime, and surviving *all* examples on
# one process is exactly the serviceability property under test.
@pytest.fixture(scope="module")
def fuzz_server(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("fuzz")
    store = JobStore(cache=tmp_path / "results", workers=1)
    server = make_server(store)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield f"127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        store.close()


_fuzz_paths = st.one_of(
    st.sampled_from([path for _m, path, _s in ENDPOINTS]),
    st.sampled_from(["/", "/v1", "/v1/jobs/", "/v2/jobs", "//v1/jobs",
                     "/v1/jobs/%00", "/v1/artifacts/", "/v1/healthz/x"]),
    st.text(st.characters(min_codepoint=33, max_codepoint=126),
            min_size=0, max_size=40).map(
        lambda t: "/" + t.replace(" ", "")),
)
_fuzz_bodies = st.one_of(
    st.none(),
    st.binary(max_size=200),
    st.dictionaries(st.text(max_size=8), st.integers(), max_size=4).map(
        lambda d: json.dumps(d).encode()),
)


class TestHttpFuzz:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(method=st.sampled_from(["GET", "POST", "PUT", "DELETE", "PATCH"]),
           path=_fuzz_paths, body=_fuzz_bodies)
    def test_every_response_is_an_envelope_or_2xx(self, fuzz_server,
                                                  method, path, body):
        """Total-envelope contract: whatever method x path x body we
        throw, the server answers JSON — an error envelope with a
        declared code for >= 400 — and never drops the connection."""
        host, port = fuzz_server.split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            headers = {"Connection": "close"}
            if body is not None:
                headers["Content-Type"] = "application/json"
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
            except (http.client.HTTPException, OSError) as error:
                pytest.fail(f"{method} {path!r}: connection died: {error}")
            raw = response.read()
            if response.status >= 400:
                envelope = json.loads(raw)["error"]
                assert envelope["code"] in ERROR_CODES, (method, path)
                assert envelope["message"]
            else:
                assert response.status in (200, 201, 202)
                if raw:
                    json.loads(raw)
        finally:
            connection.close()

    def test_server_serviceable_after_fuzzing(self, fuzz_server):
        """Runs after the fuzz (alphabetical luck aside, its own check):
        the fuzzed server still answers healthz."""
        client = ServiceClient(f"http://{fuzz_server}")
        assert client.healthz()["ok"] is True
