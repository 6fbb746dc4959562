"""Chaos suite for the production-hardened service (docs/ROBUSTNESS.md).

Each test kills the service a different way and checks the recovery
contract:

* ``TestKillNineRestart`` — a real ``repro serve`` subprocess with a
  journal dir, SIGKILLed mid-job, restarted over the same dirs: the job
  finishes under its original id, the result bytes are identical to an
  uninterrupted run's, and the second life simulates strictly fewer
  cells (completed cells replay from the result cache).
* ``TestJournalRecovery`` — deterministic in-process replays: a
  hand-written journal plus a pre-warmed cache resumes exactly the
  unfinished cells; a cleanly-finished job replays with zero cells
  simulated and byte-identical results; garbage journal lines degrade
  (counted, never fatal).
* ``TestAdmissionControl`` — flooding past ``max_active_jobs`` answers
  429 ``over_capacity`` with a ``Retry-After`` header, and the
  backoff-retrying client still completes.
* ``TestGracefulDrain`` — submits during a drain answer 503
  ``draining``, in-flight jobs finish, the journal gets a clean
  shutdown marker.
* ``TestTtlEviction`` — an expired job's status answers 410 ``gone``;
  resubmitting the spec resurrects the same deterministic id from the
  cache with zero simulation and identical bytes.

The subprocess test is the only wall-clock-dependent one; everything
else injects time (``reap(now=...)``) or uses tiny grids.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.analysis.runner import execute_cells_detailed, grid_cell_specs
from repro.service import (
    JobStore,
    ServiceClient,
    ServiceError,
    job_key,
    make_server,
    validate_job_spec,
)
from repro.service.journal import JobJournal, load_jsonl

SPEC = {"designs": ["SNUCA2", "TLC"], "benchmarks": ["gcc", "mcf"],
        "n_refs": 1_500}


def _store(tmp_path, **kwargs):
    kwargs.setdefault("cache", tmp_path / "results")
    kwargs.setdefault("journal", tmp_path / "journal")
    kwargs.setdefault("workers", 2)
    return JobStore(**kwargs)


@pytest.fixture()
def serve_inproc(tmp_path):
    """Factory booting servers over one set of dirs; closes them all."""
    live = []

    def boot(**kwargs):
        store = _store(tmp_path, **kwargs)
        server = make_server(store)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        client = ServiceClient(
            f"http://127.0.0.1:{server.server_address[1]}")
        live.append((server, store))
        return client, store

    try:
        yield boot
    finally:
        for server, store in live:
            server.shutdown()
            server.server_close()
            store.close(timeout_s=60)


class TestJournalRecovery:
    def test_resume_simulates_only_unfinished_cells(self, tmp_path):
        """Deterministic crash replay: journal says 'submitted', cache
        holds 2 of 4 cells -> recovery simulates exactly the other 2."""
        spec = validate_job_spec(SPEC)
        key = job_key(spec)
        cells, _ = grid_cell_specs(
            designs=spec.designs, benchmarks=spec.benchmarks,
            n_refs=spec.n_refs, seed=spec.seed,
            warmup_fraction=spec.warmup_fraction, sanitize=spec.sanitize)
        # Pre-warm half the grid into the shared result cache — the
        # durable footprint of a server that died mid-job.
        execute_cells_detailed(cells[:2], cache=tmp_path / "results")
        with JobJournal(tmp_path / "journal" / "journal.jsonl") as journal:
            journal.record_submit(f"job-{key[:16]}", key, spec.as_dict())

        store = _store(tmp_path)
        try:
            stats = store.recover()
            assert stats["recovered_jobs"] == 1
            assert stats["resumed_jobs"] == 1
            assert stats["replayed_finished_jobs"] == 0
            store.start()
            job = store.get(f"job-{key[:16]}")
            assert job is not None, "recovered under the original id"
            deadline = time.monotonic() + 120
            while job.state not in ("done", "failed"):
                assert time.monotonic() < deadline
                time.sleep(0.05)
            assert job.state == "done"
            assert store.counter["cells_simulated"] == 2
            assert store.counter["cells_from_cache"] == 2
        finally:
            store.close()

    def test_finished_job_replays_byte_identically(self, tmp_path):
        """Life 1 finishes and shuts down cleanly; life 2 recovers the
        job, serves identical bytes, simulates nothing."""
        store = _store(tmp_path)
        store.start()
        job, created = store.submit(validate_job_spec(SPEC))
        assert created
        deadline = time.monotonic() + 120
        while job.state not in ("done", "failed"):
            assert time.monotonic() < deadline
            time.sleep(0.05)
        first_bytes = job.result_bytes
        assert store.shutdown(drain_timeout_s=60) is True

        second = _store(tmp_path)
        try:
            stats = second.recover()
            assert stats["replayed_finished_jobs"] == 1
            assert stats["clean_shutdown"] == 1
            second.start()
            replayed = second.get(job.id)
            deadline = time.monotonic() + 120
            while replayed.state not in ("done", "failed"):
                assert time.monotonic() < deadline
                time.sleep(0.05)
            assert replayed.state == "done"
            assert second.counter["cells_simulated"] == 0
            assert second.counter["cells_from_cache"] == 4
            assert replayed.result_bytes == first_bytes
        finally:
            second.close()

    def test_journal_records_jobs_not_cells(self, tmp_path):
        """The result cache already holds every finished cell, so a
        finished job leaves exactly two journal lines: its submit and
        its finish."""
        store = _store(tmp_path)
        store.start()
        try:
            job, _created = store.submit(validate_job_spec(
                {"designs": ["SNUCA2", "TLC"], "benchmarks": ["gcc"],
                 "n_refs": 1_500}))
            deadline = time.monotonic() + 120
            while job.state not in ("done", "failed"):
                assert time.monotonic() < deadline
                time.sleep(0.05)
            assert job.state == "done"
        finally:
            store.close()
        payloads, bad_lines = load_jsonl(
            tmp_path / "journal" / "journal.jsonl")
        assert bad_lines == 0
        assert [(p["event"], p["job_id"]) for p in payloads] == [
            ("submit", job.id), ("finish", job.id)]

    def test_recover_is_idempotent(self, tmp_path):
        with JobJournal(tmp_path / "journal" / "journal.jsonl") as journal:
            spec = validate_job_spec(SPEC)
            key = job_key(spec)
            journal.record_submit(f"job-{key[:16]}", key, spec.as_dict())
        store = _store(tmp_path, workers=1)
        try:
            assert store.recover()["recovered_jobs"] == 1
            assert store.recover()["recovered_jobs"] == 0  # no double-enqueue
        finally:
            store.close()

    def test_garbage_journal_lines_degrade_not_crash(self, tmp_path):
        path = tmp_path / "journal" / "journal.jsonl"
        spec = validate_job_spec(SPEC)
        key = job_key(spec)
        with JobJournal(path) as journal:
            journal.record_submit(f"job-{key[:16]}", key, spec.as_dict())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{corrupt json\n")
            handle.write(json.dumps({"format": 99, "event": "submit"}) + "\n")
            handle.write(json.dumps(
                {"format": 1, "event": "finish", "job_id": "job-neverseen",
                 "state": "done"}) + "\n")
            handle.write('{"format": 1, "event": "fin')  # torn final write
        store = _store(tmp_path, workers=1)
        try:
            stats = store.recover()
            assert stats["recovered_jobs"] == 1
            assert stats["skipped_lines"] == 4
            assert store.lifecycle["journal_skipped_lines"] == 4
        finally:
            store.close()

    def test_lifecycle_counts_reach_the_job_manifest(self, tmp_path):
        store = _store(tmp_path, workers=2)
        store.start()
        job, _created = store.submit(validate_job_spec(SPEC))
        deadline = time.monotonic() + 120
        while job.state not in ("done", "failed"):
            assert time.monotonic() < deadline
            time.sleep(0.05)
        try:
            assert job.manifest["kind"] == "service.job"
            lifecycle = job.manifest["lifecycle"]
            # Stable zeros: every declared count present, even untouched.
            from repro.service import LIFECYCLE_COUNTS
            assert set(lifecycle) == set(LIFECYCLE_COUNTS)
            metrics = job.manifest["metrics"]
            assert "service.lifecycle.journal_events" in metrics
        finally:
            store.close()


class TestAdmissionControl:
    def test_flood_answers_429_with_retry_after(self, serve_inproc):
        client, store = serve_inproc(max_active_jobs=1, workers=1)
        first = client.submit(SPEC)  # occupies the single active slot
        with pytest.raises(ServiceError) as excinfo:
            client.submit(dict(SPEC, benchmarks=["swim"]))
        assert excinfo.value.status == 429
        assert excinfo.value.code == "over_capacity"
        assert excinfo.value.retry_after_s is not None
        assert store.lifecycle["admission_rejected"] >= 1
        # The raw response carries the actual Retry-After header.
        status, raw, headers = client._request(
            "POST", "/v1/jobs", dict(SPEC, benchmarks=["swim"]))
        assert status == 429
        assert float(headers["Retry-After"]) >= 1
        client.wait(first["id"], timeout_s=120)

    def test_retrying_client_rides_out_the_flood(self, serve_inproc):
        client, store = serve_inproc(max_active_jobs=1, workers=2)
        retrying = ServiceClient(client.base_url, retries=30,
                                 backoff_base_s=0.2, backoff_max_s=1.0)
        first = client.submit(SPEC)
        # Blocked now (slot taken), admitted once the first job drains.
        second = retrying.submit(dict(SPEC, benchmarks=["swim"]))
        assert second["id"] != first["id"]
        assert retrying.wait(second["id"], timeout_s=120)["state"] == "done"
        assert store.lifecycle["admission_rejected"] >= 1

    def test_queue_depth_cap_rejects_oversized_submit(self, tmp_path):
        store = _store(tmp_path, max_queued_cells=2, workers=1,
                       journal=None)
        from repro.service import AdmissionError
        try:
            with pytest.raises(AdmissionError):
                store.submit(validate_job_spec(SPEC))  # 4 cells > cap 2
        finally:
            store.close()


class TestGracefulDrain:
    def test_drain_rejects_submits_finishes_inflight_marks_clean(
            self, serve_inproc, tmp_path):
        client, store = serve_inproc(workers=2)
        submitted = client.submit(SPEC)
        store.begin_drain()
        assert client.healthz()["draining"] is True  # reads keep working
        with pytest.raises(ServiceError) as excinfo:
            client.submit(dict(SPEC, benchmarks=["swim"]))
        assert excinfo.value.status == 503
        assert excinfo.value.code == "draining"
        assert store.lifecycle["drain_rejected"] == 1
        assert store.shutdown(drain_timeout_s=120) is True
        # The in-flight job finished rather than being abandoned.
        assert store.get(submitted["id"]).state == "done"
        assert store.lifecycle["drain_clean"] == 1
        # The journal's final event is the clean marker.
        events = [json.loads(line) for line in
                  (tmp_path / "journal" / "journal.jsonl")
                  .read_text().splitlines()]
        assert events[-1]["event"] == "shutdown"
        assert events[-1]["clean"] is True

    def test_shutdown_is_idempotent(self, tmp_path):
        store = _store(tmp_path, workers=1)
        store.start()
        assert store.shutdown() is True
        assert store.shutdown() is True  # remembered verdict, no re-drain
        assert store.lifecycle["drains"] == 1


class TestTtlEviction:
    def test_expired_job_answers_410_then_resubmit_resurrects(
            self, serve_inproc):
        client, store = serve_inproc(job_ttl_s=3600.0, workers=2)
        submitted = client.submit(SPEC)
        client.wait(submitted["id"], timeout_s=120)
        first_bytes = client.result_bytes(submitted["id"])
        simulated = store.counter["cells_simulated"]

        assert store.reap(now=time.time() + 7200.0) == 1
        assert store.lifecycle["jobs_evicted"] == 1
        with pytest.raises(ServiceError) as excinfo:
            client.status(submitted["id"])
        assert excinfo.value.status == 410
        assert excinfo.value.code == "gone"
        with pytest.raises(ServiceError) as excinfo:
            client.result_bytes(submitted["id"])
        assert excinfo.value.status == 410

        # Resubmission: same deterministic id, zero new simulation,
        # identical bytes — the cache is the real durability layer.
        again = client.submit(SPEC)
        assert again["id"] == submitted["id"]
        assert again["deduplicated"] is False  # a fresh lifecycle
        client.wait(again["id"], timeout_s=120)
        assert client.result_bytes(again["id"]) == first_bytes
        assert store.counter["cells_simulated"] == simulated
        assert store.evicted_at(again["id"]) is None  # tombstone cleared

    def test_unfinished_jobs_are_never_reaped(self, tmp_path):
        store = _store(tmp_path, job_ttl_s=0.001, workers=1, journal=None)
        job, _ = store.submit(validate_job_spec(SPEC))
        try:
            assert store.reap(now=time.time() + 10.0) == 0
            assert store.get(job.id) is not None
        finally:
            store.close()

    def test_eviction_survives_restart_as_tombstone(self, tmp_path):
        store = _store(tmp_path, job_ttl_s=3600.0, workers=2)
        store.start()
        job, _ = store.submit(validate_job_spec(SPEC))
        deadline = time.monotonic() + 120
        while job.state not in ("done", "failed"):
            assert time.monotonic() < deadline
            time.sleep(0.05)
        assert store.reap(now=time.time() + 7200.0) == 1
        store.close()

        second = _store(tmp_path, workers=1)
        try:
            stats = second.recover()
            assert stats["evicted_tombstones"] == 1
            assert stats["recovered_jobs"] == 0
            assert second.evicted_at(job.id) is not None
        finally:
            second.close()


_URL_RE = re.compile(r"repro service on (http://[\d.]+:\d+)")


@pytest.mark.slow
class TestKillNineRestart:
    def _boot(self, tmp_path, extra=()):
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1",
             "--cache-dir", str(tmp_path / "results"),
             "--journal-dir", str(tmp_path / "journal"), *extra],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=dict(os.environ,
                     PYTHONPATH=os.path.join(os.path.dirname(__file__),
                                             os.pardir, "src")),
            cwd=str(tmp_path))
        url = None
        deadline = time.monotonic() + 60
        for line in process.stdout:
            match = _URL_RE.search(line)
            if match:
                url = match.group(1)
                break
            assert time.monotonic() < deadline, "server never announced"
        assert url, f"serve exited: {process.poll()}"
        # Drain remaining output in the background so the pipe never
        # fills and blocks the server.
        threading.Thread(target=process.stdout.read, daemon=True).start()
        return process, url

    def test_kill_nine_midjob_restart_resumes_byte_identically(
            self, tmp_path):
        spec = dict(SPEC, benchmarks=["gcc", "mcf", "swim", "applu"])

        # Control: what the result bytes should be, from a pristine
        # in-process run over separate dirs.
        control = JobStore(cache=tmp_path / "control-results", workers=2)
        control.start()
        control_job, _ = control.submit(validate_job_spec(spec))
        deadline = time.monotonic() + 180
        while control_job.state not in ("done", "failed"):
            assert time.monotonic() < deadline
            time.sleep(0.05)
        assert control_job.state == "done"
        control_bytes = control_job.result_bytes
        control.close()

        process, url = self._boot(tmp_path)
        client = ServiceClient(url)
        try:
            submitted = client.submit(spec)
            job_id = submitted["id"]
            # Let it make partial progress — at least one cell
            # simulated, then SIGKILL mid-job.
            deadline = time.monotonic() + 120
            while True:
                assert time.monotonic() < deadline
                health = client.healthz()
                if health["metrics"]["service.cells_simulated"] >= 1:
                    break
                time.sleep(0.05)
        finally:
            process.kill()  # SIGKILL: no drain, no journal marker
            process.wait(timeout=30)

        process, url = self._boot(tmp_path)
        client = ServiceClient(url)
        try:
            # The job came back under its original id, unprompted.
            status = client.wait(job_id, timeout_s=180)
            assert status["state"] == "done"
            restart_bytes = client.result_bytes(job_id)
            assert restart_bytes == control_bytes
            health = client.healthz()
            resumed = health["metrics"]["service.cells_simulated"]
            # Strictly fewer cells simulated in the second life: the
            # first life's completed cells replayed from the cache.
            assert 0 < resumed < 8
            assert health["metrics"]["service.lifecycle.resumed_jobs"] == 1
        finally:
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == 0  # graceful drain exit

        # After the SIGTERM drain, the journal ends with a clean marker.
        events = [json.loads(line) for line in
                  (tmp_path / "journal" / "journal.jsonl")
                  .read_text().splitlines() if line.strip()]
        assert events[-1] == {**events[-1], "event": "shutdown",
                              "clean": True}
