"""Job model and worker pool behind the simulation service.

A *job* is one validated design x benchmark grid
(:class:`~repro.service.schema.JobSpec`).  The :class:`JobStore` owns
every job the service has seen and a pool of worker threads that shard
each job's cells across the existing execution stack:

* every cell runs through
  :func:`repro.analysis.runner.execute_cells_detailed` against one
  shared content-addressed :class:`~repro.analysis.runner.ResultCache`,
  so a cell finished by any job is a cache hit for every later one.
  Two jobs that reach the same uncached cell at the same time both
  simulate it (the cache is not a lock); they store identical entries;
* every computed cell runs in its own child process, like every other
  grid cell; a :class:`~repro.analysis.resilience.RetryPolicy` (from
  ``repro serve --retries/--cell-timeout``) sets how often a failed
  cell is retried and each attempt's deadline, not where it runs;
* identical submissions dedupe **before** any work happens: the job key
  is a digest of the grid's cell result-cache keys (each of which
  already embeds every simulation input plus the code-version stamp),
  so a repeat ``POST`` maps onto the existing job and its frozen result
  bytes.  Submissions that are new to this process but whose cells are
  already in the result cache complete with zero cells simulated — the
  second dedupe layer, which survives server restarts.

The store is also the service's *lifecycle-durability* layer:

* with ``journal=DIR`` (``repro serve --journal-dir``) the store keeps
  one :class:`~repro.analysis.storage.ContentStore` entry per job under
  ``DIR``, keyed by its job key: ``{"spec": ..., "state":
  "submitted"}`` at submit, overwritten with ``"evicted"`` at TTL
  eviction.  Nothing is written when a job finishes: the result cache
  holds every finished cell and is the authority on what finished, so
  :meth:`JobStore.recover` on a restarted server resubmits every
  submitted job under its original deterministic ``job-<key16>`` id
  (cached cells answer from the cache; a job whose cells are all cached
  replays byte-identically with zero cells simulated);
* admission control bounds what one store accepts — at most
  ``max_active_jobs`` unfinished jobs and ``max_queued_cells`` queued
  cells; over-capacity submits raise :class:`AdmissionError` (HTTP 429
  with ``Retry-After``), submits during a drain raise
  :class:`DrainingError` (HTTP 503);
* a TTL reaper (``job_ttl_s``) evicts terminal jobs' status documents
  after expiry — result *bytes* stay reachable through the cache-backed
  dedupe path (resubmit the spec: zero cells simulate), while evicted
  ids answer 410 ``gone`` via a tombstone;
* :meth:`JobStore.shutdown` drains gracefully: admission stops, in-
  flight cells finish (or the drain times out), and
  :meth:`JobStore.close` joins the workers — idempotently, counting
  any worker that fails to join in the ``service.close.stragglers``
  metric.

Progress and health are observable: the store's ``service.*`` counter,
the lifecycle layer's ``service.lifecycle.*`` counter, and a store-wide
:class:`~repro.analysis.resilience.RunnerTelemetry`
(``runner.*``) mount on one :class:`~repro.obs.registry.MetricsRegistry`,
and every finished job embeds a :class:`~repro.obs.manifest.RunManifest` whose
``lifecycle`` field snapshots the durability counters.
"""

from __future__ import annotations

import hashlib
import json
import queue
import threading
import time as _time
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.experiments import ExperimentGrid
from repro.analysis.runner import (
    CellSpec,
    as_cache,
    cache_key,
    execute_cells_detailed,
    grid_cell_specs,
)
from repro.analysis.storage import JSON_CODEC, Codec, ContentStore
from repro.obs.manifest import build_manifest, manifest_to_dict
from repro.obs.registry import MetricsRegistry
from repro.service.schema import (
    DEFAULT_MAX_ACTIVE_JOBS,
    DEFAULT_MAX_QUEUED_CELLS,
    DEFAULT_RETRY_AFTER_S,
    SERVICE_SCHEMA_VERSION,
    JobSpec,
)
from repro.sim.stats import Counter

#: Lifecycle of a job.  queued -> running -> done | failed (terminal
#: states are then eligible for TTL eviction — see docs/SERVICE.md).
JOB_STATES = ("queued", "running", "done", "failed")

#: The ``service.*`` counts the store maintains.  ``close.stragglers``
#: counts worker threads that failed to join within the close timeout —
#: abandoned loudly, never silently.
SERVICE_COUNTS = (
    "jobs_submitted", "jobs_deduplicated", "jobs_completed", "jobs_failed",
    "cells_simulated", "cells_from_cache", "cells_failed",
    "requests", "errors", "close.stragglers",
)

#: The ``service.lifecycle.*`` counts: every durability-layer state
#: transition, with stable zeros so manifest diffs stay meaningful.
LIFECYCLE_COUNTS = (
    "journal_entries", "journal_quarantined",
    "recovered_jobs", "resumed_jobs", "replayed_finished_jobs",
    "invalid_recovered_jobs", "evicted_tombstones",
    "admission_rejected", "drain_rejected", "jobs_evicted",
    "drains", "drain_clean", "drain_timeouts",
)

#: Job-entry layout version (bump on incompatible change).
JOB_ENTRY_FORMAT_VERSION = 1


def _job_entry(payload: Any) -> Dict[str, Any]:
    """Validate one job entry: ``{"spec": {...}, "state": ...}``."""
    if (not isinstance(payload, dict) or set(payload) != {"spec", "state"}
            or not isinstance(payload["spec"], dict)
            or payload["state"] not in ("submitted", "evicted")):
        raise ValueError('a job entry is {"spec": {...}, "state": '
                         '"submitted"|"evicted"}')
    return payload


#: The journal's codec: entries are JSON already, and decoding rejects
#: anything but a job entry (so it is quarantined).
JOB_ENTRY_CODEC = Codec(JSON_CODEC.encode, _job_entry)


class AdmissionError(RuntimeError):
    """A submit the store refused to admit (HTTP 429 over_capacity).

    Carries ``retry_after_s`` — the server surfaces it as a
    ``Retry-After`` header and :class:`~repro.service.client.ServiceClient`
    honors it in its retry backoff.
    """

    def __init__(self, message: str,
                 retry_after_s: float = DEFAULT_RETRY_AFTER_S) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class DrainingError(AdmissionError):
    """A submit rejected because the store is draining (HTTP 503)."""


def _grid_cells(spec: JobSpec) -> Tuple[List[CellSpec], Tuple[str, ...]]:
    """The cells of ``spec``'s grid and its resolved benchmark names."""
    return grid_cell_specs(
        designs=spec.designs, benchmarks=spec.benchmarks, n_refs=spec.n_refs,
        seed=spec.seed, warmup_fraction=spec.warmup_fraction,
        sanitize=spec.sanitize)


def job_key(spec: JobSpec) -> str:
    """Content key of one job: a digest over its cells' result-cache keys.

    Each cell key already embeds every simulation input plus the
    code-version stamp, so two submissions share a job key iff they
    would simulate the identical grid with the identical code —
    the dedupe contract.  Designs/benchmarks are included in request
    order because the result document's tables are ordered.
    """
    cells, benchmarks = _grid_cells(spec)
    payload = {
        "schema": SERVICE_SCHEMA_VERSION,
        "designs": list(spec.designs),
        "benchmarks": list(benchmarks),
        "cells": sorted(cache_key(cell) for cell in cells),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def describe_recovery(stats: Dict[str, int]) -> str:
    """One human line for the CLI after :meth:`JobStore.recover`."""
    return (f"journal: recovered {stats.get('recovered_jobs', 0)} job(s) — "
            f"{stats.get('resumed_jobs', 0)} resumed, "
            f"{stats.get('replayed_finished_jobs', 0)} already finished, "
            f"{stats.get('evicted_tombstones', 0)} evicted tombstone(s), "
            f"{stats.get('invalid_jobs', 0)} invalid, "
            f"{stats.get('quarantined_entries', 0)} quarantined")


class Job:
    """One submitted grid job and its live progress.

    Mutable fields are guarded by the owning store's lock; the result
    document is rendered exactly once (at completion) and frozen as
    canonical JSON bytes, so every subsequent — and every deduplicated —
    read returns the identical bytes.
    """

    def __init__(self, job_id: str, spec: JobSpec,
                 cells: List[CellSpec], key: Optional[str] = None) -> None:
        self.id = job_id
        self.spec = spec
        self.key = key
        self.cells = cells
        self.state = "queued"
        self.error: Optional[str] = None
        self.created_s = _time.time()
        self.finished_s: Optional[float] = None
        self._started = _time.perf_counter()
        self.wall_time_s: Optional[float] = None
        self.cell_status: List[Dict[str, Any]] = [
            {"design": cell.design, "benchmark": cell.benchmark,
             "state": "pending", "from_cache": None, "wall_time_s": None,
             "attempts": 0}
            for cell in cells
        ]
        self.outcomes: List[Optional[Any]] = [None] * len(cells)
        self.result_bytes: Optional[bytes] = None
        self.manifest: Optional[dict] = None

    # -- derived views (call under the store lock) -------------------------
    def progress(self) -> Dict[str, int]:
        counts = {"total": len(self.cells), "pending": 0, "running": 0,
                  "done": 0, "failed": 0, "simulated": 0, "from_cache": 0}
        for status in self.cell_status:
            counts[status["state"]] += 1
            if status["state"] == "done":
                counts["from_cache" if status["from_cache"]
                       else "simulated"] += 1
        return counts

    def as_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "spec": self.spec.as_dict(),
            "created_unix_s": round(self.created_s, 3),
            "cells": self.progress(),
            "cell_status": [dict(status) for status in self.cell_status],
        }
        if self.error is not None:
            doc["error"] = self.error
        if self.wall_time_s is not None:
            doc["wall_time_s"] = round(self.wall_time_s, 4)
        if self.manifest is not None:
            doc["manifest"] = self.manifest
        if self.state == "done":
            doc["result"] = f"/v1/jobs/{self.id}/result"
        return doc


class JobStore:
    """Owns jobs, the worker pool, and the result cache.

    ``workers`` threads drain one shared cell queue, so a large job's
    cells interleave with a small job's (no head-of-line blocking) and
    cells of one job run concurrently.  Each thread runs its computed
    cell in a child process, so ``workers`` cells simulate in parallel
    on separate CPUs.  ``policy`` sets retries and the per-attempt
    deadline (default: one attempt, no deadline).  ``journal`` is the
    directory of the per-job entries :meth:`recover` reads (default:
    none, so jobs do not outlive the process).
    """

    def __init__(self, cache=None, workers: int = 2,
                 policy=None,
                 registry: Optional[MetricsRegistry] = None,
                 journal=None,
                 max_active_jobs: Optional[int] = DEFAULT_MAX_ACTIVE_JOBS,
                 max_queued_cells: Optional[int] = DEFAULT_MAX_QUEUED_CELLS,
                 job_ttl_s: Optional[float] = None,
                 reap_interval_s: float = 1.0,
                 retry_after_s: float = DEFAULT_RETRY_AFTER_S) -> None:
        from repro.analysis.resilience import RunnerTelemetry

        self.cache = as_cache(cache)
        self.policy = policy
        self.workers = max(1, int(workers))
        self.journal = (None if journal is None else ContentStore(
            journal, JOB_ENTRY_FORMAT_VERSION, JOB_ENTRY_CODEC))
        self.max_active_jobs = max_active_jobs or None
        self.max_queued_cells = max_queued_cells or None
        self.job_ttl_s = job_ttl_s
        self.reap_interval_s = reap_interval_s
        self.retry_after_s = retry_after_s
        self.telemetry = RunnerTelemetry()
        self.counter = Counter()
        for name in SERVICE_COUNTS:
            self.counter.add(name, 0)
        self.lifecycle = Counter()
        for name in LIFECYCLE_COUNTS:
            self.lifecycle.add(name, 0)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.registry.register("service", self.counter)
        self.registry.register("service.lifecycle", self.lifecycle)
        self.telemetry.register(self.registry)

        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._by_key: Dict[str, str] = {}
        self._evicted: Dict[str, float] = {}
        self._queue: "queue.Queue[Optional[Tuple[Job, int]]]" = queue.Queue()
        self._threads: List[threading.Thread] = []
        self._reaper: Optional[threading.Thread] = None
        self._reap_stop = threading.Event()
        self._started = False
        self._closed = False
        self._draining = False
        self._recovered = False
        self._shutdown_clean: Optional[bool] = None
        #: Stats of the (single) recovery this store performed — what
        #: ``repro serve`` prints via :func:`describe_recovery`.
        self.recovery_stats: Dict[str, int] = {}

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker pool and TTL reaper (idempotent)."""
        with self._lock:
            if self._started:
                return
            self._started = True
            self._closed = False
        for index in range(self.workers):
            thread = threading.Thread(target=self._worker_loop,
                                      name=f"repro-service-worker-{index}",
                                      daemon=True)
            thread.start()
            self._threads.append(thread)
        if self.job_ttl_s is not None and self._reaper is None:
            self._reap_stop.clear()
            self._reaper = threading.Thread(target=self._reaper_loop,
                                            name="repro-service-reaper",
                                            daemon=True)
            self._reaper.start()

    def close(self, timeout_s: float = 30.0) -> int:
        """Stop accepting work and join the workers; returns stragglers.

        Idempotent: the first call stops the pool, every later call is
        a no-op returning 0.  A worker that fails to join within
        ``timeout_s`` (it is mid-cell on something long) is *counted*
        in the ``service.close.stragglers`` metric rather than silently
        abandoned — the daemon thread finishes its cell and exits on
        the sentinel it still holds.
        """
        with self._lock:
            if self._closed:
                return 0
            self._closed = True
            self._started = False
            threads, self._threads = self._threads, []
        self._reap_stop.set()
        for _ in threads:
            self._queue.put(None)
        stragglers = 0
        for thread in threads:
            thread.join(timeout=timeout_s)
            if thread.is_alive():
                stragglers += 1
        if stragglers:
            self.counter.add("close.stragglers", stragglers)
        reaper, self._reaper = self._reaper, None
        if reaper is not None:
            reaper.join(timeout=5.0)
        return stragglers

    # -- graceful drain ----------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Stop admitting new jobs (idempotent); reads keep working."""
        with self._lock:
            if self._draining:
                return
            self._draining = True
        self.lifecycle.add("drains")

    def await_drain(self, timeout_s: float = 30.0,
                    poll_s: float = 0.05) -> bool:
        """Block until no job is queued/running; False on timeout."""
        deadline = _time.monotonic() + max(0.0, timeout_s)
        while True:
            with self._lock:
                active = any(job.state in ("queued", "running")
                             for job in self._jobs.values())
            if not active:
                return True
            remaining = deadline - _time.monotonic()
            if remaining <= 0:
                return False
            _time.sleep(min(poll_s, remaining))

    def shutdown(self, drain_timeout_s: float = 30.0) -> bool:
        """Graceful drain: stop admission, finish in-flight cells,
        close the pool.

        Returns True when the drain completed cleanly (no in-flight
        work abandoned).  Idempotent: later calls return the first
        call's verdict.  On timeout unfinished jobs resume on the next
        ``recover()`` — partial cell progress is already durable in the
        result cache.
        """
        with self._lock:
            if self._shutdown_clean is not None:
                return self._shutdown_clean
        self.begin_drain()
        clean = self.await_drain(drain_timeout_s)
        with self._lock:
            if self._shutdown_clean is not None:
                return self._shutdown_clean
            self._shutdown_clean = clean
        self.lifecycle.add("drain_clean" if clean else "drain_timeouts")
        self.close(timeout_s=30.0 if clean else 1.0)
        return clean

    # -- submission --------------------------------------------------------
    def submit(self, spec: JobSpec, _replay: bool = False,
               ) -> Tuple[Job, bool]:
        """Register (or dedupe) one job; returns ``(job, created)``.

        ``created=False`` means an identical grid was already submitted
        to this store — the caller gets the existing job, whatever its
        state, and zero new work is enqueued.  Deduplicated submits
        bypass admission control (they enqueue nothing); new work is
        subject to it and raises :class:`DrainingError` during a drain
        or :class:`AdmissionError` over capacity.  ``_replay=True`` is
        the recovery path: admission is waived (the work was admitted
        in a previous life) and the job's entry is not rewritten.
        """
        key = job_key(spec)
        with self._lock:
            existing = self._by_key.get(key)
            if existing is not None:
                self.counter.add("jobs_deduplicated")
                return self._jobs[existing], False
            cells, benchmarks = _grid_cells(spec)
            if not _replay:
                self._admit(len(cells))
            spec = JobSpec(designs=spec.designs, benchmarks=benchmarks,
                           n_refs=spec.n_refs, seed=spec.seed,
                           warmup_fraction=spec.warmup_fraction,
                           sanitize=spec.sanitize)
            job = Job(f"job-{key[:16]}", spec, cells, key=key)
            self._jobs[job.id] = job
            self._by_key[key] = job.id
            # A resubmission of an evicted grid starts a fresh
            # lifecycle under the same deterministic id.
            self._evicted.pop(job.id, None)
            self.counter.add("jobs_submitted")
            if self.journal is not None and not _replay:
                self._write_entry(job, "submitted")
        self.start()
        for index in range(len(cells)):
            self._queue.put((job, index))
        return job, True

    def _admit(self, new_cells: int) -> None:
        """Admission control for one new job (call under the lock)."""
        if self._draining:
            self.lifecycle.add("drain_rejected")
            raise DrainingError(
                "the service is draining for shutdown and accepts no new "
                "jobs; retry against a fresh instance",
                retry_after_s=self.retry_after_s)
        if self.max_active_jobs is not None:
            active = sum(1 for job in self._jobs.values()
                         if job.state in ("queued", "running"))
            if active >= self.max_active_jobs:
                self.lifecycle.add("admission_rejected")
                raise AdmissionError(
                    f"{active} job(s) already active (cap "
                    f"{self.max_active_jobs}); retry after backoff",
                    retry_after_s=self.retry_after_s)
        if self.max_queued_cells is not None:
            queued = self._queue.qsize()
            if queued + new_cells > self.max_queued_cells:
                self.lifecycle.add("admission_rejected")
                raise AdmissionError(
                    f"{queued} cell(s) queued + {new_cells} submitted "
                    f"exceeds the queue cap ({self.max_queued_cells}); "
                    f"retry after backoff",
                    retry_after_s=self.retry_after_s)

    # -- restart recovery --------------------------------------------------
    def recover(self) -> Dict[str, int]:
        """Resubmit the journal's jobs into this (fresh) store.

        Every ``submitted`` entry is re-validated and resubmitted under
        its deterministic id; cached cells answer from the result cache,
        so only unfinished work simulates.  An entry whose key is no
        longer its job's key moves to the job's key.  A job counts
        as already finished when every one of its cells is in the
        cache (without a cache, as resumed).  ``evicted`` entries
        become tombstones again; corrupt entries are quarantined.
        Idempotent per store; a no-op without a journal.  Returns the
        recovery stats (:func:`describe_recovery` renders them).
        """
        stats = {"recovered_jobs": 0, "resumed_jobs": 0,
                 "replayed_finished_jobs": 0, "invalid_jobs": 0,
                 "evicted_tombstones": 0, "quarantined_entries": 0}
        if self.journal is None:
            return stats
        with self._lock:
            if self._recovered:
                return stats
            self._recovered = True
        from repro.core.config import ConfigError
        from repro.service.schema import validate_job_spec

        keys = self.journal.keys()
        for key in keys:
            entry = self.journal.get(key)
            if entry is None:
                continue  # corrupt: quarantined
            if entry["state"] == "evicted":
                with self._lock:
                    self._evicted[f"job-{key[:16]}"] = _time.time()
                stats["evicted_tombstones"] += 1
                continue
            try:
                # Re-validate through the front door: an entry from an
                # older code version may name designs or bounds that no
                # longer exist, and recovery must degrade, not crash.
                spec = validate_job_spec(entry["spec"])
            except ConfigError:
                stats["invalid_jobs"] += 1
                continue
            # Ask the cache before submitting: the workers may start
            # filling it as soon as the job is enqueued.
            finished = self.cache is not None and all(
                self.cache.path_for(cache_key(cell)).is_file()
                for cell in _grid_cells(spec)[0])
            job, created = self.submit(spec, _replay=True)
            if job.key != key:
                # Written by older code (job keys embed the code-version
                # stamp): move the entry to the job's key, so eviction
                # overwrites the job's one entry and nothing under the
                # old key resubmits it after a restart.
                if created:
                    with self._lock:
                        self._write_entry(job, "submitted")
                self.journal.discard(key)
            if not created:
                continue  # a second entry for an already recovered job
            stats["recovered_jobs"] += 1
            stats["replayed_finished_jobs" if finished
                  else "resumed_jobs"] += 1
        stats["quarantined_entries"] = self.journal.quarantined
        self.lifecycle.add("journal_entries", len(keys))
        self.lifecycle.add("journal_quarantined",
                           stats["quarantined_entries"])
        self.lifecycle.add("invalid_recovered_jobs", stats["invalid_jobs"])
        for name in ("recovered_jobs", "resumed_jobs",
                     "replayed_finished_jobs", "evicted_tombstones"):
            self.lifecycle.add(name, stats[name])
        self.recovery_stats = stats
        return stats

    # -- TTL eviction ------------------------------------------------------
    def _reaper_loop(self) -> None:
        while not self._reap_stop.wait(self.reap_interval_s):
            try:
                self.reap()
            except Exception:  # noqa: BLE001 — the reaper must survive
                pass

    def reap(self, now: Optional[float] = None) -> int:
        """Evict terminal jobs older than ``job_ttl_s``; returns count.

        Eviction frees the job table entry and its frozen result bytes;
        the id answers 410 ``gone`` through a tombstone, and the result
        itself remains reachable by resubmitting the spec (same
        deterministic id, every cell a cache hit).  ``now`` is
        injectable for deterministic tests.
        """
        if self.job_ttl_s is None:
            return 0
        now = _time.time() if now is None else now
        evicted: List[Job] = []
        with self._lock:
            for job in list(self._jobs.values()):
                if (job.state in ("done", "failed")
                        and job.finished_s is not None
                        and now - job.finished_s >= self.job_ttl_s):
                    del self._jobs[job.id]
                    if job.key is not None:
                        self._by_key.pop(job.key, None)
                    self._evicted[job.id] = now
                    evicted.append(job)
            for job in evicted:
                self.lifecycle.add("jobs_evicted")
                if self.journal is not None:
                    self._write_entry(job, "evicted")
        return len(evicted)

    def _write_entry(self, job: Job, state: str) -> None:
        """Overwrite ``job``'s one journal entry (call under the lock)."""
        self.journal.put(job.key, {"spec": job.spec.as_dict(),
                                   "state": state}, job_id=job.id)

    def evicted_at(self, job_id: str) -> Optional[float]:
        """When ``job_id`` was TTL-evicted, or ``None`` if it wasn't."""
        with self._lock:
            return self._evicted.get(job_id)

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs_by_state(self) -> Dict[str, int]:
        with self._lock:
            counts = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                counts[job.state] += 1
            counts["evicted"] = len(self._evicted)
            return counts

    # -- execution ---------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            unit = self._queue.get()
            if unit is None:
                return
            job, index = unit
            try:
                self._run_cell(job, index)
            finally:
                self._queue.task_done()

    def _run_cell(self, job: Job, index: int) -> None:
        cell = job.cells[index]
        with self._lock:
            if job.state == "queued":
                job.state = "running"
            job.cell_status[index]["state"] = "running"
        try:
            (outcome,) = execute_cells_detailed(
                [cell], workers=1, cache=self.cache, policy=self.policy,
                telemetry=self.telemetry)
        except Exception as error:  # noqa: BLE001 — any failure fails the cell
            with self._lock:
                job.cell_status[index].update(
                    state="failed", attempts=getattr(error, "attempts", 1))
                job.error = (f"cell ({cell.design}, {cell.benchmark}): "
                             f"{error}")
                self.counter.add("cells_failed")
                self._maybe_finish(job)
            return
        with self._lock:
            job.outcomes[index] = outcome
            job.cell_status[index].update(
                state="done", from_cache=outcome.from_cache,
                wall_time_s=round(outcome.wall_time_s, 4),
                attempts=outcome.attempts)
            self.counter.add("cells_from_cache" if outcome.from_cache
                             else "cells_simulated")
            self._maybe_finish(job)

    def _maybe_finish(self, job: Job) -> None:
        """Finalize ``job`` once no cell is pending (call under lock)."""
        if any(status["state"] in ("pending", "running")
               for status in job.cell_status):
            return
        job.wall_time_s = _time.perf_counter() - job._started
        job.finished_s = _time.time()
        if any(status["state"] == "failed" for status in job.cell_status):
            job.state = "failed"
            self.counter.add("jobs_failed")
        else:
            try:
                job.result_bytes = self._render_result(job)
                job.state = "done"
                self.counter.add("jobs_completed")
            except Exception as error:  # pragma: no cover — render bug guard
                job.state = "failed"
                job.error = f"result rendering failed: {error}"
                self.counter.add("jobs_failed")
        job.manifest = self._job_manifest(job)

    # -- result rendering --------------------------------------------------
    def _grid_for(self, job: Job) -> ExperimentGrid:
        results = {(cell.design, cell.benchmark): outcome.result
                   for cell, outcome in zip(job.cells, job.outcomes)}
        return ExperimentGrid(job.spec.designs, job.spec.benchmarks, results)

    def _render_result(self, job: Job) -> bytes:
        """The frozen, deterministic result document for a finished job.

        Everything here is a pure function of the job's cells (floats
        round-trip JSON exactly), so identical grids — whether deduped
        in-process or resubmitted to a restarted server over one result
        cache — produce byte-identical documents.  Execution provenance
        (wall times, cache hits) deliberately lives in the *status*
        document, not here.
        """
        from repro.analysis.tables import normalized_time_artifact

        grid = self._grid_for(job)
        cells: Dict[str, Dict[str, Any]] = {}
        for design in grid.designs:
            for benchmark in grid.benchmarks:
                result = grid.result(design, benchmark)
                cells.setdefault(design, {})[benchmark] = {
                    "cycles": result.cycles,
                    "instructions": result.instructions,
                    "ipc": result.ipc,
                    "l2_requests": result.l2_requests,
                    "l2_hits": result.l2_hits,
                    "l2_misses": result.l2_misses,
                    "l2_miss_ratio": result.miss_ratio,
                    "misses_per_kinstr": result.misses_per_kinstr,
                    "mean_lookup_latency": result.mean_lookup_latency,
                    "predictable_lookup_fraction":
                        result.predictable_lookup_fraction,
                    "banks_accessed_per_request":
                        result.banks_accessed_per_request,
                    "link_utilization": result.link_utilization,
                    "network_power_w": result.network_power_w,
                }
        document = {
            "schema": SERVICE_SCHEMA_VERSION,
            "job_id": job.id,
            "spec": job.spec.as_dict(),
            "designs": list(grid.designs),
            "benchmarks": list(grid.benchmarks),
            "cells": cells,
            "normalized_time": normalized_time_artifact(grid),
        }
        return json.dumps(document, sort_keys=True,
                          separators=(",", ":")).encode()

    def lifecycle_as_dict(self) -> Dict[str, int]:
        """The ``service.lifecycle.*`` counts, JSON-ready, stable zeros."""
        return {name: self.lifecycle[name] for name in LIFECYCLE_COUNTS}

    def _job_manifest(self, job: Job) -> dict:
        """A RunManifest dict embedded in the finished job's status."""
        manifest = build_manifest(
            kind="service.job",
            config=dict(job.spec.as_dict(), job_id=job.id),
            metrics=self.registry.snapshot(),
            wall_time_s=job.wall_time_s or 0.0,
            seed=job.spec.seed,
            resilience=self.telemetry.as_dict(),
            lifecycle=self.lifecycle_as_dict(),
        )
        return manifest_to_dict(manifest)
