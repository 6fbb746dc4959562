"""Durable job journal: the service's restart-recovery log.

The :class:`~repro.service.jobs.JobStore` is an in-memory job table;
without help, a ``SIGKILL`` mid-job silently loses every in-flight
submission (only *completed cells* survive, via the result cache).
:class:`JobJournal` closes that gap, and is the repo's only journal: an
append-only JSONL file, one self-contained event per line, flushed at
every write, loaded tolerantly by :func:`load_jsonl` (a half-written
final line — the expected artifact of a crash — is skipped and counted,
never fatal).

Events (``JOB_JOURNAL_FORMAT_VERSION`` lines)::

    {"format": 1, "event": "submit",   "job_id": ..., "key": ..., "spec": {...}}
    {"format": 1, "event": "cell",     "job_id": ..., "index": N,
     "key": <cell cache key>, "state": "done"|"failed", "from_cache": bool}
    {"format": 1, "event": "finish",   "job_id": ..., "state": "done"|"failed",
     "error": ...?}
    {"format": 1, "event": "evict",    "job_id": ...}
    {"format": 1, "event": "shutdown", "clean": bool}

Recovery (:meth:`JobJournal.load` + :meth:`JobStore.recover
<repro.service.jobs.JobStore.recover>`) folds the event stream in
order into the set of known jobs: a ``submit`` (re-)registers a job, an
``evict`` tombstones it, a later ``submit`` of the same id resurrects
it.  The journal deliberately stores no result bytes — a cell's result
lives in the content-addressed result cache under the cell key the
``cell`` event names, so replaying a job simply re-enqueues its cells:
completed cells answer from the cache (zero simulation), unfinished
cells run for the first time, and the re-rendered result document is
byte-identical because rendering is a pure function of the cells.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time as _time
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple, Union

#: Journal line layout version (bump on incompatible change).
JOB_JOURNAL_FORMAT_VERSION = 1

#: The event vocabulary, in lifecycle order.
JOB_JOURNAL_EVENTS = ("submit", "cell", "finish", "evict", "shutdown")


def load_jsonl(path: Union[str, os.PathLike]) -> Tuple[List[object], int]:
    """Tolerantly parse a JSONL file into ``(payloads, bad_lines)``.

    A missing file is an empty journal, blank lines are ignored, and a
    line that fails to parse — the expected artifact of a process
    killed mid-write — is counted, not fatal.  Callers apply their own
    per-payload validation on top.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except FileNotFoundError:
        return [], 0
    payloads: List[object] = []
    bad_lines = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            payloads.append(json.loads(line))
        except ValueError:
            bad_lines += 1
    return payloads, bad_lines


@dataclasses.dataclass
class JournaledJob:
    """One job's folded journal state (mutable while folding)."""

    job_id: str
    key: str
    spec: Dict[str, Any]
    state: str = "queued"  # last journaled state: queued | done | failed
    error: Optional[str] = None
    cells_done: int = 0


@dataclasses.dataclass
class JournalState:
    """The folded contents of one journal file.

    ``jobs`` holds every non-evicted job in first-submission order
    (newest ``finish`` state wins); ``evicted`` holds tombstoned job
    ids whose status must answer 410 ``gone`` after a restart;
    ``clean_shutdown`` reports whether the last lifecycle event was a
    clean ``shutdown`` marker — a crashed server never wrote one.
    """

    jobs: Dict[str, JournaledJob] = dataclasses.field(default_factory=dict)
    evicted: Set[str] = dataclasses.field(default_factory=set)
    clean_shutdown: bool = False
    events: int = 0
    skipped_lines: int = 0


class JobJournal:
    """Append-only JSONL journal of job lifecycle transitions.

    Writes are serialized by an internal lock (the store appends from
    several worker threads), opened lazily, and flushed per line so a
    ``kill -9`` loses at most the line being written.
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = Path(path).expanduser()
        self._handle = None
        self._lock = threading.Lock()
        self.recorded = 0

    # -- writing -----------------------------------------------------------
    def _append(self, payload: Dict[str, Any]) -> None:
        line = json.dumps(dict(payload, format=JOB_JOURNAL_FORMAT_VERSION,
                               t=round(_time.time(), 3)),
                          separators=(",", ":"))
        with self._lock:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line + "\n")
            self._handle.flush()
            self.recorded += 1

    def record_submit(self, job_id: str, key: str,
                      spec: Dict[str, Any]) -> None:
        self._append({"event": "submit", "job_id": job_id, "key": key,
                      "spec": spec})

    def record_cell(self, job_id: str, index: int, key: str, state: str,
                    from_cache: Optional[bool]) -> None:
        self._append({"event": "cell", "job_id": job_id, "index": index,
                      "key": key, "state": state, "from_cache": from_cache})

    def record_finish(self, job_id: str, state: str,
                      error: Optional[str] = None) -> None:
        payload: Dict[str, Any] = {"event": "finish", "job_id": job_id,
                                   "state": state}
        if error is not None:
            payload["error"] = error
        self._append(payload)

    def record_evict(self, job_id: str) -> None:
        self._append({"event": "evict", "job_id": job_id})

    def record_shutdown(self, clean: bool) -> None:
        self._append({"event": "shutdown", "clean": clean})

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- loading -----------------------------------------------------------
    def load(self) -> JournalState:
        """Fold the journal's event stream into a :class:`JournalState`.

        Tolerant by design: a corrupt or truncated line, an unknown
        event, or an event for a never-submitted job is counted in
        ``skipped_lines`` and ignored — recovery must degrade, never
        refuse.  Events are folded strictly in file order, so an
        ``evict`` followed by a re-``submit`` of the same id (the
        TTL-eviction-then-resubmit path) correctly resurrects the job.
        """
        state = JournalState()
        payloads, bad_lines = load_jsonl(self.path)
        state.skipped_lines = bad_lines
        for payload in payloads:
            if (not isinstance(payload, dict)
                    or payload.get("format") != JOB_JOURNAL_FORMAT_VERSION
                    or payload.get("event") not in JOB_JOURNAL_EVENTS):
                state.skipped_lines += 1
                continue
            state.events += 1
            event = payload["event"]
            if event == "shutdown":
                # Only a *final* clean marker counts: any later event
                # means the process came back and died uncleanly after.
                state.clean_shutdown = bool(payload.get("clean"))
                continue
            state.clean_shutdown = False
            if event == "submit":
                job_id, key, spec = (payload.get("job_id"),
                                     payload.get("key"), payload.get("spec"))
                if (not isinstance(job_id, str) or not isinstance(key, str)
                        or not isinstance(spec, dict)):
                    state.events -= 1
                    state.skipped_lines += 1
                    continue
                state.evicted.discard(job_id)
                # A re-submit after eviction starts a fresh lifecycle.
                state.jobs[job_id] = JournaledJob(job_id=job_id, key=key,
                                                 spec=spec)
                continue
            job_id = payload.get("job_id")
            job = state.jobs.get(job_id)
            if job is None:
                state.events -= 1
                state.skipped_lines += 1
                continue
            if event == "cell":
                if payload.get("state") == "done":
                    job.cells_done += 1
            elif event == "finish":
                if payload.get("state") in ("done", "failed"):
                    job.state = payload["state"]
                    job.error = payload.get("error")
            elif event == "evict":
                state.jobs.pop(job_id, None)
                state.evicted.add(job_id)
        return state


def as_job_journal(journal: Union["JobJournal", str, os.PathLike, None],
                   ) -> Optional[JobJournal]:
    """Coerce a journal argument (path, dir, or journal) to a journal.

    A directory (existing, or a path with no ``.jsonl`` suffix) means
    "the canonical ``journal.jsonl`` inside it" — the ``repro serve
    --journal-dir`` spelling.
    """
    if journal is None or isinstance(journal, JobJournal):
        return journal
    path = Path(journal).expanduser()
    if path.is_dir() or path.suffix != ".jsonl":
        path = path / "journal.jsonl"
    return JobJournal(path)


def describe_recovery(stats: Dict[str, int]) -> str:
    """One human line for the CLI after a journal replay."""
    return (f"journal: recovered {stats.get('recovered_jobs', 0)} job(s) — "
            f"{stats.get('resumed_jobs', 0)} resumed, "
            f"{stats.get('replayed_finished_jobs', 0)} already finished, "
            f"{stats.get('evicted_tombstones', 0)} evicted tombstone(s), "
            f"{stats.get('skipped_lines', 0)} skipped line(s)")


__all__ = [
    "JOB_JOURNAL_EVENTS",
    "JOB_JOURNAL_FORMAT_VERSION",
    "JobJournal",
    "JournalState",
    "JournaledJob",
    "as_job_journal",
    "describe_recovery",
]
