"""The grid's cell scheduler: one child process per cell, with retries,
timeouts, crash recovery and deterministic fault injection.

The paper's evaluation grids (Figs. 5-8, Tables 6-9) are the repo's hot
path, and at scale a grid dies for boring reasons: one cell hangs, one
worker process is OOM-killed, one cache file is truncated by a full
disk, one Ctrl-C stops a long run.  The last needs no machinery: the
runner caches every cell as it finishes, so rerunning against the same
result cache resumes.  For the rest, :func:`run_misses` — the executor
behind :func:`repro.analysis.runner.execute_cells_detailed` for serial
and parallel grids alike — runs each cache miss the way a job system
would:

* **one child process per attempt** — each attempt runs in its own
  child process, at most ``workers`` at a time, and returns its result
  over a pipe, so a dying worker takes down exactly one attempt of one
  cell.  The parent observes the pipe's EOF, counts a
  ``worker_death``, and reschedules.
* :class:`RetryPolicy` — per-cell wall-clock timeouts plus configurable
  retries with exponential backoff.  A timed-out or crashed cell is
  *rescheduled*, not lost; a cell that exhausts its attempts raises
  :class:`CellFailure` (loudly — a silently missing design point would
  corrupt every downstream figure).  The default policy makes one
  attempt with no deadline.
* :class:`FaultPlan` — deterministic fault injection for tests and
  smoke runs: force a specific cell to ``raise``, ``hang``, or ``die``
  on its Nth attempt, either programmatically or via the
  ``REPRO_FAULT_PLAN`` environment variable (inline JSON or a path to
  a JSON file).
* :class:`RunnerTelemetry` — cells / cache hits / attempts / retries /
  timeouts / worker deaths / quarantined cache entries as a
  :class:`~repro.sim.stats.Counter`, registrable on a
  :class:`~repro.obs.registry.MetricsRegistry` (under ``runner.*``)
  and embedded in run manifests via the ``resilience`` field.

The policy, the plan and the telemetry change retries, deadlines,
injected faults and counting — never which code runs a cell.
Execution stays deterministic: a cell's result is a pure function of
its :class:`~repro.analysis.runner.CellSpec`, so retried, resumed, and
fault-injected runs are byte-identical to clean serial runs (asserted
in ``tests/test_runner_faults.py`` and the CI fault smoke step).

On platforms where child processes cannot be started at all the
scheduler falls back to an in-process loop: retries and ``raise``
faults still work, but timeouts cannot be enforced and ``hang``/``die``
faults are downgraded to ``raise`` (killing or stalling the hosting
process itself would be worse than the degraded fidelity).
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.sim.stats import Counter

#: Environment variable holding a fault plan: inline JSON (starts with
#: ``{``) or a path to a JSON file.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Exit code an injected ``die`` fault terminates the worker with —
#: distinguishable in logs from a Python crash (1) or a signal.
DIE_EXIT_CODE = 86

_FAULT_ACTIONS = ("raise", "hang", "die")


class InjectedFault(RuntimeError):
    """Raised inside a worker by a :class:`FaultPlan` ``raise`` action."""


class CellFailure(RuntimeError):
    """A cell exhausted every attempt its :class:`RetryPolicy` allowed.

    Deliberately fatal to the whole grid: the evaluation's figures and
    tables need *every* design point, so a permanently failing cell
    must stop the run rather than leave a hole.  Completed cells are
    already in the result cache (when one is in play), so fixing the
    cause and re-running against it resumes instead of restarting.
    """

    def __init__(self, cell, attempts: int, last_failure: str) -> None:
        self.cell = cell
        self.attempts = attempts
        self.last_failure = last_failure
        super().__init__(
            f"cell ({cell.design}, {cell.benchmark}) failed permanently "
            f"after {attempts} attempt(s); last failure: {last_failure}")


# -- retry policy ----------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How hard the executor tries before declaring a cell dead.

    ``max_retries`` counts *re*-tries: 0 means one attempt, 2 means up
    to three.  ``cell_timeout_s`` bounds each attempt's wall time (the
    child is terminated and the attempt counted as a ``timeout``);
    ``None`` disables timeout enforcement.  Backoff before attempt
    ``n+1`` is ``backoff_base_s * backoff_factor**(n-1)`` capped at
    ``backoff_max_s`` — the default base of 0 retries immediately,
    which is right for deterministic simulation failures; raise it when
    retrying around flaky shared infrastructure (NFS, ulimits).
    """

    max_retries: int = 0
    cell_timeout_s: Optional[float] = None
    backoff_base_s: float = 0.0
    backoff_factor: float = 2.0
    backoff_max_s: float = 30.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.cell_timeout_s is not None and self.cell_timeout_s <= 0:
            raise ValueError("cell_timeout_s must be positive (or None)")

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def backoff_s(self, failed_attempt: int) -> float:
        """Seconds to wait before re-running after ``failed_attempt``."""
        if self.backoff_base_s <= 0:
            return 0.0
        delay = self.backoff_base_s * self.backoff_factor ** (failed_attempt - 1)
        return min(self.backoff_max_s, delay)


# -- fault injection -------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One injected fault: *which cell*, *what happens*, *on which attempts*.

    ``action`` is ``"raise"`` (the worker raises :class:`InjectedFault`),
    ``"hang"`` (the worker sleeps ``hang_s`` seconds before computing —
    pair with a :class:`RetryPolicy` timeout), or ``"die"`` (the worker
    exits immediately with :data:`DIE_EXIT_CODE`, simulating an
    OOM-kill / SIGKILL).  ``attempts`` are 1-based attempt numbers.
    """

    design: str
    benchmark: str
    action: str
    attempts: Tuple[int, ...] = (1,)
    hang_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.action not in _FAULT_ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}; "
                             f"choose from {_FAULT_ACTIONS}")
        if not self.attempts or any(a < 1 for a in self.attempts):
            raise ValueError("attempts must be 1-based attempt numbers")
        # JSON round-trips lists; the spec stores a hashable tuple.
        object.__setattr__(self, "attempts", tuple(self.attempts))


class FaultPlan:
    """A deterministic schedule of :class:`FaultSpec` injections.

    JSON format (``REPRO_FAULT_PLAN`` accepts this inline or as a file
    path)::

        {"faults": [{"design": "TLC", "benchmark": "perl",
                     "action": "die", "attempts": [1]}]}

    Determinism is the point: the same plan against the same grid
    faults the same attempts every run, so recovery paths are testable
    exactly (``tests/test_runner_faults.py``) and reproducible in CI.
    """

    def __init__(self, faults: Sequence[FaultSpec] = ()) -> None:
        self.faults = tuple(faults)

    def __len__(self) -> int:
        return len(self.faults)

    def fault_for(self, cell, attempt: int) -> Optional[FaultSpec]:
        """The fault to inject for ``cell``'s ``attempt``, if any."""
        for fault in self.faults:
            if (fault.design == cell.design
                    and fault.benchmark == cell.benchmark
                    and attempt in fault.attempts):
                return fault
        return None

    def to_dict(self) -> dict:
        return {"faults": [dataclasses.asdict(f) for f in self.faults]}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FaultPlan":
        if not isinstance(payload, Mapping) or "faults" not in payload:
            raise ValueError(
                "fault plan must be an object with a 'faults' list")
        faults = []
        for entry in payload["faults"]:
            try:
                faults.append(FaultSpec(**entry))
            except TypeError as error:
                raise ValueError(f"bad fault entry {entry!r}: {error}") from None
        return cls(faults)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_env(cls, environ: Mapping[str, str] = os.environ,
                 ) -> Optional["FaultPlan"]:
        """The plan named by :data:`FAULT_PLAN_ENV`, or ``None``."""
        value = environ.get(FAULT_PLAN_ENV)
        if not value:
            return None
        if value.lstrip().startswith("{"):
            return cls.from_json(value)
        return cls.from_json(Path(value).read_text(encoding="utf-8"))


# -- telemetry -------------------------------------------------------------

#: Every count the executor can emit, in reporting order.  Stable zeros
#: (rather than absent keys) keep manifest diffs meaningful.
TELEMETRY_COUNTS = (
    "cells", "cache_hits", "computed",
    "attempts", "retries", "timeouts", "worker_deaths", "cell_errors",
    "faults_injected", "quarantined", "sanitized_retries",
)


class RunnerTelemetry:
    """Execution-provenance counters for one (or several) grid runs.

    Wraps a :class:`~repro.sim.stats.Counter` so the observability
    layer sees the live object: ``telemetry.register(registry)`` mounts
    it under ``runner`` and every count flattens into snapshots as
    ``runner.<count>``.  ``as_dict()`` is the JSON-ready form embedded
    in run manifests (the :attr:`~repro.obs.manifest.RunManifest.resilience`
    field).
    """

    def __init__(self) -> None:
        self.counter = Counter()

    def add(self, name: str, amount: int = 1) -> None:
        if name not in TELEMETRY_COUNTS:
            raise ValueError(f"unknown telemetry count {name!r}; "
                             f"choose from {TELEMETRY_COUNTS}")
        if amount:
            self.counter.add(name, amount)

    def __getitem__(self, name: str) -> int:
        return self.counter[name]

    def as_dict(self) -> Dict[str, int]:
        return {name: self.counter[name] for name in TELEMETRY_COUNTS}

    def register(self, registry, prefix: str = "runner") -> None:
        """Mount the live counter on a ``MetricsRegistry`` under ``prefix``."""
        registry.register(prefix, self.counter)

    def summary(self) -> str:
        """One human line for CLI output."""
        d = self.as_dict()
        return (f"{d['attempts']} attempt(s), {d['retries']} retry(ies), "
                f"{d['timeouts']} timeout(s), {d['worker_deaths']} worker "
                f"death(s), {d['quarantined']} quarantined cache entr(ies)")


# -- the scheduler ---------------------------------------------------------

@dataclasses.dataclass
class _Task:
    """One cell awaiting (re-)execution."""

    index: int
    cell: object  # CellSpec
    key: str
    attempt: int = 1
    not_before: float = 0.0  # monotonic time the backoff expires


@dataclasses.dataclass
class _Running:
    """One in-flight attempt: its child process and result pipe."""

    task: _Task
    proc: object
    conn: object
    deadline: Optional[float]


def _attempt_cell(cell, attempt: int):
    """The cell to actually simulate on ``attempt``.

    The first attempt runs the cell as specified; retries re-run it
    under the simulator-core sanitizer, so a failure caused by a latent
    simulator bug (rather than a transient environment fault) surfaces
    as a :class:`~repro.sanitizer.SanitizerViolation` naming the broken
    invariant instead of failing identically.  A clean sanitized run is
    byte-identical, so the escalated result is still cached under the
    original cell's key.
    """
    if attempt <= 1 or getattr(cell, "sanitize", False):
        return cell
    try:
        return dataclasses.replace(cell, sanitize=True)
    except TypeError:
        return cell  # not a CellSpec (no sanitize field): run as-is


def _cell_worker(conn, cell, action: Optional[str], hang_s: float) -> None:
    """Child-process entry: inject the planned fault, then simulate.

    ``die`` exits before touching the pipe (the parent sees EOF with no
    message — indistinguishable from a real SIGKILL, which is the
    point).  ``hang`` sleeps first and then computes normally, so an
    un-timed-out hang eventually succeeds rather than wedging forever.
    """
    from repro.analysis.runner import run_cell_timed

    try:
        if action == "die":
            os._exit(DIE_EXIT_CODE)
        if action == "hang":
            time.sleep(hang_s)
        if action == "raise":
            raise InjectedFault(
                f"injected fault for ({cell.design}, {cell.benchmark})")
        result, wall_time_s = run_cell_timed(cell)
        conn.send(("ok", result, wall_time_s))
    except BaseException as error:  # noqa: BLE001 — must cross the pipe
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        except (OSError, ValueError):
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


def run_misses(misses: Sequence[Tuple[int, object, str]], outcomes: List,
               workers: int, cache, policy: RetryPolicy,
               fault_plan: Optional[FaultPlan],
               telemetry: RunnerTelemetry) -> None:
    """Compute every ``(index, cell, key)`` miss into ``outcomes[index]``.

    The scheduler behind
    :func:`repro.analysis.runner.execute_cells_detailed`, which has
    already answered the cache hits: each attempt runs in its own child
    process, at most ``workers`` at a time, so a timeout or worker
    death costs one attempt, never the grid.  Each computed cell is
    written to ``cache`` as soon as it succeeds.  Where no child
    process can be started the remaining cells run in-process.
    """
    import multiprocessing
    from multiprocessing.connection import wait as connection_wait

    from repro.analysis.runner import CellOutcome

    ctx = multiprocessing.get_context()
    capacity = max(1, workers)
    pending = deque(_Task(index=index, cell=cell, key=key)
                    for index, cell, key in misses)
    running: Dict[object, _Running] = {}

    def record_success(task: _Task, result, wall_time_s: float) -> None:
        outcomes[task.index] = CellOutcome(
            cell=task.cell, key=task.key, result=result,
            wall_time_s=wall_time_s, from_cache=False, attempts=task.attempt)
        telemetry.add("computed")
        if cache is not None:
            cache.put(task.key, result, cell=task.cell.key_fields())

    def reschedule(task: _Task, kind: str, detail: str = "") -> None:
        telemetry.add(kind)
        label = f"{kind}: {detail}" if detail else kind
        if task.attempt >= policy.max_attempts:
            raise CellFailure(task.cell, task.attempt, label)
        telemetry.add("retries")
        pending.append(dataclasses.replace(
            task, attempt=task.attempt + 1,
            not_before=time.monotonic() + policy.backoff_s(task.attempt)))

    def launch(task: _Task) -> bool:
        """Start one attempt; False means processes are unavailable."""
        fault = (fault_plan.fault_for(task.cell, task.attempt)
                 if fault_plan is not None else None)
        action = fault.action if fault is not None else None
        hang_s = fault.hang_s if fault is not None else 0.0
        run_cell = _attempt_cell(task.cell, task.attempt)
        try:
            receiver, sender = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_cell_worker,
                               args=(sender, run_cell, action, hang_s),
                               daemon=True)
            proc.start()
        except (ImportError, OSError, PermissionError):
            return False
        sender.close()
        telemetry.add("attempts")
        if run_cell is not task.cell:
            telemetry.add("sanitized_retries")
        if fault is not None:
            telemetry.add("faults_injected")
        deadline = (time.monotonic() + policy.cell_timeout_s
                    if policy.cell_timeout_s else None)
        running[receiver] = _Running(task=task, proc=proc, conn=receiver,
                                     deadline=deadline)
        return True

    def reap(state: _Running) -> None:
        """Collect one finished attempt (pipe signalled readable)."""
        message = None
        try:
            message = state.conn.recv()
        except (EOFError, OSError):
            pass  # the worker died before sending anything
        state.conn.close()
        state.proc.join(timeout=5)
        if state.proc.is_alive():
            state.proc.terminate()
            state.proc.join(timeout=5)
        if message is not None and message[0] == "ok":
            record_success(state.task, message[1], message[2])
        elif message is not None:
            reschedule(state.task, "cell_errors", message[1])
        else:
            code = state.proc.exitcode
            reschedule(state.task, "worker_deaths", f"exit code {code}")

    def kill(state: _Running) -> None:
        state.proc.terminate()
        state.proc.join(timeout=5)
        state.conn.close()

    try:
        while pending or running:
            now = time.monotonic()

            # Launch every backoff-expired task while capacity remains.
            deferred: List[_Task] = []
            while pending and len(running) < capacity:
                task = pending.popleft()
                if task.not_before > now:
                    deferred.append(task)
                    continue
                if not launch(task):
                    # No process support at all: requeue the cells in
                    # flight at their current attempt, restore order and
                    # run the remainder in-process (degraded but correct).
                    for state in running.values():
                        kill(state)
                    requeued = [state.task for state in running.values()]
                    pending.extendleft(reversed(requeued + deferred + [task]))
                    running.clear()
                    _drain_in_process(pending, policy, fault_plan, telemetry,
                                      record_success, reschedule)
                    return
            for leftover in reversed(deferred):
                pending.appendleft(leftover)

            if not running:
                # Everything is backing off; sleep until the earliest
                # task becomes runnable.
                wake = min(task.not_before for task in pending)
                time.sleep(max(0.0, wake - now))
                continue

            ready = connection_wait(list(running),
                                    timeout=_wait_timeout(running, pending,
                                                          now))
            for conn in ready:
                reap(running.pop(conn))

            now = time.monotonic()
            for conn, state in list(running.items()):
                if state.deadline is not None and now >= state.deadline:
                    running.pop(conn)
                    kill(state)
                    reschedule(state.task, "timeouts",
                               f"exceeded {policy.cell_timeout_s:g}s")
    finally:
        for state in running.values():
            kill(state)


def _wait_timeout(running: Dict, pending: deque, now: float,
                  ) -> Optional[float]:
    """How long the pipe wait may block before a deadline/backoff fires."""
    horizons = [state.deadline for state in running.values()
                if state.deadline is not None]
    horizons += [task.not_before for task in pending if task.not_before > now]
    if not horizons:
        return None  # a pipe will signal (result, error, or EOF on death)
    return max(0.01, min(horizons) - now)


def _drain_in_process(pending: deque, policy, fault_plan, telemetry,
                      record_success, reschedule) -> None:
    """Fallback executor for platforms without child-process support.

    Retries and ``raise`` faults behave exactly as in the process path;
    timeouts cannot be enforced in-process, and ``hang``/``die`` faults
    are downgraded to ``raise`` rather than stalling or killing the
    hosting interpreter.
    """
    from repro.analysis.runner import run_cell_timed

    while pending:
        task = pending.popleft()
        delay = task.not_before - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        fault = (fault_plan.fault_for(task.cell, task.attempt)
                 if fault_plan is not None else None)
        run_cell = _attempt_cell(task.cell, task.attempt)
        telemetry.add("attempts")
        if run_cell is not task.cell:
            telemetry.add("sanitized_retries")
        try:
            if fault is not None:
                telemetry.add("faults_injected")
                raise InjectedFault(
                    f"injected {fault.action} fault (in-process) for "
                    f"({task.cell.design}, {task.cell.benchmark})")
            result, wall_time_s = run_cell_timed(run_cell)
        except Exception as error:  # noqa: BLE001 — any failure retries
            reschedule(task, "cell_errors", f"{type(error).__name__}: {error}")
            continue
        record_success(task, result, wall_time_s)
