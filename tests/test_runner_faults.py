"""Fault-injection tests for the grid's cell scheduler.

Every test drives :mod:`repro.analysis.resilience` through a
deterministic :class:`FaultPlan` — the same hook ``REPRO_FAULT_PLAN``
exposes to CI smoke runs — and asserts both the recovery behavior
(results byte-identical to a clean run) and the telemetry trail
(retries / timeouts / worker deaths visible to the observability
layer).
"""

import dataclasses
import json

import pytest

from repro.analysis.resilience import (
    CellFailure,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    RunnerTelemetry,
)
from repro.analysis.runner import (
    CellSpec,
    ResultCache,
    cache_key,
    execute_cells_detailed,
    run_cell,
    run_grid,
)
from repro.analysis.storage import result_to_dict
from repro.obs import MetricsRegistry

N_REFS = 800

#: No backoff in tests — retries should be instant.
FAST = dict(backoff_base_s=0.0)


def make_cells(*pairs):
    return [CellSpec(design=design, benchmark=benchmark, n_refs=N_REFS, seed=7)
            for design, benchmark in pairs]


@pytest.fixture(scope="module")
def cells():
    return make_cells(("SNUCA2", "perl"), ("TLC", "perl"))


@pytest.fixture(scope="module")
def baseline(cells):
    """Clean serial results every faulted run must reproduce exactly."""
    return [run_cell(cell) for cell in cells]


def results_of(outcomes):
    return [outcome.result for outcome in outcomes]


class TestRetry:
    def test_retry_then_succeed(self, cells, baseline):
        plan = FaultPlan([FaultSpec(design="TLC", benchmark="perl",
                                    action="raise", attempts=(1,))])
        telemetry = RunnerTelemetry()
        outcomes = execute_cells_detailed(
            cells, workers=2, policy=RetryPolicy(max_retries=2, **FAST),
            fault_plan=plan, telemetry=telemetry)
        assert results_of(outcomes) == baseline
        assert telemetry["cell_errors"] == 1
        assert telemetry["retries"] == 1
        assert telemetry["faults_injected"] == 1
        faulted = outcomes[cells.index(make_cells(("TLC", "perl"))[0])]
        assert faulted.attempts == 2

    def test_exhausted_retries_raise_cell_failure(self, cells):
        plan = FaultPlan([FaultSpec(design="TLC", benchmark="perl",
                                    action="raise", attempts=(1, 2))])
        with pytest.raises(CellFailure, match=r"\(TLC, perl\).*2 attempt"):
            execute_cells_detailed(
                cells, workers=1, policy=RetryPolicy(max_retries=1, **FAST),
                fault_plan=plan)

    def test_backoff_schedule(self):
        policy = RetryPolicy(max_retries=5, backoff_base_s=1.0,
                             backoff_factor=2.0, backoff_max_s=3.0)
        assert [policy.backoff_s(n) for n in (1, 2, 3, 4)] == [1.0, 2.0, 3.0, 3.0]
        assert RetryPolicy(max_retries=1).backoff_s(1) == 0.0


class TestTimeout:
    def test_timeout_then_reschedule(self, cells, baseline):
        plan = FaultPlan([FaultSpec(design="TLC", benchmark="perl",
                                    action="hang", attempts=(1,), hang_s=60)])
        telemetry = RunnerTelemetry()
        outcomes = execute_cells_detailed(
            cells, workers=2,
            policy=RetryPolicy(max_retries=1, cell_timeout_s=2.0, **FAST),
            fault_plan=plan, telemetry=telemetry)
        assert results_of(outcomes) == baseline
        assert telemetry["timeouts"] == 1
        assert telemetry["retries"] == 1

    @pytest.mark.parametrize("timeout_s", [float("nan"), float("inf")])
    def test_timeout_must_be_finite(self, timeout_s):
        with pytest.raises(ValueError, match="finite"):
            RetryPolicy(cell_timeout_s=timeout_s)

    def test_long_finite_timeout_completes(self, cells, baseline):
        """A deadline past the pipe wait's 2**31 ms limit still runs:
        each wait is capped and the deadline rechecked on waking."""
        outcomes = execute_cells_detailed(
            cells[:1], policy=RetryPolicy(cell_timeout_s=1e7))
        assert results_of(outcomes) == baseline[:1]

    def test_timeout_exhaustion_is_fatal(self, cells):
        plan = FaultPlan([FaultSpec(design="TLC", benchmark="perl",
                                    action="hang", attempts=(1,), hang_s=60)])
        with pytest.raises(CellFailure, match="timeouts"):
            execute_cells_detailed(
                cells, workers=2,
                policy=RetryPolicy(max_retries=0, cell_timeout_s=1.0, **FAST),
                fault_plan=plan)


class TestWorkerDeath:
    def test_dead_workers_cells_are_rescheduled(self, cells, baseline):
        plan = FaultPlan([FaultSpec(design="SNUCA2", benchmark="perl",
                                    action="die", attempts=(1,))])
        telemetry = RunnerTelemetry()
        outcomes = execute_cells_detailed(
            cells, workers=2, policy=RetryPolicy(max_retries=1, **FAST),
            fault_plan=plan, telemetry=telemetry)
        assert results_of(outcomes) == baseline
        assert telemetry["worker_deaths"] == 1
        assert telemetry["retries"] == 1


def count_starts(monkeypatch, fail_at=None):
    """Record every child-process start; the ``fail_at``-th one raises
    EAGAIN, as a fork does when the process limit is reached."""
    import errno
    from multiprocessing.process import BaseProcess

    real_start = BaseProcess.start
    starts = []

    def start(process):
        starts.append(process)
        if len(starts) == fail_at:
            raise OSError(errno.EAGAIN, "cannot fork")
        real_start(process)

    monkeypatch.setattr(BaseProcess, "start", start)
    return starts


class TestChildProcesses:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_computed_cell_starts_one_child(self, monkeypatch, cells,
                                                  baseline, tmp_path,
                                                  workers):
        starts = count_starts(monkeypatch)
        cache = ResultCache(tmp_path)
        outcomes = execute_cells_detailed(cells, workers=workers, cache=cache)
        assert len(starts) == len(cells)
        assert results_of(outcomes) == baseline
        # Cache hits start nothing.
        execute_cells_detailed(cells, workers=workers, cache=cache)
        assert len(starts) == len(cells)


class TestInProcessFallback:
    """Where no child process can be started the remaining cells run
    in-process; an attempt already in flight is killed and requeued."""

    @pytest.mark.parametrize("failing_start", [1, 2],
                             ids=["first-start", "second-start"])
    def test_every_cell_completes_when_a_start_fails(self, monkeypatch,
                                                     failing_start):
        cells = make_cells(("SNUCA2", "perl"), ("TLC", "perl"),
                           ("SNUCA2", "bzip"), ("TLC", "bzip"))
        expected = [run_cell(cell) for cell in cells]
        starts = count_starts(monkeypatch, fail_at=failing_start)
        telemetry = RunnerTelemetry()
        outcomes = execute_cells_detailed(cells, workers=2,
                                          policy=RetryPolicy(),
                                          telemetry=telemetry)
        assert len(starts) == failing_start
        assert None not in outcomes
        assert results_of(outcomes) == expected
        assert telemetry["computed"] == len(cells)


class TestCheckpointResume:
    """Resume is a rerun against the same result cache: the runner
    caches each cell as soon as it succeeds."""

    def grid_payload(self, grid):
        return json.dumps(
            {f"{d}/{b}": result_to_dict(r)
             for (d, b), r in sorted(grid.results.items())},
            sort_keys=True)

    def test_interrupted_grid_resumes_byte_identical(self, tmp_path):
        from repro.analysis.storage import save_grid

        designs, benchmarks = ("SNUCA2", "TLC"), ("perl",)
        clean = run_grid(designs=designs, benchmarks=benchmarks,
                         n_refs=N_REFS, workers=1)
        cache_dir = tmp_path / "cache"
        # First run: the TLC cell dies on every allowed attempt, so the
        # run aborts after caching the completed SNUCA2 cell.
        plan = FaultPlan([FaultSpec(design="TLC", benchmark="perl",
                                    action="die", attempts=(1, 2))])
        with pytest.raises(CellFailure):
            run_grid(designs=designs, benchmarks=benchmarks, n_refs=N_REFS,
                     workers=1, policy=RetryPolicy(max_retries=1, **FAST),
                     cache=cache_dir, fault_plan=plan)
        # Rerun without the fault: only the missing cell is computed.
        telemetry = RunnerTelemetry()
        resumed = run_grid(designs=designs, benchmarks=benchmarks,
                           n_refs=N_REFS, workers=1, cache=cache_dir,
                           telemetry=telemetry)
        assert telemetry["cache_hits"] == 1
        assert telemetry["computed"] == 1
        assert self.grid_payload(resumed) == self.grid_payload(clean)
        assert resumed.cell_meta[("SNUCA2", "perl")]["from_cache"] is True
        save_grid(str(tmp_path / "resumed.json"), resumed)
        save_grid(str(tmp_path / "clean.json"), clean)
        assert ((tmp_path / "resumed.json").read_bytes()
                == (tmp_path / "clean.json").read_bytes())


class TestFaultPlanFormat:
    PAYLOAD = {"faults": [{"design": "TLC", "benchmark": "perl",
                           "action": "die", "attempts": [2]}]}

    def test_round_trip(self):
        plan = FaultPlan.from_dict(self.PAYLOAD)
        assert len(plan) == 1
        cell = make_cells(("TLC", "perl"))[0]
        assert plan.fault_for(cell, 1) is None
        assert plan.fault_for(cell, 2).action == "die"
        assert plan.fault_for(make_cells(("SNUCA2", "perl"))[0], 2) is None
        assert FaultPlan.from_dict(plan.to_dict()).faults == plan.faults

    def test_from_env_inline_json(self):
        env = {"REPRO_FAULT_PLAN": json.dumps(self.PAYLOAD)}
        assert len(FaultPlan.from_env(env)) == 1

    def test_from_env_file_path(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(self.PAYLOAD))
        assert len(FaultPlan.from_env({"REPRO_FAULT_PLAN": str(path)})) == 1

    def test_from_env_unset(self):
        assert FaultPlan.from_env({}) is None

    def test_env_plan_applies_when_no_plan_is_passed(
            self, monkeypatch, cells, baseline, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(
            {"faults": [{"design": "TLC", "benchmark": "perl",
                         "action": "raise", "attempts": [1]}]}))
        monkeypatch.setenv("REPRO_FAULT_PLAN", str(path))
        telemetry = RunnerTelemetry()
        outcomes = execute_cells_detailed(
            cells, workers=1, policy=RetryPolicy(max_retries=1, **FAST),
            telemetry=telemetry)
        assert results_of(outcomes) == baseline
        assert telemetry["faults_injected"] == 1
        assert telemetry["retries"] == 1

    def test_bad_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultSpec(design="TLC", benchmark="perl", action="explode")

    def test_bad_payload_rejected(self):
        with pytest.raises(ValueError, match="'faults' list"):
            FaultPlan.from_dict({"cells": []})
        with pytest.raises(ValueError, match="bad fault entry"):
            FaultPlan.from_dict({"faults": [{"design": "TLC"}]})


class TestTelemetryObservability:
    def test_counters_mount_on_metrics_registry(self, cells):
        telemetry = RunnerTelemetry()
        registry = MetricsRegistry()
        telemetry.register(registry)
        plan = FaultPlan([FaultSpec(design="TLC", benchmark="perl",
                                    action="raise", attempts=(1,))])
        execute_cells_detailed(cells, workers=1,
                               policy=RetryPolicy(max_retries=1, **FAST),
                               fault_plan=plan, telemetry=telemetry)
        snapshot = registry.snapshot()
        assert snapshot["runner.retries"] == 1
        assert snapshot["runner.cells"] == len(cells)
        assert snapshot["runner.attempts"] == len(cells) + 1

    def test_as_dict_has_stable_zeroed_keys(self):
        assert RunnerTelemetry().as_dict() == {
            "cells": 0, "cache_hits": 0,
            "computed": 0, "attempts": 0, "retries": 0, "timeouts": 0,
            "worker_deaths": 0, "cell_errors": 0, "faults_injected": 0,
            "quarantined": 0, "sanitized_retries": 0,
        }

    def test_unknown_count_rejected(self):
        with pytest.raises(ValueError, match="unknown telemetry count"):
            RunnerTelemetry().add("explosions")

    def test_quarantine_reaches_manifest_resilience_field(self, tmp_path,
                                                          cells):
        from repro.obs import build_manifest, load_manifest, save_manifest

        cache = ResultCache(tmp_path / "cache")
        execute_cells_detailed(cells, workers=1, cache=cache)
        corrupt = cache.path_for(cache_key(cells[0]))
        corrupt.write_text("{ definitely not json")
        telemetry = RunnerTelemetry()
        execute_cells_detailed(cells, workers=1,
                               cache=ResultCache(tmp_path / "cache"),
                               telemetry=telemetry)
        assert telemetry["quarantined"] == 1
        manifest = build_manifest(kind="report", config={}, metrics={},
                                  wall_time_s=0.0,
                                  resilience=telemetry.as_dict())
        path = tmp_path / "manifest.json"
        save_manifest(path, manifest)
        assert load_manifest(path).resilience["quarantined"] == 1


class TestDeterministicReplay:
    def test_faulted_run_matches_clean_run_cell_for_cell(self, tmp_path):
        """The acceptance-criteria shape: kill a worker mid-grid, retry,
        cache — the saved grid is byte-identical to a clean one."""
        from repro.analysis.storage import save_grid

        designs, benchmarks = ("SNUCA2", "TLC"), ("perl", "bzip")
        cache_dir = tmp_path / "cache"
        plan = FaultPlan([FaultSpec(design="TLC", benchmark="bzip",
                                    action="die", attempts=(1,))])
        faulted = run_grid(designs=designs, benchmarks=benchmarks,
                           n_refs=N_REFS, workers=2,
                           policy=RetryPolicy(max_retries=2, **FAST),
                           cache=cache_dir, fault_plan=plan)
        clean = run_grid(designs=designs, benchmarks=benchmarks,
                         n_refs=N_REFS, workers=1)
        faulted_path = tmp_path / "faulted.json"
        clean_path = tmp_path / "clean.json"
        save_grid(str(faulted_path), faulted)
        save_grid(str(clean_path), clean)
        assert faulted_path.read_bytes() == clean_path.read_bytes()

        # Rerun purely from the cache (every cell hits, nothing
        # recomputes) — the round trip through the store must not
        # perturb serialization either (e.g. by reordering stats keys).
        telemetry = RunnerTelemetry()
        resumed = run_grid(designs=designs, benchmarks=benchmarks,
                           n_refs=N_REFS, workers=2,
                           policy=RetryPolicy(max_retries=2, **FAST),
                           cache=cache_dir, telemetry=telemetry)
        assert telemetry["cache_hits"] == 4
        assert telemetry["computed"] == 0
        resumed_path = tmp_path / "resumed.json"
        save_grid(str(resumed_path), resumed)
        assert resumed_path.read_bytes() == clean_path.read_bytes()


class TestCellSpecReplace:
    def test_outcome_fields_for_a_first_attempt_success(self, cells):
        outcome = execute_cells_detailed(cells[:1], workers=1)[0]
        assert outcome.attempts == 1
        assert outcome.from_cache is False
        assert outcome.key == cache_key(cells[0])
        assert dataclasses.fields(type(outcome))  # stays a dataclass
