"""Shared fixtures for the paper-reproduction benchmark harness.

Every harness module regenerates one table or figure from the paper's
evaluation section, printing measured-vs-paper rows and asserting that
the *shape* of the result holds.

The expensive (design x benchmark) grids run through the parallel
runner (:mod:`repro.analysis.runner`) behind a session-scoped
content-addressed result cache, so cells shared between grids — the
main grid and the TLC-family grid overlap on SNUCA2 and TLC across all
twelve benchmarks — are simulated exactly once per session.  Knobs (all
environment variables):

* ``REPRO_BENCH_REFS`` — trace length per benchmark (default 20000 L2
  references); larger values tighten the statistics at proportional
  cost.
* ``REPRO_BENCH_WORKERS`` — worker processes for grid cells (default:
  CPU count capped at 8; set to 1 to force the serial path).
* ``REPRO_BENCH_CACHE_DIR`` — persistent cache directory.  Unset, the
  cache lives in a per-session temporary directory (cells are still
  shared *within* the session); set, warm cells survive across pytest
  sessions — so an interrupted session resumes instead of
  re-simulating — and are invalidated automatically whenever any
  source file under ``src/repro`` changes.
* ``REPRO_BENCH_RETRIES`` / ``REPRO_BENCH_CELL_TIMEOUT`` — the grids'
  retry policy, as the CLI's ``--retries`` / ``--cell-timeout`` set it:
  retry each failed / crashed / timed-out cell up to N times (default
  0), bounding each attempt's wall time to S seconds (default: no
  limit).  Every computed cell runs in its own child process either
  way (:mod:`repro.analysis.resilience`).
* ``REPRO_FAULT_PLAN`` — deterministic fault injection (inline JSON or
  a file path), honored by the runner itself; combine with retries to
  smoke-test recovery against the real grids.
"""

import os

import pytest

from repro.analysis.experiments import (
    MAIN_DESIGNS,
    TLC_FAMILY,
    run_design_grid,
)
from repro.analysis.resilience import RetryPolicy
from repro.analysis.runner import ResultCache


def bench_refs() -> int:
    return int(os.environ.get("REPRO_BENCH_REFS", "20000"))


def bench_workers() -> int:
    value = os.environ.get("REPRO_BENCH_WORKERS")
    if value is not None:
        return int(value)
    return min(8, os.cpu_count() or 1)


def bench_policy() -> RetryPolicy:
    """The retry policy from the environment, built as the CLI builds
    it; a timeout of 0 or below is rejected by ``RetryPolicy``."""
    timeout = os.environ.get("REPRO_BENCH_CELL_TIMEOUT")
    return RetryPolicy(
        max_retries=int(os.environ.get("REPRO_BENCH_RETRIES", "0")),
        cell_timeout_s=None if timeout is None else float(timeout),
        backoff_base_s=0.5)


@pytest.fixture(scope="session")
def grid_cache(tmp_path_factory) -> ResultCache:
    """Session-wide result cache; persistent iff REPRO_BENCH_CACHE_DIR set."""
    cache_dir = os.environ.get("REPRO_BENCH_CACHE_DIR")
    if not cache_dir:
        cache_dir = str(tmp_path_factory.mktemp("grid-cache"))
    return ResultCache(cache_dir)


@pytest.fixture(scope="session")
def main_grid(grid_cache):
    """SNUCA2 / DNUCA / TLC across all twelve benchmarks."""
    return run_design_grid(designs=MAIN_DESIGNS, n_refs=bench_refs(),
                           workers=bench_workers(), cache=grid_cache,
                           policy=bench_policy())


@pytest.fixture(scope="session")
def family_grid(grid_cache):
    """SNUCA2 (normalization) plus the TLC family across all benchmarks."""
    return run_design_grid(designs=("SNUCA2",) + TLC_FAMILY,
                           n_refs=bench_refs(),
                           workers=bench_workers(), cache=grid_cache,
                           policy=bench_policy())
