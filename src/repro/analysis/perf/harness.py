"""Microbenchmark timing harness and the BENCH JSON interchange format.

Methodology
-----------

Every benchmark is a zero-argument callable performing a fixed batch of
work (``meta["inner_ops"]`` operations).  :func:`measure` runs it
``warmup`` times untimed, then ``reps`` times under
:func:`time.perf_counter_ns`, and reports the **median** and the
**median absolute deviation** (MAD) of the rep timings.  Medians are
robust to the occasional scheduler preemption that poisons means; the
MAD is the matching robust spread estimate.  Where the platform allows
it the process is pinned to a single CPU first (:func:`pin_process`),
which removes cross-core migration noise.

BENCH documents
---------------

Results serialize to a ``BENCH_<rev>.json`` document (``<rev>`` is the
first 12 hex digits of the code version stamp)::

    {
      "format_version": 1,
      "code_version": "<sha-256 of every repro/*.py source>",
      "python": "3.11.7",
      "platform": "Linux-...",
      "pinned": true,
      "quick": false,
      "benchmarks": {
        "link.transit": {
          "median_ns": 1234567,
          "mad_ns": 890,
          "reps": 9,
          "meta": {"inner_ops": 2000}
        }
      }
    }

The document deliberately carries no timestamps: two runs of identical
code on identical inputs produce byte-identical documents apart from
the timings themselves.

Call counts
-----------

Timings on a shared host move with its load; call counts do not.  Each
suite entry also records ``meta["calls_per_op"]``: the calls into
functions whose code is under ``src/repro`` per inner operation, as
:func:`count_repro_calls` counts them with :func:`sys.setprofile`.
Builtins, the standard library, numpy and code generated at run time
are not counted, so the count does not depend on the Python version.

Comparison
----------

:func:`compare_benchmarks` joins a current document against a baseline
and flags any benchmark whose median slowed by more than a threshold,
or whose ``calls_per_op`` rose by more than :data:`CALLS_TOLERANCE`
over a baseline entry that records one.  Because absolute nanoseconds
are machine-dependent, ``normalize=True`` rescales the timings by the
``calibration.spin`` benchmark — a fixed pure-Python spin loop whose
timing tracks single-core interpreter speed — so a CI runner can be
compared against a baseline captured on different hardware.  Counts
need no normalization.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

FORMAT_VERSION = 1

#: the benchmark used to normalize cross-machine comparisons.
CALIBRATION_BENCHMARK = "calibration.spin"

#: how far an entry's ``calls_per_op`` may rise over its baseline's
#: before the entry regresses: 1 %.
CALLS_TOLERANCE = 0.01


@dataclass(frozen=True)
class BenchResult:
    """Robust timing summary of one benchmark."""

    median_ns: int
    mad_ns: int
    reps: int
    meta: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "median_ns": self.median_ns,
            "mad_ns": self.mad_ns,
            "reps": self.reps,
            "meta": dict(self.meta),
        }


def pin_process(cpu: Optional[int] = None) -> bool:
    """Pin this process to one CPU; returns True when pinning took effect.

    Uses ``os.sched_setaffinity`` where available (Linux); elsewhere the
    call is a no-op returning False and timings simply carry a little
    more scheduler noise.
    """
    if not hasattr(os, "sched_setaffinity"):
        return False
    try:
        allowed = sorted(os.sched_getaffinity(0))
        if not allowed:
            return False
        target = cpu if cpu is not None else allowed[0]
        os.sched_setaffinity(0, {target})
        return True
    except (OSError, ValueError):
        return False


def median(values: List[int]) -> int:
    """The median of ``values``, as an int (even counts round down)."""
    if not values:
        raise ValueError("median of an empty list")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) // 2


def mad(values: List[int]) -> int:
    """Median absolute deviation from the median, as an int."""
    centre = median(values)
    return median([abs(v - centre) for v in values])


def measure(
    fn: Callable[[], Any],
    reps: int = 9,
    warmup: int = 2,
    meta: Optional[Dict[str, Any]] = None,
) -> BenchResult:
    """Time ``fn`` with warmup and repetition; returns a :class:`BenchResult`.

    ``fn`` is called ``warmup`` times untimed (populating caches,
    triggering lazy allocation, letting the interpreter specialize),
    then ``reps`` times under ``perf_counter_ns``.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    for _ in range(warmup):
        fn()
    timings: List[int] = []
    timer = time.perf_counter_ns
    for _ in range(reps):
        start = timer()
        fn()
        timings.append(timer() - start)
    return BenchResult(
        median_ns=median(timings),
        mad_ns=mad(timings),
        reps=reps,
        meta=dict(meta) if meta else {},
    )


def count_repro_calls(fn: Callable[[], Any]) -> int:
    """Run ``fn()`` once; return the calls it made into ``src/repro`` code.

    Every ``call`` event :func:`sys.setprofile` reports for a function
    whose code lives under the ``repro`` package counts, ``fn`` itself
    included when it does.  C functions raise other events and are not
    counted.
    """
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    calls = 0

    def count(frame: Any, event: str, arg: Any) -> None:
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(root):
            calls += 1

    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


# -- BENCH documents ---------------------------------------------------------


def bench_document(
    results: Dict[str, BenchResult],
    code_version: str,
    pinned: bool,
    quick: bool,
) -> Dict[str, Any]:
    """Assemble the BENCH JSON document for ``results``."""
    return {
        "format_version": FORMAT_VERSION,
        "code_version": code_version,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "pinned": pinned,
        "quick": quick,
        "benchmarks": {name: results[name].as_dict() for name in sorted(results)},
    }


def default_bench_name(code_version: str) -> str:
    """The conventional file name for a BENCH document."""
    return f"BENCH_{code_version[:12]}.json"


def save_benchmarks(path: str, document: Dict[str, Any]) -> str:
    """Validate and write ``document``; returns the path written.

    When ``path`` is an existing directory the file is named
    ``BENCH_<rev>.json`` inside it.
    """
    validate_benchmarks(document)
    if os.path.isdir(path):
        path = os.path.join(path, default_bench_name(document["code_version"]))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def load_benchmarks(path: str) -> Dict[str, Any]:
    """Read and validate a BENCH document."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    validate_benchmarks(document)
    return document


def validate_benchmarks(document: Any) -> None:
    """Raise :class:`ValueError` unless ``document`` is a valid BENCH doc."""
    if not isinstance(document, dict):
        raise ValueError("BENCH document must be a JSON object")
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported BENCH format_version: {version!r}")
    code_version = document.get("code_version")
    if not isinstance(code_version, str) or len(code_version) < 12:
        raise ValueError("BENCH document needs a code_version string")
    benchmarks = document.get("benchmarks")
    if not isinstance(benchmarks, dict) or not benchmarks:
        raise ValueError("BENCH document needs a non-empty benchmarks map")
    for name, entry in benchmarks.items():
        if not isinstance(entry, dict):
            raise ValueError(f"benchmark {name!r} must be an object")
        for key in ("median_ns", "mad_ns", "reps"):
            value = entry.get(key)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"benchmark {name!r}: {key} must be an integer")
        if entry["median_ns"] <= 0:
            raise ValueError(f"benchmark {name!r} median_ns must be positive")
        if entry["mad_ns"] < 0:
            raise ValueError(f"benchmark {name!r} mad_ns must be >= 0")
        if entry["reps"] < 1:
            raise ValueError(f"benchmark {name!r} reps must be >= 1")
        if not isinstance(entry.get("meta"), dict):
            raise ValueError(f"benchmark {name!r} meta must be an object")


# -- comparison --------------------------------------------------------------


@dataclass(frozen=True)
class Comparison:
    """One benchmark's current-vs-baseline verdict.

    ``regressed`` is True when the timing ``ratio`` is above the
    threshold or the call count rose (``calls_regressed``).
    """

    name: str
    baseline_ns: int
    current_ns: int
    ratio: float
    regressed: bool
    baseline_calls: Optional[float] = None
    current_calls: Optional[float] = None
    calls_regressed: bool = False


def compare_benchmarks(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    fail_above_pct: float = 40.0,
    normalize: bool = False,
) -> Tuple[List[Comparison], List[str]]:
    """Join ``current`` against ``baseline`` and flag regressions.

    Returns ``(comparisons, missing)`` where ``missing`` names baseline
    benchmarks absent from the current run.  A benchmark regresses when
    its (optionally calibration-normalized) median slowed by more than
    ``fail_above_pct`` percent, or when its baseline entry records a
    ``calls_per_op`` and the current one is more than
    :data:`CALLS_TOLERANCE` higher.  The calibration benchmark itself is
    never flagged: it *is* the machine-speed probe.
    """
    if not 0 <= fail_above_pct < math.inf:
        raise ValueError("fail_above_pct must be a finite number >= 0")
    scale = 1.0
    if normalize:
        scale = _calibration_scale(current, baseline)
    threshold = 1.0 + fail_above_pct / 100.0
    comparisons: List[Comparison] = []
    current_entries = current["benchmarks"]
    baseline_entries = baseline["benchmarks"]
    for name in sorted(baseline_entries):
        if name not in current_entries:
            continue
        base_ns = baseline_entries[name]["median_ns"]
        cur_ns = current_entries[name]["median_ns"]
        ratio = (cur_ns * scale) / base_ns
        base_calls = baseline_entries[name]["meta"].get("calls_per_op")
        cur_calls = current_entries[name]["meta"].get("calls_per_op")
        calls_regressed = (
            base_calls is not None
            and cur_calls is not None
            and cur_calls > base_calls * (1.0 + CALLS_TOLERANCE)
            and name != CALIBRATION_BENCHMARK
        )
        timing_regressed = ratio > threshold and name != CALIBRATION_BENCHMARK
        regressed = timing_regressed or calls_regressed
        comparisons.append(
            Comparison(
                name=name,
                baseline_ns=base_ns,
                current_ns=cur_ns,
                ratio=ratio,
                regressed=regressed,
                baseline_calls=base_calls,
                current_calls=cur_calls,
                calls_regressed=calls_regressed,
            )
        )
    missing = sorted(set(baseline_entries) - set(current_entries))
    return comparisons, missing


def _calibration_scale(current: Dict[str, Any], baseline: Dict[str, Any]) -> float:
    """baseline-machine-speed / current-machine-speed, from calibration."""
    try:
        base_spin = baseline["benchmarks"][CALIBRATION_BENCHMARK]["median_ns"]
        cur_spin = current["benchmarks"][CALIBRATION_BENCHMARK]["median_ns"]
    except KeyError:
        message = f"normalization needs {CALIBRATION_BENCHMARK!r} in both documents"
        raise ValueError(message) from None
    if base_spin <= 0 or cur_spin <= 0:
        raise ValueError("calibration medians must be positive")
    return base_spin / cur_spin


def main_compare_exit_code(comparisons: List[Comparison]) -> int:
    """0 when nothing regressed, 1 otherwise (the CLI's contract)."""
    return 1 if any(c.regressed for c in comparisons) else 0


if __name__ == "__main__":  # pragma: no cover - convenience entry point
    sys.exit("use `python -m repro perf` instead")
