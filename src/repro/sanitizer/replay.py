"""Deterministic re-execution of crash bundles, with delta-debugging.

:func:`replay_bundle` rebuilds the exact run a bundle captured — same
design, same overrides, same reference-stream prefix, same injected
fault — with the sanitizer forced on, and reports whether the recorded
violation reproduces.  Because the simulator is fully deterministic
given the trace and configuration, a faithful bundle either reproduces
its violation exactly or proves the bug has been fixed.

:func:`minimize_bundle` shrinks a reproducing bundle to the shortest
failing prefix of its reference stream by bisection: the empty prefix
passes, the full prefix fails, and for the ordinal-seeded corruption
model every extension of a failing prefix keeps failing, so binary
search finds the boundary in ``log2(n)`` replays.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple, Union

from repro.sanitizer.bundle import CrashBundle, load_bundle, write_crash_bundle
from repro.sanitizer.core import (
    Sanitizer,
    SanitizerConfig,
    SanitizerViolation,
    SimFault,
)

BundleLike = Union[str, CrashBundle]


@dataclasses.dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying one crash bundle."""

    reproduced: bool
    expected: dict
    violation: Optional[SanitizerViolation] = None
    error: Optional[BaseException] = None
    refs: int = 0

    @property
    def outcome(self) -> str:
        if self.reproduced:
            return "reproduced"
        if self.violation is not None or self.error is not None:
            return "different-failure"
        return "passed"


def _resolve(bundle: BundleLike) -> CrashBundle:
    if isinstance(bundle, CrashBundle):
        return bundle
    return load_bundle(bundle)


def _rebuild_sanitizer(bundle: CrashBundle) -> Sanitizer:
    state = bundle.sanitizer or {}
    config = (SanitizerConfig.from_dict(state["config"])
              if state.get("config") else SanitizerConfig())
    fault = (SimFault.from_dict(state["fault"])
             if state.get("fault") else None)
    return Sanitizer(config=config, fault=fault)


def _run_prefix(bundle: CrashBundle, prefix: int):
    """Run the bundle's first ``prefix`` references; returns the raised
    exception (None on a clean pass)."""
    from repro.sim.memory import MainMemory
    from repro.sim.processor import ProcessorConfig
    from repro.sim.system import run_system
    from repro.tech import TECH_45NM

    if bundle.unreplayable:
        raise ValueError(
            f"bundle {bundle.path} is not replayable: design overrides "
            f"{bundle.unreplayable} were not JSON-serializable")
    if bundle.tech != TECH_45NM.name:
        raise ValueError(
            f"bundle {bundle.path} used technology {bundle.tech!r}; only "
            f"{TECH_45NM.name!r} bundles can be replayed")
    memory = (None if bundle.memory_latency_cycles is None
              else MainMemory(latency_cycles=bundle.memory_latency_cycles))
    overrides = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in bundle.design_overrides.items()
    }
    # Decode outside the try below, which captures only what the
    # simulation raises: a bundle this build cannot read is not a
    # different failure of the same run.
    try:
        processor_config = ProcessorConfig(**bundle.processor_config)
        sanitizer = _rebuild_sanitizer(bundle)
    except (TypeError, KeyError, ValueError) as error:
        raise ValueError(
            f"bundle {bundle.path} is not replayable: cannot decode its "
            f"run parameters ({type(error).__name__}: {error})") from error
    trace = bundle.trace[:prefix]
    try:
        run_system(
            bundle.design, bundle.benchmark,
            seed=bundle.seed,
            trace=trace,
            warmup_refs=min(bundle.warmup_refs, prefix),
            processor_config=processor_config,
            memory=memory,
            sanitizer=sanitizer,
            **overrides,
        )
    except Exception as error:
        return error
    return None


def _matches(expected: dict, error: Optional[BaseException]) -> bool:
    if error is None:
        return False
    if expected.get("type") == "SanitizerViolation":
        return (isinstance(error, SanitizerViolation)
                and error.kind == expected.get("kind")
                and error.component == expected.get("component"))
    return type(error).__name__ == expected.get("type")


def replay_bundle(bundle: BundleLike) -> ReplayResult:
    """Re-execute ``bundle`` with the sanitizer forced on."""
    bundle = _resolve(bundle)
    error = _run_prefix(bundle, len(bundle.trace))
    violation = error if isinstance(error, SanitizerViolation) else None
    return ReplayResult(
        reproduced=_matches(bundle.error, error),
        expected=bundle.error,
        violation=violation,
        error=error,
        refs=len(bundle.trace),
    )


def minimize_bundle(bundle: BundleLike,
                    out_dir: Optional[str] = None) -> Tuple[int, str]:
    """Bisect the reference stream to a minimal failing prefix.

    Returns ``(prefix_length, minimized_bundle_path)``.  Raises
    ``ValueError`` if the full bundle does not reproduce its recorded
    violation (nothing to minimize).
    """
    bundle = _resolve(bundle)
    expected = bundle.error
    total = len(bundle.trace)

    def fails(prefix: int) -> Optional[BaseException]:
        error = _run_prefix(bundle, prefix)
        return error if _matches(expected, error) else None

    full_error = fails(total)
    if full_error is None:
        raise ValueError(
            f"bundle {bundle.path} does not reproduce its recorded "
            f"violation {expected.get('kind', expected.get('type'))!r}; "
            "nothing to minimize")

    lo, hi = 0, total  # lo passes (or fails differently), hi fails
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fails(mid) is not None:
            hi = mid
        else:
            lo = mid
    minimal = hi
    final_error = fails(minimal)
    assert final_error is not None  # hi is always a known-failing length

    if out_dir is None:
        out_dir = bundle.path.rstrip("/\\") + "-min"
    # A fresh sanitizer carries the config/fault into the minimized
    # bundle's snapshot; its run counters stay zero, which keeps the
    # whole minimal trace in the written prefix.
    sanitizer = _rebuild_sanitizer(bundle)
    path = write_crash_bundle(
        out_dir,
        design=bundle.design,
        benchmark=bundle.benchmark,
        seed=bundle.seed,
        warmup_refs=min(bundle.warmup_refs, minimal),
        trace=bundle.trace[:minimal],
        error=final_error,
        processor_config=bundle.processor_config,
        tech=bundle.tech,
        memory_latency_cycles=bundle.memory_latency_cycles,
        design_overrides=dict(bundle.design_overrides),
        sanitizer=sanitizer,
        minimized_from=bundle.path,
    )
    return minimal, path
