"""Crash bundles: everything needed to re-run a failure deterministically.

When a sanitized ``run_system`` dies — on a :class:`SanitizerViolation`
or any other exception — the system writes one directory under the
requested crash root::

    <crash_dir>/<design>-<benchmark>-s<seed>-<nnn>/
        bundle.json     run parameters, error, sanitizer state
        trace.txt       the reference-stream prefix, standard trace format
        events.jsonl    recent event-trace ring buffer (when captured)
        manifest.json   a RunManifest (kind="crash"), when the design built

Bundle directories are named deterministically (first free index, no
timestamps) so CI scripts can glob for them.  ``bundle.json`` stores
only JSON-serializable run parameters; anything else (an exotic
``design_overrides`` value, say) is recorded by ``repr`` and flagged in
``unreplayable`` so :func:`~repro.sanitizer.replay.replay_bundle` can
refuse loudly instead of replaying a different experiment.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Dict, List, Optional

from repro.sanitizer.core import SanitizerViolation
from repro.workloads.trace import Reference, load_trace, save_trace

#: Bump when ``bundle.json`` changes incompatibly; :func:`load_bundle`
#: refuses every other version.
BUNDLE_FORMAT_VERSION = 2

#: references kept beyond the last one the processor completed, so the
#: prefix always covers the access that tripped the check.
TRACE_PREFIX_MARGIN = 16


@dataclasses.dataclass(frozen=True)
class CrashBundle:
    """A loaded crash bundle, ready to replay."""

    path: str
    design: str
    benchmark: str
    seed: int
    warmup_refs: int
    processor_config: Dict[str, int]
    tech: str
    memory_latency_cycles: Optional[int]
    design_overrides: Dict[str, Any]
    error: Dict[str, Any]
    sanitizer: Dict[str, Any]
    trace: List[Reference]
    unreplayable: List[str]
    minimized_from: Optional[str] = None


def _error_info(error: BaseException) -> Dict[str, Any]:
    if isinstance(error, SanitizerViolation):
        return {"type": "SanitizerViolation", **error.as_dict()}
    return {"type": type(error).__name__, "message": str(error)}


def _split_serializable(overrides: Dict[str, Any]):
    """Partition overrides into JSON-safe values and repr-only leftovers."""
    clean: Dict[str, Any] = {}
    unreplayable: List[str] = []
    for key, value in sorted(overrides.items()):
        if isinstance(value, tuple):
            value = list(value)
        try:
            json.dumps(value)
        except TypeError:
            clean[key] = repr(value)
            unreplayable.append(key)
        else:
            clean[key] = value
    return clean, unreplayable


def _claim_bundle_dir(crash_dir: str, design: str, benchmark: str,
                      seed: int) -> str:
    os.makedirs(crash_dir, exist_ok=True)
    for index in range(1000):
        path = os.path.join(
            crash_dir, f"{design}-{benchmark}-s{seed}-{index:03d}")
        try:
            os.mkdir(path)
        except FileExistsError:
            continue
        return path
    raise RuntimeError(f"crash_dir {crash_dir!r} holds 1000 bundles already")


def write_crash_bundle(crash_dir: str, *, design: str, benchmark: str,
                       seed: int, warmup_refs: int,
                       trace, error: BaseException,
                       processor_config: Dict[str, int],
                       tech: str,
                       memory_latency_cycles: Optional[int],
                       design_overrides: Optional[Dict[str, Any]] = None,
                       sanitizer=None,
                       tracer=None,
                       metrics: Optional[Dict[str, Any]] = None,
                       wall_time_s: float = 0.0,
                       minimized_from: Optional[str] = None) -> str:
    """Write one crash bundle; returns the bundle directory path."""
    path = _claim_bundle_dir(crash_dir, design, benchmark, seed)
    snapshot = sanitizer.snapshot() if sanitizer is not None else {}

    refs_done = snapshot.get("refs", 0)
    trace = list(trace)
    if sanitizer is not None and refs_done:
        prefix = min(len(trace), refs_done + TRACE_PREFIX_MARGIN)
    else:
        prefix = len(trace)
    save_trace(os.path.join(path, "trace.txt"), trace[:prefix])

    overrides, unreplayable = _split_serializable(design_overrides or {})
    document = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "design": design,
        "benchmark": benchmark,
        "seed": seed,
        "warmup_refs": min(warmup_refs, prefix),
        "n_refs": prefix,
        "processor_config": dict(processor_config),
        "tech": tech,
        "memory_latency_cycles": memory_latency_cycles,
        "design_overrides": overrides,
        "unreplayable": unreplayable,
        "error": _error_info(error),
        "sanitizer": snapshot,
        "minimized_from": minimized_from,
    }
    with open(os.path.join(path, "bundle.json"), "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")

    if tracer is not None:
        try:
            tracer.write_jsonl(os.path.join(path, "events.jsonl"))
        except Exception:
            pass  # the ring buffer is best-effort context, never load-bearing

    if metrics is not None:
        from repro.obs.manifest import build_manifest, save_manifest

        manifest = build_manifest(
            kind="crash", design=design, benchmark=benchmark, seed=seed,
            config={"n_refs": prefix, "warmup_refs": document["warmup_refs"],
                    "tech": tech, "design_overrides": overrides},
            metrics=metrics, wall_time_s=wall_time_s,
            sanitizer=snapshot or None)
        save_manifest(os.path.join(path, "manifest.json"), manifest)

    return path


def load_bundle(bundle_dir: str) -> CrashBundle:
    """Load a crash bundle directory written by :func:`write_crash_bundle`."""
    bundle_json = os.path.join(bundle_dir, "bundle.json")
    if not os.path.isfile(bundle_json):
        raise FileNotFoundError(f"{bundle_dir!r} is not a crash bundle "
                                "(no bundle.json)")
    with open(bundle_json, encoding="utf-8") as handle:
        document = json.load(handle)
    version = document.get("format_version")
    if version != BUNDLE_FORMAT_VERSION:
        raise ValueError(f"unsupported bundle format {version!r} "
                         f"(this build reads {BUNDLE_FORMAT_VERSION})")
    trace = load_trace(os.path.join(bundle_dir, "trace.txt"))
    return CrashBundle(
        path=os.path.abspath(bundle_dir),
        design=document["design"],
        benchmark=document["benchmark"],
        seed=document["seed"],
        warmup_refs=document["warmup_refs"],
        processor_config=document["processor_config"],
        tech=document["tech"],
        memory_latency_cycles=document.get("memory_latency_cycles"),
        design_overrides=document.get("design_overrides", {}),
        error=document["error"],
        sanitizer=document.get("sanitizer", {}),
        trace=trace,
        unreplayable=document.get("unreplayable", []),
        minimized_from=document.get("minimized_from"),
    )
