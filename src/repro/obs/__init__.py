"""repro.obs — the unified observability layer.

Three pieces (see docs/OBSERVABILITY.md for the formats):

* :class:`~repro.obs.registry.MetricsRegistry` — dotted-name registry
  owning the :mod:`repro.sim.stats` primitives every design mutates;
  every :class:`~repro.core.base.L2Design` carries one as ``.metrics``.
* :class:`~repro.obs.trace.EventTracer` — opt-in event capture (ring
  buffer or full, per-type filtering, JSONL export) hooked into the
  processor's trace-replay loop.
* :class:`~repro.obs.manifest.RunManifest` — provenance + metrics
  snapshot of a run, emitted by ``run_system`` via a
  :class:`~repro.obs.manifest.RunObserver` and rendered or diffed by
  ``python -m repro stats``.
"""

from repro.obs.manifest import (
    RunManifest,
    RunObserver,
    build_manifest,
    code_version_stamp,
    config_digest,
    diff_manifests,
    flatten,
    load_manifest,
    manifest_from_dict,
    manifest_to_dict,
    save_manifest,
)
from repro.obs.registry import MetricsRegistry, ScopedRegistry
from repro.obs.trace import EventTracer, TraceEvent, read_jsonl

__all__ = [
    "EventTracer",
    "MetricsRegistry",
    "RunManifest",
    "RunObserver",
    "ScopedRegistry",
    "TraceEvent",
    "build_manifest",
    "code_version_stamp",
    "config_digest",
    "diff_manifests",
    "flatten",
    "load_manifest",
    "manifest_from_dict",
    "manifest_to_dict",
    "read_jsonl",
    "save_manifest",
]
