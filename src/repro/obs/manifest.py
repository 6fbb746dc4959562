"""Run manifests: machine-readable provenance for every measured run.

A :class:`RunManifest` records *what* was measured (the full metrics
snapshot and headline result), *under which configuration* (the
canonical run parameters plus their SHA-256 digest), and *by which
code* (a digest of every source file in the ``repro`` package).  Two
manifests therefore answer the questions a reproduction constantly
asks: "did anything change?", and if so, "was it the code, the
configuration, or the measurement?" — see ``repro stats`` and
:func:`diff_manifests`.

Manifests are emitted by :func:`repro.sim.system.run_system` when
handed a :class:`RunObserver`, and by the ``repro report`` command for
whole grids.  The JSON format (schema version {SCHEMA_VERSION}) is documented
in docs/OBSERVABILITY.md; loading validates fields strictly so a
truncated or hand-edited manifest fails at the door rather than deep
inside an analysis.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: Bump when the manifest JSON layout changes incompatibly.
SCHEMA_VERSION = 1

_CODE_VERSION_STAMP: Optional[str] = None


def code_version_stamp() -> str:
    """SHA-256 digest of every ``.py`` source file in the ``repro`` package.

    Stamped into every manifest (and every result-cache key — see
    :mod:`repro.analysis.runner`): any edit to the simulator produces a
    different stamp, so results can always be traced to the exact code
    that measured them.  Computed once per process.
    """
    global _CODE_VERSION_STAMP
    if _CODE_VERSION_STAMP is None:
        import repro

        package_root = Path(repro.__file__).parent
        digest = hashlib.sha256()
        for source in sorted(package_root.rglob("*.py")):
            digest.update(str(source.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(source.read_bytes())
            digest.update(b"\0")
        _CODE_VERSION_STAMP = digest.hexdigest()
    return _CODE_VERSION_STAMP


def config_digest(config: Dict[str, Any]) -> str:
    """SHA-256 of the canonical JSON encoding of a configuration dict."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """Provenance + measurements of one run (or one grid of runs)."""

    #: manifest layout version (:data:`SCHEMA_VERSION`).
    schema: int
    #: "system", "report", "service.job", "explore.search", or "crash".
    kind: str
    #: design / benchmark of a single run; None for grid manifests.
    design: Optional[str]
    benchmark: Optional[str]
    seed: Optional[int]
    #: every parameter that determined the run, JSON-ready.
    config: Dict[str, Any]
    #: SHA-256 over the canonical encoding of ``config``.
    config_digest: str
    #: :func:`code_version_stamp` of the sources that ran.
    code_version: str
    #: wall-clock seconds the run took (not simulated cycles).
    wall_time_s: float
    #: the :meth:`~repro.obs.registry.MetricsRegistry.snapshot` document.
    metrics: Dict[str, Any]
    #: the headline result (e.g. a SystemResult as a dict), if any.
    result: Optional[Dict[str, Any]] = None
    #: :meth:`~repro.obs.trace.EventTracer.summary`, when tracing was on.
    trace: Optional[Dict[str, Any]] = None
    #: :meth:`~repro.analysis.resilience.RunnerTelemetry.as_dict` —
    #: attempts / retries / timeouts / worker deaths / quarantined
    #: cache entries — for every run that went through the grid
    #: runner (report, service job).  Execution provenance like wall
    #: time: excluded from :func:`diff_manifests` (a retried run and a
    #: clean run measure the same thing).
    resilience: Optional[Dict[str, Any]] = None
    #: :meth:`~repro.sanitizer.Sanitizer.summary` (clean runs) or its
    #: full snapshot (crash bundles), when the sanitizer was attached.
    #: Like ``resilience``, execution provenance: sanitized and plain
    #: runs of the same cell measure the same thing, so this is
    #: excluded from :func:`diff_manifests`.
    sanitizer: Optional[Dict[str, Any]] = None
    #: The derived-artifact cache lane's hit/miss/store/quarantine
    #: counts and ``ANALYSIS_VERSION`` (:mod:`repro.analysis.derived`)
    #: on ``report`` manifests.  Execution provenance (the lane is
    #: optimization-only; warm and cold runs measure the same thing),
    #: so excluded from :func:`diff_manifests`.
    derived: Optional[Dict[str, Any]] = None
    #: :meth:`~repro.service.jobs.JobStore.lifecycle_as_dict` — the
    #: service durability layer's ``service.lifecycle.*`` counts
    #: (journal replays, admission rejects, evictions, drains) for
    #: ``kind="service.job"`` manifests.  Execution provenance like
    #: ``resilience``: a resumed job and an uninterrupted one measure
    #: the same thing, so excluded from :func:`diff_manifests`.
    lifecycle: Optional[Dict[str, Any]] = None


def build_manifest(kind: str, config: Dict[str, Any],
                   metrics: Dict[str, Any],
                   wall_time_s: float,
                   design: Optional[str] = None,
                   benchmark: Optional[str] = None,
                   seed: Optional[int] = None,
                   result: Optional[Dict[str, Any]] = None,
                   trace: Optional[Dict[str, Any]] = None,
                   resilience: Optional[Dict[str, Any]] = None,
                   sanitizer: Optional[Dict[str, Any]] = None,
                   derived: Optional[Dict[str, Any]] = None,
                   lifecycle: Optional[Dict[str, Any]] = None) -> RunManifest:
    """Assemble a manifest, stamping the config digest and code version."""
    return RunManifest(
        schema=SCHEMA_VERSION,
        kind=kind,
        design=design,
        benchmark=benchmark,
        seed=seed,
        config=config,
        config_digest=config_digest(config),
        code_version=code_version_stamp(),
        wall_time_s=wall_time_s,
        metrics=metrics,
        result=result,
        trace=trace,
        resilience=resilience,
        sanitizer=sanitizer,
        derived=derived,
        lifecycle=lifecycle,
    )


class RunObserver:
    """Opt-in observability for ``run_system``.

    Pass one to a run entry point to receive its manifest (and feed it
    an :class:`~repro.obs.trace.EventTracer` to capture events)::

        obs = RunObserver(tracer=EventTracer())
        result = run_system("TLC", "mcf", observer=obs)
        save_manifest("m.json", obs.manifest)
        obs.tracer.write_jsonl("t.jsonl")

    The observer never influences the simulation — results with and
    without one attached are identical.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.manifest: Optional[RunManifest] = None


# -- persistence -----------------------------------------------------------

def manifest_to_dict(manifest: RunManifest) -> dict:
    """A JSON-ready dictionary of one manifest."""
    return dataclasses.asdict(manifest)


def manifest_from_dict(payload: dict) -> RunManifest:
    """Inverse of :func:`manifest_to_dict`, with strict field validation."""
    fields = {f.name for f in dataclasses.fields(RunManifest)}
    unknown = set(payload) - fields
    if unknown:
        raise ValueError(f"unknown manifest fields: {sorted(unknown)}")
    missing = {f.name for f in dataclasses.fields(RunManifest)
               if f.default is dataclasses.MISSING} - set(payload)
    if missing:
        raise ValueError(f"missing manifest fields: {sorted(missing)}")
    schema = payload.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(f"unsupported manifest schema {schema!r} "
                         f"(expected {SCHEMA_VERSION})")
    return RunManifest(**payload)


def save_manifest(path: str, manifest: RunManifest) -> None:
    """Write ``manifest`` to ``path`` as indented JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest_to_dict(manifest), handle, indent=1)
        handle.write("\n")


def load_manifest(path: str) -> RunManifest:
    """Read a manifest written by :func:`save_manifest`."""
    with open(path, "r", encoding="utf-8") as handle:
        return manifest_from_dict(json.load(handle))


# -- diffing ---------------------------------------------------------------

def flatten(document: Dict[str, Any], prefix: str = "",
            skip_bins: bool = True) -> Dict[str, Any]:
    """Flatten nested dictionaries to dotted scalar keys.

    ``skip_bins=True`` drops histogram ``bins`` sub-documents (their
    count/mean/min/max summaries remain), which keeps diffs readable;
    pass ``False`` for a bin-exact comparison.
    """
    flat: Dict[str, Any] = {}
    for key, value in document.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            if skip_bins and key == "bins":
                continue
            flat.update(flatten(value, prefix=f"{name}.", skip_bins=skip_bins))
        else:
            flat[name] = value
    return flat


def diff_manifests(a: RunManifest, b: RunManifest,
                   skip_bins: bool = True) -> List[Tuple[str, Any, Any]]:
    """Differences between two manifests as ``(name, a_value, b_value)``.

    Compares provenance (kind / design / benchmark / seed / config
    digest / code version), then every flattened metric and result
    field.  Wall time is reported only when either run took measurably
    longer (it is never byte-stable).  An empty list means the runs
    measured the same thing, the same way, with the same code.
    """
    rows: List[Tuple[str, Any, Any]] = []
    for field in ("kind", "design", "benchmark", "seed",
                  "config_digest", "code_version"):
        va, vb = getattr(a, field), getattr(b, field)
        if va != vb:
            rows.append((field, va, vb))
    for section, da, db in (("config", a.config, b.config),
                            ("metrics", a.metrics, b.metrics),
                            ("result", a.result or {}, b.result or {})):
        fa = flatten(da, prefix=f"{section}.", skip_bins=skip_bins)
        fb = flatten(db, prefix=f"{section}.", skip_bins=skip_bins)
        for name in sorted(set(fa) | set(fb)):
            va, vb = fa.get(name), fb.get(name)
            if va != vb:
                rows.append((name, va, vb))
    return rows
