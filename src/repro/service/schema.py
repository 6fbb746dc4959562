"""Schema-first definitions for the simulation service's HTTP API.

Following the schemathesis exemplar (ROADMAP item 1), the API surface
is declared as *data* before any handler exists: :data:`ENDPOINTS`
enumerates every route with its request/response shapes, and
:data:`JOB_SPEC_SCHEMA` is the JSON-Schema document for the one
non-trivial request body — the job spec a ``POST /v1/jobs`` carries.
``docs/SERVICE.md`` renders from the same definitions the validator
enforces and the property tests fuzz, so the three can never drift
apart silently.

Validation is deliberately routed through the design registry:
:func:`validate_job_spec` resolves every design name to its registered
:class:`~repro.core.config.DesignConfig` (the object whose
``__post_init__`` already guarantees a buildable design) and raises the
same typed :class:`~repro.core.config.ConfigError` for anything
invalid, so a bad HTTP payload and a bad CLI override fail through one
error type with one message style.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

from repro.core.config import (
    RUN_PARAMETER_SCHEMA,
    ConfigError,
    get_design,
    resolve_design_name,
    validate_run_parameters,
)

#: Bump when a response document's layout changes incompatibly.
SERVICE_SCHEMA_VERSION = 2

#: Service-side guard rail: a long-running shared service must bound
#: the work one request can demand (per-cell bounds are in
#: :data:`~repro.core.config.RUN_PARAMETER_SCHEMA`).  Large grids are
#: submitted as several jobs; the result cache makes the split free.
MAX_CELLS_PER_JOB = 256

#: Admission-control defaults (``repro serve --max-active-jobs /
#: --max-queued-cells``; pass 0 for unlimited).  Submits beyond either
#: cap answer 429 ``over_capacity`` with a ``Retry-After`` header; the
#: stdlib client retries with exponential backoff that honors it.
DEFAULT_MAX_ACTIVE_JOBS = 32
DEFAULT_MAX_QUEUED_CELLS = 2048

#: Seconds the ``Retry-After`` header advertises on 429/503 rejects.
DEFAULT_RETRY_AFTER_S = 1.0

#: JSON Schema for the ``POST /v1/jobs`` request body.  This is the
#: document SERVICE.md embeds and the Hypothesis suite fuzzes against
#: :func:`validate_job_spec` — the validator is the executable twin of
#: this declaration.
JOB_SPEC_SCHEMA = {
    "type": "object",
    "required": ["designs"],
    "additionalProperties": False,
    "properties": {
        "designs": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "string"},
            "description": "design names (any case/separator spelling); "
                           "resolved against the Table 2 registry; "
                           "duplicates rejected; first entry is the "
                           "normalization baseline",
        },
        **RUN_PARAMETER_SCHEMA,
    },
}

#: Every route the service answers, as (method, path template,
#: one-line summary).  SERVICE.md's endpoint reference and the
#: route-coverage tests iterate this table.
ENDPOINTS = (
    ("POST", "/v1/jobs",
     "submit a design x benchmark grid job (body: JOB_SPEC_SCHEMA)"),
    ("GET", "/v1/jobs/{id}",
     "job status: state, per-cell progress, runner telemetry"),
    ("GET", "/v1/jobs/{id}/result",
     "finished job's grid stats + normalized execution time"),
    ("GET", "/v1/healthz",
     "liveness + service.* / runner.* metrics"),
)

#: Machine-readable error codes the JSON error envelope uses.
ERROR_CODES = {
    "invalid_json": "request body is not valid JSON",
    "invalid_spec": "job spec failed validation (ConfigError detail)",
    "unknown_job": "no job with that id",
    "job_failed": "the job finished with a permanent cell failure",
    "not_found": "no such route",
    "method_not_allowed": "route exists but not for this HTTP method",
    "payload_too_large": "request body exceeds the service limit",
    "bad_request": "malformed HTTP request (bad header, length, or line)",
    "not_implemented": "the server does not support this HTTP method",
    "over_capacity": "admission control rejected the submit; retry after "
                     "the Retry-After delay",
    "draining": "the server is draining for shutdown and accepts no new "
                "jobs; retry after the Retry-After delay",
    "gone": "the job's status was evicted after its TTL; resubmit the "
            "spec to recover the result from the cache",
    "internal": "unexpected server error (the request was not dropped)",
}


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """A validated grid-job specification (one ``POST /v1/jobs`` body).

    Construction goes through :func:`validate_job_spec`; fields are
    normalized (design names resolved to registry spellings, benchmark
    default expanded) so two spellings of one grid dedupe to one job.
    """

    designs: Tuple[str, ...]
    benchmarks: Tuple[str, ...]
    n_refs: int = 20_000
    seed: int = 7
    warmup_fraction: float = 0.3
    sanitize: bool = False

    def as_dict(self) -> dict:
        return {
            "designs": list(self.designs),
            "benchmarks": list(self.benchmarks),
            "n_refs": self.n_refs,
            "seed": self.seed,
            "warmup_fraction": self.warmup_fraction,
            "sanitize": self.sanitize,
        }


def _fail(message: str) -> None:
    raise ConfigError(f"job spec: {message}")


def _validated_designs(raw: object) -> Tuple[str, ...]:
    """A tuple of resolved, duplicate-free design names."""
    if (not isinstance(raw, (list, tuple)) or not raw
            or not all(isinstance(item, str) for item in raw)):
        _fail(f"designs must be a non-empty array of strings, got {raw!r}")
    resolved = []
    for item in raw:
        try:
            resolved.append(resolve_design_name(item))
        except ValueError as error:
            raise ConfigError(f"job spec: {error}") from error
    duplicates = sorted({name for name in resolved
                         if resolved.count(name) > 1})
    if duplicates:
        _fail(f"designs contains duplicate entries {duplicates} "
              f"(after name resolution)")
    return tuple(resolved)


def validate_job_spec(payload: object) -> JobSpec:
    """Validate one ``POST /v1/jobs`` body into a :class:`JobSpec`.

    Raises :class:`~repro.core.config.ConfigError` — and only
    ``ConfigError`` — for every way a payload can be invalid; the
    Hypothesis suite in ``tests/test_service.py`` enforces that
    contract over arbitrary JSON.
    """
    if not isinstance(payload, dict):
        _fail(f"body must be a JSON object, got {type(payload).__name__}")
    known = set(JOB_SPEC_SCHEMA["properties"])
    unknown = sorted(set(payload) - known)
    if unknown:
        _fail(f"unknown field(s) {unknown}; known fields: {sorted(known)}")

    designs = _validated_designs(payload["designs"]) \
        if "designs" in payload else _fail("designs is required")
    for design in designs:
        # The registry lookup is the DesignConfig-backed guarantee: a
        # name that resolves maps to a config whose __post_init__ has
        # already proven the design buildable.
        get_design(design)
    run = validate_run_parameters(payload, "job spec")

    cells = len(designs) * len(run["benchmarks"])
    if cells > MAX_CELLS_PER_JOB:
        _fail(f"grid has {cells} cells; the service caps a job at "
              f"{MAX_CELLS_PER_JOB} (split it into several jobs — the "
              f"shared result cache makes the split free)")
    return JobSpec(designs=designs, **run)
