"""Simulation-as-a-service: an HTTP/JSON job API over the grid runner.

The service wraps the whole prior stack — designs
(:mod:`repro.core.config`), the resilient grid executor and
content-addressed result cache (:mod:`repro.analysis.runner`,
:mod:`repro.analysis.resilience`), and observability
(:mod:`repro.obs`) — behind four endpoints so many concurrent clients
share one result store.  Stdlib only; see ``docs/SERVICE.md``.
"""

from repro.service.client import (
    ServiceClient,
    ServiceError,
    backoff_delay,
    poll_schedule,
)
from repro.service.jobs import (
    LIFECYCLE_COUNTS,
    AdmissionError,
    DrainingError,
    Job,
    JobStore,
    describe_recovery,
    job_key,
)
from repro.service.schema import (
    ENDPOINTS,
    ERROR_CODES,
    JOB_SPEC_SCHEMA,
    SERVICE_SCHEMA_VERSION,
    JobSpec,
    validate_job_spec,
)
from repro.service.server import ServiceHandler, make_server

__all__ = [
    "ENDPOINTS",
    "ERROR_CODES",
    "JOB_SPEC_SCHEMA",
    "LIFECYCLE_COUNTS",
    "SERVICE_SCHEMA_VERSION",
    "AdmissionError",
    "DrainingError",
    "Job",
    "JobSpec",
    "JobStore",
    "ServiceClient",
    "ServiceError",
    "ServiceHandler",
    "backoff_delay",
    "describe_recovery",
    "job_key",
    "make_server",
    "poll_schedule",
    "validate_job_spec",
]
