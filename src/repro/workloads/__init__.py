"""Synthetic workloads: the Simics/SPEC/commercial-benchmark substitute.

Each of the paper's twelve benchmarks is represented by a
:class:`~repro.workloads.profiles.BenchmarkProfile` whose parameters are
calibrated to the characteristics Table 6 reports (L2 requests per
kilo-instruction, miss rate, footprint, locality).  The generators in
:mod:`repro.workloads.synthetic` turn a profile into a deterministic
L2-level reference trace.
"""

from repro.workloads.trace import Reference, save_trace, load_trace
from repro.workloads.synthetic import generate_trace, TraceSpec
from repro.workloads.stats import (
    footprint,
    predict_miss_ratio,
    reuse_distance_histogram,
    summarize,
)
from repro.workloads.profiles import (
    BenchmarkProfile,
    PROFILES,
    benchmark_names,
    get_profile,
)

__all__ = [
    "Reference",
    "save_trace",
    "load_trace",
    "generate_trace",
    "TraceSpec",
    "footprint",
    "predict_miss_ratio",
    "reuse_distance_histogram",
    "summarize",
    "BenchmarkProfile",
    "PROFILES",
    "benchmark_names",
    "get_profile",
]
