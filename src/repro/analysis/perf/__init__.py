"""Performance benchmarking: timing harness, suite, and BENCH documents.

See :mod:`repro.analysis.perf.harness` for the methodology and the
BENCH JSON schema, :mod:`repro.analysis.perf.suite` for the benchmark
definitions, and ``docs/PERFORMANCE.md`` for the workflow (including
the CI perf gate this package backs).
"""

from repro.analysis.perf.harness import (
    CALIBRATION_BENCHMARK,
    CALLS_TOLERANCE,
    FORMAT_VERSION,
    BenchResult,
    Comparison,
    bench_document,
    compare_benchmarks,
    count_repro_calls,
    default_bench_name,
    load_benchmarks,
    mad,
    measure,
    median,
    pin_process,
    save_benchmarks,
    validate_benchmarks,
)
from repro.analysis.perf.suite import (
    LOOKUP_DESIGNS,
    SUITE,
    benchmark_names,
    run_suite,
)

__all__ = [
    "CALIBRATION_BENCHMARK",
    "CALLS_TOLERANCE",
    "FORMAT_VERSION",
    "LOOKUP_DESIGNS",
    "SUITE",
    "BenchResult",
    "Comparison",
    "bench_document",
    "benchmark_names",
    "compare_benchmarks",
    "count_repro_calls",
    "default_bench_name",
    "load_benchmarks",
    "mad",
    "measure",
    "median",
    "pin_process",
    "run_suite",
    "save_benchmarks",
    "validate_benchmarks",
]
