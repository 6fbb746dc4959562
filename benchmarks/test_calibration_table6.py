"""Calibration audit: every profile graded against its Table 6 row.

This is the closed loop behind the workload substitution: each of the
twelve synthetic profiles must land within tolerance of the published
workload characteristics (miss rate within a factor of ~2.5, DNUCA
close-hit rate within 30 points) — evidence that the Figures 5-8
comparisons run on workloads that behave like the paper's.
"""

from conftest import bench_policy, bench_workers

from repro.analysis.calibration import grade_grid
from repro.analysis.experiments import run_design_grid
from repro.analysis.tables import format_table


def test_calibration_against_table6(grid_cache, benchmark):
    grid = run_design_grid(designs=("TLC", "DNUCA"), n_refs=10_000,
                           workers=bench_workers(), cache=grid_cache,
                           policy=bench_policy())
    grades = benchmark.pedantic(lambda: grade_grid(grid),
                                rounds=1, iterations=1)

    rows = []
    for name, grade in grades.items():
        rows.append([
            name,
            round(grade.measured_tlc_mpki, 3), grade.paper_tlc_mpki,
            f"{grade.mpki_log_error:.2f} dec",
            f"{grade.measured_close_hit:.0%}", f"{grade.paper_close_hit:.0%}",
            "ok" if grade.within() else "OFF",
        ])
    print()
    print(format_table(
        ["bench", "mpki", "(paper)", "mpki err", "close%", "(paper)",
         "grade"],
        rows, title="Workload calibration audit vs Table 6"))

    misgraded = [name for name, grade in grades.items() if not grade.within()]
    assert not misgraded, misgraded

    # Aggregate quality: mean miss-rate error well under a factor of two.
    mean_error = sum(g.mpki_log_error for g in grades.values()) / len(grades)
    assert mean_error < 0.2, mean_error
