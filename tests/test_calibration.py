"""Calibration-loop tests: profiles must track their Table 6 rows."""

import pytest

from repro.analysis.calibration import CalibrationGrade, grade_grid
from repro.analysis.experiments import run_design_grid


class TestGradeMath:
    def _grade(self, measured, paper, close_m=0.5, close_p=0.5):
        return CalibrationGrade("x", measured, paper, close_m, close_p,
                                10.0, None)

    def test_exact_match_zero_error(self):
        assert self._grade(5.0, 5.0).mpki_log_error == 0.0

    def test_factor_of_two_is_point_three_decades(self):
        assert self._grade(10.0, 5.0).mpki_log_error == pytest.approx(0.301, abs=0.01)

    def test_both_tiny_counts_as_match(self):
        assert self._grade(0.0, 0.019).mpki_log_error == 0.0

    def test_one_tiny_counts_as_decade(self):
        assert self._grade(0.0, 5.0).mpki_log_error == 1.0

    def test_within_tolerances(self):
        good = self._grade(5.0, 6.0, close_m=0.5, close_p=0.45)
        assert good.within()
        bad = self._grade(50.0, 5.0)
        assert not bad.within()


@pytest.mark.parametrize("bench_name", [
    "gcc", "equake", "swim", "oltp",
])
def test_representative_benchmarks_calibrated(bench_name):
    """One benchmark from each behaviour class must grade within
    tolerance (full-suite grading runs in the benchmark harness)."""
    grid = run_design_grid(designs=("TLC", "DNUCA"), benchmarks=(bench_name,),
                           n_refs=8_000, seed=7)
    grade = grade_grid(grid)[bench_name]
    assert grade.within(), (
        bench_name, grade.measured_tlc_mpki, grade.paper_tlc_mpki,
        grade.measured_close_hit, grade.paper_close_hit)
