"""Tests for the experiment grid runner and table utilities."""

import pytest

from repro.analysis.experiments import (
    FAMILY_DESIGNS,
    MAIN_DESIGNS,
    PAPER_DESIGNS,
    TLC_FAMILY,
    run_design_grid,
)
from repro.analysis.tables import (
    PAPER_TABLE6,
    PAPER_TABLE7,
    PAPER_TABLE9,
    format_table,
)


class TestGridRunner:
    @pytest.fixture(scope="class")
    def grid(self):
        return run_design_grid(designs=("SNUCA2", "TLC"),
                               benchmarks=("perl", "bzip"), n_refs=3_000)

    def test_all_cells_present(self, grid):
        assert set(grid.results) == {
            (d, b) for d in ("SNUCA2", "TLC") for b in ("perl", "bzip")}

    def test_result_accessor(self, grid):
        r = grid.result("TLC", "perl")
        assert r.design == "TLC" and r.benchmark == "perl"

    def test_normalization_baseline_is_one(self, grid):
        assert grid.normalized_execution_time("SNUCA2", "perl") == 1.0

    def test_normalized_time_positive(self, grid):
        assert grid.normalized_execution_time("TLC", "bzip") > 0

    def test_shared_trace_across_designs(self, grid):
        """Both designs must have replayed the identical trace."""
        assert (grid.result("TLC", "perl").l2_requests
                == grid.result("SNUCA2", "perl").l2_requests)

    def test_design_lists(self):
        assert MAIN_DESIGNS == ("SNUCA2", "DNUCA", "TLC")
        assert TLC_FAMILY[0] == "TLC" and len(TLC_FAMILY) == 4
        assert FAMILY_DESIGNS == ("SNUCA2",) + TLC_FAMILY
        assert PAPER_DESIGNS == ("SNUCA2", "DNUCA", "TLC", "TLCopt1000",
                                 "TLCopt500", "TLCopt350")

    def test_missing_cell_names_cell_and_choices(self, grid):
        with pytest.raises(KeyError) as excinfo:
            grid.result("DNUCA", "perl")
        message = str(excinfo.value)
        assert "DNUCA" in message and "perl" in message
        assert "SNUCA2" in message and "bzip" in message

    def test_misspelled_benchmark_in_normalization(self, grid):
        with pytest.raises(KeyError, match="prl"):
            grid.normalized_execution_time("TLC", "prl")

    def test_missing_baseline_named(self, grid):
        with pytest.raises(KeyError, match="nope"):
            grid.normalized_execution_time("TLC", "perl", baseline="nope")

    def test_select_keeps_results_and_provenance(self, grid):
        tlc = grid.select(("TLC",))
        assert (tlc.designs, tlc.benchmarks) == (("TLC",), grid.benchmarks)
        assert tlc.results == {cell: result for cell, result
                               in grid.results.items() if cell[0] == "TLC"}
        assert tlc.cell_meta == {cell: grid.cell_meta[cell]
                                 for cell in tlc.results}
        assert grid.select(("TLC", "SNUCA2")).designs == ("TLC", "SNUCA2")

    def test_select_names_a_missing_design(self, grid):
        with pytest.raises(KeyError, match="DNUCA"):
            grid.select(("TLC", "DNUCA"))


class TestBenchmarkSuite:
    """A one-design grid threads every grid parameter through to its
    cells."""

    def test_warmup_fraction_threaded_through(self):
        cold = run_design_grid(designs=("TLC",), benchmarks=("perl",),
                               n_refs=2_000, warmup_fraction=0.0)
        warm = run_design_grid(designs=("TLC",), benchmarks=("perl",),
                               n_refs=2_000, warmup_fraction=0.5)
        assert (cold.result("TLC", "perl").l2_requests
                > warm.result("TLC", "perl").l2_requests)

    def test_processor_config_threaded_through(self):
        from repro.sim.processor import ProcessorConfig

        narrow = run_design_grid(
            designs=("TLC",), benchmarks=("perl",), n_refs=2_000,
            processor_config=ProcessorConfig(issue_width=1, mshrs=1))
        wide = run_design_grid(designs=("TLC",), benchmarks=("perl",),
                               n_refs=2_000)
        assert (narrow.result("TLC", "perl").cycles
                > wide.result("TLC", "perl").cycles)


class TestPaperReferenceData:
    def test_table6_covers_all_benchmarks(self):
        assert len(PAPER_TABLE6) == 12

    def test_table7_totals_are_sums(self):
        for row in PAPER_TABLE7.values():
            assert row["total"] == pytest.approx(
                row["storage"] + row["channel"] + row["controller"], rel=0.02)

    def test_table9_tlc_always_cheaper(self):
        for row in PAPER_TABLE9.values():
            assert row["tlc_mw"] < row["dnuca_mw"]

    def test_table9_average_saving_near_61_percent(self):
        """The abstract's headline: 61 % average network power saving."""
        savings = [1 - row["tlc_mw"] / row["dnuca_mw"]
                   for row in PAPER_TABLE9.values()]
        assert sum(savings) / len(savings) == pytest.approx(0.61, abs=0.03)


class TestFormatTable:
    def test_renders_headers_and_rows(self):
        text = format_table(["a", "bb"], [[1, 2.5], [3, 4.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "2.5" in text

    def test_columns_aligned(self):
        text = format_table(["col"], [[123456]])
        lines = text.splitlines()
        assert len(lines[0]) == len(lines[1]) == len(lines[2])
