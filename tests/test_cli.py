"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_design_rejected(self, capsys):
        assert main(["run", "NOPE", "gcc"]) == 2
        assert "unknown design" in capsys.readouterr().err

    def test_unknown_benchmark_rejected(self, capsys):
        assert main(["run", "TLC", "linpack"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_design_flag_spelling_normalized(self, capsys):
        assert main(["run", "--design", "tlc_opt_500", "--benchmark", "perl",
                     "--refs", "1500"]) == 0
        assert "TLCopt500 on perl" in capsys.readouterr().out

    def test_run_requires_both_names(self, capsys):
        assert main(["run", "TLC"]) == 2
        assert "required" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "TLC", "mcf"],
        ["grid"],
        ["explore", "--space", "space.json"],
    ])
    def test_backend_option_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--backend", "batched"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, option", [
        (["grid"], "checkpoint"),
        (["report"], "checkpoint"),
        (["explore", "--space", "space.json"], "checkpoint"),
        (["serve"], "checkpoint-dir"),
    ])
    def test_journal_options_are_rejected(self, argv, option, capsys):
        """Resume is a rerun against the same --cache-dir; the per-run
        and per-job cell journals and their flags are gone."""
        flag = f"--{option}"
        with pytest.raises(SystemExit) as exit_info:
            main(argv + [flag, "somewhere"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestInformational:
    def test_designs_lists_registry(self, capsys):
        assert main(["designs"]) == 0
        out = capsys.readouterr().out
        for name in ("TLC", "TLCopt350", "SNUCA2", "DNUCA"):
            assert name in out

    def test_benchmarks_lists_profiles(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        for name in ("mcf", "equake", "oltp"):
            assert name in out


class TestLine:
    def test_usable_line_exit_zero(self, capsys):
        assert main(["line", "1.1"]) == 0
        assert "USABLE" in capsys.readouterr().out

    def test_too_long_line_is_an_error(self, capsys):
        assert main(["line", "5.0"]) == 1
        assert "error" in capsys.readouterr().err


class TestRunAndCompare:
    def test_run_prints_metrics(self, capsys):
        assert main(["run", "TLC", "perl", "--refs", "1500"]) == 0
        out = capsys.readouterr().out
        assert "mean lookup latency" in out
        assert "network power" in out

    def test_compare_renders_chart(self, capsys):
        assert main(["compare", "perl", "--designs", "SNUCA2", "TLC",
                     "--refs", "1500"]) == 0
        out = capsys.readouterr().out
        assert "normalized" in out
        assert "legend:" in out


class TestGrid:
    def test_grid_run_save_load(self, tmp_path, capsys):
        path = str(tmp_path / "grid.json")
        assert main(["grid", "--designs", "SNUCA2", "TLC",
                     "--benchmarks", "perl", "--refs", "1500",
                     "--save", path]) == 0
        first = capsys.readouterr().out
        assert "Normalized execution time" in first
        assert main(["grid", "--load", path]) == 0
        second = capsys.readouterr().out
        assert first.splitlines()[-1] == second.splitlines()[-1]


class TestTrace:
    def test_trace_summary(self, capsys):
        assert main(["trace", "bzip", "--refs", "2000"]) == 0
        out = capsys.readouterr().out
        assert "footprint" in out

    def test_trace_written_to_file(self, tmp_path, capsys):
        path = str(tmp_path / "t.trace")
        assert main(["trace", "bzip", "--refs", "500", "--out", path]) == 0
        from repro.workloads.trace import load_trace
        assert len(load_trace(path)) == 500
