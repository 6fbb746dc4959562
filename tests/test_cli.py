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

    @pytest.mark.parametrize("argv", [
        ["grid"],
        ["explore", "--space", "space.json"],
        ["serve"],
    ])
    @pytest.mark.parametrize("flag", [
        "--derived-cache-dir somewhere", "--no-derived-cache"])
    def test_derived_lane_options_are_rejected(self, argv, flag, capsys):
        """Only ``report`` caches a derived artifact; the other commands
        have no lane and no lane flags."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv + flag.split())
        assert exit_info.value.code == 2
        assert (f"unrecognized arguments: {flag}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["grid"],
        ["report"],
        ["explore", "--space", "space.json"],
        ["serve"],
    ])
    @pytest.mark.parametrize("flag, value", [
        ("--retries", "-1"),
        ("--cell-timeout", "0"),
        ("--cell-timeout", "-5"),
    ])
    def test_bad_resilience_values_are_usage_errors(self, argv, flag, value,
                                                     capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + [flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, flag, value", [
        *[(argv, "--refs", "0") for argv in (
            ["run", "TLC", "mcf"], ["compare", "mcf"], ["trace", "mcf"],
            ["grid"], ["report"])],
        *[(argv, "--seed", "-1") for argv in (
            ["run", "TLC", "mcf"], ["compare", "mcf"], ["trace", "mcf"],
            ["grid"], ["explore", "--space", "space.json"])],
        (["run", "TLC", "mcf", "--sanitize"], "--sanitize-interval", "0"),
        (["run", "TLC", "mcf", "--sanitize"], "--watchdog-cycles", "0"),
        (["run", "TLC", "mcf", "--trace-out", "t.jsonl"],
         "--trace-capacity", "0"),
        (["perf"], "--reps", "0"),
        (["grid"], "--workers", "0"),
        (["report"], "--workers", "-3"),
        (["explore", "--space", "space.json"], "--workers", "0"),
        (["serve"], "--workers", "0"),
        (["explore", "--space", "space.json"], "--top-k", "-1"),
        (["serve"], "--port", "-1"),
        (["serve"], "--port", "65536"),
        (["serve"], "--max-active-jobs", "-1"),
        (["serve"], "--max-queued-cells", "-1"),
        (["serve"], "--job-ttl", "0"),
        (["serve"], "--drain-timeout", "-1"),
        (["grid"], "--refs", "many"),
        (["perf"], "--fail-above", "-1"),
        (["perf"], "--fail-above", "nan"),
        (["perf"], "--fail-above", "inf"),
    ])
    def test_bad_numeric_values_are_usage_errors(self, argv, flag, value,
                                                 capsys):
        # Parse only: an accepted value would start a run or a server.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv + [flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be" in err
        assert "Traceback" not in err

    def test_numeric_bounds_are_inclusive(self):
        parser = build_parser()
        run = parser.parse_args(["run", "TLC", "mcf", "--refs", "1",
                                 "--seed", str(2**40)])
        assert (run.refs, run.seed) == (1, 2**40)
        serve = parser.parse_args(["serve", "--port", "65535",
                                   "--max-active-jobs", "0",
                                   "--max-queued-cells", "0",
                                   "--drain-timeout", "0"])
        assert (serve.port, serve.max_active_jobs, serve.max_queued_cells,
                serve.drain_timeout) == (65535, 0, 0, 0.0)


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
