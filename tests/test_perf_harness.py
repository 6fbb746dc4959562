"""Tests for the perf harness: BENCH documents, comparison, equivalence.

The last class is the safety net for the hot-path optimization work:
it regenerates the pre-optimization golden grid and requires the saved
JSON to be byte-identical, so "optimizations" that change simulated
behaviour cannot land silently.
"""

import copy
import json
import os

import pytest

from repro.analysis.perf import (
    CALIBRATION_BENCHMARK,
    FORMAT_VERSION,
    BenchResult,
    bench_document,
    benchmark_names,
    compare_benchmarks,
    default_bench_name,
    load_benchmarks,
    mad,
    measure,
    median,
    run_suite,
    save_benchmarks,
    validate_benchmarks,
)
from repro.obs.manifest import code_version_stamp

CODE_VERSION = "f" * 64


def make_document(**overrides):
    results = {
        CALIBRATION_BENCHMARK: BenchResult(median_ns=1_000_000, mad_ns=100, reps=5),
        "link.transit": BenchResult(median_ns=2_000_000, mad_ns=500, reps=5,
                                    meta={"inner_ops": 1000}),
        "l2.lookup.tlc": BenchResult(median_ns=3_000_000, mad_ns=900, reps=5),
    }
    document = bench_document(results, code_version=CODE_VERSION,
                              pinned=False, quick=True)
    document.update(overrides)
    return document


class TestStatistics:
    def test_median_odd(self):
        assert median([5, 1, 3]) == 3

    def test_median_even_rounds_down(self):
        assert median([1, 2, 3, 4]) == 2

    def test_median_empty_rejected(self):
        with pytest.raises(ValueError):
            median([])

    def test_mad(self):
        assert mad([1, 1, 1]) == 0
        assert mad([1, 2, 9]) == 1


class TestMeasure:
    def test_warmup_plus_reps_calls(self):
        calls = []
        result = measure(lambda: calls.append(1), reps=3, warmup=2)
        assert len(calls) == 5
        assert result.reps == 3
        assert result.median_ns >= 0
        assert result.mad_ns >= 0

    def test_meta_is_copied(self):
        meta = {"inner_ops": 7}
        result = measure(lambda: None, reps=1, warmup=0, meta=meta)
        meta["inner_ops"] = 99
        assert result.meta == {"inner_ops": 7}

    def test_bad_reps_rejected(self):
        with pytest.raises(ValueError):
            measure(lambda: None, reps=0)
        with pytest.raises(ValueError):
            measure(lambda: None, warmup=-1)


class TestBenchDocument:
    def test_valid_document_passes(self):
        validate_benchmarks(make_document())

    def test_round_trip(self, tmp_path):
        document = make_document()
        path = save_benchmarks(str(tmp_path / "BENCH_x.json"), document)
        assert load_benchmarks(path) == document

    def test_directory_target_uses_default_name(self, tmp_path):
        path = save_benchmarks(str(tmp_path), make_document())
        assert os.path.basename(path) == default_bench_name(CODE_VERSION)
        assert os.path.basename(path) == f"BENCH_{'f' * 12}.json"

    def test_document_carries_no_timestamp(self):
        # Two runs of identical code differ only in the timings; the
        # top-level schema must stay free of wall-clock fields.
        document = make_document()
        assert set(document) == {"format_version", "code_version", "python",
                                 "platform", "pinned", "quick", "benchmarks"}

    @pytest.mark.parametrize("mutate", [
        lambda d: d.update(format_version=FORMAT_VERSION + 1),
        lambda d: d.update(code_version=""),
        lambda d: d.update(benchmarks={}),
        lambda d: d["benchmarks"]["link.transit"].update(median_ns=True),
        lambda d: d["benchmarks"]["link.transit"].update(median_ns=0),
        lambda d: d["benchmarks"]["link.transit"].update(mad_ns=-1),
        lambda d: d["benchmarks"]["link.transit"].update(reps=0),
        lambda d: d["benchmarks"]["link.transit"].update(meta=None),
    ])
    def test_invalid_documents_rejected(self, mutate):
        document = make_document()
        mutate(document)
        with pytest.raises(ValueError):
            validate_benchmarks(document)

    def test_code_version_stamp_deterministic(self):
        stamp = code_version_stamp()
        assert stamp == code_version_stamp()
        assert len(stamp) >= 12
        document = bench_document({"x": BenchResult(1, 0, 1)},
                                  code_version=stamp, pinned=False, quick=False)
        validate_benchmarks(document)


class TestCompare:
    def test_identical_documents_pass(self):
        document = make_document()
        comparisons, missing = compare_benchmarks(document, document)
        assert missing == []
        assert not any(c.regressed for c in comparisons)

    def test_injected_regression_fails(self):
        baseline = make_document()
        current = copy.deepcopy(baseline)
        current["benchmarks"]["link.transit"]["median_ns"] *= 3
        comparisons, _ = compare_benchmarks(current, baseline,
                                            fail_above_pct=40.0)
        verdicts = {c.name: c.regressed for c in comparisons}
        assert verdicts["link.transit"] is True
        assert verdicts["l2.lookup.tlc"] is False

    def test_calibration_benchmark_never_regresses(self):
        baseline = make_document()
        current = copy.deepcopy(baseline)
        current["benchmarks"][CALIBRATION_BENCHMARK]["median_ns"] *= 10
        comparisons, _ = compare_benchmarks(current, baseline)
        verdicts = {c.name: c.regressed for c in comparisons}
        assert verdicts[CALIBRATION_BENCHMARK] is False

    def test_normalization_forgives_a_slower_machine(self):
        baseline = make_document()
        current = copy.deepcopy(baseline)
        for entry in current["benchmarks"].values():
            entry["median_ns"] *= 2
        raw, _ = compare_benchmarks(current, baseline, fail_above_pct=40.0)
        assert any(c.regressed for c in raw)
        normalized, _ = compare_benchmarks(current, baseline,
                                           fail_above_pct=40.0, normalize=True)
        assert not any(c.regressed for c in normalized)
        assert all(abs(c.ratio - 1.0) < 1e-9 for c in normalized)

    def test_missing_benchmarks_reported(self):
        baseline = make_document()
        current = copy.deepcopy(baseline)
        del current["benchmarks"]["l2.lookup.tlc"]
        _, missing = compare_benchmarks(current, baseline)
        assert missing == ["l2.lookup.tlc"]

    def test_normalize_requires_calibration(self):
        baseline = make_document()
        current = copy.deepcopy(baseline)
        del current["benchmarks"][CALIBRATION_BENCHMARK]
        with pytest.raises(ValueError):
            compare_benchmarks(current, baseline, normalize=True)

    def test_negative_threshold_rejected(self):
        document = make_document()
        with pytest.raises(ValueError):
            compare_benchmarks(document, document, fail_above_pct=-1)

    def test_a_rise_in_calls_per_op_fails(self):
        """Counts are deterministic, so a rise of more than 1 % fails
        the gate even when the timing is unchanged."""
        baseline = make_document()
        baseline["benchmarks"]["link.transit"]["meta"]["calls_per_op"] = 20.0
        for calls, regressed in ((20.2, False), (20.21, True), (19.0, False)):
            current = copy.deepcopy(baseline)
            current["benchmarks"]["link.transit"]["meta"]["calls_per_op"] = calls
            comparisons, _ = compare_benchmarks(current, baseline)
            verdict = {c.name: c for c in comparisons}["link.transit"]
            assert verdict.calls_regressed is regressed
            assert verdict.regressed is regressed
            assert any(c.regressed for c in comparisons) is regressed

    def test_calls_need_a_baseline_count(self):
        """A baseline entry without a count gates on timing alone."""
        baseline = make_document()
        current = copy.deepcopy(baseline)
        current["benchmarks"]["link.transit"]["meta"]["calls_per_op"] = 99.0
        comparisons, _ = compare_benchmarks(current, baseline)
        assert not any(c.regressed for c in comparisons)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
    def test_non_finite_threshold_rejected(self, threshold):
        """A NaN or infinite threshold would make every ratio compare
        below it, so nothing could ever regress."""
        document = make_document()
        with pytest.raises(ValueError):
            compare_benchmarks(document, document, fail_above_pct=threshold)


class TestCompareCli:
    """``repro perf --compare`` computes its own verdict, so its exit
    code is tested through the CLI.  The count gate is deterministic,
    so the verdict does not depend on timing."""

    def test_exit_code_follows_the_count_gate(self, tmp_path, capsys):
        from repro.cli import main

        saved = str(tmp_path / "bench.json")
        run = ["perf", "--quick", "--reps", "1", "--no-pin",
               "--filter", "link.transit"]
        compare = run + ["--compare", saved, "--fail-above", "1000"]
        assert main(run + ["--save", saved]) == 0
        capsys.readouterr()
        assert main(compare) == 0
        assert "no perf regressions" in capsys.readouterr().out

        document = load_benchmarks(saved)
        document["benchmarks"]["link.transit"]["meta"]["calls_per_op"] /= 2
        with open(saved, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        assert main(compare) == 1
        assert ("PERF REGRESSION in: link.transit"
                in capsys.readouterr().err)


class TestSuite:
    def test_registry_covers_every_layer(self):
        names = benchmark_names()
        assert list(names) == sorted(names)
        assert len(names) >= 6
        for required in (CALIBRATION_BENCHMARK, "l2.lookup.tlc",
                         "l2.lookup.snuca2", "l2.lookup.dnuca", "link.transit",
                         "mesh.transit", "workload.generate",
                         "system.refs_per_sec.tlc"):
            assert required in names

    def test_calls_per_op_do_not_depend_on_reps(self):
        """The count is taken on a fresh build after the warm-up, outside
        the timed reps."""
        counts = [run_suite(quick=True, name_filter="l2.lookup.dnuca",
                            reps=reps, pin=False)[0]["l2.lookup.dnuca"]
                  .meta["calls_per_op"] for reps in (1, 3)]
        assert counts[0] == counts[1] > 1

    def test_filtered_quick_run_produces_results(self):
        results, _ = run_suite(quick=True, name_filter="calibration",
                               reps=1, pin=False)
        assert list(results) == [CALIBRATION_BENCHMARK]
        result = results[CALIBRATION_BENCHMARK]
        assert result.median_ns > 0
        assert result.meta["inner_ops"] > 0
        assert result.meta["ops_per_sec"] > 0


class TestFilterZeroMatch:
    """`repro perf --filter` with a pattern matching nothing must fail
    loudly (exit 2) and list the available benchmark names — it used to
    exit 0 after silently running nothing."""

    def test_run_suite_empty_on_no_match(self):
        results, _ = run_suite(quick=True,
                               name_filter="no-such-benchmark",
                               reps=1, pin=False)
        assert results == {}

    def test_perf_cli_exits_2_and_lists_names(self, capsys):
        from repro.cli import main

        assert main(["perf", "--quick", "--reps", "1", "--no-pin",
                     "--filter", "no-such-benchmark"]) == 2
        err = capsys.readouterr().err
        assert "no benchmark matches filter 'no-such-benchmark'" in err
        for name in benchmark_names():
            assert name in err

    def test_perf_list_respects_filter(self, capsys):
        from repro.cli import main

        assert main(["perf", "--list", "--filter", "calibration"]) == 0
        out = capsys.readouterr().out.split()
        assert out == [CALIBRATION_BENCHMARK]

    def test_perf_list_exits_2_on_no_match(self, capsys):
        from repro.cli import main

        assert main(["perf", "--list",
                     "--filter", "no-such-benchmark"]) == 2
        assert "available benchmarks" in capsys.readouterr().err


class TestGridEquivalence:
    """The optimized simulator must reproduce the pre-optimization grid
    byte-for-byte (same JSON, same floats, same ordering)."""

    GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                          "grid_equivalence.json")

    def test_grid_output_matches_golden_bytes(self, tmp_path):
        from repro.analysis.runner import run_grid
        from repro.analysis.storage import save_grid

        grid = run_grid(designs=("SNUCA2", "DNUCA", "TLC", "TLCopt500"),
                        benchmarks=("perl", "bzip", "mcf", "swim"),
                        n_refs=3000, seed=7)
        out = tmp_path / "grid.json"
        save_grid(str(out), grid)
        with open(self.GOLDEN, "rb") as handle:
            golden_bytes = handle.read()
        assert out.read_bytes() == golden_bytes
