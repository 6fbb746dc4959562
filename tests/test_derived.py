"""Tests for the derived-artifact cache lane (repro.analysis.derived).

The lane is optimization-only, so almost every test here is some form
of "warm and cold agree, and the lane did/did not do work": key
determinism and invalidation, warm-vs-cold byte-identical reports,
section-granular re-derivation, sweep and CLI routing, and the
``analysis.derived.*`` observability surface.  The store under the lane
is the result lane's; its corruption catalog runs against both lanes in
``tests/test_runner.py::TestCacheIntegrity``.
"""

from repro.analysis.derived import (
    ANALYSIS_VERSION,
    DERIVED_FORMAT_VERSION,
    DerivedLane,
    as_lane,
    derived_key,
)
from repro.analysis.experiments import ExperimentGrid, MAIN_DESIGNS, TLC_FAMILY
from repro.analysis.report import REPORT_SECTIONS, build_report
from repro.sim.system import SystemResult

BENCHMARKS = ("gcc", "mcf")


def make_result(design: str, benchmark: str, index: int) -> SystemResult:
    """A fully populated, deterministic synthetic result cell."""
    return SystemResult(
        design=design,
        benchmark=benchmark,
        cycles=100_000 + 7_919 * index,
        instructions=250_000,
        l2_requests=20_000,
        l2_hits=19_000 - 250 * index,
        l2_misses=1_000 + 250 * index,
        mean_lookup_latency=10.0 + 1.25 * index,
        predictable_lookup_fraction=round(0.95 - 0.05 * (index % 4), 2),
        banks_accessed_per_request=1.0 + 0.25 * (index % 3),
        link_utilization=round(0.04 * (index % 5 + 1), 2),
        network_power_w=0.050 + 0.015 * index,
        stats={"close_hits": 5_000 + 100 * index,
               "promotions": 800 + 10 * index,
               "insertions": 400},
    )


def make_grid(designs, mutate=None) -> ExperimentGrid:
    """A hand-built grid (no runner provenance -> content fingerprints).

    ``mutate`` maps ``(design, benchmark)`` to a replacement result, for
    the single-cell invalidation tests.
    """
    results = {}
    index = 0
    for benchmark in BENCHMARKS:
        for design in designs:
            results[(design, benchmark)] = make_result(design, benchmark,
                                                       index)
            index += 1
    if mutate:
        results.update(mutate)
    return ExperimentGrid(tuple(designs), BENCHMARKS, results)


class TestDerivedKey:
    def test_deterministic(self):
        assert (derived_key("fig5", ["a", "b"], {"n": 1})
                == derived_key("fig5", ["a", "b"], {"n": 1}))

    def test_cell_key_order_insensitive(self):
        assert (derived_key("fig5", ["a", "b"])
                == derived_key("fig5", ["b", "a"]))

    def test_components_all_matter(self):
        base = derived_key("fig5", ["a"], {"n": 1})
        assert derived_key("fig6", ["a"], {"n": 1}) != base
        assert derived_key("fig5", ["b"], {"n": 1}) != base
        assert derived_key("fig5", ["a"], {"n": 2}) != base
        assert derived_key("fig5", ["a", "b"], {"n": 1}) != base

    def test_analysis_version_rotates_key(self):
        assert (derived_key("fig5", ["a"], analysis_version=ANALYSIS_VERSION)
                != derived_key("fig5", ["a"],
                               analysis_version=ANALYSIS_VERSION + 1))


class TestDerivedLane:
    def test_disabled_lane_computes_inline(self):
        lane = as_lane(None)
        assert not lane.enabled
        calls = []
        for _ in range(2):
            out = lane.get_or_compute("t", [], None,
                                      lambda: calls.append(1) or {"v": 1})
            assert out == {"v": 1}
        assert len(calls) == 2
        assert lane.counter.as_dict()["computed"] == 2
        assert "disabled" in lane.summary()

    def test_enabled_lane_hits_second_time(self, tmp_path):
        lane = as_lane(tmp_path)
        assert lane.enabled
        first = lane.get_or_compute("t", ["k"], None, lambda: {"v": 7})

        def explode():
            raise AssertionError("warm lane must not recompute")

        second = lane.get_or_compute("t", ["k"], None, explode)
        assert first == second == {"v": 7}
        counts = lane.counter.as_dict()
        assert counts["hits"] == 1 and counts["misses"] == 1
        assert counts["stores"] == 1

    def test_analysis_version_bump_invalidates(self, tmp_path, monkeypatch):
        lane = as_lane(tmp_path)
        lane.get_or_compute("t", ["k"], None, lambda: {"v": "old"})
        import repro.analysis.derived as derived_module

        monkeypatch.setattr(derived_module, "ANALYSIS_VERSION",
                            ANALYSIS_VERSION + 1)
        fresh = as_lane(tmp_path)
        out = fresh.get_or_compute("t", ["k"], None, lambda: {"v": "new"})
        assert out == {"v": "new"}
        assert fresh.counter.as_dict()["misses"] == 1

    def test_corrupt_entry_recomputed_and_counted(self, tmp_path):
        lane = as_lane(tmp_path)
        lane.get_or_compute("t", ["k"], None, lambda: {"v": 1})
        key = derived_key("t", ["k"])
        lane.cache.path_for(key).write_text("not json", encoding="utf-8")
        out = lane.get_or_compute("t", ["k"], None, lambda: {"v": 1})
        assert out == {"v": 1}
        assert lane.counter.as_dict()["quarantined"] == 1

    def test_registers_analysis_metrics(self, tmp_path):
        from repro.obs import MetricsRegistry

        lane = as_lane(tmp_path)
        lane.get_or_compute("t", [], None, lambda: {"v": 1})
        registry = MetricsRegistry()
        lane.register(registry)
        snapshot = registry.snapshot()
        assert snapshot["analysis.derived.misses"] == 1
        assert snapshot["analysis.derived.stores"] == 1
        assert snapshot["analysis.derived.hits"] == 0

    def test_as_dict_is_manifest_ready(self, tmp_path):
        lane = as_lane(tmp_path)
        doc = lane.as_dict()
        assert doc["enabled"] is True
        assert doc["analysis_version"] == ANALYSIS_VERSION
        assert doc["root"] == str(tmp_path)
        assert {"hits", "misses", "stores", "quarantined"} <= set(doc)

    def test_as_lane_coercions(self, tmp_path):
        from repro.analysis.storage import ContentStore

        store = ContentStore(tmp_path, DERIVED_FORMAT_VERSION)
        lane = DerivedLane(store)
        assert as_lane(lane) is lane
        assert as_lane(store).cache is store
        assert as_lane(str(tmp_path)).cache.format == DERIVED_FORMAT_VERSION
        assert not as_lane(None).enabled


class TestReportThroughLane:
    def grids(self, mutate=None):
        return (make_grid(MAIN_DESIGNS),
                make_grid(("SNUCA2",) + TLC_FAMILY, mutate=mutate))

    def test_warm_report_byte_identical_and_recomputes_nothing(self,
                                                               tmp_path):
        main_grid, family_grid = self.grids()
        cold_lane = as_lane(tmp_path)
        cold = build_report(main_grid=main_grid, family_grid=family_grid,
                            n_refs=1_234, derived=cold_lane)
        assert cold_lane.counter.as_dict()["stores"] == len(REPORT_SECTIONS)

        warm_lane = as_lane(tmp_path)
        warm = build_report(main_grid=main_grid, family_grid=family_grid,
                            n_refs=1_234, derived=warm_lane)
        assert warm == cold
        counts = warm_lane.counter.as_dict()
        assert counts["hits"] == len(REPORT_SECTIONS)
        assert counts["misses"] == 0 and counts["computed"] == 0

    def test_lane_never_changes_rendering(self, tmp_path):
        main_grid, family_grid = self.grids()
        plain = build_report(main_grid=main_grid, family_grid=family_grid,
                             n_refs=1_234)
        routed = build_report(main_grid=main_grid, family_grid=family_grid,
                              n_refs=1_234, derived=as_lane(tmp_path))
        assert routed == plain

    def test_single_cell_invalidation_is_section_granular(self, tmp_path):
        """Changing one family-grid SNUCA2 cell re-derives only Figure 8.

        Figure 8 is the one section whose slice covers the family
        baseline; Figure 7 reads only the TLC family designs, and every
        main-grid and static section is untouched.
        """
        main_grid, family_grid = self.grids()
        build_report(main_grid=main_grid, family_grid=family_grid,
                     n_refs=1_234, derived=as_lane(tmp_path))

        changed = make_result("SNUCA2", "gcc", index=40)
        _, poked_family = self.grids(mutate={("SNUCA2", "gcc"): changed})
        lane = as_lane(tmp_path)
        build_report(main_grid=main_grid, family_grid=poked_family,
                     n_refs=1_234, derived=lane)
        counts = lane.counter.as_dict()
        assert counts["misses"] == 1
        assert counts["hits"] == len(REPORT_SECTIONS) - 1

    def test_main_grid_cell_change_spares_family_sections(self, tmp_path):
        main_grid, family_grid = self.grids()
        build_report(main_grid=main_grid, family_grid=family_grid,
                     n_refs=1_234, derived=as_lane(tmp_path))

        changed = make_result("TLC", "mcf", index=41)
        results = dict(main_grid.results)
        results[("TLC", "mcf")] = changed
        poked_main = ExperimentGrid(main_grid.designs, main_grid.benchmarks,
                                    results)
        lane = as_lane(tmp_path)
        build_report(main_grid=poked_main, family_grid=family_grid,
                     n_refs=1_234, derived=lane)
        counts = lane.counter.as_dict()
        # fig5, fig6, table6, table9 read the poked TLC cell; the four
        # static sections and the two family figures stay warm.
        assert counts["misses"] == 4
        assert counts["hits"] == len(REPORT_SECTIONS) - 4


class TestSweepsThroughLane:
    def test_memory_sweep_warm_lane_skips_execution(self, tmp_path):
        from repro.analysis.runner import ResultCache
        from repro.analysis.sweeps import memory_latency_sweep

        kwargs = dict(benchmark="gcc", latencies=(150, 600),
                      designs=("TLC",), n_refs=1_500)
        cold = memory_latency_sweep(derived_cache=as_lane(tmp_path), **kwargs)

        probe = ResultCache(tmp_path / "results")
        warm_lane = as_lane(tmp_path)
        warm = memory_latency_sweep(cache=probe, derived_cache=warm_lane,
                                    **kwargs)
        assert warm == cold
        assert warm_lane.counter.as_dict()["hits"] == 1
        # The runner was never consulted: the probe cache saw no traffic.
        assert probe.hits == 0 and probe.misses == 0 and probe.stores == 0

    def test_dependence_sweep_round_trips_types(self, tmp_path):
        from repro.analysis.sweeps import dependence_sweep

        kwargs = dict(fractions=(0.0, 0.8), designs=("TLC",), n_refs=1_500)
        cold = dependence_sweep(derived_cache=as_lane(tmp_path), **kwargs)
        warm = dependence_sweep(derived_cache=as_lane(tmp_path), **kwargs)
        assert warm == cold
        assert [fraction for fraction, _ in warm] == [0.0, 0.8]
        for _, by_design in warm:
            assert isinstance(by_design["TLC"], int)


class TestCliLaneWiring:
    def test_flags_parse(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["report", "--derived-cache-dir", "d"])
        assert args.derived_cache_dir == "d"
        assert not args.no_derived_cache
        args = parser.parse_args(["grid", "--no-derived-cache"])
        assert args.no_derived_cache

    def test_lane_resolution(self, tmp_path):
        import argparse

        from repro.cli import _derived_lane

        explicit = _derived_lane(argparse.Namespace(
            no_derived_cache=False, derived_cache_dir=str(tmp_path),
            cache_dir=None))
        assert explicit.enabled and explicit.cache.root == tmp_path

        implied = _derived_lane(argparse.Namespace(
            no_derived_cache=False, derived_cache_dir=None,
            cache_dir=str(tmp_path)))
        assert implied.enabled
        assert implied.cache.root == tmp_path / "derived"

        off = _derived_lane(argparse.Namespace(
            no_derived_cache=True, derived_cache_dir=str(tmp_path),
            cache_dir=str(tmp_path)))
        assert not off.enabled

        default = _derived_lane(argparse.Namespace(
            no_derived_cache=False, derived_cache_dir=None, cache_dir=None))
        assert not default.enabled


class TestManifestDerivedField:
    def test_round_trip(self, tmp_path):
        from repro.obs.manifest import (
            build_manifest,
            manifest_from_dict,
            manifest_to_dict,
        )

        lane = as_lane(tmp_path)
        lane.get_or_compute("t", [], None, lambda: {"v": 1})
        manifest = build_manifest(kind="report", config={"n_refs": 5},
                                  metrics={}, wall_time_s=0.1,
                                  derived=lane.as_dict())
        loaded = manifest_from_dict(manifest_to_dict(manifest))
        assert loaded.derived["enabled"] is True
        assert loaded.derived["misses"] == 1

    def test_derived_field_defaults_to_none(self):
        from repro.obs.manifest import build_manifest

        manifest = build_manifest(kind="system", config={}, metrics={},
                                  wall_time_s=0.0)
        assert manifest.derived is None


class TestSuiteSanitizeForwarding:
    def test_sanitize_is_part_of_the_suite_cache_key(self, tmp_path):
        """`run_benchmark_suite` must forward ``sanitize`` to the runner
        (it used to drop the flag silently): sanitized and plain suite
        runs are distinct cells, and a sanitized suite run shares its
        entry with a sanitized grid run."""
        from repro.analysis.experiments import (
            run_benchmark_suite,
            run_design_grid,
        )
        from repro.analysis.runner import ResultCache

        cache = ResultCache(tmp_path)
        run_benchmark_suite("TLC", benchmarks=("gcc",), n_refs=1_500,
                            sanitize=True, cache=cache)
        assert cache.stores == 1

        run_benchmark_suite("TLC", benchmarks=("gcc",), n_refs=1_500,
                            sanitize=False, cache=cache)
        assert cache.stores == 2  # distinct cell: the flag reached the key

        warm = ResultCache(tmp_path)
        run_design_grid(designs=("TLC",), benchmarks=("gcc",), n_refs=1_500,
                        sanitize=True, cache=warm)
        assert warm.hits == 1 and warm.stores == 0
