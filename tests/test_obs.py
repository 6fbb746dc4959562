"""Tests for the observability layer (repro.obs) and its wiring."""

import dataclasses
import json

import pytest

from repro.obs import (
    EventTracer,
    MetricsRegistry,
    RunObserver,
    TraceEvent,
    build_manifest,
    code_version_stamp,
    diff_manifests,
    flatten,
    load_manifest,
    manifest_from_dict,
    manifest_to_dict,
    read_jsonl,
    save_manifest,
)
from repro.sim.stats import Counter, Histogram, UtilizationMeter
from repro.sim.system import run_system


class TestRegistryNaming:
    def test_valid_dotted_names_register(self):
        reg = MetricsRegistry()
        reg.counter("l2")
        reg.histogram("l2.lookup_latency")
        reg.meter("link.util", resources=4)
        reg.gauge("l2.bank03.occupancy", lambda: 5)
        assert reg.names() == ("l2", "l2.bank03.occupancy",
                               "l2.lookup_latency", "link.util")

    @pytest.mark.parametrize("bad", [
        "", "L2.hits", "l2..hits", ".l2", "l2.", "l2 hits", "l2-hits",
    ])
    def test_malformed_names_rejected(self, bad):
        with pytest.raises(ValueError, match="invalid"):
            MetricsRegistry().counter(bad)

    def test_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("l2.hits")
        with pytest.raises(ValueError, match="collision"):
            reg.histogram("l2.hits")

    def test_collision_across_scopes_raises(self):
        reg = MetricsRegistry()
        reg.scope("link").counter("pair00.req")
        with pytest.raises(ValueError, match="collision"):
            reg.scope("link.pair00").counter("req")

    def test_gauge_requires_callable(self):
        with pytest.raises(TypeError):
            MetricsRegistry().gauge("l2.occupancy", 42)

    def test_scopes_nest(self):
        reg = MetricsRegistry()
        reg.scope("link").scope("pair00").counter("req")
        assert "link.pair00.req" in reg


class TestRegistrySnapshot:
    def build(self):
        reg = MetricsRegistry()
        counter = reg.counter("l2")
        counter.add("hits", 3)
        counter.add("misses")
        hist = reg.histogram("l2.lookup_latency")
        hist.record(10, weight=2)
        hist.record(12)
        meter = reg.meter("link.util", resources=2)
        meter.busy(7)
        reg.gauge("l2.bank00.occupancy", lambda: 41)
        return reg

    def test_encodings(self):
        snap = self.build().snapshot()
        assert snap["l2.hits"] == 3
        assert snap["l2.misses"] == 1
        assert snap["l2.lookup_latency"] == {
            "count": 3, "mean": pytest.approx(32 / 3),
            "min": 10, "max": 12, "bins": {"10": 2, "12": 1}}
        assert snap["link.util"] == {
            "resources": 2, "busy_cycles": 7, "saturated": False}
        assert snap["l2.bank00.occupancy"] == 41

    def test_snapshot_ordering_is_stable(self):
        # Two registries built with registrations in different orders
        # must produce identical documents (key order included) — the
        # property manifest diffs rely on.
        a = MetricsRegistry()
        a.counter("l2").add("hits")
        a.gauge("mesh.bit_hops", lambda: 9)
        a.gauge("l1.occupancy", lambda: 1)
        b = MetricsRegistry()
        b.gauge("l1.occupancy", lambda: 1)
        b.gauge("mesh.bit_hops", lambda: 9)
        b.counter("l2").add("hits")
        assert json.dumps(a.snapshot()) == json.dumps(b.snapshot())
        assert list(a.snapshot()) == sorted(a.snapshot())

    def test_snapshot_is_json_ready(self):
        json.dumps(self.build().snapshot())

    def test_empty_counter_contributes_nothing(self):
        reg = MetricsRegistry()
        reg.counter("l2")
        assert reg.snapshot() == {}

    def test_reset_preserves_identity(self):
        reg = self.build()
        counter = reg.get("l2")
        hist = reg.get("l2.lookup_latency")
        reg.reset()
        assert reg.get("l2") is counter
        assert reg.get("l2.lookup_latency") is hist
        assert counter["hits"] == 0
        assert hist.count == 0
        # Gauges still read live state.
        assert reg.snapshot()["l2.bank00.occupancy"] == 41


class TestEventTracer:
    def test_full_capture_keeps_everything(self):
        tracer = EventTracer()
        for i in range(100):
            tracer.emit("l2.access", time=i, addr=i * 64)
        assert len(tracer) == 100
        assert tracer.dropped == 0

    def test_ring_buffer_keeps_newest_and_counts_dropped(self):
        tracer = EventTracer(capacity=10)
        for i in range(25):
            tracer.emit("l2.access", time=i)
        assert len(tracer) == 10
        assert tracer.dropped == 15
        assert [e.time for e in tracer.events()] == list(range(15, 25))

    def test_type_filter(self):
        tracer = EventTracer(types={"l2.access"})
        tracer.emit("l2.access", time=1)
        tracer.emit("run.warmup_end", time=2)
        assert len(tracer) == 1
        assert tracer.filtered == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            EventTracer(capacity=0)

    def test_summary(self):
        tracer = EventTracer(capacity=5, types={"a", "b"})
        for i in range(6):
            tracer.emit("a", time=i)
        tracer.emit("b", time=9)
        tracer.emit("c", time=10)
        assert tracer.summary() == {
            "events": 5, "dropped": 2, "filtered": 1, "capacity": 5,
            "types": ["a", "b"], "by_type": {"a": 4, "b": 1}}

    def test_jsonl_round_trip(self, tmp_path):
        tracer = EventTracer()
        tracer.emit("l2.access", time=5, addr=128, hit=True)
        tracer.emit("run.warmup_end", time=9, refs=3)
        path = str(tmp_path / "t.jsonl")
        assert tracer.write_jsonl(path) == 2
        assert read_jsonl(path) == tracer.events()

    def test_read_jsonl_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"time": 1, "type": "x"}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_jsonl(str(path))

    def test_event_dict_shape(self):
        event = TraceEvent(time=3, type="l2.access",
                           fields=(("addr", 64), ("hit", False)))
        assert event.as_dict() == {"time": 3, "type": "l2.access",
                                   "addr": 64, "hit": False}


def small_manifest():
    return build_manifest(
        kind="system", design="TLC", benchmark="mcf", seed=7,
        config={"n_refs": 100, "seed": 7},
        metrics={"l2.hits": 4,
                 "l2.lookup_latency": {"count": 1, "mean": 10.0,
                                       "min": 10, "max": 10,
                                       "bins": {"10": 1}}},
        result={"cycles": 123},
        wall_time_s=0.5)


class TestManifest:
    def test_round_trip_equal(self, tmp_path):
        manifest = small_manifest()
        path = str(tmp_path / "m.json")
        save_manifest(path, manifest)
        assert load_manifest(path) == manifest

    def test_dict_round_trip(self):
        manifest = small_manifest()
        assert manifest_from_dict(manifest_to_dict(manifest)) == manifest

    def test_unknown_field_rejected(self):
        payload = manifest_to_dict(small_manifest())
        payload["extra"] = 1
        with pytest.raises(ValueError, match="unknown"):
            manifest_from_dict(payload)

    def test_missing_field_rejected(self):
        payload = manifest_to_dict(small_manifest())
        del payload["config_digest"]
        with pytest.raises(ValueError, match="missing"):
            manifest_from_dict(payload)

    def test_wrong_schema_rejected(self):
        payload = manifest_to_dict(small_manifest())
        payload["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            manifest_from_dict(payload)

    def test_code_version_is_the_runner_stamp(self):
        from repro.analysis.runner import code_version_stamp as runner_stamp

        assert small_manifest().code_version == runner_stamp()
        assert runner_stamp() is code_version_stamp()
        assert len(code_version_stamp()) == 64

    def test_config_digest_is_order_insensitive(self):
        a = build_manifest(kind="system", config={"a": 1, "b": 2},
                           metrics={}, wall_time_s=0.0)
        b = build_manifest(kind="system", config={"b": 2, "a": 1},
                           metrics={}, wall_time_s=0.0)
        assert a.config_digest == b.config_digest


class TestDiff:
    def test_identical_runs_diff_empty(self):
        a, b = small_manifest(), small_manifest()
        assert diff_manifests(a, b) == []

    def test_wall_time_never_reported(self):
        a = small_manifest()
        b = dataclasses.replace(a, wall_time_s=a.wall_time_s + 100)
        assert diff_manifests(a, b) == []

    def test_metric_and_provenance_changes_reported(self):
        a = small_manifest()
        b = dataclasses.replace(a, seed=8, metrics=dict(a.metrics, **{
            "l2.hits": 5}))
        names = [name for name, _, _ in diff_manifests(a, b)]
        assert "seed" in names
        assert "metrics.l2.hits" in names

    def test_bins_skipped_by_default(self):
        a = small_manifest()
        hist = dict(a.metrics["l2.lookup_latency"], bins={"10": 999})
        b = dataclasses.replace(a, metrics=dict(a.metrics, **{
            "l2.lookup_latency": hist}))
        assert diff_manifests(a, b) == []
        assert diff_manifests(a, b, skip_bins=False) == [
            ("metrics.l2.lookup_latency.bins.10", 1, 999)]

    def test_flatten(self):
        doc = {"a": {"b": 1, "bins": {"10": 2}}, "c": 3}
        assert flatten(doc) == {"a.b": 1, "c": 3}
        assert flatten(doc, skip_bins=False) == {
            "a.b": 1, "a.bins.10": 2, "c": 3}


class TestObservationIsReadOnly:
    """Acceptance criterion: observing a run never changes its result."""

    N_REFS = 3_000

    def test_run_system_identical_with_observer(self):
        plain = run_system("TLC", "mcf", n_refs=self.N_REFS)
        obs = RunObserver(tracer=EventTracer())
        observed = run_system("TLC", "mcf", n_refs=self.N_REFS, observer=obs)
        assert observed == plain
        assert obs.manifest is not None
        assert len(obs.tracer) > 0

    def test_ring_and_filter_do_not_change_results(self):
        plain = run_system("TLCopt500", "perl", n_refs=self.N_REFS)
        obs = RunObserver(tracer=EventTracer(capacity=50,
                                             types={"run.warmup_end"}))
        observed = run_system("TLCopt500", "perl", n_refs=self.N_REFS,
                              observer=obs)
        assert observed == plain
        assert [e.type for e in obs.tracer.events()] == ["run.warmup_end"]

    def test_manifest_values_match_uninstrumented_metrics(self):
        # The manifest's metric snapshot must agree with the design's
        # own headline figures from a run without any observer.
        obs = RunObserver()
        result = run_system("TLC", "mcf", n_refs=self.N_REFS, observer=obs)
        metrics = obs.manifest.metrics
        assert metrics["l2.hits"] == result.l2_hits
        # Counters that never fired are absent from snapshots.
        assert metrics.get("l2.misses", 0) == result.l2_misses
        latency = metrics["l2.lookup_latency"]
        assert latency["mean"] == pytest.approx(result.mean_lookup_latency)
        assert obs.manifest.result["cycles"] == result.cycles


class TestDesignRegistries:
    """Every design carries a registry covering its components."""

    @pytest.mark.parametrize("design,expected", [
        # "l2" / "memory" are the request/DRAM Counters (their counts
        # flatten into snapshots as l2.hits, memory.reads, ...).
        ("TLC", ("l2", "l2.lookup_latency", "memory", "link.util",
                 "l2.bank00.occupancy", "link.pair00.req.bits_sent")),
        ("TLCopt500", ("link.util", "l2.group00.occupancy")),
        ("SNUCA2", ("mesh.util", "mesh.bit_hops", "l2.bank00.occupancy")),
        ("DNUCA", ("mesh.util", "l2.bankset00.occupancy")),
    ])
    def test_expected_names_registered(self, design, expected):
        from repro.core.config import build_design

        l2 = build_design(design)
        for name in expected:
            assert name in l2.metrics, name

    def test_reset_stats_keeps_registry_live(self):
        from repro.core.config import build_design

        l2 = build_design("TLC")
        l2.access(0, 0)
        assert l2.metrics.snapshot()["l2.requests"] == 1
        l2.reset_stats()
        assert "l2.requests" not in l2.metrics.snapshot()
        l2.access(64, 100)
        assert l2.metrics.snapshot()["l2.requests"] == 1


class TestStatsBugfixes:
    def test_percentile_zero_is_min(self):
        h = Histogram()
        h.record(4)
        h.record(9)
        assert h.percentile(0.0) == 4 == h.min

    def test_utilization_clamps_and_latches(self):
        meter = UtilizationMeter(resources=1)
        meter.busy(150)
        assert meter.raw_utilization(100) == pytest.approx(1.5)
        assert meter.utilization(100) == 1.0
        assert meter.saturated
        meter.reset()
        assert meter.busy_cycles == 0
        assert not meter.saturated

    def test_utilization_in_range_unclamped(self):
        meter = UtilizationMeter(resources=2)
        meter.busy(100)
        assert meter.utilization(100) == pytest.approx(0.5)
        assert not meter.saturated


class TestRunnerProvenance:
    def test_run_grid_populates_cell_meta(self, tmp_path):
        from repro.analysis.runner import run_grid

        cache = str(tmp_path / "cache")
        cold = run_grid(designs=("TLC",), benchmarks=("perl",),
                        n_refs=1_500, cache=cache)
        meta = cold.cell_meta[("TLC", "perl")]
        assert meta["from_cache"] is False
        assert meta["wall_time_s"] > 0
        assert meta["l2_hits"] == cold.result("TLC", "perl").l2_hits

        warm = run_grid(designs=("TLC",), benchmarks=("perl",),
                        n_refs=1_500, cache=cache)
        assert warm.cell_meta[("TLC", "perl")]["from_cache"] is True
        # Provenance differs, measurements don't: grids compare equal.
        assert warm == cold

    def test_execute_cells_matches_detailed(self):
        from repro.analysis.runner import (
            CellSpec,
            execute_cells,
            execute_cells_detailed,
        )

        cells = [CellSpec(design="TLC", benchmark="perl", n_refs=1_500,
                          seed=3)]
        assert execute_cells(cells) == [
            outcome.result for outcome in execute_cells_detailed(cells)]
