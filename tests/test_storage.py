"""Tests for experiment-result persistence."""

import pytest

from repro.analysis.experiments import run_design_grid
from repro.analysis.storage import (
    load_grid,
    result_from_dict,
    result_to_dict,
    save_grid,
)
from repro.sim.system import run_system


@pytest.fixture(scope="module")
def small_grid():
    return run_design_grid(designs=("SNUCA2", "TLC"),
                           benchmarks=("perl",), n_refs=2_000)


class TestResultSerialization:
    def test_roundtrip(self):
        result = run_system("TLC", "perl", n_refs=1_500)
        restored = result_from_dict(result_to_dict(result))
        assert restored == result

    def test_unknown_field_rejected(self):
        result = run_system("TLC", "perl", n_refs=1_000)
        payload = result_to_dict(result)
        payload["bogus"] = 1
        with pytest.raises(ValueError, match="unknown"):
            result_from_dict(payload)

    def test_missing_field_rejected(self):
        result = run_system("TLC", "perl", n_refs=1_000)
        payload = result_to_dict(result)
        del payload["cycles"]
        with pytest.raises(ValueError, match="missing"):
            result_from_dict(payload)


class TestGridPersistence:
    def test_roundtrip(self, small_grid, tmp_path):
        path = str(tmp_path / "grid.json")
        save_grid(path, small_grid)
        restored = load_grid(path)
        assert restored.designs == small_grid.designs
        assert restored.benchmarks == small_grid.benchmarks
        assert restored.results == small_grid.results

    def test_normalization_survives_roundtrip(self, small_grid, tmp_path):
        path = str(tmp_path / "grid.json")
        save_grid(path, small_grid)
        restored = load_grid(path)
        assert (restored.normalized_execution_time("TLC", "perl")
                == small_grid.normalized_execution_time("TLC", "perl"))

    def test_version_mismatch_rejected(self, small_grid, tmp_path):
        import json
        path = tmp_path / "grid.json"
        save_grid(str(path), small_grid)
        document = json.loads(path.read_text())
        document["format_version"] = 99
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="unsupported"):
            load_grid(str(path))

    def test_json_is_human_readable(self, small_grid, tmp_path):
        path = tmp_path / "grid.json"
        save_grid(str(path), small_grid)
        text = path.read_text()
        assert '"design": "TLC"' in text


class TestCoverageValidation:
    def _document(self, small_grid, tmp_path):
        import json
        path = tmp_path / "grid.json"
        save_grid(str(path), small_grid)
        return path, json.loads(path.read_text())

    def test_truncated_cells_rejected(self, small_grid, tmp_path):
        import json
        path, document = self._document(small_grid, tmp_path)
        del document["cells"][0]
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="missing cell"):
            load_grid(str(path))

    def test_missing_cell_is_named(self, small_grid, tmp_path):
        import json
        path, document = self._document(small_grid, tmp_path)
        dropped = document["cells"].pop()
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError) as excinfo:
            load_grid(str(path))
        assert dropped["design"] in str(excinfo.value)
        assert dropped["benchmark"] in str(excinfo.value)

    def test_undeclared_cell_rejected(self, small_grid, tmp_path):
        import copy
        import json
        path, document = self._document(small_grid, tmp_path)
        stray = copy.deepcopy(document["cells"][0])
        stray["benchmark"] = "mystery"
        document["cells"].append(stray)
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="outside the declared grid"):
            load_grid(str(path))

    def test_complete_document_still_loads(self, small_grid, tmp_path):
        path = tmp_path / "grid.json"
        save_grid(str(path), small_grid)
        assert load_grid(str(path)).results == small_grid.results


def _result_with_stats(stats):
    """A minimal result differing only in its ``stats`` mapping."""
    from tests.test_derived import make_result
    import dataclasses

    return dataclasses.replace(make_result("TLC", "gcc", 0), stats=stats)


class TestStatsKeyFidelity:
    """Regression: JSON object keys are always strings, so the v1
    encoding silently converted integer stat keys (per-distance or
    per-bank breakdowns) to strings — a saved-then-loaded grid compared
    unequal to the grid that produced it."""

    def test_integer_keys_survive_roundtrip(self):
        result = _result_with_stats({0: 10, 7: 3, "close_hits": 5})
        restored = result_from_dict(result_to_dict(result))
        assert restored == result
        assert restored.stats == {0: 10, 7: 3, "close_hits": 5}
        assert all(isinstance(k, type(orig))
                   for k, orig in zip(sorted(restored.stats, key=str),
                                      sorted(result.stats, key=str)))

    def test_grid_roundtrip_with_integer_keys(self, tmp_path):
        from repro.analysis.experiments import ExperimentGrid

        grid = ExperimentGrid(
            ("TLC",), ("gcc",),
            {("TLC", "gcc"): _result_with_stats({3: 1, 12: 4})})
        path = str(tmp_path / "grid.json")
        save_grid(path, grid)
        assert load_grid(path).results == grid.results

    def test_legacy_v1_document_still_loads(self, tmp_path):
        """v1 documents encoded stats as a JSON object; keep reading
        them (their stringified keys are unrecoverable and kept as-is)."""
        import json

        result = _result_with_stats({"close_hits": 5})
        path = tmp_path / "grid.json"
        legacy_payload = result_to_dict(result)
        legacy_payload["stats"] = {"close_hits": 5}  # v1 object form
        path.write_text(json.dumps({
            "format_version": 1,
            "designs": ["TLC"],
            "benchmarks": ["gcc"],
            "cells": [{"design": "TLC", "benchmark": "gcc",
                       "result": legacy_payload}],
        }))
        loaded = load_grid(str(path))
        assert loaded.results[("TLC", "gcc")].stats == {"close_hits": 5}

    def test_malformed_pair_list_rejected(self):
        result = _result_with_stats({"a": 1})
        payload = result_to_dict(result)
        payload["stats"] = [["a", 1, "extra"]]
        with pytest.raises(ValueError, match="malformed stats pair"):
            result_from_dict(payload)
        payload["stats"] = "not-a-mapping"
        with pytest.raises(ValueError, match="pair list"):
            result_from_dict(payload)

    def test_property_arbitrary_stats_roundtrip(self):
        from hypothesis import given, settings, strategies as st

        keys = st.one_of(st.integers(min_value=-10**6, max_value=10**6),
                         st.text(min_size=0, max_size=20))
        values = st.one_of(st.integers(min_value=-10**9, max_value=10**9),
                           st.floats(allow_nan=False, allow_infinity=False))
        stats_dicts = st.dictionaries(keys, values, max_size=12)

        @given(stats=stats_dicts)
        @settings(max_examples=60, deadline=None)
        def roundtrip(stats):
            result = _result_with_stats(stats)
            restored = result_from_dict(result_to_dict(result))
            assert restored == result
            assert {type(k) for k in restored.stats} == {
                type(k) for k in stats}

        roundtrip()


class TestContentDigestKeying:
    """Regression: the ``content:`` fallback fingerprint
    (``ExperimentGrid.cell_keys`` on hand-built grids) hashed payloads
    with ``json.dumps(sort_keys=True)``, which stringifies non-string
    dict keys — ``{0: 3}`` and ``{"0": 3}`` nested inside a stats value
    collided on one digest, and a stats value mixing int and str keys
    crashed the sort outright."""

    def test_nested_key_types_do_not_collide(self):
        from repro.analysis.storage import integrity_digest

        with_ints = _result_with_stats({"per_bank": {0: 3, 1: 4}})
        with_strs = _result_with_stats({"per_bank": {"0": 3, "1": 4}})
        assert (integrity_digest(result_to_dict(with_ints))
                != integrity_digest(result_to_dict(with_strs)))

    def test_top_level_key_types_do_not_collide(self):
        from repro.analysis.storage import integrity_digest

        assert (integrity_digest(result_to_dict(_result_with_stats({3: 5})))
                != integrity_digest(result_to_dict(_result_with_stats({"3": 5}))))

    def test_mixed_nested_keys_digest_without_crashing(self):
        from repro.analysis.storage import integrity_digest

        result = _result_with_stats({"per_bank": {0: 3, "spill": 4}})
        digest = integrity_digest(result_to_dict(result))
        assert len(digest) == 64

    def test_digest_is_insertion_order_insensitive(self):
        from repro.analysis.storage import integrity_digest

        a = _result_with_stats({"per_bank": {0: 3, "x": 4}, 3: 9, "z": 1})
        b = _result_with_stats({"z": 1, 3: 9, "per_bank": {"x": 4, 0: 3}})
        assert (integrity_digest(result_to_dict(a))
                == integrity_digest(result_to_dict(b)))

    def test_hand_built_grid_cell_keys_with_integer_stats(self):
        """The whole chain the derived lane relies on: a hand-built
        grid with integer stat keys (no runner provenance) yields
        distinct, stable ``content:`` keys."""
        from repro.analysis.experiments import ExperimentGrid

        def grid_with(stats):
            return ExperimentGrid(
                ("TLC",), ("gcc",),
                {("TLC", "gcc"): _result_with_stats(stats)})

        keyed_int = grid_with({"per_bank": {0: 3}, 7: 1})
        keyed_str = grid_with({"per_bank": {"0": 3}, 7: 1})
        (key_int,) = keyed_int.cell_keys()
        (key_str,) = keyed_str.cell_keys()
        assert key_int.startswith("content:")
        assert key_int != key_str
        assert keyed_int.cell_keys() == (key_int,)  # deterministic

    def test_saved_grid_with_integer_stats_keeps_its_content_key(self, tmp_path):
        """Top-level integer stat keys survive the storage-v2 pair-list
        round trip, so the loaded grid fingerprints identically."""
        from repro.analysis.experiments import ExperimentGrid

        grid = ExperimentGrid(
            ("TLC",), ("gcc",),
            {("TLC", "gcc"): _result_with_stats({3: 1, 12: 4, "hits": 2})})
        path = str(tmp_path / "grid.json")
        save_grid(path, grid)
        assert load_grid(path).cell_keys() == grid.cell_keys()


class TestContentStore:
    """The one store both cache lanes share (layout, counters, writes)."""

    KEY = "ab" + "0" * 62

    def test_roundtrip(self, tmp_path):
        from repro.analysis.storage import ContentStore

        store = ContentStore(tmp_path, 1)
        artifact = {"rows": [["gcc", 1.0], ["mcf", 0.5]], "n": 3}
        store.put(self.KEY, artifact, kind="t")
        assert store.path_for(self.KEY) == tmp_path / "ab" / f"{self.KEY}.json"
        assert store.get(self.KEY) == artifact
        assert store.hits == 1 and store.stores == 1

    def test_absent_entry_is_a_miss(self, tmp_path):
        from repro.analysis.storage import ContentStore

        store = ContentStore(tmp_path, 1)
        assert store.get(self.KEY) is None
        assert store.misses == 1 and store.quarantined == 0

    def test_codec_decodes_on_read(self, tmp_path):
        from repro.analysis.storage import RESULT_CODEC, ContentStore

        result = run_system("TLC", "perl", n_refs=1_000)
        store = ContentStore(tmp_path, 1, RESULT_CODEC)
        store.put(self.KEY, result)
        assert store.load(self.KEY) == result

    def test_other_format_is_corruption(self, tmp_path):
        from repro.analysis.storage import CacheCorruptionError, ContentStore

        ContentStore(tmp_path, 1).put(self.KEY, {"v": 1})
        with pytest.raises(CacheCorruptionError, match="format"):
            ContentStore(tmp_path, 2).load(self.KEY)

    def test_keys_are_sorted_and_skip_temp_and_quarantine(self, tmp_path):
        from repro.analysis.storage import ContentStore

        store = ContentStore(tmp_path / "store", 1)
        assert store.keys() == []  # no root yet
        later, corrupt = "cd" + "1" * 62, "ef" + "2" * 62
        for key in (later, self.KEY, corrupt):
            store.put(key, {"k": key})
        store.path_for(corrupt).write_text("{torn")
        assert store.get(corrupt) is None  # moved to quarantine/
        tmp = store.path_for(self.KEY).with_name(f".{self.KEY}.json.1.2.tmp")
        tmp.write_text("{}")  # a writer killed before its os.replace
        assert store.keys() == [self.KEY, later]

    def test_concurrent_puts_of_one_key(self, tmp_path):
        """Threads writing one key never take each other's temp file.

        Service worker threads can finish the same cell at once; each
        writer needs its own temp name, or one thread's ``os.replace``
        moves the file another is about to replace.  Driven through a
        derived lane: every thread misses, then all put one key together.
        """
        import sys
        import threading

        from repro.analysis.derived import as_lane, derived_key

        lane = as_lane(tmp_path)
        writers, rounds = 4, 50
        barrier = threading.Barrier(writers, timeout=30)
        artifact = {"rows": list(range(200))}
        errors = []

        def compute():
            barrier.wait()
            return artifact

        def write() -> None:
            for round_index in range(rounds):
                try:
                    lane.get_or_compute(f"t{round_index}", ["k"], None,
                                        compute)
                except OSError as error:
                    errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=write) for _ in range(writers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert not list(tmp_path.rglob("*.tmp"))
        for round_index in range(rounds):
            key = derived_key(f"t{round_index}", ["k"], None)
            assert lane.cache.load(key) == artifact
