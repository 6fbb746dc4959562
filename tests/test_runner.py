"""Tests for the parallel runner and its content-addressed result cache."""

import dataclasses
import json
import multiprocessing
import time

import pytest

from repro.analysis.experiments import run_design_grid
from repro.analysis.runner import (
    CellSpec,
    ResultCache,
    cache_key,
    code_version_stamp,
    execute_cells,
    run_cell,
    run_grid,
)
from repro.analysis.storage import result_to_dict
from repro.sim.processor import ProcessorConfig
from repro.tech import Technology
from repro.workloads.synthetic import TraceSpec

DESIGNS = ("SNUCA2", "TLC")
BENCHMARKS = ("perl", "bzip")
N_REFS = 2_000


def grid_payload(grid) -> str:
    """A canonical byte string of every cell, for exact comparisons."""
    return json.dumps(
        {f"{d}/{b}": result_to_dict(r) for (d, b), r in sorted(grid.results.items())},
        sort_keys=True)


@pytest.fixture(scope="module")
def serial_grid():
    return run_design_grid(designs=DESIGNS, benchmarks=BENCHMARKS,
                           n_refs=N_REFS, workers=1)


class TestParallelMatchesSerial:
    def test_parallel_grid_byte_identical(self, serial_grid):
        parallel = run_design_grid(designs=DESIGNS, benchmarks=BENCHMARKS,
                                   n_refs=N_REFS, workers=2)
        assert grid_payload(parallel) == grid_payload(serial_grid)

    def test_matches_legacy_shared_trace_semantics(self, serial_grid):
        """Regenerating the trace per cell equals sharing one trace."""
        from repro.sim.system import run_system

        legacy = run_system("TLC", "perl", n_refs=N_REFS, seed=7)
        assert legacy == serial_grid.result("TLC", "perl")

    def test_parallel_suite_matches_serial(self):
        from repro.analysis.experiments import run_benchmark_suite

        serial = run_benchmark_suite("TLC", benchmarks=BENCHMARKS,
                                     n_refs=N_REFS, workers=1)
        parallel = run_benchmark_suite("TLC", benchmarks=BENCHMARKS,
                                       n_refs=N_REFS, workers=2)
        assert serial == parallel


class TestResultCache:
    def test_cold_run_stores_every_cell(self, tmp_path, serial_grid):
        cache = ResultCache(tmp_path)
        grid = run_design_grid(designs=DESIGNS, benchmarks=BENCHMARKS,
                               n_refs=N_REFS, cache=cache)
        assert cache.stores == len(DESIGNS) * len(BENCHMARKS)
        assert cache.hits == 0
        assert grid_payload(grid) == grid_payload(serial_grid)

    def test_warm_run_simulates_nothing(self, tmp_path, serial_grid):
        cache = ResultCache(tmp_path)
        run_design_grid(designs=DESIGNS, benchmarks=BENCHMARKS,
                        n_refs=N_REFS, cache=cache)
        warm = ResultCache(tmp_path)
        grid = run_design_grid(designs=DESIGNS, benchmarks=BENCHMARKS,
                               n_refs=N_REFS, cache=warm)
        assert warm.hits == len(DESIGNS) * len(BENCHMARKS)
        assert warm.stores == 0
        assert grid_payload(grid) == grid_payload(serial_grid)

    def test_cache_hit_returns_identical_result(self, tmp_path):
        cell = CellSpec(design="TLC", benchmark="perl", n_refs=N_REFS, seed=7)
        cache = ResultCache(tmp_path)
        first = execute_cells([cell], cache=cache)[0]
        second = execute_cells([cell], cache=ResultCache(tmp_path))[0]
        assert first == second

    def test_overlapping_grids_share_cells(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_grid(designs=("SNUCA2", "TLC"), benchmarks=("perl",),
                 n_refs=N_REFS, cache=cache)
        run_grid(designs=("SNUCA2", "TLC", "DNUCA"), benchmarks=("perl",),
                 n_refs=N_REFS, cache=cache)
        assert cache.hits == 2      # SNUCA2 and TLC reused
        assert cache.stores == 3    # plus DNUCA simulated once

    def test_corrupt_entry_is_a_miss_and_heals(self, tmp_path):
        cell = CellSpec(design="TLC", benchmark="perl", n_refs=N_REFS, seed=7)
        cache = ResultCache(tmp_path)
        result = execute_cells([cell], cache=cache)[0]
        path = cache.path_for(cache_key(cell))
        path.write_text("{ not json")
        healed = ResultCache(tmp_path)
        assert execute_cells([cell], cache=healed)[0] == result
        assert healed.hits == 0 and healed.stores == 1
        assert healed.quarantined == 1
        assert json.loads(path.read_text())["payload"]["design"] == "TLC"

    def test_cache_accepts_plain_directory_path(self, tmp_path):
        run_grid(designs=("TLC",), benchmarks=("perl",), n_refs=N_REFS,
                 cache=str(tmp_path))
        assert list(tmp_path.rglob("*.json"))


def saved_bytes(grid, path) -> bytes:
    """``grid`` as :func:`~repro.analysis.storage.save_grid` writes it."""
    from repro.analysis.storage import save_grid

    save_grid(str(path), grid)
    return path.read_bytes()


class TestInterruptedRunResumes:
    """The runner stores each cell as it finishes, so rerunning an
    interrupted grid against the same cache simulates only the rest and
    saves the same bytes as a clean run."""

    def rerun(self, root, workers, clean, tmp_path):
        cache = ResultCache(root)
        resumed = run_design_grid(designs=DESIGNS, benchmarks=BENCHMARKS,
                                  n_refs=N_REFS, workers=workers, cache=cache)
        assert cache.hits == 3 and cache.stores == 1
        assert (saved_bytes(resumed, tmp_path / "resumed.json")
                == saved_bytes(clean, tmp_path / "clean.json"))

    def test_serial_interrupt_keeps_finished_cells(self, tmp_path,
                                                   monkeypatch, serial_grid):
        # Cells compute in child processes; the parent stores them, so
        # a Ctrl-C landing on the fourth store interrupts the run.
        real_put = ResultCache.put
        stored = []

        def interrupt_fourth(cache, key, value, **meta):
            if len(stored) == 3:
                raise KeyboardInterrupt
            stored.append(key)
            real_put(cache, key, value, **meta)

        monkeypatch.setattr(ResultCache, "put", interrupt_fourth)
        root = tmp_path / "cache"
        cache = ResultCache(root)
        with pytest.raises(KeyboardInterrupt):
            run_design_grid(designs=DESIGNS, benchmarks=BENCHMARKS,
                            n_refs=N_REFS, cache=cache)
        monkeypatch.undo()
        assert cache.stores == 3
        for key in stored:
            assert cache.path_for(key).exists()
        self.rerun(root, 1, serial_grid, tmp_path)

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="cell processes see the patched runner "
                               "only when forked")
    def test_pool_interrupt_keeps_finished_cells(self, tmp_path, monkeypatch,
                                                 serial_grid):
        import repro.analysis.runner as runner_module

        real = runner_module.run_cell_timed
        root = tmp_path / "cache"

        def crash_last(cell):
            if (cell.design, cell.benchmark) != (DESIGNS[-1], BENCHMARKS[-1]):
                return real(cell)
            # Crash only once the other three cells are on disk, so the
            # interruption lands at the same point every run.
            deadline = time.monotonic() + 30
            while (len(list(root.rglob("*.json"))) < 3
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            raise RuntimeError("worker crashed")

        monkeypatch.setattr(runner_module, "run_cell_timed", crash_last)
        cache = ResultCache(root)
        with pytest.raises(RuntimeError, match="worker crashed"):
            run_design_grid(designs=DESIGNS, benchmarks=BENCHMARKS,
                            n_refs=N_REFS, workers=2, cache=cache)
        monkeypatch.undo()
        assert cache.stores == 3
        self.rerun(root, 2, serial_grid, tmp_path)

    def test_run_grid_fingerprints_each_cell_once(self, tmp_path,
                                                  monkeypatch):
        import repro.analysis.runner as runner_module

        real = runner_module.cache_key
        fingerprinted = []

        def counting(cell):
            fingerprinted.append(cell)
            return real(cell)

        monkeypatch.setattr(runner_module, "cache_key", counting)
        grid = run_grid(designs=("TLC",), benchmarks=("perl",),
                        n_refs=N_REFS, cache=ResultCache(tmp_path))
        assert len(fingerprinted) == 1
        assert grid.cell_meta[("TLC", "perl")]["cache_key"] == \
            real(fingerprinted[0])


def _rot(payload):
    """``payload`` with its first decimal digit flipped: still valid JSON."""
    text = json.dumps(payload)
    at = next(index for index, char in enumerate(text) if char.isdigit())
    return json.loads(text[:at] + str((int(text[at]) + 1) % 10)
                      + text[at + 1:])


class TestCacheIntegrity:
    """Corrupt entries raise typed errors from load() and quarantine in
    get() — one catalog, run against an entry of each cache lane."""

    @pytest.fixture(scope="class")
    def warm(self, tmp_path_factory):
        """A cache holding one real entry, plus its cell and key."""
        root = tmp_path_factory.mktemp("integrity-cache")
        cell = CellSpec(design="TLC", benchmark="perl", n_refs=N_REFS, seed=7)
        cache = ResultCache(root)
        result = execute_cells([cell], cache=cache)[0]
        return root, cell, cache_key(cell), result

    @pytest.fixture(scope="class")
    def warm_derived(self, tmp_path_factory):
        """A derived-lane store holding one artifact, plus its key."""
        from repro.analysis.derived import as_lane, derived_key

        root = tmp_path_factory.mktemp("integrity-derived")
        artifact = {"rows": [["perl", 1.25], ["bzip", 0.5]], "n": 3}
        as_lane(root).get_or_compute("table", ["k"], None, lambda: artifact)
        return root, derived_key("table", ["k"], None), artifact

    #: Every way an entry can rot, as a function of its text.  Written
    #: against the envelope both lanes share, so one catalog serves both.
    CORRUPTIONS = {
        "not_json": lambda text: "{ definitely not json",
        "truncated": lambda text: text[: len(text) // 2],
        "wrong_type": lambda text: json.dumps(["a", "list"]),
        "wrong_format_version": lambda text: json.dumps(
            dict(json.loads(text), format=999)),
        "missing_result": lambda text: json.dumps(
            {k: v for k, v in json.loads(text).items() if k != "payload"}),
        "bit_rot_inside_valid_json": lambda text: json.dumps(
            dict(json.loads(text), payload=_rot(json.loads(text)["payload"]))),
        "invalid_result_fields": lambda text: json.dumps(
            dict(json.loads(text), payload={"design": "TLC"})),
        "empty_file": lambda text: "",
    }

    def assert_corruption_caught(self, store_type, root, key, corruption,
                                 copy_root):
        """Corrupt a copy of ``root``'s entry: load() raises, get()
        quarantines it and reports a miss."""
        from repro.analysis.storage import CacheCorruptionError

        original = store_type(root).path_for(key).read_text()
        # Work on a copy so parametrized cases don't interfere.
        copy = store_type(copy_root)
        path = copy.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.CORRUPTIONS[corruption](original))
        with pytest.raises(CacheCorruptionError):
            copy.load(key)
        assert copy.get(key) is None
        assert copy.quarantined == 1 and copy.misses == 1
        assert not path.exists()
        assert (copy.quarantine_dir / path.name).exists()

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_load_raises_typed_error(self, warm, tmp_path, corruption):
        root, cell, key, _ = warm
        self.assert_corruption_caught(ResultCache, root, key, corruption,
                                      tmp_path)

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_derived_load_raises_typed_error(self, warm_derived, tmp_path,
                                             corruption):
        from repro.analysis.derived import as_lane

        root, key, _ = warm_derived
        self.assert_corruption_caught(lambda path: as_lane(path).cache, root,
                                      key, corruption, tmp_path)

    def test_bit_rot_defeats_field_validation_but_not_digest(self, warm,
                                                             tmp_path):
        """The motivating case: valid JSON, valid fields, wrong value."""
        from repro.analysis.storage import CacheCorruptionError

        root, cell, key, result = warm
        original = ResultCache(root).path_for(key).read_text()
        copy = ResultCache(tmp_path)
        path = copy.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            self.CORRUPTIONS["bit_rot_inside_valid_json"](original))
        with pytest.raises(CacheCorruptionError, match="integrity digest"):
            copy.load(key)
        assert copy.get(key) is None
        assert copy.quarantined == 1
        assert (copy.quarantine_dir / path.name).exists()

    def test_missing_entry_is_plain_miss_not_corruption(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(FileNotFoundError):
            cache.load("0" * 64)
        assert cache.get("0" * 64) is None
        assert cache.misses == 1
        assert cache.quarantined == 0

    def test_load_round_trips_valid_entry(self, warm, warm_derived):
        from repro.analysis.derived import as_lane

        root, cell, key, result = warm
        assert ResultCache(root).load(key) == result
        root, key, artifact = warm_derived
        assert as_lane(root).cache.load(key) == artifact


class TestCacheKey:
    BASE = CellSpec(design="TLC", benchmark="perl", n_refs=N_REFS, seed=7)

    def test_key_is_stable(self):
        assert cache_key(self.BASE) == cache_key(
            CellSpec(design="TLC", benchmark="perl", n_refs=N_REFS, seed=7))

    def test_default_processor_config_is_canonical(self):
        explicit = dataclasses.replace(self.BASE,
                                       processor_config=ProcessorConfig())
        assert cache_key(explicit) == cache_key(self.BASE)

    @pytest.mark.parametrize("change", [
        {"design": "SNUCA2"},
        {"benchmark": "bzip"},
        {"n_refs": N_REFS + 1},
        {"seed": 8},
        {"warmup_fraction": 0.4},
        {"processor_config": ProcessorConfig(issue_width=2)},
        {"processor_config": ProcessorConfig(rob_entries=64)},
        {"processor_config": ProcessorConfig(mshrs=4)},
        {"processor_config": ProcessorConfig(l1_latency=2)},
        {"tech": Technology(name="45nm-5GHz", frequency_hz=5e9)},
        {"trace_spec": TraceSpec(mean_gap=10.0)},
        {"memory_latency_cycles": 150},
    ])
    def test_any_field_change_changes_key(self, change):
        assert cache_key(dataclasses.replace(self.BASE, **change)) \
            != cache_key(self.BASE)

    def test_key_includes_code_version(self, monkeypatch):
        import repro.analysis.runner as runner_module

        before = cache_key(self.BASE)
        monkeypatch.setattr(runner_module, "code_version_stamp",
                            lambda: "0" * 64)
        assert cache_key(self.BASE) != before

    def test_code_version_stamp_is_hex_digest(self):
        stamp = code_version_stamp()
        assert len(stamp) == 64
        int(stamp, 16)


class TestRunCell:
    def test_custom_trace_spec(self):
        spec = TraceSpec(mean_gap=12.0, hot_blocks=50_000,
                         dependent_fraction=0.5)
        result = run_cell(CellSpec(design="TLC", benchmark="custom",
                                   n_refs=N_REFS, seed=3, trace_spec=spec))
        assert result.benchmark == "custom"
        assert result.l2_requests > 0

    def test_memory_latency_override_slows_execution(self):
        fast = run_cell(CellSpec(design="SNUCA2", benchmark="gcc",
                                 n_refs=N_REFS, seed=7,
                                 memory_latency_cycles=100))
        slow = run_cell(CellSpec(design="SNUCA2", benchmark="gcc",
                                 n_refs=N_REFS, seed=7,
                                 memory_latency_cycles=900))
        assert slow.cycles > fast.cycles


class TestVariantCells:
    """Design-variant cells: the plumbing repro.explore rides on."""

    def _variant(self, cycles=2):
        from repro.core.config import DesignVariant

        return DesignVariant(name="snuca2-fast", base="SNUCA2",
                             overrides={"bank_access_cycles": cycles})

    def test_variant_grid_is_keyed_by_variant_name(self):
        grid = run_grid(["SNUCA2", self._variant()], benchmarks=("gcc",),
                        n_refs=N_REFS)
        assert grid.designs == ("SNUCA2", "snuca2-fast")
        result = grid.result("snuca2-fast", "gcc")
        assert result.design == "snuca2-fast"
        # The override took: two fewer bank cycles beat the base design.
        assert result.cycles < grid.result("SNUCA2", "gcc").cycles

    def test_variant_and_base_have_distinct_cache_keys(self):
        from repro.analysis.runner import grid_cell_specs

        cells, _ = grid_cell_specs(designs=["SNUCA2", self._variant()],
                                   benchmarks=("gcc",), n_refs=N_REFS)
        assert cells[0].design_base is None
        assert cells[1].design_base == "SNUCA2"
        assert cells[1].design_overrides == (("bank_access_cycles", 2),)
        assert cache_key(cells[0]) != cache_key(cells[1])

    def test_variant_cells_round_trip_through_cache_and_pool(self, tmp_path):
        designs = ["SNUCA2", self._variant()]
        cold = run_grid(designs, benchmarks=("gcc",), n_refs=N_REFS,
                        workers=2, cache=tmp_path)
        warm_cache = ResultCache(tmp_path)
        warm = run_grid(designs, benchmarks=("gcc",), n_refs=N_REFS,
                        cache=warm_cache)
        assert grid_payload(warm) == grid_payload(cold)
        assert warm_cache.hits == 2 and warm_cache.stores == 0
