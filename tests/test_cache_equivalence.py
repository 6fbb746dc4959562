"""The warm read path against the reference forms it replaced.

Cache keys, integrity digests and entry bytes name results across code
versions, so the fast forms in :mod:`repro.analysis.storage` and
:mod:`repro.analysis.runner` must give exactly what the plain forms
below give: ``dataclasses.asdict`` key fields, and a canonical image
whose dict pairs sort by a ``json.dumps`` call per key.
``tests/golden/result_entry.json`` is one result-lane entry as an
earlier code version wrote it.
"""

import dataclasses
import hashlib
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.analysis.runner as runner
import repro.analysis.storage as storage
from repro.analysis.experiments import PAPER_DESIGNS
from repro.analysis.runner import (
    CACHE_FORMAT_VERSION,
    CellSpec,
    ResultCache,
    cache_key,
    grid_cell_specs,
)
from repro.analysis.storage import integrity_digest
from repro.core.config import DesignVariant
from repro.obs.manifest import code_version_stamp
from repro.sim.processor import ProcessorConfig
from repro.sim.system import SystemResult
from repro.workloads.profiles import get_profile

GOLDEN_ENTRY = Path(__file__).parent / "golden" / "result_entry.json"
#: The cache key the entry was written under, with its code version.
GOLDEN_KEY = "014e9e2c3cf2a3627597adab033b56be1b19c906682a6a91d95472961792ff91"
GOLDEN_CELL = CellSpec(design="DNUCA", benchmark="perl", n_refs=400, seed=7)


# -- the reference forms ------------------------------------------------------

def reference_canonical(value):
    if isinstance(value, dict):
        pairs = [[reference_canonical(key), reference_canonical(val)]
                 for key, val in value.items()]
        pairs.sort(key=lambda pair: json.dumps(pair[0], sort_keys=True,
                                               separators=(",", ":")))
        return {"__dict__": pairs}
    if isinstance(value, (list, tuple)):
        return [reference_canonical(item) for item in value]
    return value


def reference_digest(payload) -> str:
    canonical = json.dumps(reference_canonical(payload), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def reference_key_fields(cell: CellSpec) -> dict:
    processor = cell.processor_config or ProcessorConfig()
    return {
        "design": cell.design,
        "benchmark": cell.benchmark,
        "n_refs": cell.n_refs,
        "seed": cell.seed,
        "warmup_fraction": cell.warmup_fraction,
        "processor_config": dataclasses.asdict(processor),
        "tech": cell.tech.name,
        "trace_spec": (None if cell.trace_spec is None
                       else dataclasses.asdict(cell.trace_spec)),
        "memory_latency_cycles": cell.memory_latency_cycles,
        "sanitize": cell.sanitize,
        "design_base": cell.design_base,
        "design_overrides": (None if cell.design_overrides is None
                             else [[field, value] for field, value
                                   in cell.design_overrides]),
    }


def reference_cache_key(cell: CellSpec) -> str:
    payload = dict(reference_key_fields(cell),
                   code_version=code_version_stamp(),
                   cache_format=CACHE_FORMAT_VERSION)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# -- digests ------------------------------------------------------------------

#: str keys whose order differs raw and JSON-escaped ("a" < "a!" raw,
#: but '"a!"' < '"a"'), or that the encoder escapes.
TRICKY_KEYS = ("a", "a!", " ", '"', "\\", "\x1f", "é")

keys = st.one_of(st.sampled_from(TRICKY_KEYS), st.text(max_size=4),
                 st.integers(-10**6, 10**6), st.floats(), st.booleans(),
                 st.none())
scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                    st.text(max_size=6))
payloads = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(keys, children, max_size=6)),
    max_leaves=40)


class TestDigest:
    @given(payload=payloads)
    @settings(max_examples=400, deadline=None)
    def test_matches_the_reference(self, payload):
        assert integrity_digest(payload) == reference_digest(payload)

    def test_tricky_keys_sort_as_json_text(self):
        payload = {key: index for index, key in enumerate(TRICKY_KEYS)}
        payload.update({0: "int", 1.5: "float", None: "none", True: "bool"})
        assert integrity_digest(payload) == reference_digest(payload)
        assert integrity_digest({"a": 1, "a!": 2}) == reference_digest(
            {"a!": 2, "a": 1})

    def test_result_payloads_match_the_reference(self):
        entry = json.loads(GOLDEN_ENTRY.read_text(encoding="utf-8"))
        payload = entry["payload"]
        assert integrity_digest(payload) == reference_digest(payload)
        assert integrity_digest(payload) == entry["integrity"]


# -- cache keys ---------------------------------------------------------------

def key_cells() -> dict:
    """Cells of every kind a cache key is taken for, by kind."""
    variant = DesignVariant(name="tlc-latency-0004", base="TLCopt500",
                            overrides=(("bank_access_cycles", 3),
                                       ("lines_per_pair", 44)))
    spec = dataclasses.replace(get_profile("gcc").spec,
                               dependent_fraction=0.6)
    return {
        "paper-grid": grid_cell_specs(PAPER_DESIGNS, n_refs=20_000)[0],
        "sanitized": grid_cell_specs(("TLC", "DNUCA"), benchmarks=("mcf",),
                                     n_refs=3_000, sanitize=True)[0],
        "custom-trace": [CellSpec(design="TLC", benchmark="dep-0.6",
                                  n_refs=8_000, seed=7, trace_spec=spec)],
        "memory-latency": [CellSpec(design="SNUCA2", benchmark="gcc",
                                    n_refs=10_000, seed=7,
                                    memory_latency_cycles=latency)
                           for latency in (150, 600)],
        "variant": grid_cell_specs([variant], benchmarks=("gcc", "mcf"),
                                   n_refs=4_000, seed=5)[0],
        "custom-core": [CellSpec(design="TLC", benchmark="perl",
                                 n_refs=2_000, seed=11, warmup_fraction=0.25,
                                 processor_config=ProcessorConfig(mshrs=4))],
    }


KEY_CELLS = key_cells()


class TestCacheKey:
    @pytest.mark.parametrize("kind", sorted(KEY_CELLS))
    def test_matches_the_reference(self, kind):
        for cell in KEY_CELLS[kind]:
            fields = cell.key_fields()
            assert fields == reference_key_fields(cell)
            # Entry meta is written unsorted, so field order counts too.
            assert (json.dumps(fields)
                    == json.dumps(reference_key_fields(cell)))
            assert cache_key(cell) == reference_cache_key(cell)

    def test_key_fields_are_fresh_dicts(self):
        fields = GOLDEN_CELL.key_fields()
        fields["processor_config"]["mshrs"] = 1
        assert GOLDEN_CELL.key_fields() == reference_key_fields(GOLDEN_CELL)


# -- an entry written by an earlier code version -------------------------------

@pytest.fixture
def golden_cache(tmp_path):
    cache = ResultCache(tmp_path)
    path = cache.path_for(GOLDEN_KEY)
    path.parent.mkdir(parents=True)
    shutil.copyfile(GOLDEN_ENTRY, path)
    return cache


@pytest.fixture
def golden_entry():
    return json.loads(GOLDEN_ENTRY.read_text(encoding="utf-8"))


class TestGoldenEntry:
    def test_loads_to_its_result_without_quarantine(self, golden_cache,
                                                    golden_entry):
        payload = golden_entry["payload"]
        expected = SystemResult(**dict(payload, stats=dict(payload["stats"])))
        assert golden_cache.get(GOLDEN_KEY) == expected
        assert (golden_cache.hits, golden_cache.quarantined) == (1, 0)

    def test_same_key_and_bytes_under_its_code_version(
            self, golden_cache, golden_entry, monkeypatch, tmp_path):
        version = golden_entry["code_version"]
        monkeypatch.setattr(runner, "code_version_stamp", lambda: version)
        monkeypatch.setattr(storage, "code_version_stamp", lambda: version)
        assert GOLDEN_CELL.key_fields() == golden_entry["meta"]["cell"]
        assert cache_key(GOLDEN_CELL) == GOLDEN_KEY
        rewritten = ResultCache(tmp_path / "rewritten")
        rewritten.put(GOLDEN_KEY, golden_cache.load(GOLDEN_KEY),
                      cell=GOLDEN_CELL.key_fields())
        assert (rewritten.path_for(GOLDEN_KEY).read_bytes()
                == GOLDEN_ENTRY.read_bytes())

    def test_one_flipped_digit_is_quarantined(self, golden_cache):
        path = golden_cache.path_for(GOLDEN_KEY)
        text = path.read_text(encoding="utf-8")
        assert text.count('"cycles": 14229,') == 1
        path.write_text(text.replace('"cycles": 14229,', '"cycles": 14239,'),
                        encoding="utf-8")
        with pytest.raises(storage.CacheCorruptionError, match="integrity"):
            golden_cache.load(GOLDEN_KEY)
        assert golden_cache.get(GOLDEN_KEY) is None
        assert (golden_cache.misses, golden_cache.quarantined) == (1, 1)
