"""Tests for the design-space exploration subsystem (repro.explore).

The load-bearing property throughout is the determinism contract: same
space document + driver + seed + budget => byte-identical trajectory
and leaderboard, with a warm result cache answering a repeated search
with zero simulated cells (the CI explore smoke job asserts the same
thing end to end through the CLI).
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import ConfigError, DesignConfig, design_names
from repro.explore import (
    DRIVER_NAMES,
    MAX_VARIANTS,
    build_search_manifest,
    expand,
    leaderboard_dataset,
    render_leaderboard,
    run_search,
    validate_space_spec,
)

SPACE_DOC = {
    "name": "t",
    "base": "SNUCA2",
    "axes": [
        {"field": "bank_access_cycles", "values": [2, 3, 4]},
        {"field": "mesh_hop_latency", "values": [1, 2]},
    ],
    "benchmarks": ["gcc"],
    "n_refs": 800,
    "seed": 5,
}


@pytest.fixture(scope="module")
def spec():
    return validate_space_spec(SPACE_DOC)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """One result cache shared by every search in this module —
    identical cells are simulated once across the whole file."""
    return str(tmp_path_factory.mktemp("explore-cache"))


class TestSpaceValidation:
    def test_minimal_document_gets_defaults(self):
        spec = validate_space_spec(
            {"name": "x", "base": "snuca2",
             "axes": [{"field": "banks", "values": [32]}]})
        assert spec.base == "SNUCA2"          # resolved spelling
        assert spec.baseline == "SNUCA2"      # defaults to base
        assert spec.references == ("SNUCA2",)
        assert spec.n_refs == 20_000 and spec.seed == 7
        assert spec.on_invalid == "raise"
        assert len(spec.benchmarks) == 12     # full suite by default

    def test_round_trips_through_as_dict(self, spec):
        assert validate_space_spec(spec.as_dict()) == spec

    def test_scalar_and_object_axis_spellings_are_equivalent(self):
        scalar = validate_space_spec(
            {"name": "x", "base": "SNUCA2",
             "axes": [{"field": "banks", "values": [16, 32]}]})
        objects = validate_space_spec(
            {"name": "x", "base": "SNUCA2",
             "axes": [{"values": [{"banks": 16}, {"banks": 32}]}]})
        assert scalar.axes == objects.axes

    def test_baseline_always_leads_references(self):
        spec = validate_space_spec(
            {"name": "x", "base": "TLC", "baseline": "SNUCA2",
             "references": ["DNUCA", "TLC"],
             "axes": [{"field": "banks", "values": [32]}]})
        assert spec.references == ("SNUCA2", "DNUCA", "TLC")

    @pytest.mark.parametrize("mutation, match", [
        ({"name": ""}, "name"),
        ({"name": "-leading"}, "name"),
        ({"base": "nope"}, "unknown design"),
        ({"baseline": 7}, "baseline"),
        ({"axes": []}, "axes"),
        ({"axes": [{"field": "bogus", "values": [1]}]}, "unknown"),
        ({"axes": [{"values": [{"name": "x"}]}]}, "cannot be an axis"),
        ({"axes": [{"field": "name", "values": ["x"]}]}, "cannot be an axis"),
        ({"axes": [{"values": [1, 2]}]}, "need the axis 'field'"),
        ({"axes": [{"field": "banks", "values": [1, 1]}]}, "duplicates"),
        ({"axes": [{"field": "banks", "values": [1]},
                   {"field": "banks", "values": [2]}]}, "more than one axis"),
        ({"benchmarks": ["gcc", "nope"]}, "unknown benchmark"),
        ({"benchmarks": ["gcc", "gcc"]}, "duplicate"),
        ({"n_refs": 0}, "n_refs"),
        ({"n_refs": True}, "n_refs"),
        ({"seed": -1}, "seed"),
        ({"warmup_fraction": 1.0}, "warmup_fraction"),
        ({"backend": "reference"}, "backend"),
        ({"on_invalid": "ignore"}, "on_invalid"),
        ({"extra": 1}, "unknown field"),
        ({"axes": [{"field": "backend", "values": ["reference"]}]},
         "unknown DesignConfig field"),
    ])
    def test_bad_documents_raise_config_error(self, mutation, match):
        doc = {**SPACE_DOC, **mutation}
        with pytest.raises(ConfigError, match=match):
            validate_space_spec(doc)

    def test_non_object_payloads_raise_config_error(self):
        for payload in (None, 3, "spec", ["axes"]):
            with pytest.raises(ConfigError):
                validate_space_spec(payload)

    def test_oversized_product_is_rejected(self):
        doc = {"name": "big", "base": "SNUCA2",
               "axes": [{"field": "bank_access_cycles",
                         "values": list(range(1, 33))},
                        {"field": "mesh_hop_latency",
                         "values": list(range(1, 33))}]}
        with pytest.raises(ConfigError, match="cap"):
            validate_space_spec(doc)


class TestExpansion:
    def test_names_follow_product_order(self, spec):
        variants = expand(spec).variants
        assert [v.name for v in variants] == [f"t-{i:04d}" for i in range(6)]
        # Last axis varies fastest, like itertools.product.
        assert dict(variants[0].overrides) == {"bank_access_cycles": 2,
                                               "mesh_hop_latency": 1}
        assert dict(variants[1].overrides) == {"bank_access_cycles": 2,
                                               "mesh_hop_latency": 2}

    def test_every_variant_builds_a_named_config(self, spec):
        for variant in expand(spec).variants:
            config = variant.config()
            assert isinstance(config, DesignConfig)
            assert config.name == variant.name

    def test_on_invalid_skip_keeps_stable_numbering(self):
        doc = {"name": "s", "base": "SNUCA2", "on_invalid": "skip",
               "benchmarks": ["gcc"],
               "axes": [{"field": "bank_access_cycles", "values": [2, 0, 3]}]}
        expansion = expand(validate_space_spec(doc))
        # The invalid middle combination keeps its index; survivors
        # keep theirs.
        assert [v.name for v in expansion.variants] == ["s-0000", "s-0002"]
        assert [name for name, _ in expansion.skipped] == ["s-0001"]

    def test_on_invalid_skip_drops_an_odd_stripe_group_count(self):
        doc = {"name": "g", "base": "TLCopt500", "on_invalid": "skip",
               "benchmarks": ["gcc"],
               "axes": [{"field": "banks_per_block", "values": [4, 16, 8]}]}
        expansion = expand(validate_space_spec(doc))
        assert [v.name for v in expansion.variants] == ["g-0000", "g-0002"]
        [(name, reason)] = expansion.skipped
        assert name == "g-0001"
        assert "even number of stripe groups" in str(reason)

    def test_on_invalid_skip_drops_a_one_row_dnuca(self):
        doc = {"name": "d", "base": "DNUCA", "on_invalid": "skip",
               "benchmarks": ["gcc"],
               "axes": [{"values": [{"mesh_rows": 1, "banks": 16},
                                    {"mesh_rows": 2, "banks": 32}]}]}
        expansion = expand(validate_space_spec(doc))
        assert [v.name for v in expansion.variants] == ["d-0001"]
        [(name, reason)] = expansion.skipped
        assert name == "d-0000"
        assert "closest two banks" in str(reason)

    def test_a_removed_replacement_policy_is_unbuildable(self):
        doc = {"name": "p", "base": "TLC", "benchmarks": ["gcc"],
               "axes": [{"field": "replacement",
                         "values": ["lru", "frequency", "lip"]}]}
        with pytest.raises(ConfigError, match="combination 1"):
            expand(validate_space_spec(doc))
        expansion = expand(validate_space_spec(dict(doc, on_invalid="skip")))
        assert [v.name for v in expansion.variants] == ["p-0000", "p-0002"]
        [(name, reason)] = expansion.skipped
        assert name == "p-0001"
        assert "'frequency'" in reason and "['lip', 'lru']" in reason

    def test_on_invalid_raise_names_the_combination(self):
        doc = {"name": "r", "base": "SNUCA2", "benchmarks": ["gcc"],
               "axes": [{"field": "bank_access_cycles", "values": [2, 0]}]}
        with pytest.raises(ConfigError, match="combination 1"):
            expand(validate_space_spec(doc))

    def test_all_invalid_space_is_an_error_even_when_skipping(self):
        doc = {"name": "z", "base": "SNUCA2", "on_invalid": "skip",
               "benchmarks": ["gcc"],
               "axes": [{"field": "bank_access_cycles", "values": [0, -1]}]}
        with pytest.raises(ConfigError, match="every combination"):
            expand(validate_space_spec(doc))


_json_scalars = st.none() | st.booleans() | st.integers() | st.floats(
    allow_nan=False) | st.text(max_size=20)
_json_values = st.recursive(
    _json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=10)
_axislike = st.fixed_dictionaries(
    {},
    optional={
        "field": st.sampled_from(
            ["banks", "bank_access_cycles", "name", "bogus"])
        | _json_values,
        "values": st.lists(
            _json_scalars
            | st.dictionaries(st.sampled_from(
                ["banks", "mesh_hop_latency", "bogus"]),
                _json_scalars, max_size=2),
            max_size=3) | _json_values,
        "extra": _json_values,
    })
_spacelike = st.fixed_dictionaries(
    {},
    optional={
        "name": st.sampled_from(["ok", "no spaces", "-bad", ""])
        | _json_values,
        "base": st.sampled_from(["SNUCA2", "tlc", "bogus"]) | _json_values,
        "baseline": st.sampled_from(["SNUCA2", "bogus"]) | _json_values,
        "references": st.lists(st.sampled_from(["SNUCA2", "DNUCA", "bogus"]),
                               max_size=3) | _json_values,
        "axes": st.lists(_axislike, max_size=3) | _json_values,
        "benchmarks": st.lists(st.sampled_from(["gcc", "mcf", "bogus"]),
                               max_size=3) | _json_values,
        "n_refs": st.integers(-5, 10**7) | _json_values,
        "seed": st.integers(-2, 2**33) | _json_values,
        "warmup_fraction": st.floats(allow_nan=True, allow_infinity=True)
        | _json_values,
        "sanitize": st.booleans() | _json_values,
        "on_invalid": st.sampled_from(["raise", "skip", "ignore"])
        | _json_values,
        "extra": _json_values,
    })

#: Pools mixing valid and invalid values per field, for generating
#: structurally valid spaces whose combinations may still be
#: unbuildable — exactly what on_invalid handles.
_AXIS_POOLS = {
    "bank_access_cycles": [1, 2, 3, 0, -2],
    "mesh_hop_latency": [1, 2, 5, 0],
    "promotion_distance": [0, 1, 2, -1],
}


@st.composite
def _structured_spaces(draw):
    fields = draw(st.lists(st.sampled_from(sorted(_AXIS_POOLS)),
                           min_size=1, max_size=3, unique=True))
    axes = [{"field": field,
             "values": draw(st.lists(st.sampled_from(_AXIS_POOLS[field]),
                                     min_size=1, max_size=3, unique=True))}
            for field in fields]
    return {"name": "fz", "base": draw(st.sampled_from(sorted(design_names()))),
            "axes": axes, "benchmarks": ["gcc"], "n_refs": 600,
            "on_invalid": "skip"}


class TestSpaceSpecFuzz:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(payload=_spacelike | _json_values)
    def test_validator_accepts_or_raises_config_error_only(self, payload):
        try:
            spec = validate_space_spec(payload)
        except ConfigError:
            return
        # Whatever survives validation is a well-formed, bounded space.
        assert spec.axes and spec.benchmarks
        assert 1 <= spec.n_refs
        assert 0.0 <= spec.warmup_fraction < 1.0
        assert spec.references[0] == spec.baseline
        assert 1 <= spec.size <= MAX_VARIANTS

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(doc=_structured_spaces())
    def test_every_expanded_variant_passes_design_validation(self, doc):
        spec = validate_space_spec(doc)
        try:
            expansion = expand(spec)
        except ConfigError:
            return  # every combination unbuildable — a typed refusal
        for variant in expansion.variants:
            config = variant.config()  # __post_init__ re-runs here
            assert isinstance(config, DesignConfig)
            assert config.name == variant.name


class TestDrivers:
    def test_grid_clips_to_budget_in_expansion_order(self, spec, cache_dir):
        result = run_search(spec, driver="grid", seed=9, budget=2,
                            cache=cache_dir)
        assert result.rounds[0]["designs"] == ["SNUCA2", "t-0000", "t-0001"]
        assert len(result.ranking) == 2

    def test_random_same_seed_same_trajectory(self, spec, cache_dir):
        first = run_search(spec, driver="random", seed=11, budget=4,
                           cache=cache_dir)
        second = run_search(spec, driver="random", seed=11, budget=4,
                            cache=cache_dir)
        assert first.trajectory() == second.trajectory()
        # The whole point of routing through run_grid: a repeated
        # search is answered entirely by the result cache.
        assert second.cells_simulated == 0
        assert second.cells_from_cache == 5  # (1 reference + 4 variants) x 1 benchmark
        assert first.trajectory() == json.loads(
            json.dumps(first.trajectory()))  # JSON-clean document

    def test_random_different_seeds_pick_different_cohorts(self, spec,
                                                           cache_dir):
        one = run_search(spec, driver="random", seed=0, budget=3,
                         cache=cache_dir)
        two = run_search(spec, driver="random", seed=1, budget=3,
                         cache=cache_dir)
        assert (one.rounds[0]["designs"] != two.rounds[0]["designs"]
                or one.trajectory() == two.trajectory())

    def test_halving_doubles_fidelity_and_halves_survivors(self, spec,
                                                           cache_dir):
        result = run_search(spec, driver="halving", seed=3, budget=4,
                            cache=cache_dir)
        refs = [r["n_refs"] for r in result.rounds]
        assert refs == sorted(refs) and refs[-1] == spec.n_refs
        sizes = [len(r["scores"]) for r in result.rounds]
        assert sizes[0] == 4 and sizes[-1] == 2
        # Every evaluated variant appears exactly once in the ranking,
        # full-fidelity survivors first.
        names = [entry["variant"] for entry in result.ranking]
        assert sorted(names) == sorted(
            result.rounds[0]["designs"][len(spec.references):])
        finals = [entry["final"] for entry in result.ranking]
        assert finals == sorted(finals, reverse=True)
        assert all(entry["n_refs"] == spec.n_refs
                   for entry in result.ranking if entry["final"])

    def test_ranking_is_sorted_best_first(self, spec, cache_dir):
        result = run_search(spec, driver="grid", seed=0, budget=6,
                            cache=cache_dir)
        scores = [entry["score"] for entry in result.ranking]
        assert scores == sorted(scores)
        assert [entry["rank"] for entry in result.ranking] == list(
            range(1, 7))

    def test_typed_errors_for_bad_arguments(self, spec):
        with pytest.raises(ConfigError, match="driver"):
            run_search(spec, driver="anneal")
        with pytest.raises(ConfigError, match="budget"):
            run_search(spec, budget=0)
        with pytest.raises(ConfigError, match="seed"):
            run_search(spec, seed=-1)

    def test_metrics_registry_receives_explore_counters(self, spec,
                                                        cache_dir):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        run_search(spec, driver="grid", seed=0, budget=2, cache=cache_dir,
                   registry=registry)
        snapshot = registry.snapshot()
        assert snapshot["explore.variants_total"] == 6
        assert snapshot["explore.variants_evaluated"] == 2
        assert snapshot["explore.rounds"] == 1
        # 1 reference + 2 variants, on the spec's single benchmark.
        assert (snapshot["explore.cells_simulated"]
                + snapshot["explore.cells_from_cache"]) == 3

    def test_search_manifest_kind_and_config(self, spec, cache_dir):
        result = run_search(spec, driver="random", seed=11, budget=4,
                            cache=cache_dir)
        manifest = build_search_manifest(result, wall_time_s=1.5, top_k=2)
        assert manifest.kind == "explore.search"
        assert manifest.config["driver"] == "random"
        assert manifest.config["spec"] == spec.as_dict()
        assert len(manifest.result["ranking"]) == 2
        assert manifest.result["variants_total"] == 6


class TestLeaderboard:
    @pytest.fixture(scope="class")
    def result(self, spec, cache_dir):
        return run_search(spec, driver="random", seed=11, budget=4,
                          cache=cache_dir)

    def test_dataset_rows_lead_with_references(self, spec, result):
        dataset = leaderboard_dataset(result, top_k=3)
        assert dataset["rows"][0]["design"] == spec.baseline
        assert dataset["rows"][0]["score"] == 1.0  # self-normalized
        roles = [row["role"] for row in dataset["rows"]]
        assert roles == ["reference"] + ["variant"] * 3
        variant_scores = [row["score"] for row in dataset["rows"][1:]]
        assert variant_scores == sorted(variant_scores)

    def test_rendered_leaderboard_is_pure(self, result):
        dataset = leaderboard_dataset(result, top_k=2)
        assert render_leaderboard(dataset) == render_leaderboard(dataset)
        assert "SNUCA2" in render_leaderboard(dataset)


class TestExploreCLI:
    def _write_space(self, tmp_path):
        doc = {**SPACE_DOC, "n_refs": 500}
        path = tmp_path / "space.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_repeated_search_is_byte_identical_with_zero_cells(
            self, tmp_path, capsys):
        from repro.cli import main

        space = self._write_space(tmp_path)
        argv = ["explore", "--space", space, "--driver", "random",
                "--seed", "11", "--budget", "3", "--top-k", "2",
                "--cache-dir", str(tmp_path / "cache")]
        first_out = str(tmp_path / "lb1.txt")
        second_out = str(tmp_path / "lb2.txt")
        assert main(argv + ["--out", first_out,
                            "--trajectory-out",
                            str(tmp_path / "t1.json")]) == 0
        capsys.readouterr()
        assert main(argv + ["--out", second_out,
                            "--trajectory-out",
                            str(tmp_path / "t2.json")]) == 0
        output = capsys.readouterr().out
        assert "explore: 0 cell(s) simulated" in output
        first = (tmp_path / "lb1.txt").read_bytes()
        assert first == (tmp_path / "lb2.txt").read_bytes()
        assert (tmp_path / "t1.json").read_bytes() == (
            tmp_path / "t2.json").read_bytes()

    def test_manifest_is_written_and_typed(self, tmp_path, capsys):
        from repro.cli import main

        space = self._write_space(tmp_path)
        manifest_path = tmp_path / "manifest.json"
        assert main(["explore", "--space", space, "--driver", "grid",
                     "--budget", "2", "--cache-dir",
                     str(tmp_path / "cache"),
                     "--metrics-out", str(manifest_path)]) == 0
        manifest = json.loads(manifest_path.read_text())
        assert manifest["kind"] == "explore.search"
        assert manifest["metrics"]["explore.variants_evaluated"] == 2
        assert manifest["result"]["rounds"] == 1

    def test_invalid_space_file_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "base": "bogus",
                                   "axes": []}), encoding="utf-8")
        assert main(["explore", "--space", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["explore", "--space", str(tmp_path / "nope.json")]) == 2
        not_json = tmp_path / "notjson.json"
        not_json.write_text("{", encoding="utf-8")
        assert main(["explore", "--space", str(not_json)]) == 2


class TestShippedSpace:
    def test_every_example_variant_simulates_a_different_design(self):
        """Each axis of the shipped example space must change what its
        base design simulates; an axis the base never reads makes the
        search pay for one design several times."""
        from pathlib import Path

        from repro.analysis.runner import run_grid
        from repro.analysis.storage import result_to_dict

        path = (Path(__file__).resolve().parents[1]
                / "examples" / "spaces" / "tlc_latency.json")
        spec = validate_space_spec(
            json.loads(path.read_text(encoding="utf-8")))
        variants = expand(spec).variants
        grid = run_grid(designs=variants, benchmarks=spec.benchmarks[:1],
                        n_refs=500, seed=spec.seed,
                        warmup_fraction=spec.warmup_fraction, workers=2)
        benchmark = grid.benchmarks[0]
        payloads = set()
        for variant in variants:
            payload = result_to_dict(grid.result(variant.name, benchmark))
            del payload["design"]
            payloads.add(json.dumps(payload, sort_keys=True))
        assert len(payloads) == len(variants)


class TestDriverNamesExport:
    def test_cli_choices_match_the_registry(self):
        assert set(DRIVER_NAMES) == {"grid", "random", "halving"}
