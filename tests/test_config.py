"""Tests for the design registry (paper Table 2)."""

import pytest

from repro.analysis.tables import PAPER_TABLE2
from repro.core.config import (
    DESIGNS,
    DNUCA,
    SNUCA2,
    TLC_BASE,
    TLC_OPT_350,
    TLC_OPT_500,
    TLC_OPT_1000,
    build_design,
    design_names,
    get_design,
)


class TestRegistry:
    def test_six_designs(self):
        assert set(design_names()) == {
            "TLC", "TLCopt1000", "TLCopt500", "TLCopt350", "SNUCA2", "DNUCA"}

    def test_get_design(self):
        assert get_design("TLC") is TLC_BASE

    def test_unknown_design(self):
        with pytest.raises(ValueError, match="unknown design"):
            get_design("TLC9000")

    def test_all_designs_are_16mb(self):
        for config in DESIGNS.values():
            capacity = config.banks * config.bank_bytes
            if config.kind == "tlcopt":
                capacity = config.banks * config.bank_bytes
            assert capacity == 16 * 1024 * 1024


class TestTable2Parameters:
    @pytest.mark.parametrize("name", list(PAPER_TABLE2))
    def test_structural_parameters_match_paper(self, name):
        paper = PAPER_TABLE2[name]
        config = get_design(name)
        assert config.banks == paper["banks"]
        assert config.banks_per_block == paper["banks_per_block"]
        assert config.bank_bytes == paper["bank_kb"] * 1024
        assert config.bank_access_cycles == paper["bank_access"]

    @pytest.mark.parametrize("name", ["TLC", "TLCopt1000", "TLCopt500", "TLCopt350"])
    def test_transmission_line_counts(self, name):
        paper = PAPER_TABLE2[name]
        config = get_design(name)
        assert config.lines_per_pair == paper["lines_per_pair"]
        assert config.total_lines == paper["total_lines"]

    @pytest.mark.parametrize("name", ["TLC", "TLCopt1000", "TLCopt500", "TLCopt350"])
    def test_uncontended_latency_ranges(self, name):
        assert (get_design(name).uncontended_latency_range
                == PAPER_TABLE2[name]["uncontended"])

    def test_dnuca_uncontended_range(self):
        assert DNUCA.uncontended_latency_range == (3, 47)

    def test_snuca_uncontended_range(self):
        # Paper reports 9-32; the symmetric mesh model gives 9-33.
        low, high = SNUCA2.uncontended_latency_range
        assert low == 9
        assert 32 <= high <= 33


class TestDerivedLinkWidths:
    def test_base_tlc_links_are_8_bytes(self):
        assert TLC_BASE.request_link_bits == 64
        assert TLC_BASE.response_link_bits == 64

    def test_opt_request_links_are_22_bits(self):
        for config in (TLC_OPT_1000, TLC_OPT_500, TLC_OPT_350):
            assert config.request_link_bits == 22

    def test_opt_response_links_use_remaining_lines(self):
        assert TLC_OPT_1000.response_link_bits == 126 - 22
        assert TLC_OPT_500.response_link_bits == 64 - 22
        assert TLC_OPT_350.response_link_bits == 44 - 22

    def test_nuca_designs_have_no_tl_links(self):
        with pytest.raises(ValueError):
            SNUCA2.request_link_bits
        with pytest.raises(ValueError):
            DNUCA.response_link_bits

    def test_controller_delays_cover_all_pairs(self):
        assert len(TLC_BASE.controller_rt_delays) == TLC_BASE.pairs
        assert len(TLC_OPT_500.controller_rt_delays) == TLC_OPT_500.pairs


class TestBuildDesign:
    @pytest.mark.parametrize("name", list(DESIGNS))
    def test_builds_every_design(self, name):
        design = build_design(name)
        assert design.name == name

    def test_overrides_apply(self):
        design = build_design("TLC", replacement="frequency")
        assert design.config.replacement == "frequency"

    def test_build_unknown_raises(self):
        with pytest.raises(ValueError):
            build_design("nope")

    def test_tlcopt_needs_an_even_number_of_stripe_groups(self):
        """16 banks in blocks of 16 leave one stripe group, whose
        sixteen stripes would share eight pairs."""
        from repro.core.config import ConfigError

        with pytest.raises(ConfigError, match="even number of stripe groups"):
            build_design("TLCopt500", banks=16, banks_per_block=16)

    def test_dnuca_needs_two_mesh_rows(self):
        """Every DNUCA lookup probes the closest two banks of its bank
        set, so a one-row mesh is rejected when the cell is set up,
        where it used to fail on the first access; SNUCA2 keeps one row."""
        from repro.core.config import ConfigError
        from repro.sim.system import run_system

        with pytest.raises(ConfigError, match="closest two banks"):
            run_system("DNUCA", "perl", n_refs=500, seed=7, mesh_rows=1,
                       mesh_columns=16, banks=16)
        one_row = build_design("SNUCA2", mesh_rows=1, mesh_columns=16,
                               banks=16)
        assert one_row.config.mesh_rows == 1


class TestDesignVariant:
    def test_variant_builds_config_under_its_own_name(self):
        from repro.core.config import DesignVariant

        variant = DesignVariant(name="snuca2-fast", base="snuca2",
                                overrides={"bank_access_cycles": 2})
        config = variant.config()
        assert config.name == "snuca2-fast"
        assert config.bank_access_cycles == 2
        assert variant.base == "SNUCA2"  # resolved registry spelling

    def test_overrides_canonicalize_to_sorted_tuples(self):
        from repro.core.config import DesignVariant

        one = DesignVariant(name="v", base="SNUCA2",
                            overrides={"mesh_hop_latency": 2,
                                       "bank_access_cycles": 3})
        two = DesignVariant(name="v", base="SNUCA2",
                            overrides=(("bank_access_cycles", 3),
                                       ("mesh_hop_latency", 2)))
        assert one == two
        assert one.as_dict()["overrides"] == {"bank_access_cycles": 3,
                                              "mesh_hop_latency": 2}

    def test_reserved_and_unknown_fields_are_refused(self):
        from repro.core.config import ConfigError, DesignVariant

        for overrides, match in (({"name": "x"}, "cannot be overridden"),
                                 ({"backend": "batched"}, "unknown override"),
                                 ({"bogus": 1}, "unknown override")):
            with pytest.raises(ConfigError, match=match):
                DesignVariant(name="v", base="SNUCA2", overrides=overrides)

    def test_unbuildable_combination_is_a_typed_error(self):
        from repro.core.config import ConfigError, DesignVariant

        with pytest.raises(ConfigError, match="bank_access_cycles"):
            DesignVariant(name="v", base="SNUCA2",
                          overrides={"bank_access_cycles": 0})
