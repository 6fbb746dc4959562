"""Property-based fuzzing of the design-parameter registry.

The contract under test: :class:`~repro.core.config.DesignConfig`
construction (including ``dataclasses.replace`` variants and
``build_design`` overrides) either yields a buildable configuration or
raises a typed :class:`~repro.core.config.ConfigError` — never a bare
``TypeError`` / ``ZeroDivisionError`` from deep inside a model, and
never a half-built simulator with NaN latencies.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import (
    DESIGNS,
    SNUCA2,
    TLC_BASE,
    ConfigError,
    DesignConfig,
    build_design,
)

FIELDS = tuple(field.name for field in dataclasses.fields(DesignConfig))

#: Adversarial values for any field: wrong types, NaN/inf, negatives,
#: bools (which are ints to isinstance), empty strings, None.
garbage = st.one_of(
    st.integers(min_value=-8, max_value=8),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.lists(st.integers(min_value=-2, max_value=6), max_size=4),
)

fuzz = settings(max_examples=80, deadline=None)


@fuzz
@given(field=st.sampled_from(FIELDS), value=garbage,
       base=st.sampled_from((TLC_BASE, SNUCA2)))
def test_single_field_mutation_is_typed(field, value, base):
    """Replacing any one field either validates or raises ConfigError."""
    try:
        config = dataclasses.replace(base, **{field: value})
    except ConfigError:
        return
    # Accepted: the config must be internally consistent enough for the
    # derived quantities every model starts from.
    assert config.banks * config.bank_bytes > 0
    assert config.pairs >= 1
    if config.kind in ("tlc", "tlcopt"):
        assert isinstance(config.controller_rt_delays, tuple)
        assert len(config.controller_rt_delays) == config.pairs


@fuzz
@given(overrides=st.dictionaries(st.sampled_from(FIELDS), garbage,
                                 max_size=4))
def test_multi_field_construction_is_typed(overrides):
    """Arbitrary constructor payloads never escape the typed error."""
    payload = dict(dataclasses.asdict(TLC_BASE), **overrides)
    try:
        DesignConfig(**payload)
    except ConfigError:
        pass


@fuzz
@given(name=st.sampled_from(sorted(DESIGNS)),
       key=st.sampled_from(("bankz", "n_banks", "latency", "mesh",
                            "assoc", "x")),
       value=st.integers(min_value=0, max_value=64))
def test_unknown_override_name_is_typed(name, key, value):
    with pytest.raises(ConfigError, match="bad design override"):
        build_design(name, **{key: value})


@fuzz
@given(length=st.floats(allow_nan=True, allow_infinity=True))
def test_hop_length_rejects_non_finite(length):
    if math.isfinite(length) and length > 0:
        config = dataclasses.replace(SNUCA2, mesh_hop_length_m=length)
        assert config.mesh_hop_length_m == length
    else:
        with pytest.raises(ConfigError, match="mesh_hop_length_m"):
            dataclasses.replace(SNUCA2, mesh_hop_length_m=length)


@st.composite
def tlc_variants(draw):
    """Structurally valid base-TLC configurations."""
    banks = draw(st.sampled_from((2, 4, 8, 16, 32)))
    associativity = draw(st.sampled_from((1, 2, 4, 8)))
    return DesignConfig(
        name="fuzz-tlc",
        kind="tlc",
        banks=banks,
        bank_bytes=64 * associativity * draw(st.sampled_from((4, 16, 64))),
        bank_access_cycles=draw(st.integers(min_value=1, max_value=8)),
        associativity=associativity,
        lines_per_pair=draw(st.sampled_from((2, 24, 128, 256))),
        controller_rt_delays=tuple(draw(st.lists(
            st.integers(min_value=0, max_value=6),
            min_size=banks // 2, max_size=banks // 2))),
    )


@settings(max_examples=25, deadline=None)
@given(config=tlc_variants())
def test_valid_tlc_variants_build_and_serve_accesses(config):
    """Every config the validator accepts yields a working simulator.

    One escape hatch: the floorplan may find the routed line lengths
    physically unroutable (Table 1 tops out at 1.3 cm) — a property of
    the technology, not of the field values, and it raises its own
    descriptive error.
    """
    from repro.core.tlc import TransmissionLineCache

    try:
        design = TransmissionLineCache(config)
    except ValueError as error:
        assert "Table 1 geometry" in str(error)
        return
    outcome = design.access(0x4000, 0)
    assert outcome.complete_time >= 0
    assert math.isfinite(design.mean_lookup_latency)


def test_registry_configs_are_valid():
    """The shipped Table 2 rows all pass their own validation."""
    for name, config in DESIGNS.items():
        assert dataclasses.replace(config) == config, name
