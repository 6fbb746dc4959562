"""The design-space DSL: declarative ``SpaceSpec`` -> concrete variants.

A :class:`SpaceSpec` names a *family* of cache designs: a registered
base design (a row of the paper's Table 2), a set of **axes** that each
vary one field — or several coupled fields — of
:class:`~repro.core.config.DesignConfig`, and the workload/trace
parameters every candidate is evaluated under.  Expansion takes the
cartesian product of the axes and yields named
:class:`~repro.core.config.DesignVariant` objects the grid runner
executes like any registry design (see
:func:`repro.analysis.runner.grid_cell_specs`).

Specs have two interchangeable forms, mirroring
:mod:`repro.service.schema`: the frozen dataclass, and the JSON/dict
document :data:`SPACE_SPEC_SCHEMA` describes.  :func:`validate_space_spec`
is the executable twin of the schema: it accepts a decoded JSON payload
and raises the typed :class:`~repro.core.config.ConfigError` — and only
``ConfigError`` — for every way a document can be invalid (the
Hypothesis suite in ``tests/test_explore.py`` enforces that contract
over arbitrary JSON, like ``test_service.py`` does for job specs).

Determinism is the load-bearing property: expansion order is the
product order of the axes as written, variant names are
``<spec.name>-<NNNN>`` by product index, and every value is coerced to
one canonical form — so the same document always expands to the same
variants, which is what lets a search trajectory (and its leaderboard)
be byte-reproducible and lets the result cache answer a repeated
search with zero simulation.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Dict, List, Optional, Tuple

from repro.core.config import (
    RUN_PARAMETER_SCHEMA,
    ConfigError,
    DesignVariant,
    RESERVED_VARIANT_FIELDS,
    DesignConfig,
    resolve_design_name,
    validate_run_parameters,
)

#: Guard rails for one exploration (same spirit as the service caps:
#: a declarative document should not be able to demand unbounded work).
MAX_VARIANTS = 512
MAX_AXES = 8
MAX_CHOICES_PER_AXIS = 64
MAX_NAME_LENGTH = 48

#: JSON Schema for a space document (the ``repro explore --space`` file).
#: :func:`validate_space_spec` is the executable twin of this
#: declaration; docs/EXPLORATION.md embeds it.
SPACE_SPEC_SCHEMA = {
    "type": "object",
    "required": ["name", "base", "axes"],
    "additionalProperties": False,
    "properties": {
        "name": {
            "type": "string",
            "pattern": r"^[A-Za-z0-9][A-Za-z0-9._-]*$",
            "maxLength": MAX_NAME_LENGTH,
            "description": "family name; variants are named "
                           "<name>-<NNNN> by product index",
        },
        "base": {
            "type": "string",
            "description": "registered design every variant starts from "
                           "(any case/separator spelling)",
        },
        "baseline": {
            "type": "string",
            "description": "registered design scores are normalized "
                           "against (default: base)",
        },
        "references": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "string"},
            "description": "registered designs shown beside the variants "
                           "on the leaderboard (default: baseline + base); "
                           "the baseline is always included",
        },
        "axes": {
            "type": "array",
            "minItems": 1,
            "maxItems": MAX_AXES,
            "items": {
                "type": "object",
                "required": ["values"],
                "additionalProperties": False,
                "properties": {
                    "field": {
                        "type": "string",
                        "description": "DesignConfig field scalar values "
                                       "apply to; omit when every value "
                                       "is an object of coupled fields",
                    },
                    "values": {
                        "type": "array",
                        "minItems": 1,
                        "maxItems": MAX_CHOICES_PER_AXIS,
                        "description": "axis choices: scalars (require "
                                       "field), arrays (tuple fields like "
                                       "controller_rt_delays), or objects "
                                       "mapping several DesignConfig "
                                       "fields varied together",
                    },
                },
            },
            "description": "explored dimensions; expansion is the "
                           "cartesian product in document order",
        },
        **RUN_PARAMETER_SCHEMA,
        "on_invalid": {
            "type": "string",
            "enum": ["raise", "skip"],
            "default": "raise",
            "description": "what expansion does with a product "
                           "combination DesignConfig rejects: fail the "
                           "whole space, or drop that combination "
                           "(names stay stable either way: variants are "
                           "numbered before skipping)",
        },
    },
}


@dataclasses.dataclass(frozen=True)
class AxisSpec:
    """One explored dimension, in canonical form.

    ``choices`` holds one entry per axis value, each a sorted tuple of
    ``(field, value)`` override pairs — a scalar axis value becomes the
    single pair ``(field, value)``, an object value becomes one pair
    per coupled field.  Canonicalization makes axes hashable and makes
    two spellings of one axis compare equal.
    """

    choices: Tuple[Tuple[Tuple[str, object], ...], ...]

    def fields(self) -> Tuple[str, ...]:
        """Every DesignConfig field this axis touches, sorted."""
        return tuple(sorted({field for choice in self.choices
                             for field, _ in choice}))


@dataclasses.dataclass(frozen=True)
class SpaceSpec:
    """A validated design space (one ``repro explore --space`` document).

    Construction goes through :func:`validate_space_spec`; fields are
    normalized (design names resolved to registry spellings, benchmark
    default expanded, axis values canonicalized) so two spellings of
    one space expand to identical variants and share cache entries.
    """

    name: str
    base: str
    axes: Tuple[AxisSpec, ...]
    baseline: str
    references: Tuple[str, ...]
    benchmarks: Tuple[str, ...]
    n_refs: int = 20_000
    seed: int = 7
    warmup_fraction: float = 0.3
    sanitize: bool = False
    on_invalid: str = "raise"

    @property
    def size(self) -> int:
        """Variants a full expansion enumerates (before any skips)."""
        return math.prod(len(axis.choices) for axis in self.axes)

    def as_dict(self) -> dict:
        """The canonical JSON document form (round-trips through
        :func:`validate_space_spec` unchanged)."""
        def value_out(value):
            return list(value) if isinstance(value, tuple) else value

        return {
            "name": self.name,
            "base": self.base,
            "baseline": self.baseline,
            "references": list(self.references),
            "axes": [
                {"values": [{field: value_out(value)
                             for field, value in choice}
                            for choice in axis.choices]}
                for axis in self.axes
            ],
            "benchmarks": list(self.benchmarks),
            "n_refs": self.n_refs,
            "seed": self.seed,
            "warmup_fraction": self.warmup_fraction,
            "sanitize": self.sanitize,
            "on_invalid": self.on_invalid,
        }


@dataclasses.dataclass(frozen=True)
class Expansion:
    """The result of expanding a space: variants plus skip provenance."""

    variants: Tuple[DesignVariant, ...]
    #: names of product combinations dropped by ``on_invalid="skip"``,
    #: with the ConfigError text that rejected each.
    skipped: Tuple[Tuple[str, str], ...]

    @property
    def total(self) -> int:
        return len(self.variants) + len(self.skipped)


def _fail(message: str) -> None:
    raise ConfigError(f"space spec: {message}")


def _known_fields() -> Dict[str, None]:
    return {f.name: None for f in dataclasses.fields(DesignConfig)}


def _valid_override_value(value: object) -> bool:
    """JSON-able scalar or flat array of scalars (tuple fields)."""
    if value is None or isinstance(value, (bool, str)):
        return True
    if isinstance(value, (int, float)):
        return not isinstance(value, float) or math.isfinite(value)
    if isinstance(value, (list, tuple)):
        return all(isinstance(item, (bool, int, float, str))
                   and (not isinstance(item, float) or math.isfinite(item))
                   for item in value)
    return False


def _canonical_choice(axis_index: int, field: Optional[str],
                      value: object) -> Tuple[Tuple[str, object], ...]:
    """One axis value -> its sorted (field, value) override pairs."""
    known = _known_fields()
    if isinstance(value, dict):
        if not value:
            _fail(f"axes[{axis_index}]: an object value must name at "
                  f"least one field")
        pairs = []
        for key in sorted(value):
            _check_override_field(axis_index, key, known)
            if not _valid_override_value(value[key]):
                _fail(f"axes[{axis_index}]: value for field {key!r} must "
                      f"be a finite JSON scalar or flat array, "
                      f"got {value[key]!r}")
            pairs.append((key, _freeze(value[key])))
        return tuple(pairs)
    if field is None:
        _fail(f"axes[{axis_index}]: scalar/array values need the axis "
              f"'field' name (or use object values)")
    if not _valid_override_value(value):
        _fail(f"axes[{axis_index}]: value for field {field!r} must be a "
              f"finite JSON scalar or flat array, got {value!r}")
    return ((field, _freeze(value)),)


def _freeze(value: object) -> object:
    return tuple(value) if isinstance(value, (list, tuple)) else value


def _check_override_field(axis_index: int, field: object,
                          known: Dict[str, None]) -> None:
    if not isinstance(field, str) or field not in known:
        _fail(f"axes[{axis_index}]: unknown DesignConfig field {field!r}; "
              f"known fields: {sorted(known)}")
    if field in RESERVED_VARIANT_FIELDS:
        _fail(f"axes[{axis_index}]: field {field!r} cannot be an axis "
              f"(variant names are assigned by expansion)")


def _validated_axis(axis_index: int, raw: object) -> AxisSpec:
    if not isinstance(raw, dict):
        _fail(f"axes[{axis_index}] must be an object with 'values' "
              f"(and optionally 'field'), got {raw!r}")
    unknown = sorted(set(raw) - {"field", "values"})
    if unknown:
        _fail(f"axes[{axis_index}]: unknown key(s) {unknown}")
    field = raw.get("field")
    if field is not None:
        _check_override_field(axis_index, field, _known_fields())
    values = raw.get("values")
    if not isinstance(values, (list, tuple)) or not values:
        _fail(f"axes[{axis_index}]: values must be a non-empty array, "
              f"got {values!r}")
    if len(values) > MAX_CHOICES_PER_AXIS:
        _fail(f"axes[{axis_index}]: {len(values)} values exceed the "
              f"per-axis cap of {MAX_CHOICES_PER_AXIS}")
    choices = tuple(_canonical_choice(axis_index, field, value)
                    for value in values)
    if len(set(choices)) != len(choices):
        _fail(f"axes[{axis_index}]: values contain duplicates "
              f"(after canonicalization)")
    return AxisSpec(choices=choices)


def _validated_design(raw: object, field: str) -> str:
    if not isinstance(raw, str):
        _fail(f"{field} must be a design name string, got {raw!r}")
    try:
        return resolve_design_name(raw)
    except ValueError as error:
        raise ConfigError(f"space spec: {field}: {error}") from error


def validate_space_spec(payload: object) -> SpaceSpec:
    """Validate one space document into a :class:`SpaceSpec`.

    Raises :class:`~repro.core.config.ConfigError` — and only
    ``ConfigError`` — for every way a payload can be invalid.  The
    returned spec is canonical: expanding it (or its ``as_dict()``
    round trip) always yields the same variants in the same order.
    """
    if not isinstance(payload, dict):
        _fail(f"document must be a JSON object, got "
              f"{type(payload).__name__}")
    known = set(SPACE_SPEC_SCHEMA["properties"])
    unknown = sorted(set(payload) - known)
    if unknown:
        _fail(f"unknown field(s) {unknown}; known fields: {sorted(known)}")
    for required in SPACE_SPEC_SCHEMA["required"]:
        if required not in payload:
            _fail(f"{required} is required")

    name = payload["name"]
    if (not isinstance(name, str) or not name
            or len(name) > MAX_NAME_LENGTH
            or not all(c.isalnum() or c in "._-" for c in name)
            or not name[0].isalnum()):
        _fail(f"name must match [A-Za-z0-9][A-Za-z0-9._-]* and be at "
              f"most {MAX_NAME_LENGTH} characters, got {name!r}")

    base = _validated_design(payload["base"], "base")
    baseline = (_validated_design(payload["baseline"], "baseline")
                if "baseline" in payload else base)

    raw_axes = payload["axes"]
    if not isinstance(raw_axes, (list, tuple)) or not raw_axes:
        _fail(f"axes must be a non-empty array, got {raw_axes!r}")
    if len(raw_axes) > MAX_AXES:
        _fail(f"{len(raw_axes)} axes exceed the cap of {MAX_AXES}")
    axes = tuple(_validated_axis(i, axis) for i, axis in enumerate(raw_axes))
    touched: List[str] = []
    for axis in axes:
        touched.extend(axis.fields())
    duplicates = sorted({f for f in touched if touched.count(f) > 1})
    if duplicates:
        _fail(f"field(s) {duplicates} appear on more than one axis; "
              f"couple fields inside one axis's object values instead")

    size = math.prod(len(axis.choices) for axis in axes)
    if size > MAX_VARIANTS:
        _fail(f"space expands to {size} variants; the cap is "
              f"{MAX_VARIANTS} (split the space or drop an axis)")

    if "references" in payload:
        raw_refs = payload["references"]
        if (not isinstance(raw_refs, (list, tuple)) or not raw_refs
                or not all(isinstance(item, str) for item in raw_refs)):
            _fail(f"references must be a non-empty array of design "
                  f"names, got {raw_refs!r}")
        resolved = [_validated_design(item, "references") for item in raw_refs]
    else:
        resolved = [baseline, base]
    references = tuple(dict.fromkeys([baseline] + resolved))

    run = validate_run_parameters(payload, "space spec")
    on_invalid = payload.get("on_invalid", "raise")
    if on_invalid not in ("raise", "skip"):
        _fail(f"on_invalid must be 'raise' or 'skip', got {on_invalid!r}")

    return SpaceSpec(name=name, base=base, axes=axes, baseline=baseline,
                     references=references, on_invalid=on_invalid, **run)


def expand(spec: SpaceSpec) -> Expansion:
    """Expand a space into its concrete, validated design variants.

    Product order follows the axes as declared (last axis fastest);
    names are ``<spec.name>-<NNNN>`` by product index *before* any
    skipping, so a combination's name never depends on which of its
    siblings happened to be invalid.  ``on_invalid="raise"`` (the
    default) turns the first unbuildable combination into a
    :class:`~repro.core.config.ConfigError` naming it;
    ``on_invalid="skip"`` records it and moves on.  A space whose every
    combination is invalid is an error under either policy.
    """
    width = max(4, len(str(max(spec.size - 1, 0))))
    variants: List[DesignVariant] = []
    skipped: List[Tuple[str, str]] = []
    for index, combo in enumerate(
            itertools.product(*[axis.choices for axis in spec.axes])):
        overrides = tuple(sorted(pair for choice in combo for pair in choice))
        name = f"{spec.name}-{index:0{width}d}"
        try:
            variants.append(DesignVariant(name=name, base=spec.base,
                                          overrides=overrides))
        except ConfigError as error:
            if spec.on_invalid == "raise":
                raise ConfigError(
                    f"space {spec.name}: combination {index} "
                    f"({dict(overrides)!r}) is unbuildable: {error}"
                ) from error
            skipped.append((name, str(error)))
    if not variants:
        raise ConfigError(
            f"space {spec.name}: every combination is unbuildable "
            f"({len(skipped)} skipped)")
    return Expansion(variants=tuple(variants), skipped=tuple(skipped))
