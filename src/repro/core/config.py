"""Design-parameter registry: the paper's Table 2.

One :class:`DesignConfig` per design — the four TLC designs plus the two
NUCA baselines — carrying every parameter the timing, area, and power
models need.  ``build_design`` instantiates the matching simulator
class.

Derived quantities (link widths, controller delays) follow the paper's
constraints:

* Base TLC: each adjacent bank pair shares two 8-byte unidirectional
  links (128 lines/pair, 2048 total); uncontended latency 10-16 cycles
  = 1 (TL) + 8 (bank) + 1 (TL) + 0..6 cycles of round-trip controller
  wire delay depending on where the pair's lines land on the controller.
* TLCopt: request links are 22 bits (set index + 6-bit partial tag +
  command); the rest of each pair's lines form the response link.  The
  smaller controllers add at most one cycle (TLCopt 1000) or none
  (500/350), giving the 12-13 / 12 / 12 cycle uncontended latencies.
* DNUCA: 16 bank sets x 16 banks on a 16x16 mesh, 3-cycle banks,
  1-cycle hops -> 3..47 cycles uncontended.
* SNUCA2: 32 static banks on an 8x4 mesh, 8-cycle banks, 2-cycle hops.

The module also validates the run parameters (benchmarks, reference
count, seed, warmup, sanitize) that the service's job spec and the
explorer's space spec both carry, with the same :class:`ConfigError`.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, Optional, Tuple

from repro.sim.memory import MainMemory
from repro.tech import Technology, TECH_45NM
from repro.workloads.profiles import benchmark_names

#: Bits on a TLCopt request link: 13 set-index + 6 partial-tag + 3 command.
OPT_REQUEST_LINK_BITS = 22

#: Design kinds build_design knows how to instantiate.
DESIGN_KINDS = ("tlc", "tlcopt", "snuca", "dnuca")


class ConfigError(ValueError):
    """A field combination that cannot describe a buildable design.

    Raised by :class:`DesignConfig` construction (including
    ``dataclasses.replace`` variants) and by :func:`build_design` for
    unknown override names, so an invalid configuration fails at the
    door instead of producing a half-built simulator or NaN latencies.
    """


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# -- run parameters of a job or space document ------------------------------
#: Guard rails: a document must not be able to demand unbounded work.
MAX_REFS_PER_CELL = 2_000_000
MAX_SEED = 2**32 - 1

#: JSON-Schema properties of the run parameters; the job-spec and
#: space-spec schemas include them, and :func:`validate_run_parameters`
#: is their executable twin.
RUN_PARAMETER_SCHEMA = {
    "benchmarks": {
        "type": "array",
        "minItems": 1,
        "items": {"type": "string"},
        "description": "calibrated workload profiles every cell runs; "
                       "omitted means the full 12-benchmark suite",
    },
    "n_refs": {
        "type": "integer",
        "minimum": 1,
        "maximum": MAX_REFS_PER_CELL,
        "default": 20_000,
        "description": "L2 references simulated per cell",
    },
    "seed": {
        "type": "integer",
        "minimum": 0,
        "maximum": MAX_SEED,
        "default": 7,
        "description": "trace-generation seed (identical across "
                       "designs, like the paper's shared checkpoints)",
    },
    "warmup_fraction": {
        "type": "number",
        "minimum": 0.0,
        "exclusiveMaximum": 1.0,
        "default": 0.3,
        "description": "leading fraction of each trace excluded "
                       "from measurement",
    },
    "sanitize": {
        "type": "boolean",
        "default": False,
        "description": "run every cell under the simulator-core "
                       "sanitizer (part of the cell cache key)",
    },
}


def warmup_fraction_error(value: Any) -> Optional[str]:
    """Why ``value`` is no warm-up fraction, or None if it is one.

    A warm-up fraction is a finite number in [0, 1): at 1 or above, or
    below 0, the warm-up boundary is never reached and the whole trace
    would be measured.
    """
    if (not isinstance(value, (int, float)) or isinstance(value, bool)
            or not math.isfinite(value) or not 0.0 <= value < 1.0):
        return f"warmup_fraction must be a finite number in [0, 1), got {value!r}"
    return None


def validate_run_parameters(payload: dict, document: str) -> Dict[str, Any]:
    """Validate the run parameters of a decoded JSON document.

    Returns ``benchmarks``, ``n_refs``, ``seed``, ``warmup_fraction``
    and ``sanitize``, defaults filled in, as keyword arguments for the
    document's spec.  Raises :class:`ConfigError` whose message starts
    with ``document`` (``"job spec"``, ``"space spec"``).
    """
    def fail(message: str) -> None:
        raise ConfigError(f"{document}: {message}")

    benchmarks = payload.get("benchmarks", benchmark_names())
    if (not isinstance(benchmarks, (list, tuple)) or not benchmarks
            or not all(isinstance(item, str) for item in benchmarks)):
        fail(f"benchmarks must be a non-empty array of strings, "
             f"got {benchmarks!r}")
    for item in benchmarks:
        if item not in benchmark_names():
            fail(f"unknown benchmark {item!r}; choose from "
                 f"{sorted(benchmark_names())}")
    duplicates = sorted({name for name in benchmarks
                         if benchmarks.count(name) > 1})
    if duplicates:
        fail(f"benchmarks contains duplicate entries {duplicates}")
    n_refs = payload.get("n_refs", 20_000)
    if not _is_int(n_refs) or not 1 <= n_refs <= MAX_REFS_PER_CELL:
        fail(f"n_refs must be an integer in [1, {MAX_REFS_PER_CELL}], "
             f"got {n_refs!r}")
    seed = payload.get("seed", 7)
    if not _is_int(seed) or not 0 <= seed <= MAX_SEED:
        fail(f"seed must be an integer in [0, {MAX_SEED}], got {seed!r}")
    warmup = payload.get("warmup_fraction", 0.3)
    message = warmup_fraction_error(warmup)
    if message is not None:
        fail(message)
    sanitize = payload.get("sanitize", False)
    if not isinstance(sanitize, bool):
        fail(f"sanitize must be a boolean, got {sanitize!r}")
    return {"benchmarks": tuple(benchmarks), "n_refs": n_refs, "seed": seed,
            "warmup_fraction": float(warmup), "sanitize": sanitize}


@dataclasses.dataclass(frozen=True)
class DesignConfig:
    """Parameters of one cache design (a row of Table 2, plus internals)."""

    name: str
    kind: str  # "tlc", "tlcopt", "snuca", "dnuca"
    banks: int
    bank_bytes: int
    bank_access_cycles: int
    banks_per_block: int = 1
    associativity: int = 4
    replacement: str = "lru"
    # TLC-family parameters.
    lines_per_pair: int = 0
    #: round-trip controller wire delay for each bank pair, cycles.
    controller_rt_delays: Tuple[int, ...] = ()
    # NUCA parameters.
    mesh_columns: int = 0
    mesh_rows: int = 0
    mesh_flit_bits: int = 128
    mesh_hop_latency: int = 1
    mesh_hop_length_m: float = 0.66e-3
    partial_tag_latency: int = 2
    #: DNUCA only: disable for the ablation where a closest-two miss must
    #: search every remaining bank of the set (no fast misses either).
    use_partial_tags: bool = True
    #: DNUCA only: banks a block moves toward the controller per hit.
    promotion_distance: int = 1
    #: DNUCA only: where blocks from memory enter the bank set
    #: ("tail" = furthest bank, the paper's policy; "head" = closest).
    insertion_position: str = "tail"
    #: DNUCA only: how partial-tag candidates are searched
    #: ("multicast" = all at once; "incremental" = nearest first, one at
    #: a time — less bank traffic, longer worst-case latency).
    search_mode: str = "multicast"
    controller_overhead: int = 0

    def __post_init__(self) -> None:
        self._check_scalars()
        if self.kind in ("tlc", "tlcopt"):
            self._check_tlc_family()
        else:
            self._check_nuca_family()

    def _require(self, condition: bool, message: str) -> None:
        if not condition:
            raise ConfigError(f"{self.name or '<unnamed>'}: {message}")

    def _check_scalars(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigError("design name must be a non-empty string")
        self._require(self.kind in DESIGN_KINDS,
                      f"unknown kind {self.kind!r}; choose from {DESIGN_KINDS}")
        for field in ("banks", "bank_bytes", "bank_access_cycles",
                      "banks_per_block", "associativity"):
            value = getattr(self, field)
            self._require(_is_int(value) and value > 0,
                          f"{field} must be a positive integer, got {value!r}")
        for field in ("lines_per_pair", "mesh_columns", "mesh_rows",
                      "mesh_flit_bits", "mesh_hop_latency",
                      "partial_tag_latency", "controller_overhead"):
            value = getattr(self, field)
            self._require(_is_int(value) and value >= 0,
                          f"{field} must be a non-negative integer, "
                          f"got {value!r}")
        length = self.mesh_hop_length_m
        self._require(isinstance(length, (int, float))
                      and not isinstance(length, bool)
                      and math.isfinite(length) and length > 0,
                      f"mesh_hop_length_m must be a positive finite number, "
                      f"got {length!r}")
        self._require(_is_int(self.promotion_distance)
                      and self.promotion_distance >= 1,
                      "promotion_distance must be a positive integer")
        self._require(self.insertion_position in ("tail", "head"),
                      f"insertion_position must be 'tail' or 'head', "
                      f"got {self.insertion_position!r}")
        self._require(self.search_mode in ("multicast", "incremental"),
                      f"search_mode must be 'multicast' or 'incremental', "
                      f"got {self.search_mode!r}")
        from repro.cache.replacement import make_policy

        try:
            make_policy(self.replacement, 1)
        except (ValueError, TypeError) as error:
            raise ConfigError(
                f"{self.name}: bad replacement policy "
                f"{self.replacement!r}: {error}") from error
        self._require(self.banks % self.banks_per_block == 0,
                      f"banks_per_block={self.banks_per_block} must divide "
                      f"banks={self.banks}")
        self._require(self.bank_bytes % (64 * self.associativity) == 0,
                      f"bank_bytes={self.bank_bytes} must be a whole number "
                      f"of 64-byte x {self.associativity}-way sets")

    def _check_tlc_family(self) -> None:
        self._require(self.banks % 2 == 0 and self.banks >= 2,
                      "TLC-family designs pair banks; banks must be even")
        # A list from JSON (bundle replay) is coerced to the canonical
        # tuple so configs stay hashable and comparable.
        delays = self.controller_rt_delays
        if not isinstance(delays, tuple):
            try:
                delays = tuple(delays)
            except TypeError:
                raise ConfigError(
                    f"{self.name}: controller_rt_delays must be a sequence "
                    f"of integers, got {self.controller_rt_delays!r}") from None
            object.__setattr__(self, "controller_rt_delays", delays)
        for delay in delays:
            self._require(_is_int(delay) and delay >= 0,
                          f"controller_rt_delays entries must be "
                          f"non-negative integers, got {delay!r}")
        self._require(len(delays) == self.pairs,
                      f"controller_rt_delays has {len(delays)} entries for "
                      f"{self.pairs} bank pairs")
        if self.kind == "tlc":
            self._require(self.lines_per_pair >= 2
                          and self.lines_per_pair % 2 == 0,
                          "a TLC pair splits its lines into two equal "
                          "links; lines_per_pair must be even and >= 2")
        else:
            self._require(self.lines_per_pair > OPT_REQUEST_LINK_BITS,
                          f"a TLCopt pair needs more than "
                          f"{OPT_REQUEST_LINK_BITS} lines "
                          f"({OPT_REQUEST_LINK_BITS}-bit request link + "
                          f"response lines)")
            # Stripe j of group g sits in bank g + j*groups.  With an
            # even group count, groups 2c and 2c+1 stripe over the same
            # pairs and no two stripes share a pair, so the controller
            # can drive each pair set as one lockstep link class.
            groups = self.banks // self.banks_per_block
            self._require(groups % 2 == 0,
                          f"a TLCopt design needs an even number of stripe "
                          f"groups (banks / banks_per_block) so each block's "
                          f"stripes sit on distinct pairs shared with one "
                          f"sibling group; got {self.banks} / "
                          f"{self.banks_per_block} = {groups}")

    def _check_nuca_family(self) -> None:
        self._require(self.mesh_columns >= 2 and self.mesh_columns % 2 == 0,
                      "mesh_columns must be an even number >= 2")
        self._require(self.mesh_rows >= 1, "mesh_rows must be positive")
        if self.kind == "dnuca":
            self._require(self.mesh_rows >= 2,
                          "mesh_rows must be at least 2: every DNUCA lookup "
                          "probes the closest two banks of its bank set")
        self._require(self.banks == self.mesh_columns * self.mesh_rows,
                      f"banks={self.banks} must equal mesh_columns x "
                      f"mesh_rows = {self.mesh_columns * self.mesh_rows}")
        self._require(self.mesh_flit_bits > 0,
                      "mesh_flit_bits must be positive")
        self._require(self.mesh_hop_latency > 0,
                      "mesh_hop_latency must be positive")

    @property
    def pairs(self) -> int:
        """Bank pairs sharing a link bundle (TLC family only)."""
        return self.banks // 2

    @property
    def total_lines(self) -> int:
        """Total transmission lines used (Table 2, column 6)."""
        return self.lines_per_pair * self.pairs

    @property
    def request_link_bits(self) -> int:
        if self.kind == "tlc":
            return self.lines_per_pair // 2  # 64 bits: an 8-byte link
        if self.kind == "tlcopt":
            return OPT_REQUEST_LINK_BITS
        raise ValueError(f"{self.name} has no transmission-line links")

    @property
    def response_link_bits(self) -> int:
        if self.kind == "tlc":
            return self.lines_per_pair // 2
        if self.kind == "tlcopt":
            return self.lines_per_pair - OPT_REQUEST_LINK_BITS
        raise ValueError(f"{self.name} has no transmission-line links")

    @property
    def uncontended_latency_range(self) -> Tuple[int, int]:
        """Min/max uncontended read-hit latency (Table 2, column 7)."""
        if self.kind in ("tlc", "tlcopt"):
            base = 2 + self.bank_access_cycles  # TL out + bank + TL back
            delays = self.controller_rt_delays or (0,)
            return (base + min(delays), base + max(delays))
        bank = self.bank_access_cycles
        max_hops = (self.mesh_columns // 2 - 1) + (self.mesh_rows - 1)
        per_hop = 2 * self.mesh_hop_latency
        oh = self.controller_overhead  # applied once, at request injection
        return (bank + oh, bank + oh + max_hops * per_hop)


#: Fields a :class:`DesignVariant` may not override.  ``name`` is the
#: variant's own identity (set from ``DesignVariant.name``).
RESERVED_VARIANT_FIELDS = ("name",)


def _freeze_override_value(value):
    """Coerce JSON-decoded override values to their canonical form.

    Lists become tuples (``controller_rt_delays`` arrives as a JSON
    array) so variants stay hashable and two spellings of one override
    compare equal.
    """
    if isinstance(value, list):
        return tuple(_freeze_override_value(item) for item in value)
    return value


@dataclasses.dataclass(frozen=True)
class DesignVariant:
    """A named variant of a registered design: ``base`` + field overrides.

    This is the unit the design-space exploration layer
    (:mod:`repro.explore`) expands a :class:`~repro.explore.SpaceSpec`
    into, and the grid runner accepts anywhere a design *name* is
    accepted (see :func:`repro.analysis.runner.grid_cell_specs`).
    ``overrides`` is a canonical sorted tuple of ``(field, value)``
    pairs — hashable, picklable, and JSON-able — applied through
    :func:`build_design`-style ``dataclasses.replace``, so an invalid
    combination fails with the same typed :class:`ConfigError` as any
    other bad config.

    Construction validates eagerly: the base must resolve against the
    registry, override fields must exist on :class:`DesignConfig` (and
    not be reserved), and the resulting config must pass
    ``DesignConfig.__post_init__`` — an unbuildable variant never
    escapes.
    """

    name: str
    base: str
    overrides: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigError(
                "design variant name must be a non-empty string, "
                f"got {self.name!r}")
        try:
            object.__setattr__(self, "base", resolve_design_name(self.base))
        except (ValueError, AttributeError) as error:
            raise ConfigError(f"variant {self.name}: {error}") from error
        overrides = self.overrides
        if isinstance(overrides, dict):
            overrides = tuple(sorted(overrides.items()))
        try:
            overrides = tuple(
                (field, _freeze_override_value(value))
                for field, value in overrides)
        except (TypeError, ValueError) as error:
            raise ConfigError(
                f"variant {self.name}: overrides must be (field, value) "
                f"pairs, got {self.overrides!r}") from error
        fields = sorted(field for field, _ in overrides)
        if len(set(fields)) != len(fields):
            duplicates = sorted({f for f in fields if fields.count(f) > 1})
            raise ConfigError(
                f"variant {self.name}: duplicate override field(s) "
                f"{duplicates}")
        known = {f.name for f in dataclasses.fields(DesignConfig)}
        for field, _ in overrides:
            if not isinstance(field, str) or field not in known:
                raise ConfigError(
                    f"variant {self.name}: unknown override field "
                    f"{field!r}; known fields: {sorted(known)}")
            if field in RESERVED_VARIANT_FIELDS:
                raise ConfigError(
                    f"variant {self.name}: field {field!r} cannot be "
                    f"overridden by a variant (variants are named by "
                    f"their own name field)")
        object.__setattr__(self, "overrides",
                           tuple(sorted(overrides)))
        self.config()  # raises ConfigError for an unbuildable combination

    def config(self) -> DesignConfig:
        """The validated :class:`DesignConfig` this variant describes."""
        base = get_design(self.base)
        try:
            return dataclasses.replace(base, name=self.name,
                                       **dict(self.overrides))
        except TypeError as error:
            raise ConfigError(
                f"variant {self.name}: bad override ({error})") from error

    def as_dict(self) -> dict:
        """JSON-ready form (overrides as a ``{field: value}`` object)."""
        return {"name": self.name, "base": self.base,
                "overrides": {field: (list(value) if isinstance(value, tuple)
                                      else value)
                              for field, value in self.overrides}}


def _tlc_controller_delays(pairs: int, max_delay: int) -> Tuple[int, ...]:
    """Round-trip controller wire delay per pair, from landing position.

    A pair's lines land on the controller edge at a height matching the
    pair's row on the die edge, so rows near the die's vertical centre
    reach the central logic with no extra wire while the extreme rows
    pay up to ``max_delay`` round-trip cycles — consistent with the
    floorplan model, where the same central rows also get the shortest
    transmission lines.
    """
    per_side = pairs // 2
    centre = (per_side - 1) / 2.0
    dist_min, dist_max = 0.5, centre  # nearest / farthest row distances
    if dist_max <= dist_min:
        return (0,) * pairs
    side = tuple(
        round(max_delay * (abs(i - centre) - dist_min) / (dist_max - dist_min))
        for i in range(per_side)
    )
    return side + side


TLC_BASE = DesignConfig(
    name="TLC",
    kind="tlc",
    banks=32,
    bank_bytes=512 * 1024,
    bank_access_cycles=8,
    banks_per_block=1,
    lines_per_pair=128,
    controller_rt_delays=_tlc_controller_delays(16, 6),
)

TLC_OPT_1000 = DesignConfig(
    name="TLCopt1000",
    kind="tlcopt",
    banks=16,
    bank_bytes=1024 * 1024,
    bank_access_cycles=10,
    banks_per_block=2,
    lines_per_pair=126,
    controller_rt_delays=_tlc_controller_delays(8, 1),
)

TLC_OPT_500 = DesignConfig(
    name="TLCopt500",
    kind="tlcopt",
    banks=16,
    bank_bytes=1024 * 1024,
    bank_access_cycles=10,
    banks_per_block=4,
    lines_per_pair=64,
    controller_rt_delays=(0,) * 8,
)

TLC_OPT_350 = DesignConfig(
    name="TLCopt350",
    kind="tlcopt",
    banks=16,
    bank_bytes=1024 * 1024,
    bank_access_cycles=10,
    banks_per_block=8,
    lines_per_pair=44,
    controller_rt_delays=(0,) * 8,
)

SNUCA2 = DesignConfig(
    name="SNUCA2",
    kind="snuca",
    banks=32,
    bank_bytes=512 * 1024,
    bank_access_cycles=8,
    mesh_columns=8,
    mesh_rows=4,
    mesh_hop_latency=2,
    mesh_hop_length_m=1.6e-3,
    controller_overhead=1,
)

DNUCA = DesignConfig(
    name="DNUCA",
    kind="dnuca",
    banks=256,
    bank_bytes=64 * 1024,
    bank_access_cycles=3,
    associativity=1,  # direct-mapped within each bank; 16-way across the set
    mesh_columns=16,
    mesh_rows=16,
    mesh_hop_latency=1,
    mesh_hop_length_m=0.66e-3,
)

DESIGNS: Dict[str, DesignConfig] = {
    cfg.name: cfg
    for cfg in (TLC_BASE, TLC_OPT_1000, TLC_OPT_500, TLC_OPT_350, SNUCA2, DNUCA)
}


def design_names() -> Tuple[str, ...]:
    return tuple(DESIGNS)


def resolve_design_name(name: str) -> str:
    """Map a user-spelled design name onto its registry key.

    The registry uses the paper's spellings (``TLCopt500``), which are
    awkward to type; this accepts any case/separator variation —
    ``tlc_opt_500``, ``TLC-OPT-500``, ``snuca2`` — by comparing names
    with underscores and dashes stripped, case-insensitively.
    """
    if name in DESIGNS:
        return name
    wanted = name.lower().replace("_", "").replace("-", "")
    for key in DESIGNS:
        if key.lower() == wanted:
            return key
    raise ValueError(
        f"unknown design {name!r}; choose from {sorted(DESIGNS)}")


def get_design(name: str) -> DesignConfig:
    return DESIGNS[resolve_design_name(name)]


def build_design(design: str, memory: Optional[MainMemory] = None,
                 tech: Technology = TECH_45NM, **overrides):
    """Instantiate the simulator for design ``design``.

    ``overrides`` replace fields of the registered config (e.g.
    ``replacement="lip"`` for the ablation study, or ``name=...``
    plus axis fields for an exploration variant — the parameter is
    called ``design`` precisely so a ``name`` override stays available).
    """
    config = get_design(design)
    if overrides:
        try:
            config = dataclasses.replace(config, **overrides)
        except TypeError as error:
            known = sorted(f.name for f in dataclasses.fields(config))
            raise ConfigError(
                f"{config.name}: bad design override ({error}); "
                f"known fields: {known}") from error
    # Imported lazily: the design modules import this one for the configs.
    from repro.core.tlc import TransmissionLineCache
    from repro.core.tlc_opt import OptimizedTLC
    from repro.nuca.snuca import StaticNUCA
    from repro.nuca.dnuca import DynamicNUCA

    builders = {
        "tlc": TransmissionLineCache,
        "tlcopt": OptimizedTLC,
        "snuca": StaticNUCA,
        "dnuca": DynamicNUCA,
    }
    return builders[config.kind](config, memory=memory, tech=tech)
