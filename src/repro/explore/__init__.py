"""Declarative design-space exploration over the grid runner.

The subsystem ROADMAP open item 3 asked for: a design family is written
as a declarative :class:`~repro.explore.space.SpaceSpec` document, a
search driver (``grid`` / ``random`` / ``halving``) evaluates its
variants through :func:`~repro.analysis.runner.run_grid` — result
cache and resilient executor included — and the outcome is a
deterministic trajectory plus a Fig-5-style leaderboard.
``repro explore`` is the CLI face; docs/EXPLORATION.md is the
reference.
"""

from repro.explore.drivers import (
    DRIVER_NAMES,
    SearchResult,
    build_search_manifest,
    run_search,
)
from repro.explore.leaderboard import (
    DEFAULT_TOP_K,
    leaderboard_artifact,
    leaderboard_dataset,
    render_leaderboard,
)
from repro.core.config import MAX_REFS_PER_CELL, MAX_SEED
from repro.explore.space import (
    MAX_AXES,
    MAX_CHOICES_PER_AXIS,
    MAX_VARIANTS,
    SPACE_SPEC_SCHEMA,
    AxisSpec,
    Expansion,
    SpaceSpec,
    expand,
    validate_space_spec,
)

__all__ = [
    "AxisSpec",
    "DEFAULT_TOP_K",
    "DRIVER_NAMES",
    "Expansion",
    "MAX_AXES",
    "MAX_CHOICES_PER_AXIS",
    "MAX_REFS_PER_CELL",
    "MAX_SEED",
    "MAX_VARIANTS",
    "SPACE_SPEC_SCHEMA",
    "SearchResult",
    "SpaceSpec",
    "build_search_manifest",
    "expand",
    "leaderboard_artifact",
    "leaderboard_dataset",
    "render_leaderboard",
    "run_search",
    "validate_space_spec",
]
