"""Search drivers: a validated space + a budget -> a ranked trajectory.

Three drivers turn a :class:`~repro.explore.space.SpaceSpec` into a
ranking of its variants, all through the same evaluation path —
:func:`repro.analysis.runner.run_grid` — so every candidate cell gets
the result cache, retries and parallel cell processes for free:

* ``grid`` — exhaustive enumeration in expansion order, clipped to the
  budget.  The control: it visits combinations exactly as the DSL
  enumerates them.
* ``random`` — a seeded uniform sample (without replacement) of
  ``budget`` variants, evaluated in one round at full fidelity.
* ``halving`` — successive halving over a seeded cohort: every rung
  evaluates the survivors at a doubled reference count, keeps the best
  half, and the final rung runs at the spec's full ``n_refs``.  Cheap
  rungs share nothing with full-fidelity cells (``n_refs`` is part of
  the cell cache key) but each rung is itself cached, so re-running a
  search replays every rung for free.

**Scoring** is the paper's Figure-5 statistic: a variant's score is its
mean execution time over the spec's benchmarks, normalized per
benchmark to the spec's ``baseline`` design (lower is better).  Ties
break on the variant name, so a ranking is a pure function of the
measured cycles.

**Determinism contract** (enforced by CI's explore smoke job): same
space document + driver + search seed + budget ⇒ the same variants are
evaluated in the same order at the same fidelities, producing a
byte-identical trajectory document and leaderboard — and since every
cell's cache key is a pure function of those inputs, a repeated search
against a warm cache simulates **zero** cells.  The search seed only
drives candidate *selection*; trace generation uses the spec's own
``seed`` so every variant is measured against identical reference
streams.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Dict, List, Optional, Tuple

from repro.core.config import MAX_SEED, ConfigError, DesignVariant
from repro.explore.space import SpaceSpec, expand
from repro.obs.manifest import RunManifest, build_manifest
from repro.sim.stats import Counter

#: Drivers ``run_search`` (and ``repro explore --driver``) accepts.
DRIVER_NAMES = ("grid", "random", "halving")

#: Scores are rounded to this many digits before ranking and before
#: entering any JSON document, so trajectory bytes never depend on
#: float formatting noise.
SCORE_DIGITS = 6

#: Successive halving never drops a rung below this many references —
#: a handful of post-warmup misses is noise, not a signal to rank on.
MIN_RUNG_REFS = 500

#: Version of the trajectory document layout (v2 dropped the key that
#: named the replay loop).
TRAJECTORY_SCHEMA = 2


@dataclasses.dataclass(frozen=True)
class SearchResult:
    """Everything one search produced.

    The JSON-able views (:meth:`trajectory`, ``ranking``, ``rounds``)
    deliberately exclude wall-clock times and cache-hit provenance —
    they are byte-stable across reruns.  Runtime provenance lives in
    the separate ``cells_simulated`` / ``cells_from_cache`` fields
    (excluded from equality, like ``ExperimentGrid.cell_meta``).
    """

    spec: SpaceSpec
    driver: str
    search_seed: int
    budget: int
    variants_total: int
    variants_skipped: int
    #: one entry per evaluation round:
    #: ``{"round", "n_refs", "designs", "scores", "eliminated"}``.
    rounds: Tuple[dict, ...]
    #: best-to-worst over every evaluated variant:
    #: ``{"rank", "variant", "base", "overrides", "score", "n_refs",
    #: "round", "final"}`` — ``final`` marks variants scored in the
    #: last round (full fidelity), the only ones the leaderboard plots.
    ranking: Tuple[dict, ...]
    #: the last round's grid (references + surviving variants at full
    #: ``n_refs``); the leaderboard renders from it.
    final_grid: object = dataclasses.field(compare=False, repr=False)
    cells_simulated: int = dataclasses.field(default=0, compare=False)
    cells_from_cache: int = dataclasses.field(default=0, compare=False)

    def trajectory(self) -> dict:
        """The canonical search-trajectory document (byte-stable)."""
        return {
            "schema": TRAJECTORY_SCHEMA,
            "spec": self.spec.as_dict(),
            "driver": self.driver,
            "search_seed": self.search_seed,
            "budget": self.budget,
            "variants_total": self.variants_total,
            "variants_skipped": self.variants_skipped,
            "rounds": list(self.rounds),
            "ranking": list(self.ranking),
        }


def _score_round(grid, spec: SpaceSpec,
                 variants: List[DesignVariant]) -> Dict[str, float]:
    """Mean normalized time per variant (the Fig-5 statistic)."""
    scores: Dict[str, float] = {}
    for variant in variants:
        total = sum(
            grid.normalized_execution_time(variant.name, bench,
                                           spec.baseline)
            for bench in spec.benchmarks)
        scores[variant.name] = round(total / len(spec.benchmarks),
                                     SCORE_DIGITS)
    return scores


def _select(driver: str, variants: Tuple[DesignVariant, ...],
            budget: int, seed: int) -> List[DesignVariant]:
    """The candidates a driver evaluates, in evaluation order."""
    count = min(budget, len(variants))
    if driver == "grid":
        return list(variants[:count])
    # random and halving share the seeded-sample cohort; halving then
    # spends the budget across rungs instead of one full-fidelity round.
    return random.Random(seed).sample(list(variants), count)


def _rung_refs(spec: SpaceSpec, depth: int, rung: int) -> int:
    """References per cell at ``rung`` (0-based; last rung = full)."""
    if rung >= depth - 1:
        return spec.n_refs
    scaled = spec.n_refs >> (depth - 1 - rung)
    return min(spec.n_refs, max(MIN_RUNG_REFS, scaled))


def run_search(spec: SpaceSpec, driver: str = "random", seed: int = 0,
               budget: int = 8, *, workers: int = 1, cache=None,
               policy=None, telemetry=None,
               registry=None) -> SearchResult:
    """Search ``spec``'s design space and rank what was evaluated.

    ``seed`` steers candidate selection (``random``/``halving``);
    ``budget`` is the number of variants admitted to evaluation.
    ``cache``/``policy``/``telemetry``/``workers`` pass straight through
    to ``run_grid``.
    ``registry`` (a :class:`~repro.obs.registry.MetricsRegistry`)
    receives the ``explore.*`` counters when given.

    Raises :class:`~repro.core.config.ConfigError` for an unknown
    driver, a non-positive budget, or a bad seed — same typed-error
    contract as the spec validator.
    """
    if driver not in DRIVER_NAMES:
        raise ConfigError(f"unknown driver {driver!r}; choose from "
                          f"{list(DRIVER_NAMES)}")
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
        raise ConfigError(f"budget must be a positive integer, "
                          f"got {budget!r}")
    if (not isinstance(seed, int) or isinstance(seed, bool)
            or not 0 <= seed <= MAX_SEED):
        raise ConfigError(f"search seed must be an integer in "
                          f"[0, {MAX_SEED}], got {seed!r}")

    counter = Counter()
    if registry is not None:
        registry.register("explore", counter)

    expansion = expand(spec)
    counter.add("variants_total", expansion.total)
    counter.add("variants_skipped", len(expansion.skipped))

    cohort = _select(driver, expansion.variants, budget, seed)
    counter.add("variants_evaluated", len(cohort))

    from repro.analysis.runner import run_grid

    cells_simulated = 0
    cells_from_cache = 0

    def evaluate(candidates: List[DesignVariant], refs: int):
        nonlocal cells_simulated, cells_from_cache
        grid = run_grid(list(spec.references) + candidates,
                        benchmarks=spec.benchmarks, n_refs=refs,
                        seed=spec.seed,
                        warmup_fraction=spec.warmup_fraction,
                        workers=workers, cache=cache, policy=policy,
                        telemetry=telemetry,
                        sanitize=spec.sanitize)
        for meta in (grid.cell_meta or {}).values():
            if meta.get("from_cache"):
                cells_from_cache += 1
            else:
                cells_simulated += 1
        return grid

    # Successive halving runs ceil(log2(cohort)) rungs; the other
    # drivers are the depth-1 special case (one full-fidelity round).
    depth = (max(1, (len(cohort) - 1).bit_length())
             if driver == "halving" else 1)
    survivors = list(cohort)
    rounds: List[dict] = []
    eliminated_stack: List[List[dict]] = []
    final_grid = None
    for rung in range(depth):
        refs = _rung_refs(spec, depth, rung)
        final_grid = evaluate(survivors, refs)
        scores = _score_round(final_grid, spec, survivors)
        ranked = sorted(survivors,
                        key=lambda v: (scores[v.name], v.name))
        last = rung == depth - 1
        keep = len(ranked) if last else max(1, math.ceil(len(ranked) / 2))
        dropped = ranked[keep:]
        rounds.append({
            "round": rung,
            "n_refs": refs,
            "designs": list(spec.references)
                       + [v.name for v in survivors],
            "scores": [[v.name, scores[v.name]] for v in ranked],
            "eliminated": [v.name for v in dropped],
        })
        if dropped:
            eliminated_stack.append([
                {"variant": v, "score": scores[v.name],
                 "n_refs": refs, "round": rung}
                for v in dropped])
        survivors = ranked[:keep]
        counter.add("rounds")

    # Final ranking: last-round survivors by their full-fidelity score,
    # then earlier casualties — later (higher-fidelity) rungs first,
    # each group by its elimination-rung score.
    entries: List[dict] = [
        {"variant": v, "score": _score_round(final_grid, spec, [v])[v.name],
         "n_refs": rounds[-1]["n_refs"], "round": depth - 1, "final": True}
        for v in survivors]
    for group in reversed(eliminated_stack):
        entries.extend({**item, "final": False} for item in group)
    ranking = tuple(
        {"rank": position + 1,
         "variant": entry["variant"].name,
         "base": entry["variant"].base,
         "overrides": entry["variant"].as_dict()["overrides"],
         "score": entry["score"],
         "n_refs": entry["n_refs"],
         "round": entry["round"],
         "final": entry["final"]}
        for position, entry in enumerate(entries))

    counter.add("cells_simulated", cells_simulated)
    counter.add("cells_from_cache", cells_from_cache)

    return SearchResult(
        spec=spec, driver=driver, search_seed=seed, budget=budget,
        variants_total=expansion.total,
        variants_skipped=len(expansion.skipped),
        rounds=tuple(rounds), ranking=ranking, final_grid=final_grid,
        cells_simulated=cells_simulated,
        cells_from_cache=cells_from_cache)


def build_search_manifest(result: SearchResult, wall_time_s: float,
                          metrics: Optional[Dict[str, object]] = None,
                          top_k: Optional[int] = None) -> RunManifest:
    """The ``kind="explore.search"`` run manifest for one search.

    The manifest is the *provenance* record — unlike the trajectory it
    carries wall time and cache-hit counts, so two runs of the same
    search produce equal trajectories but distinguishable manifests.
    """
    ranking = list(result.ranking)
    if top_k is not None:
        ranking = ranking[:top_k]
    return build_manifest(
        kind="explore.search",
        config={"spec": result.spec.as_dict(), "driver": result.driver,
                "search_seed": result.search_seed,
                "budget": result.budget},
        metrics=dict(metrics or {}),
        wall_time_s=wall_time_s,
        seed=result.spec.seed,
        result={"variants_total": result.variants_total,
                "variants_skipped": result.variants_skipped,
                "rounds": len(result.rounds),
                "cells_simulated": result.cells_simulated,
                "cells_from_cache": result.cells_from_cache,
                "ranking": ranking})
