"""The repro microbenchmark suite.

Each benchmark exercises one layer of the simulator on a fixed,
deterministic workload:

* ``calibration.spin`` — a pure-Python integer spin loop; tracks the
  machine's single-core interpreter speed and anchors cross-machine
  normalization (see :func:`~repro.analysis.perf.harness.compare_benchmarks`).
* ``l2.lookup.<design>`` — the L2 access path of each paper design
  (TLC, TLCopt500, SNUCA2, DNUCA) on a pre-warmed cache.
* ``prewarm.<design>`` — building each paper design and pre-warming it
  with mcf's resident set (150,000 blocks, nearly filling the L2) in
  one ``prewarm_l2`` call; ``inner_ops`` is the block count.  The
  resident set is not scaled down under ``--quick``.
* ``link.transit`` / ``mesh.transit`` — message timing on one TLC
  controller pair link (the request link of pair 0) and on the
  switched mesh.
* ``workload.generate`` — synthetic trace generation (numpy-backed).
* ``system.refs_per_sec.<design>`` — the end-to-end ``run_system``
  path the experiment grids are built from (mcf, for each paper
  design); ``meta.refs_per_sec`` carries the headline throughput
  number.
* ``grid.paper.warm`` — ``run_design_grid`` over the six paper designs
  and twelve benchmarks from a warm result cache: every cell is keyed,
  read, verified and decoded, and none is simulated.  ``inner_ops`` is
  the number of cells read.  The cache is filled once per process,
  outside every timed region.

Every other workload is sized by a *scale* so ``--quick`` (CI) runs the
same shapes smaller.  Builders construct their fixtures outside the
timed region: construction and pre-warming are not part of any
measurement except the ``prewarm.*`` entries, which measure exactly
those.

Every entry also records ``meta.calls_per_op``, counted on a fresh build
of the entry after the same warm-up as the timed one, outside the timed
reps, so the count does not depend on ``--reps``.
"""

from __future__ import annotations

import functools
import tempfile
from typing import Any, Callable, Dict, Optional, Tuple

from repro.analysis.perf.harness import (
    BenchResult,
    count_repro_calls,
    measure,
    pin_process,
)

BenchBuilder = Callable[[int], Tuple[Callable[[], Any], Dict[str, Any]]]

#: the paper designs benchmarked one by one (lookup, prewarm, whole system).
LOOKUP_DESIGNS = ("TLC", "TLCopt500", "SNUCA2", "DNUCA")


def _build_calibration_spin(scale: int) -> Tuple[Callable[[], Any], Dict[str, Any]]:
    n = max(10_000, 200_000 // scale)

    def fn() -> int:
        acc = 0
        for i in range(n):
            acc = (acc + i * 3) & 0xFFFFFFFF
        return acc

    return fn, {"inner_ops": n}


def _lookup_addresses(count: int) -> list:
    # A deterministic, well-scattered address set (Knuth multiplicative
    # hashing over a 1 GB span, 64-byte aligned).
    return [((i * 2654435761) % (1 << 24)) * 64 for i in range(count)]


def _build_l2_lookup(design: str) -> BenchBuilder:
    def build(scale: int) -> Tuple[Callable[[], Any], Dict[str, Any]]:
        from repro.core.config import build_design

        l2 = build_design(design)
        resident = _lookup_addresses(512)
        for addr in resident:
            l2.install(addr)
        n = max(250, 2_000 // scale)
        accesses = _lookup_addresses(n)
        clock = [0]

        def fn() -> None:
            time = clock[0]
            access = l2.access
            for index, addr in enumerate(accesses):
                access(addr, time, write=index % 5 == 4)
                time += 40
            clock[0] = time

        return fn, {"inner_ops": n, "design": design}

    return build


def _build_prewarm(design: str) -> BenchBuilder:
    def build(scale: int) -> Tuple[Callable[[], Any], Dict[str, Any]]:
        from repro.core.config import build_design
        from repro.sim.system import prewarm_l2
        from repro.workloads.profiles import get_profile
        from repro.workloads.synthetic import resident_block_addresses

        resident = resident_block_addresses(get_profile("mcf").spec)

        def fn() -> int:
            return prewarm_l2(build_design(design), resident)

        return fn, {"inner_ops": len(resident), "design": design, "resident": "mcf"}

    return build


def _build_link_transit(scale: int) -> Tuple[Callable[[], Any], Dict[str, Any]]:
    from repro.core.config import TLC_BASE
    from repro.core.controller import TLCController

    controller = TLCController(TLC_BASE)
    n = max(1_000, 5_000 // scale)
    clock = [0]

    def fn() -> None:
        time = clock[0]
        send = controller.send_request
        for i in range(n):
            send(0, time, 512 if i % 3 else 38, True)
            time += 5
        clock[0] = time

    return fn, {"inner_ops": n}


def _build_mesh_transit(scale: int) -> Tuple[Callable[[], Any], Dict[str, Any]]:
    from repro.interconnect.mesh import MeshNetwork

    mesh = MeshNetwork(8, 4, flit_bits=128)
    n = max(500, 2_000 // scale)
    clock = [0]

    def fn() -> None:
        time = clock[0]
        send = mesh.send
        for i in range(n):
            send(i % 8, (i // 8) % 4, time, 550 if i % 3 else 38, i % 2 == 0)
            time += 7
        clock[0] = time

    return fn, {"inner_ops": n}


def _build_workload_generate(scale: int) -> Tuple[Callable[[], Any], Dict[str, Any]]:
    from repro.workloads.profiles import get_profile
    from repro.workloads.synthetic import generate_trace

    spec = get_profile("mcf").spec
    n = max(5_000, 20_000 // scale)

    def fn() -> int:
        return len(generate_trace(spec, n, seed=7))

    return fn, {"inner_ops": n, "benchmark": "mcf"}


def _build_system_refs(design: str) -> BenchBuilder:
    def build(scale: int) -> Tuple[Callable[[], Any], Dict[str, Any]]:
        from repro.sim.system import run_system

        n = max(5_000, 20_000 // scale)

        def fn() -> Any:
            return run_system(design, "mcf", n_refs=n, seed=7)

        return fn, {"inner_ops": n, "design": design, "benchmark": "mcf"}

    return build


#: references per cell of the warm paper grid; a cell's payload, and so
#: the cost of reading it, does not depend on it.
PAPER_GRID_REFS = 500


@functools.lru_cache(maxsize=None)
def _paper_grid_cache() -> tempfile.TemporaryDirectory:
    """A result cache holding every paper-grid cell, filled on first use."""
    from repro.analysis.experiments import PAPER_DESIGNS, run_design_grid

    root = tempfile.TemporaryDirectory(prefix="repro-perf-grid-")
    run_design_grid(
        designs=PAPER_DESIGNS, n_refs=PAPER_GRID_REFS, workers=2, cache=root.name
    )
    return root


def _build_grid_paper_warm(scale: int) -> Tuple[Callable[[], Any], Dict[str, Any]]:
    from repro.analysis.experiments import PAPER_DESIGNS, run_design_grid
    from repro.analysis.runner import ResultCache
    from repro.workloads.profiles import benchmark_names

    root = _paper_grid_cache().name
    cells = len(PAPER_DESIGNS) * len(benchmark_names())

    def fn() -> Any:
        cache = ResultCache(root)
        grid = run_design_grid(
            designs=PAPER_DESIGNS, n_refs=PAPER_GRID_REFS, cache=cache
        )
        if cache.hits != cells:
            raise RuntimeError(f"warm paper grid read {cache.hits} of {cells} cells")
        return grid

    return fn, {"inner_ops": cells, "n_refs": PAPER_GRID_REFS}


#: name -> builder; names are stable identifiers BENCH documents key on.
SUITE: Dict[str, BenchBuilder] = {
    "calibration.spin": _build_calibration_spin,
    "link.transit": _build_link_transit,
    "mesh.transit": _build_mesh_transit,
    "workload.generate": _build_workload_generate,
    "grid.paper.warm": _build_grid_paper_warm,
}
for _design in LOOKUP_DESIGNS:
    SUITE[f"l2.lookup.{_design.lower()}"] = _build_l2_lookup(_design)
    SUITE[f"prewarm.{_design.lower()}"] = _build_prewarm(_design)
    SUITE[f"system.refs_per_sec.{_design.lower()}"] = _build_system_refs(_design)


def benchmark_names() -> Tuple[str, ...]:
    return tuple(sorted(SUITE))


def run_suite(
    quick: bool = False,
    name_filter: Optional[str] = None,
    reps: Optional[int] = None,
    pin: bool = True,
    progress: Optional[Callable[[str], Any]] = None,
) -> Tuple[Dict[str, BenchResult], bool]:
    """Run the suite; returns ``(results by name, whether pinning worked)``.

    ``quick`` shrinks every workload and takes fewer reps (the CI
    configuration); ``name_filter`` keeps only benchmarks whose name
    contains the substring; ``reps`` overrides the rep count.
    """
    scale = 4 if quick else 1
    default_reps = 5 if quick else 9
    effective_reps = reps if reps is not None else default_reps
    warmup = 1 if quick else 2
    pinned = pin_process() if pin else False
    results: Dict[str, BenchResult] = {}
    for name in benchmark_names():
        if name_filter is not None and name_filter not in name:
            continue
        if progress is not None:
            progress(name)
        fn, meta = SUITE[name](scale)
        result = measure(fn, reps=effective_reps, warmup=warmup, meta=meta)
        _add_derived_meta(result)
        result.meta["calls_per_op"] = _calls_per_op(SUITE[name], scale, warmup)
        results[name] = result
    return results, pinned


def _calls_per_op(builder: BenchBuilder, scale: int, warmup: int) -> float:
    """Calls into ``src/repro`` per inner op of one run of a fresh build,
    after ``warmup`` untimed runs."""
    fn, meta = builder(scale)
    for _ in range(warmup):
        fn()
    return round(count_repro_calls(fn) / meta["inner_ops"], 6)


def _add_derived_meta(result: BenchResult) -> None:
    """Attach per-op and throughput figures derived from the median."""
    ops = result.meta.get("inner_ops")
    if not ops or result.median_ns <= 0:
        return
    result.meta["ns_per_op"] = round(result.median_ns / ops, 1)
    result.meta["ops_per_sec"] = round(ops * 1e9 / result.median_ns, 1)
    if "refs_per_sec" not in result.meta and "benchmark" in result.meta:
        result.meta["refs_per_sec"] = result.meta["ops_per_sec"]
