"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

* ``designs`` — list the design registry (Table 2).
* ``benchmarks`` — list the calibrated workload profiles.
* ``line <length_cm>`` — extract + grade a transmission line.
* ``run <design> <benchmark>`` — one experiment cell, full metrics;
  ``--metrics-out`` / ``--trace-out`` capture a run manifest and an
  event trace (docs/OBSERVABILITY.md).
* ``stats <manifest> [other]`` — pretty-print one manifest or diff two.
* ``compare <benchmark>`` — all designs on one benchmark, as a chart.
* ``trace <benchmark>`` — generate and characterize a trace.
* ``report`` — the full measured-vs-paper markdown report.
* ``explore`` — search a declarative design space (docs/EXPLORATION.md)
  and rank its variants on a Fig-5-style leaderboard.

Design names are forgiving: ``tlc_opt_500`` and ``TLCopt500`` both
work (see :func:`repro.core.config.resolve_design_name`).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from repro.analysis.figures import grouped_bar_chart
from repro.analysis.tables import format_table
from repro.core.config import DESIGNS, design_names, resolve_design_name
from repro.sim.system import run_system
from repro.workloads.profiles import PROFILES, benchmark_names, get_profile
from repro.workloads.synthetic import generate_trace


def _cmd_designs(_args) -> int:
    rows = []
    for name, config in DESIGNS.items():
        low, high = config.uncontended_latency_range
        rows.append([name, config.kind, config.banks,
                     f"{config.bank_bytes // 1024} KB",
                     config.total_lines or "-", f"{low}-{high}"])
    print(format_table(
        ["design", "kind", "banks", "bank size", "TL lines", "latency"],
        rows, title="Design registry (paper Table 2)"))
    return 0


def _cmd_benchmarks(_args) -> int:
    rows = []
    for profile in PROFILES.values():
        spec = profile.spec
        rows.append([
            profile.name, profile.suite,
            f"{profile.l2_requests_per_kinstr:.1f}",
            f"{spec.hot_blocks * 64 / 2**20:.1f} MB",
            f"{spec.stream_fraction:.0%}",
            f"{spec.dependent_fraction:.0%}",
        ])
    print(format_table(
        ["benchmark", "suite", "L2 refs/kinstr", "hot set", "stream", "dep"],
        rows, title="Calibrated workload profiles (paper Tables 4/5)"))
    return 0


def _cmd_line(args) -> int:
    from repro.tline import evaluate_link

    length_m = args.length_cm / 100.0
    try:
        report = evaluate_link(length_m)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"geometry class : {report.geometry.name} "
          f"(W={report.geometry.width * 1e6:.1f} um, "
          f"S={report.geometry.spacing * 1e6:.1f} um)")
    print(f"impedance      : {report.line.z0:.1f} ohm")
    print(f"flight time    : {report.line.flight_time * 1e12:.1f} ps "
          f"({report.latency_cycles} cycle at 10 GHz)")
    print(f"received pulse : {report.amplitude_fraction:.0%} of Vdd "
          f"(need >= 75%), width {report.width_fraction:.0%} of a cycle "
          f"(need >= 40%)")
    print(f"verdict        : {'USABLE' if report.usable else 'REJECTED'}")
    return 0 if report.usable else 2


def _resolve_run_cell(args) -> Optional[tuple]:
    """The (design, benchmark) a ``run`` invocation names, or ``None``.

    Both may be given positionally or by flag; flags win.  Errors are
    printed to stderr (returning ``None`` means exit 2).
    """
    design = args.design_opt or args.design
    benchmark = args.benchmark_opt or args.benchmark
    if design is None or benchmark is None:
        print("error: a design and a benchmark are required, e.g. "
              "`repro run TLC mcf` or "
              "`repro run --design tlc_opt_500 --benchmark mcf`",
              file=sys.stderr)
        return None
    try:
        design = resolve_design_name(design)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return None
    if benchmark not in benchmark_names():
        print(f"error: unknown benchmark {benchmark!r}; choose from "
              f"{sorted(benchmark_names())}", file=sys.stderr)
        return None
    return design, benchmark


def _cmd_run(args) -> int:
    cell = _resolve_run_cell(args)
    if cell is None:
        return 2
    design, benchmark = cell

    observer = None
    if args.metrics_out or args.trace_out:
        from repro.obs import EventTracer, RunObserver

        tracer = None
        if args.trace_out:
            types = frozenset(args.trace_types) if args.trace_types else None
            tracer = EventTracer(capacity=args.trace_capacity, types=types)
        observer = RunObserver(tracer=tracer)

    sanitizer = None
    if args.sanitize or args.inject_fault:
        from repro.sanitizer import Sanitizer, SanitizerConfig, SimFault

        fault = None
        if args.inject_fault:
            try:
                fault = SimFault.parse(args.inject_fault)
            except ValueError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
        config = SanitizerConfig(check_every=args.sanitize_interval,
                                 watchdog_stall_cycles=args.watchdog_cycles)
        sanitizer = Sanitizer(config=config, fault=fault)

    try:
        result = run_system(design, benchmark, n_refs=args.refs,
                            seed=args.seed, observer=observer,
                            sanitizer=sanitizer, crash_dir=args.crash_dir)
    except Exception as error:
        from repro.sanitizer import SanitizerViolation

        if not isinstance(error, SanitizerViolation):
            raise
        print(f"sanitizer violation: {error}", file=sys.stderr)
        bundle = getattr(error, "crash_bundle", None)
        if bundle is not None:
            print(f"crash bundle written to {bundle}", file=sys.stderr)
            print(f"replay with: repro replay {bundle}", file=sys.stderr)
        return 3
    rows = [
        ["cycles", result.cycles],
        ["instructions", result.instructions],
        ["IPC", round(result.ipc, 3)],
        ["L2 requests", result.l2_requests],
        ["L2 miss ratio", f"{result.miss_ratio:.2%}"],
        ["misses / kinstr", round(result.misses_per_kinstr, 3)],
        ["mean lookup latency", f"{result.mean_lookup_latency:.1f} cycles"],
        ["predictable lookups", f"{result.predictable_lookup_fraction:.0%}"],
        ["banks / request", round(result.banks_accessed_per_request, 2)],
        ["link utilization", f"{result.link_utilization:.1%}"],
        ["network power", f"{result.network_power_w * 1000:.0f} mW"],
    ]
    print(format_table(["metric", "value"], rows,
                       title=f"{design} on {benchmark} "
                             f"({args.refs} refs, seed {args.seed})"))
    if sanitizer is not None:
        digest = sanitizer.summary()
        print(f"sanitizer: clean ({digest['invariants']} invariant(s), "
              f"{digest['checks_run']} sweep(s) over "
              f"{digest['accesses']} L2 accesses)")
    if observer is not None:
        if args.metrics_out:
            from repro.obs import save_manifest

            save_manifest(args.metrics_out, observer.manifest)
            print(f"manifest written to {args.metrics_out}")
        if args.trace_out:
            written = observer.tracer.write_jsonl(args.trace_out)
            summary = observer.tracer.summary()
            note = ""
            if summary["dropped"]:
                note = f" ({summary['dropped']} older event(s) dropped)"
            print(f"{written} trace event(s) written to "
                  f"{args.trace_out}{note}")
    return 0


def _cmd_replay(args) -> int:
    """Replay a crash bundle; exit 0 iff the failure reproduces."""
    from repro.sanitizer import load_bundle, minimize_bundle, replay_bundle

    try:
        bundle = load_bundle(args.bundle)
    except (OSError, ValueError, KeyError) as error:
        print(f"error: cannot load bundle {args.bundle!r}: {error}",
              file=sys.stderr)
        return 2
    expected = bundle.error.get("type", "?")
    detail = (bundle.error.get("kind")
              or bundle.error.get("message", ""))
    print(f"bundle: {bundle.design} on {bundle.benchmark} "
          f"(seed {bundle.seed}, {len(bundle.trace)} trace refs)")
    print(f"expected failure: {expected}: {detail}")
    if bundle.minimized_from:
        print(f"minimized from: {bundle.minimized_from}")
    try:
        outcome = replay_bundle(bundle)
    except ValueError as error:
        print(f"error: bundle is not replayable: {error}", file=sys.stderr)
        return 2
    print(f"replay: {outcome.outcome} ({outcome.refs} refs)")
    if not outcome.reproduced:
        if outcome.error is not None:
            print(f"got instead: {type(outcome.error).__name__}: "
                  f"{outcome.error}", file=sys.stderr)
        return 1
    if args.minimize:
        minimal, path = minimize_bundle(bundle, out_dir=args.out)
        print(f"minimized: {len(bundle.trace)} -> {minimal} refs")
        print(f"minimized bundle written to {path}")
    return 0


def _manifest_overview_rows(manifest) -> list:
    """Provenance summary rows shared by the stats views."""
    trace = manifest.trace or {}
    return [
        ["kind", manifest.kind],
        ["design", manifest.design or "-"],
        ["benchmark", manifest.benchmark or "-"],
        ["seed", manifest.seed if manifest.seed is not None else "-"],
        ["config digest", manifest.config_digest[:16] + "..."],
        ["code version", manifest.code_version[:16] + "..."],
        ["wall time", f"{manifest.wall_time_s:.2f} s"],
        ["trace events", trace.get("events", "-")],
    ]


def _cmd_stats(args) -> int:
    from repro.obs import diff_manifests, flatten, load_manifest

    try:
        manifest = load_manifest(args.manifest)
        other = load_manifest(args.other) if args.other else None
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    if other is not None:
        rows = diff_manifests(manifest, other, skip_bins=not args.bins)
        if not rows:
            print("manifests are identical (ignoring wall time"
                  + ("" if args.bins else " and histogram bins") + ")")
            return 0
        print(format_table(
            ["field", "a", "b"],
            [[name, va, vb] for name, va, vb in rows],
            title=f"{len(rows)} difference(s): a={args.manifest} "
                  f"b={args.other}"))
        return 0

    print(format_table(["field", "value"], _manifest_overview_rows(manifest),
                       title=f"Run manifest: {args.manifest}"))
    if manifest.result:
        print()
        print(format_table(
            ["result field", "value"],
            sorted(flatten(manifest.result).items()),
            title="Headline result"))
    print()
    print(format_table(
        ["metric", "value"],
        sorted(flatten(manifest.metrics, skip_bins=not args.bins).items()),
        title="Metrics snapshot"))
    return 0


def _cmd_compare(args) -> int:
    designs = args.designs or list(design_names())
    profile = get_profile(args.benchmark)
    trace = generate_trace(profile.spec, args.refs, seed=args.seed)
    results = {design: run_system(design, args.benchmark, trace=trace)
               for design in designs}
    baseline_name = "SNUCA2" if "SNUCA2" in results else designs[0]
    baseline = results[baseline_name].cycles

    norm = {"normalized time": {d: r.cycles / baseline
                                for d, r in results.items()}}
    print(grouped_bar_chart(
        norm, designs, width=44, reference_line=1.0,
        title=f"Execution time on {args.benchmark}, "
              f"normalized to {baseline_name}"))
    print()
    lookup = {"mean lookup (cycles)": {d: r.mean_lookup_latency
                                       for d, r in results.items()}}
    print(grouped_bar_chart(lookup, designs, width=44,
                            value_format="{:.1f}",
                            title="Mean lookup latency"))
    return 0


def _cmd_trace(args) -> int:
    from repro.workloads.stats import summarize

    profile = get_profile(args.benchmark)
    trace = generate_trace(profile.spec, args.refs, seed=args.seed)
    summary = summarize(trace)
    rows = [["references", summary.references],
            ["instructions", summary.instructions],
            ["footprint", f"{summary.footprint_bytes / 2**20:.1f} MB"],
            ["writes", f"{summary.write_fraction:.0%}"],
            ["dependent", f"{summary.dependent_fraction:.0%}"],
            ["L2 refs / kinstr", round(summary.l2_refs_per_kinstr, 1)],
            ["LRU miss @ 16 MB (predicted)",
             f"{summary.predicted_miss_ratio_16mb:.1%}"]]
    print(format_table(["property", "value"], rows,
                       title=f"Trace characterization: {args.benchmark}"))
    if args.out:
        from repro.workloads.trace import save_trace
        save_trace(args.out, trace)
        print(f"\ntrace written to {args.out}")
    return 0


def _grid_cache(args):
    """A ResultCache for --cache-dir, or None when caching is off."""
    if not getattr(args, "cache_dir", None):
        return None
    from repro.analysis.runner import ResultCache

    return ResultCache(args.cache_dir)


def _derived_lane(args):
    """The derived-artifact lane ``repro report`` caches its document in.

    ``--derived-cache-dir`` names the lane directory explicitly;
    without it, a ``--cache-dir`` run keeps the report beside the
    results it fingerprints (``<cache-dir>/derived``).
    ``--no-derived-cache`` — or neither flag — yields a disabled lane
    (same rendering, nothing persisted).
    """
    from repro.analysis.derived import as_lane

    if args.no_derived_cache:
        return as_lane(None)
    root = args.derived_cache_dir
    if not root and args.cache_dir:
        import os

        root = os.path.join(args.cache_dir, "derived")
    return as_lane(root)


def _grid_resilience(args):
    """``(policy, telemetry)`` from the ``--retries``/``--cell-timeout``
    flags (``serve`` uses only the policy)."""
    from repro.analysis.resilience import RetryPolicy, RunnerTelemetry

    policy = RetryPolicy(max_retries=args.retries,
                         cell_timeout_s=args.cell_timeout,
                         backoff_base_s=0.5)
    return policy, RunnerTelemetry()


def _cmd_grid(args) -> int:
    from repro.analysis.experiments import run_design_grid
    from repro.analysis.storage import load_grid, save_grid

    if args.load:
        grid = load_grid(args.load)
        print(f"loaded grid from {args.load}")
    else:
        cache = _grid_cache(args)
        policy, telemetry = _grid_resilience(args)
        grid = run_design_grid(designs=args.designs or ("SNUCA2", "DNUCA", "TLC"),
                               benchmarks=args.benchmarks or None,
                               n_refs=args.refs, seed=args.seed,
                               workers=args.workers, cache=cache,
                               policy=policy, telemetry=telemetry,
                               sanitize=args.sanitize)
        if cache is not None:
            print(f"cache: {cache.hits} hit(s), {cache.stores} cell(s) "
                  f"simulated and stored under {args.cache_dir}")
        print(f"resilience: {telemetry.summary()}")
    if args.save:
        save_grid(args.save, grid)
        print(f"grid saved to {args.save}")

    from repro.analysis.tables import normalized_time_artifact

    print(normalized_time_artifact(grid)["rendered"])
    return 0


def _grid_manifest_section(grid) -> dict:
    """One grid rendered as a nested metrics document for a manifest.

    ``<design>.<benchmark>`` carries the cell's headline numbers plus
    the runner's execution provenance (wall time, cache hit).
    """
    section = {}
    for (design, benchmark), result in sorted(grid.results.items()):
        cell = {
            "cycles": result.cycles,
            "ipc": round(result.ipc, 6),
            "l2_miss_ratio": round(result.miss_ratio, 6),
            "mean_lookup_latency": round(result.mean_lookup_latency, 4),
        }
        if grid.cell_meta is not None:
            meta = grid.cell_meta[(design, benchmark)]
            cell["wall_time_s"] = round(meta["wall_time_s"], 4)
            cell["from_cache"] = meta["from_cache"]
        section.setdefault(design, {})[benchmark] = cell
    return section


def _cmd_report(args) -> int:
    import time as _time

    from repro.analysis.experiments import (
        FAMILY_DESIGNS,
        MAIN_DESIGNS,
        run_paper_grids,
    )
    from repro.analysis.report import REPORT_KIND, build_report, report_lane_key
    from repro.analysis.runner import cache_key, grid_cell_specs

    started = _time.perf_counter()
    cache = _grid_cache(args)
    lane = _derived_lane(args)
    policy, telemetry = _grid_resilience(args)

    # Every cell either grid would run, fingerprinted without running
    # anything: this is the key build_report caches the document under,
    # so a warm lane serves the report with zero simulation.
    main_cells, benchmarks = grid_cell_specs(designs=MAIN_DESIGNS,
                                             n_refs=args.refs)
    family_cells, _ = grid_cell_specs(designs=FAMILY_DESIGNS,
                                      n_refs=args.refs)
    cell_keys, params = report_lane_key(
        [cache_key(cell) for cell in main_cells],
        [cache_key(cell) for cell in family_cells], args.refs)

    grids = {}

    def compute_document() -> dict:
        # One run of the six designs' cells answers both grids.
        grids["main"], grids["family"] = run_paper_grids(
            n_refs=args.refs, workers=args.workers, cache=cache,
            policy=policy, telemetry=telemetry)
        return {"rendered": build_report(main_grid=grids["main"],
                                         family_grid=grids["family"],
                                         n_refs=args.refs)}

    artifact = lane.get_or_compute(REPORT_KIND, cell_keys, params,
                                   compute_document)
    text = artifact["rendered"]

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"report written to {args.out}")
    else:
        print(text)
    if not grids:
        print("report: rendered from derived cache (0 cells simulated)")
    if lane.enabled:
        print(lane.summary())
    print(f"resilience: {telemetry.summary()}")
    if args.metrics_out:
        from repro.obs import MetricsRegistry, build_manifest, save_manifest

        config = {
            "n_refs": args.refs,
            "main_designs": list(MAIN_DESIGNS),
            "family_designs": list(FAMILY_DESIGNS),
            "benchmarks": list(benchmarks),
            "workers": args.workers,
            "cached": cache is not None,
            "derived_cached": lane.enabled,
            "retries": args.retries,
            "cell_timeout_s": args.cell_timeout,
        }
        # Per-cell sections exist only when the grids actually ran; a
        # document-warm report simulated nothing to report on.
        metrics = {}
        if grids:
            metrics["main"] = _grid_manifest_section(grids["main"])
            metrics["family"] = _grid_manifest_section(grids["family"])
        # Mount the live counters on a registry so the manifest carries
        # the same runner.* / analysis.derived.* names snapshots use.
        registry = MetricsRegistry()
        lane.register(registry)
        telemetry.register(registry)
        metrics.update(registry.snapshot())
        manifest = build_manifest(
            kind="report",
            config=config,
            metrics=metrics,
            wall_time_s=_time.perf_counter() - started,
            resilience=telemetry.as_dict(),
            derived=lane.as_dict(),
        )
        save_manifest(args.metrics_out, manifest)
        print(f"report manifest written to {args.metrics_out}")
    return 0


def _cmd_explore(args) -> int:
    import json
    import time as _time

    from repro.core.config import ConfigError
    from repro.explore import (
        build_search_manifest,
        leaderboard_artifact,
        run_search,
        validate_space_spec,
    )
    from repro.obs import MetricsRegistry

    started = _time.perf_counter()
    try:
        with open(args.space, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as error:
        print(f"error: cannot read space file: {error}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as error:
        print(f"error: {args.space} is not valid JSON: {error}",
              file=sys.stderr)
        return 2

    cache = _grid_cache(args)
    policy, telemetry = _grid_resilience(args)
    registry = MetricsRegistry()
    try:
        spec = validate_space_spec(payload)
        result = run_search(spec, driver=args.driver, seed=args.seed,
                            budget=args.budget, workers=args.workers,
                            cache=cache, policy=policy,
                            telemetry=telemetry, registry=registry)
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    text = leaderboard_artifact(result, top_k=args.top_k)["rendered"]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"leaderboard written to {args.out}")
    else:
        print(text)
    if args.trajectory_out:
        document = json.dumps(result.trajectory(), indent=1,
                              sort_keys=True) + "\n"
        with open(args.trajectory_out, "w", encoding="utf-8") as handle:
            handle.write(document)
        print(f"trajectory written to {args.trajectory_out}")
    # The smoke-test contract line: a repeated search against a warm
    # cache must report "0 cell(s) simulated" (CI greps for it).
    print(f"explore: {result.cells_simulated} cell(s) simulated, "
          f"{result.cells_from_cache} cache hit(s) across "
          f"{len(result.rounds)} round(s); "
          f"{result.variants_total} variant(s) in space, "
          f"{result.variants_skipped} skipped")
    if cache is not None:
        print(f"cache: {cache.hits} hit(s), {cache.stores} cell(s) "
              f"simulated and stored under {args.cache_dir}")
    print(f"resilience: {telemetry.summary()}")
    if args.metrics_out:
        from repro.obs import save_manifest

        telemetry.register(registry)
        manifest = build_search_manifest(
            result, wall_time_s=_time.perf_counter() - started,
            metrics=registry.snapshot(), top_k=args.top_k)
        save_manifest(args.metrics_out, manifest)
        print(f"search manifest written to {args.metrics_out}")
    return 0


def _cmd_perf(args) -> int:
    from repro.analysis.perf import (
        CALLS_TOLERANCE,
        bench_document,
        compare_benchmarks,
        load_benchmarks,
        run_suite,
        save_benchmarks,
    )
    from repro.obs.manifest import code_version_stamp

    results, pinned = run_suite(
        quick=args.quick, name_filter=args.filter, reps=args.reps,
        pin=not args.no_pin,
        progress=lambda name: print(f"  bench {name} ...", file=sys.stderr))
    if not results:
        _print_no_filter_match(args.filter)
        return 2
    document = bench_document(results, code_version=code_version_stamp(),
                              pinned=pinned, quick=args.quick)

    rows = []
    for name in sorted(results):
        result = results[name]
        ops = result.meta.get("ops_per_sec")
        rows.append([name, f"{result.median_ns / 1e6:.3f}",
                     f"{result.mad_ns / 1e6:.3f}", result.reps,
                     f"{ops:,.0f}" if ops else "-",
                     f"{result.meta['calls_per_op']:.2f}"])
    mode = "quick" if args.quick else "full"
    print(format_table(
        ["benchmark", "median (ms)", "MAD (ms)", "reps", "ops/sec",
         "calls/op"],
        rows, title=f"Microbenchmarks ({mode} mode, "
                    f"{'pinned' if pinned else 'unpinned'})"))

    if args.save:
        written = save_benchmarks(args.save, document)
        print(f"benchmarks written to {written}")

    if args.compare:
        try:
            baseline = load_benchmarks(args.compare)
        except (OSError, ValueError) as error:
            print(f"error: cannot load baseline: {error}", file=sys.stderr)
            return 2
        try:
            comparisons, missing = compare_benchmarks(
                document, baseline, fail_above_pct=args.fail_above,
                normalize=args.normalize)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        compare_rows = [
            [c.name, f"{c.baseline_ns / 1e6:.3f}",
             f"{c.current_ns / 1e6:.3f}", f"{c.ratio:.2f}x",
             "-" if c.baseline_calls is None or c.current_calls is None
             else f"{c.baseline_calls:.2f} -> {c.current_calls:.2f}",
             "REGRESSED (calls)" if c.calls_regressed
             else "REGRESSED" if c.regressed else "ok"]
            for c in comparisons
        ]
        norm = " (calibration-normalized)" if args.normalize else ""
        print()
        print(format_table(
            ["benchmark", "baseline (ms)", "current (ms)", "ratio",
             "calls/op", "verdict"],
            compare_rows,
            title=f"vs {args.compare}, fail above "
                  f"+{args.fail_above:.0f}% or calls/op above "
                  f"+{CALLS_TOLERANCE:.0%}{norm}"))
        for name in missing:
            print(f"warning: baseline benchmark {name!r} was not run",
                  file=sys.stderr)
        regressions = [c.name for c in comparisons if c.regressed]
        if regressions:
            print(f"PERF REGRESSION in: {', '.join(regressions)}",
                  file=sys.stderr)
            return 1
        print("no perf regressions")
    return 0


def _print_no_filter_match(name_filter) -> None:
    """The zero-match --filter diagnostic (stderr), with the names."""
    from repro.analysis.perf import benchmark_names

    print(f"error: no benchmark matches filter {name_filter!r}; "
          f"available benchmarks:", file=sys.stderr)
    for name in benchmark_names():
        print(f"  {name}", file=sys.stderr)


def _cmd_perf_list(args) -> int:
    from repro.analysis.perf import benchmark_names

    names = [name for name in benchmark_names()
             if args.filter is None or args.filter in name]
    if not names:
        _print_no_filter_match(args.filter)
        return 2
    for name in names:
        print(name)
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser that can add its arguments when it first parses.

    ``serve`` adds its flags this way: their defaults come from the
    service package, which then loads only for ``serve``.
    """

    def __init__(self, *args, add_arguments=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._add_arguments = add_arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._add_arguments is not None:
            add_arguments, self._add_arguments = self._add_arguments, None
            add_arguments(self)
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TLC: Transmission Line Caches — reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    sub.add_parser("designs", help="list the design registry").set_defaults(
        func=_cmd_designs)
    sub.add_parser("benchmarks", help="list workload profiles").set_defaults(
        func=_cmd_benchmarks)

    line = sub.add_parser("line", help="grade a transmission line")
    line.add_argument("length_cm", type=float, help="routed length in cm")
    line.set_defaults(func=_cmd_line)

    run = sub.add_parser("run", help="run one design on one benchmark")
    run.add_argument("design", nargs="?",
                     help="design name (any case/separator spelling, "
                          "e.g. TLC or tlc_opt_500)")
    run.add_argument("benchmark", nargs="?",
                     help="benchmark profile name (see `repro benchmarks`)")
    run.add_argument("--design", dest="design_opt", metavar="DESIGN",
                     help="design name (flag form of the positional)")
    run.add_argument("--benchmark", dest="benchmark_opt", metavar="BENCH",
                     help="benchmark name (flag form of the positional)")
    run.add_argument("--refs", type=_at_least(1), default=20_000)
    run.add_argument("--seed", type=_at_least(0), default=7)
    run.add_argument("--metrics-out", metavar="FILE",
                     help="write the run manifest (config digest, code "
                          "version, full metrics snapshot) as JSON")
    run.add_argument("--trace-out", metavar="FILE",
                     help="capture an event trace and write it as JSONL")
    run.add_argument("--trace-types", nargs="+", metavar="TYPE",
                     help="only trace these event types "
                          "(e.g. l2.access run.warmup_end)")
    run.add_argument("--sanitize", action="store_true",
                     help="run under the simulator-core sanitizer "
                          "(invariant checks + livelock watchdog); a "
                          "violation exits 3")
    run.add_argument("--sanitize-interval", type=_at_least(1), default=1024,
                     metavar="N", help="invariant sweep every N L2 "
                                       "accesses (default 1024)")
    run.add_argument("--watchdog-cycles", type=_at_least(1), default=1_000_000,
                     metavar="CYCLES",
                     help="cycles without retirement before the "
                          "livelock watchdog trips (default 1000000)")
    run.add_argument("--crash-dir", metavar="DIR",
                     help="write a replayable crash bundle here on any "
                          "failure (see `repro replay`)")
    run.add_argument("--inject-fault", metavar="KIND[:AT]",
                     help="seed a deliberate fault to exercise the "
                          "sanitizer, e.g. double_install:40 or "
                          "stall_retirement:100 (implies --sanitize)")
    run.add_argument("--trace-capacity", type=_at_least(1), default=None,
                     metavar="N",
                     help="keep only the newest N events (ring buffer); "
                          "default keeps every event")
    run.set_defaults(func=_cmd_run)

    replay = sub.add_parser(
        "replay", help="re-execute a crash bundle deterministically")
    replay.add_argument("bundle", help="crash-bundle directory (written "
                                       "by a --crash-dir run)")
    replay.add_argument("--minimize", action="store_true",
                        help="bisect the reference stream to a minimal "
                             "failing prefix and write a *-min bundle")
    replay.add_argument("--out", metavar="DIR",
                        help="directory for the minimized bundle "
                             "(default: <bundle>-min)")
    replay.set_defaults(func=_cmd_replay)

    stats = sub.add_parser(
        "stats", help="pretty-print a run manifest, or diff two")
    stats.add_argument("manifest",
                       help="manifest JSON from `run --metrics-out` or "
                            "`report --metrics-out`")
    stats.add_argument("other", nargs="?",
                       help="second manifest: show differences instead")
    stats.add_argument("--bins", action="store_true",
                       help="include histogram bins (hidden by default)")
    stats.set_defaults(func=_cmd_stats)

    compare = sub.add_parser("compare", help="all designs on one benchmark")
    compare.add_argument("benchmark", choices=list(benchmark_names()))
    compare.add_argument("--designs", nargs="+",
                         choices=list(design_names()))
    compare.add_argument("--refs", type=_at_least(1), default=15_000)
    compare.add_argument("--seed", type=_at_least(0), default=7)
    compare.set_defaults(func=_cmd_compare)

    trace = sub.add_parser("trace", help="generate + characterize a trace")
    trace.add_argument("benchmark", choices=list(benchmark_names()))
    trace.add_argument("--refs", type=_at_least(1), default=20_000)
    trace.add_argument("--seed", type=_at_least(0), default=7)
    trace.add_argument("--out", help="write the trace to this path")
    trace.set_defaults(func=_cmd_trace)

    grid = sub.add_parser("grid", help="run/save/load an experiment grid")
    grid.add_argument("--designs", nargs="+", choices=list(design_names()))
    grid.add_argument("--benchmarks", nargs="+",
                      choices=list(benchmark_names()))
    grid.add_argument("--refs", type=_at_least(1), default=15_000)
    grid.add_argument("--seed", type=_at_least(0), default=7)
    grid.add_argument("--sanitize", action="store_true",
                      help="run every cell under the simulator-core "
                           "sanitizer (identical results, checked)")
    grid.add_argument("--save", help="write the grid to this JSON path")
    grid.add_argument("--load", help="load a grid instead of running")
    grid.add_argument("--workers", type=_at_least(1), default=1,
                      help="worker processes for grid cells (1 = serial)")
    grid.add_argument("--cache-dir",
                      help="content-addressed result cache directory; "
                           "cells already simulated (by any command "
                           "sharing the directory) are reused, so "
                           "rerunning an interrupted grid resumes it")
    _add_resilience_flags(grid)
    grid.set_defaults(func=_cmd_grid)

    report = sub.add_parser("report", help="full measured-vs-paper report")
    report.add_argument("--refs", type=_at_least(1), default=20_000)
    report.add_argument("--out", help="write markdown to this path")
    report.add_argument("--workers", type=_at_least(1), default=1,
                        help="worker processes for grid cells (1 = serial)")
    report.add_argument("--cache-dir",
                        help="content-addressed result cache directory "
                             "(the report's two grids share 24 cells, so "
                             "a cache pays off within one run)")
    report.add_argument("--metrics-out", metavar="FILE",
                        help="write a grid manifest (per-cell headline "
                             "numbers, wall times, cache hits, resilience "
                             "counters) as JSON")
    _add_resilience_flags(report)
    report.add_argument("--derived-cache-dir", metavar="DIR",
                        help="cache the rendered report here, keyed by "
                             "the result cells it was computed from; a "
                             "warm report re-renders with zero simulation")
    report.add_argument("--no-derived-cache", action="store_true",
                        help="never read or write the cached report, even "
                             "when --cache-dir implies a lane at "
                             "<cache-dir>/derived")
    report.set_defaults(func=_cmd_report)

    explore = sub.add_parser(
        "explore",
        help="search a declarative design space and rank its variants")
    explore.add_argument("--space", required=True, metavar="FILE",
                         help="JSON SpaceSpec document "
                              "(docs/EXPLORATION.md has the reference)")
    explore.add_argument("--driver", default="random",
                         choices=["random", "grid", "halving"],
                         help="search driver (default: random)")
    explore.add_argument("--seed", type=_at_least(0), default=0,
                         help="search seed — drives candidate selection "
                              "only; the trace seed lives in the spec")
    explore.add_argument("--budget", type=int, default=8,
                         help="variants admitted to evaluation")
    explore.add_argument("--top-k", type=_at_least(1), default=5, dest="top_k",
                         help="variants shown on the leaderboard")
    explore.add_argument("--workers", type=_at_least(1), default=1,
                         help="worker processes for grid cells (1 = serial)")
    explore.add_argument("--cache-dir",
                         help="content-addressed result cache directory; "
                              "a repeated search (or one sharing cells "
                              "with any other command) simulates only "
                              "what is new")
    explore.add_argument("--out", metavar="FILE",
                         help="write the leaderboard to this path "
                              "(byte-identical across repeated runs)")
    explore.add_argument("--trajectory-out", metavar="FILE",
                         help="write the deterministic search-trajectory "
                              "JSON to this path")
    explore.add_argument("--metrics-out", metavar="FILE",
                         help="write a kind=explore.search run manifest "
                              "(explore.* counters, wall time, cache "
                              "provenance) as JSON")
    _add_resilience_flags(explore)
    explore.set_defaults(func=_cmd_explore)

    perf = sub.add_parser(
        "perf", help="run the microbenchmark suite; optionally compare "
                     "against a BENCH baseline")
    perf.add_argument("--quick", action="store_true",
                      help="smaller workloads, fewer reps (the CI mode)")
    perf.add_argument("--filter", metavar="SUBSTR",
                      help="only run benchmarks whose name contains SUBSTR")
    perf.add_argument("--reps", type=_at_least(1), default=None, metavar="N",
                      help="override the repetition count")
    perf.add_argument("--no-pin", action="store_true",
                      help="do not pin the process to one CPU")
    perf.add_argument("--save", metavar="FILE",
                      help="write the BENCH JSON document (a directory "
                           "gets the conventional BENCH_<rev>.json name)")
    perf.add_argument("--compare", metavar="BASELINE",
                      help="compare against a BENCH baseline document; "
                           "exits 1 on regression: a slowdown above "
                           "--fail-above, or calls/op more than 1%% above "
                           "the baseline's")
    perf.add_argument("--fail-above", default=40.0, metavar="PCT",
                      type=_bounded(float, lambda pct: 0 <= pct < math.inf,
                                    "a finite number >= 0"),
                      help="regression threshold in percent slowdown "
                           "(default: 40)")
    perf.add_argument("--normalize", action="store_true",
                      help="rescale by the calibration.spin benchmark "
                           "before comparing (cross-machine baselines)")
    perf.add_argument("--list", dest="list_only", action="store_true",
                      help="list benchmark names and exit")
    perf.set_defaults(func=_cmd_perf_dispatch)

    sub.add_parser(
        "serve", help="run the HTTP/JSON job API over the grid runner "
                      "(see docs/SERVICE.md)",
        add_arguments=_add_serve_arguments)

    return parser


def _add_serve_arguments(serve: argparse.ArgumentParser) -> None:
    from repro.service.schema import (
        DEFAULT_MAX_ACTIVE_JOBS,
        DEFAULT_MAX_QUEUED_CELLS,
    )

    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", default=8765,
                       type=_bounded(int, lambda port: 0 <= port <= 65535,
                                     "a port number in [0, 65535]"),
                       help="bind port; 0 picks a free one (default: 8765)")
    serve.add_argument("--workers", type=_at_least(1), default=2,
                       help="worker threads sharding job cells (default: 2)")
    serve.add_argument("--cache-dir",
                       help="content-addressed result cache shared by every "
                            "job (and with grid/report runs); without it "
                            "dedupe only spans this process's lifetime")
    _add_resilience_flags(serve)
    serve.add_argument("--journal-dir", metavar="DIR",
                       help="keep one durable entry per job under DIR; on "
                            "restart, submitted jobs are resubmitted under "
                            "their original ids and their cached cells "
                            "replay from the result cache")
    serve.add_argument("--max-active-jobs", type=_at_least(0),
                       default=DEFAULT_MAX_ACTIVE_JOBS, metavar="N",
                       help="admission cap on concurrently active "
                            "(queued+running) jobs; over-capacity submits "
                            "answer 429 with Retry-After; 0 = unlimited "
                            f"(default: {DEFAULT_MAX_ACTIVE_JOBS})")
    serve.add_argument("--max-queued-cells", type=_at_least(0),
                       default=DEFAULT_MAX_QUEUED_CELLS, metavar="N",
                       help="admission cap on the shared cell queue depth; "
                            "0 = unlimited "
                            f"(default: {DEFAULT_MAX_QUEUED_CELLS})")
    serve.add_argument("--job-ttl", default=None,
                       type=_bounded(float, lambda s: s > 0,
                                     "a number of seconds > 0"),
                       metavar="SECONDS",
                       help="evict a finished job's status this long after "
                            "it completes (status answers 410 gone; the "
                            "result stays reachable by resubmitting the "
                            "spec — the cache replays it without "
                            "simulation); default: keep forever")
    serve.add_argument("--drain-timeout", default=30.0,
                       type=_bounded(float, lambda s: s >= 0,
                                     "a number of seconds >= 0"),
                       metavar="SECONDS",
                       help="on SIGTERM/SIGINT, stop admitting (503) and "
                            "wait up to this long for in-flight jobs "
                            "before exiting (default: 30)")
    serve.set_defaults(func=_cmd_serve)


def _cmd_serve(args) -> int:
    import signal
    import threading

    from repro.service import JobStore, describe_recovery, make_server

    policy, _ = _grid_resilience(args)
    store = JobStore(cache=_grid_cache(args),
                     workers=args.workers, policy=policy,
                     journal=args.journal_dir,
                     max_active_jobs=args.max_active_jobs,
                     max_queued_cells=args.max_queued_cells,
                     job_ttl_s=args.job_ttl)
    # make_server recovers the journal's jobs before workers start.
    server = make_server(store, host=args.host, port=args.port, quiet=False)
    host, port = server.server_address[:2]
    if args.journal_dir:
        print(describe_recovery(store.recovery_stats), flush=True)
    print(f"repro service on http://{host}:{port} "
          f"({args.workers} worker(s), "
          f"cache={'on' if args.cache_dir else 'off'}, "
          f"journal={'on' if args.journal_dir else 'off'})",
          flush=True)

    def _drain(signum, frame) -> None:
        # First signal: stop admitting (503 draining), finish in-flight
        # work, then stop the HTTP loop.  A second signal still kills.
        if store.draining:
            return
        print(f"drain: signal {signum}; finishing in-flight jobs "
              f"(up to {args.drain_timeout}s)", flush=True)
        store.begin_drain()

        def _finish() -> None:
            store.await_drain(args.drain_timeout)
            server.shutdown()

        threading.Thread(target=_finish, name="repro-drain",
                         daemon=True).start()

    signal.signal(signal.SIGTERM, _drain)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        # Ctrl-C: stop serving immediately, but still drain in-flight
        # jobs via store.shutdown().
        pass
    finally:
        server.shutdown()
        server.server_close()
        clean = store.shutdown(drain_timeout_s=args.drain_timeout)
        print(f"shutdown: {'clean' if clean else 'drain timed out'}",
              flush=True)
    return 0


def _cmd_perf_dispatch(args) -> int:
    if args.list_only:
        return _cmd_perf_list(args)
    return _cmd_perf(args)


def _bounded(convert, accept, requirement: str):
    """An argparse ``type``: ``convert`` the text, then exit 2 with a
    usage error unless it converted and ``accept`` holds."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(
                f"must be {requirement}, got {text!r}")
        return value
    return parse


def _at_least(minimum: int):
    """An argparse ``type`` for an integer flag bounded below."""
    return _bounded(int, lambda n: n >= minimum, f"an integer >= {minimum}")


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    """The fault-tolerance flags of ``grid``, ``report``, ``explore``
    and ``serve``.  Every computed cell runs in its own child process
    either way; these set only retries and the per-attempt deadline."""
    parser.add_argument("--retries", default=0, metavar="N",
                        type=_at_least(0),
                        help="retry a failed, crashed, or timed-out cell "
                             "up to N times (exponential backoff)")
    parser.add_argument("--cell-timeout", default=None, metavar="SECONDS",
                        type=_bounded(float, lambda s: 0 < s < math.inf,
                                      "a finite number of seconds > 0"),
                        help="kill and reschedule any cell attempt running "
                             "longer than this")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # `repro stats m.json | head` closes stdout mid-table; point
        # stdout at devnull so the interpreter's shutdown flush doesn't
        # raise a second time, and exit quietly like other CLIs do.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
