"""One benchmark workload in a fresh process: set up, measure, check.

``run.py`` starts this script once for every set-up it times; only the
last start goes on to measure.  The script prints one JSON document as
the last line of its standard output and keeps its scratch files under
``bench/out/`` for the length of the run.

The program is driven only through its public entry points:
``run_system``, ``System``/``prewarm_l2``/``System.run``,
``run_design_grid``, ``build_report``, ``repro serve`` and
``ServiceClient``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import itertools
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

from common import BENCH_DIR, OUT_DIR, load_spec
from tracer import ROOT, NullTracer, Tracer, instrument

DESIGNS = ("TLC", "TLCopt500", "SNUCA2", "DNUCA")

#: Input sizes, full and ``--quick``.  The full sizes keep one pass of
#: each cells workload near 4 s, so a 30 s run repeats every cell.
SIZES = {
    # mcf's 150,000 resident blocks fill most of the 262,144-block L2,
    # so installing them outweighs replaying 10,000 references.
    "cells-prewarm": {"full": {"benchmarks": ("mcf",), "n_refs": 10_000},
                      "quick": {"benchmarks": ("bzip",), "n_refs": 1_000}},
    # perl keeps 10,000 resident blocks: replaying 30,000 references
    # dominates, and L2 access dominates replay.
    "cells-replay": {"full": {"benchmarks": ("perl",), "n_refs": 30_000},
                     "quick": {"benchmarks": ("perl",), "n_refs": 4_000}},
    # The paper's two grids over the three benchmarks with the smallest
    # resident sets, so the cold grid fits in set-up.
    "report-cold-warm": {"full": {"benchmarks": ("perl", "bzip", "gcc"),
                                  "n_refs": 1_000},
                         "quick": {"benchmarks": ("perl",), "n_refs": 500}},
    # Five designs give 325 ordered design lists; with 15 ordered
    # benchmark lists that is 4,875 distinct jobs over 15 warm cells.
    "service-jobs": {"full": {"designs": DESIGNS + ("TLCopt1000",),
                              "benchmarks": ("perl", "bzip", "gcc"),
                              "n_refs": 1_000},
                     "quick": {"designs": ("TLC", "SNUCA2", "DNUCA"),
                               "benchmarks": ("perl",), "n_refs": 500}},
}

#: Every run checks this cell against its recorded digest, whatever its
#: seed, so each run compares simulator output with a known answer.
CANARY = {"design": "TLC", "benchmark": "perl", "n_refs": 2_000, "seed": 7}

#: One calibration chunk: dict loop iterations, reads of the reference
#: document, the document (about 2 KB), and the chunk's time on the
#: reference host (the 2-vCPU virtual machine this benchmark was built
#: on) in a quiet minute, its 5th percentile.  Never change any of them:
#: every recorded number is in units of this host speed.
CHUNK_ITERATIONS = 10_000
CHUNK_READS = 12
REFERENCE_DOCUMENT = {f"k{i}": [i * 1.5, i, f"v{i}", {"a": i, "b": [1.25, 2.5]}]
                      for i in range(40)}
REFERENCE_CHUNK_S = 2.1e-3


def reference_chunk(path) -> float:
    """Seconds a fixed mix of work takes: pure-Python dict reads, writes
    and adds, then opening, reading and decoding a small JSON file.

    The cells workloads run pure Python; the report reads and decodes
    cache files.  Host slowdowns hit the two kinds of work differently,
    and a mix of both tracks either kind of op better than one alone.
    """
    table = {}
    started = time.perf_counter()
    for i in range(CHUNK_ITERATIONS):
        table[i & 1023] = table.get(i & 4095, 0) + i
    for _ in range(CHUNK_READS):
        with open(path, encoding="utf-8") as handle:
            json.load(handle)
    return time.perf_counter() - started


class HostSpeed:
    """How fast the host runs Python right now, relative to the reference.

    A shared virtual machine can slow a process by up to 70 % for seconds
    to minutes at a time, and CPU time slows with it, so wall times of
    identical work spread too widely between runs to bound a regression.  Between ops the loop times reference chunks, about
    ``SHARE`` of the time ops take.  The host's speed there is
    ``REFERENCE_CHUNK_S`` over the median chunk time of that slice, or of
    the last ``WINDOW`` chunks when the slice is shorter; an op's time is
    scaled by the mean of the speeds just before and just after it.
    """

    SHARE = 0.05
    WINDOW = 9

    def __init__(self, scratch) -> None:
        self.path = scratch / "reference.json"
        self.path.write_text(json.dumps(REFERENCE_DOCUMENT), encoding="utf-8")
        self.chunks: list = []
        self.owed_s = 0.0

    def factor(self, since_s: float) -> float:
        """Reference time per host second now, ``since_s`` of work after
        the last call."""
        self.owed_s += self.SHARE * since_s
        timed = 0
        while not self.chunks or self.owed_s > 0:
            chunk_s = reference_chunk(self.path)
            self.chunks.append(chunk_s)
            self.owed_s -= chunk_s
            timed += 1
        return REFERENCE_CHUNK_S / statistics.median(
            self.chunks[-max(timed, self.WINDOW):])

    def median_chunk_ms(self) -> float:
        return 1e3 * statistics.median(self.chunks)


def _canonical(value):
    """A JSON-able form of ``value`` with every mapping in sorted order."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    if isinstance(value, dict):
        # Keys may mix int and str (stat histograms): order by type first.
        return [[type(key).__name__, key, _canonical(item)]
                for key, item in sorted(value.items(),
                                        key=lambda kv: (type(kv[0]).__name__,
                                                        kv[0]))]
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def percentile(values, q):
    """The ``q``-th percentile (0-100), interpolating between ranks."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def digest(value) -> str:
    """SHA-256 of the canonical JSON of ``value``."""
    text = json.dumps(_canonical(value), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _ordered_subsets(items):
    return [list(order) for size in range(1, len(items) + 1)
            for order in itertools.permutations(items, size)]


def split(samples, speeds):
    """Wall times and reference-speed times of ``(wall s, op)`` samples;
    ``speeds[op]`` is the host-speed factor of op ``op``."""
    return ([wall for wall, _ in samples],
            [wall * speeds[op] for wall, op in samples])


def ops_per_s(samples, speeds):
    """Wall and reference-speed ops per second of time spent in ops."""
    return tuple(len(side) / sum(side) for side in split(samples, speeds))


class Workload:
    """What the measuring loop needs from a workload; defaults for most.

    Ops record each latency as a ``(wall s, op index)`` sample, which
    ``metrics`` corrects for host speed with the loop's ``speeds``.
    """

    def more(self, index, past_deadline):
        """Whether to run op ``index``."""
        return not past_deadline

    def extra_failures(self):
        return 0

    def traced_checks(self):
        """Checks a traced run adds, outside the measured phase."""
        return []

    def close(self):
        pass


class CellsWorkload(Workload):
    """Serial ``run_system`` calls, cycling over design x benchmark cells.

    One op is one cell plus the garbage collection of its object graph,
    which the run triggers between cells so that it is charged to the
    cell that made the garbage.  The run always finishes at least one
    full pass; latencies are per-cell medians, so a partly repeated pass
    weighs every cell equally.
    """

    def __init__(self, size, seed, tracer):
        self.cells = [(design, benchmark) for benchmark in size["benchmarks"]
                      for design in DESIGNS]
        self.n_refs = size["n_refs"]
        self.seed = seed
        self.tracer = tracer
        self.times = [[] for _ in self.cells]
        self.digests = [None] * len(self.cells)

    def setup(self, scratch):
        from repro.sim.system import run_system

        self.run_system = run_system

    def more(self, index, past_deadline):
        return not past_deadline or index < len(self.cells)

    def op(self, index):
        slot = index % len(self.cells)
        design, benchmark = self.cells[slot]
        started = time.perf_counter()
        result = self.tracer.call("sim.system", self.run_system, design,
                                  benchmark, n_refs=self.n_refs,
                                  seed=self.seed)
        self.tracer.call("gc.collect", gc.collect)
        self.times[slot].append((time.perf_counter() - started, index))
        return self.tracer.call("bench.check", self._check, slot, result)

    def _check(self, slot, result):
        cell_digest = digest(result)
        if self.digests[slot] is None:
            self.digests[slot] = cell_digest
        return cell_digest == self.digests[slot]

    def output_digest(self):
        return digest(self.digests)

    def traced_checks(self):
        """Whether ``System`` + ``prewarm_l2`` + ``System.run``, the
        phases the trace times, still compose to ``run_system``."""
        from repro.sim.system import System, prewarm_l2
        from repro.workloads.profiles import get_profile
        from repro.workloads.synthetic import (
            generate_trace,
            resident_block_addresses,
        )

        spec = get_profile("perl").spec
        trace = generate_trace(spec, 2_000, seed=self.seed)
        checks = []
        for design in ("TLC", "DNUCA"):
            system = System(design)
            prewarm_l2(system.l2, resident_block_addresses(spec))
            decomposed = system.run(trace, benchmark="perl",
                                    warmup_refs=int(len(trace) * 0.3))
            whole = self.run_system(design, "perl", n_refs=2_000,
                                    seed=self.seed)
            checks.append(digest(decomposed) == digest(whole))
        return checks

    def metrics(self, speeds):
        walls, refs, detail = [], [], {}
        for (design, benchmark), times in zip(self.cells, self.times):
            if times:
                wall, ref = (statistics.median(side)
                             for side in split(times, speeds))
                walls.append(wall)
                refs.append(ref)
                detail[f"cell_ms.{design}.{benchmark}"] = 1e3 * wall
        detail["refs_per_s"] = len(walls) * self.n_refs / sum(walls)
        detail["ref_refs_per_s"] = len(refs) * self.n_refs / sum(refs)
        detail["pass_s"] = sum(walls)
        cells_per_s = (len(walls) / sum(walls), len(refs) / sum(refs))
        return walls, refs, cells_per_s, detail


class ReportWorkload(Workload):
    """The paper's two grids and report: cold in set-up, warm per op.

    Set-up runs ``run_design_grid`` for the main designs and the TLC
    family into an empty result cache with two workers, then
    ``build_report`` into an empty derived cache.  One op repeats the
    same three calls against the now-warm caches; it must simulate no
    cell and render the cold report byte for byte.
    """

    def __init__(self, size, seed, tracer):
        self.benchmarks = size["benchmarks"]
        self.n_refs = size["n_refs"]
        self.seed = seed
        self.tracer = tracer
        self.latencies = []

    def setup(self, scratch):
        from repro.analysis.experiments import (
            MAIN_DESIGNS,
            TLC_FAMILY,
            run_design_grid,
        )
        from repro.analysis.report import build_report

        self.grid_designs = (MAIN_DESIGNS, ("SNUCA2",) + TLC_FAMILY)
        self.run_design_grid = run_design_grid
        self.build_report = build_report
        self.cache = str(scratch / "cache")
        self.derived = str(scratch / "derived")
        started = time.perf_counter()
        grids, self.text = self._report()
        self.cold_s = time.perf_counter() - started
        self.grids_digest = digest([
            [design, benchmark, grid.result(design, benchmark)]
            for grid in grids for design in grid.designs
            for benchmark in grid.benchmarks])

    def _report(self):
        grids = [self.run_design_grid(designs=designs,
                                      benchmarks=self.benchmarks,
                                      n_refs=self.n_refs, seed=self.seed,
                                      workers=2, cache=self.cache)
                 for designs in self.grid_designs]
        text = self.tracer.call("report.build_report", self.build_report,
                                main_grid=grids[0], family_grid=grids[1],
                                n_refs=self.n_refs, derived=self.derived)
        return grids, text

    def op(self, index):
        started = time.perf_counter()
        grids, text = self._report()
        self.latencies.append((time.perf_counter() - started, index))
        return self.tracer.call("bench.check", self._check, grids, text)

    def _check(self, grids, text):
        simulated = [key for grid in grids
                     for key, meta in grid.cell_meta.items()
                     if not meta["from_cache"]]
        return text == self.text and not simulated

    def output_digest(self):
        return digest([self.grids_digest, self.text])

    def metrics(self, speeds):
        return (*split(self.latencies, speeds),
                ops_per_s(self.latencies, speeds),
                {"report_cold_s": self.cold_s})


class ServiceWorkload(Workload):
    """One closed-loop client of ``repro serve`` over warm cells.

    Set-up boots the server on empty caches and warms them with one job
    over every design x benchmark cell.  Each op then submits a job no
    earlier op submitted (an ordered design list, an ordered benchmark
    list), polls its status every 2 ms and fetches the result bytes.  No
    cell is simulated after set-up: the work is result-cache reads, one
    derived-lane write per job, journal appends and HTTP.  A second
    client was left out on purpose: on two cores, two clients made the
    median latency swing by 30 % between runs.
    """

    POLL_S = 0.002

    def __init__(self, size, seed, tracer):
        self.size = size
        self.seed = seed
        self.tracer = tracer
        self.latencies = []
        self.polls = 0
        self.server = None
        self.jobs = [(designs, benchmarks)
                     for designs in _ordered_subsets(size["designs"])
                     for benchmarks in _ordered_subsets(size["benchmarks"])]
        random.Random(seed).shuffle(self.jobs)

    def setup(self, scratch):
        from repro.service.client import ServiceClient

        log = scratch / "serve.log"
        # A one-second job TTL keeps the server's job table, and so its
        # memory, the same size however many jobs a run completes.
        with open(log, "w", encoding="utf-8") as handle:
            self.server = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--workers", "2", "--cache-dir", str(scratch / "cache"),
                 "--journal-dir", str(scratch / "journal"), "--job-ttl", "1"],
                stdout=handle, stderr=subprocess.DEVNULL)
        client = ServiceClient(self._await_url(log))
        tracer = self.tracer
        self.post = tracer.wrap("service.http_post", client.submit)
        self.get_status = tracer.wrap("service.http_status", client.status)
        self.get_result = tracer.wrap("service.http_result",
                                      client.result_bytes)
        self.sleep = tracer.wrap("service.poll_sleep", time.sleep)
        warm = self._fetch(self._spec(self.size["designs"],
                                      self.size["benchmarks"]))
        self.reference = json.loads(warm)["cells"]
        self.polls = 0
        self.before = client.healthz()["metrics"]
        self.client = client

    def _await_url(self, log, timeout_s=60.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            for line in log.read_text(encoding="utf-8").splitlines():
                if line.startswith("repro service on "):
                    return line.split()[3]
            if self.server.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"repro serve did not start; see {log}")

    def _spec(self, designs, benchmarks):
        return {"designs": list(designs), "benchmarks": list(benchmarks),
                "n_refs": self.size["n_refs"], "seed": self.seed}

    def more(self, index, past_deadline):
        return not past_deadline and index < len(self.jobs)

    def _fetch(self, spec):
        """Submit ``spec``, poll until the job ends, return its result bytes.

        ``None`` when the job failed.  Set-up uses this too, because the
        client's own back-off polling would round set-up time up to its
        next poll, up to a second later.
        """
        status = self.post(spec)
        while status["state"] not in ("done", "failed"):
            self.sleep(self.POLL_S)
            self.polls += 1
            status = self.get_status(status["id"])
        if status["state"] != "done":
            return None
        return self.get_result(status["id"])

    def op(self, index):
        spec = self._spec(*self.jobs[index])
        started = time.perf_counter()
        raw = self._fetch(spec)
        if raw is None:
            return False
        self.latencies.append((time.perf_counter() - started, index))
        return self.tracer.call("bench.check", self._check, spec, raw)

    def _check(self, spec, raw):
        document = json.loads(raw)
        return (document["designs"] == spec["designs"]
                and document["benchmarks"] == spec["benchmarks"]
                and all(document["cells"][design][benchmark]
                        == self.reference[design][benchmark]
                        for design in spec["designs"]
                        for benchmark in spec["benchmarks"]))

    def output_digest(self):
        return digest(self.reference)

    def metrics(self, speeds):
        after = self.client.healthz()["metrics"]
        self.delta = {name: after[f"service.{name}"]
                      - self.before[f"service.{name}"]
                      for name in ("cells_simulated", "cells_from_cache")}
        detail = {"polls_per_job": self.polls / max(1, len(self.latencies)),
                  "cells_simulated": self.delta["cells_simulated"],
                  "cells_from_cache": self.delta["cells_from_cache"]}
        return (*split(self.latencies, speeds),
                ops_per_s(self.latencies, speeds), detail)

    def extra_failures(self):
        return self.delta["cells_simulated"]

    def close(self):
        if self.server is None:
            return
        # SIGTERM drains in-flight jobs, then the server exits 0.
        self.server.send_signal(signal.SIGTERM)
        try:
            self.server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()


WORKLOADS = {"cells-prewarm": CellsWorkload, "cells-replay": CellsWorkload,
             "report-cold-warm": ReportWorkload,
             "service-jobs": ServiceWorkload}


def measure(workload, seconds, tracer, host):
    """Run ops until the workload has enough and ``seconds`` have passed."""
    started = time.perf_counter()
    deadline = started + seconds
    calibrate = tracer.wrap("bench.calibrate", host.factor, keep=False)
    factors = [calibrate(0.0)]
    ops = failed = 0
    while workload.more(ops, time.perf_counter() >= deadline):
        tracer.op = ops
        op_started = time.perf_counter()
        try:
            ok = workload.op(ops)
        except Exception:  # noqa: BLE001 — a failed op is counted, not fatal
            traceback.print_exc()
            ok = False
        factors.append(calibrate(time.perf_counter() - op_started))
        failed += not ok
        ops += 1
    speeds = [(before + after) / 2
              for before, after in zip(factors, factors[1:])]
    return ops, failed, time.perf_counter() - started, speeds


def canary_ok(expected):
    from repro.sim.system import run_system

    return digest(run_system(CANARY["design"], CANARY["benchmark"],
                             n_refs=CANARY["n_refs"],
                             seed=CANARY["seed"])) == expected


def per_layer_metrics(spec, tracer, ops):
    def count(name):
        return tracer.counts.get((name, ""), 0)

    def ratio(hits, misses):
        total = count(hits) + count(misses)
        return count(hits) / total if total else 0.0

    values = {
        "sim.prewarm_l2.installs_per_op":
            count("sim.prewarm_l2.installs") / ops,
        "l2.access.calls_per_op": tracer.calls.get("l2.access", 0) / ops,
        "runner.cache_get.hit_ratio": ratio("runner.cache.hits",
                                            "runner.cache.misses"),
        "derived.get_or_compute.hit_ratio": ratio("derived.hits",
                                                  "derived.misses"),
    }
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name.endswith(".pct"):
            values[name] = tracer.share_pct(name[:-len(".pct")])
    return {name: value for name, value in values.items()
            if value is not None
            and not any(name.startswith(layer + ".")
                        for layer in tracer.missing)}


def peak_rss_mb():
    """Largest resident set of this process and every waited-for child."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def run(args):
    scratch = OUT_DIR / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True)
    tracer = Tracer() if args.trace else NullTracer()
    size = SIZES[args.workload]["quick" if args.quick else "full"]
    workload = WORKLOADS[args.workload](size, args.seed, tracer)
    try:
        workload.setup(scratch)
        setup_wall_s = time.monotonic() - args.spawned_at
        # The chunks timed just after set-up stand for the host's speed
        # during it.
        host = HostSpeed(scratch)
        setup_s = setup_wall_s * host.factor(setup_wall_s)
        if args.setup_only:
            return {"setup_s": setup_s, "setup_wall_s": setup_wall_s}
        with open(BENCH_DIR / "expected.json", encoding="utf-8") as handle:
            recorded = json.load(handle)
        checks = [canary_ok(recorded["canary"])]
        if args.trace:
            checks += workload.traced_checks()
            instrument(tracer)
        ops, failed, wall_s, speeds = tracer.call(
            ROOT, measure, workload, args.seconds, tracer, host)
        walls, refs, (wall_ops_s, ref_ops_s), detail = workload.metrics(
            speeds)
        failed += workload.extra_failures()
        output = workload.output_digest()
        expected = recorded["quick" if args.quick else "full"][
            args.workload].get(str(args.seed))
        if expected is not None:
            checks.append(output == expected)
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
    wall_ms = [1e3 * value for value in walls]
    ref_ms = [1e3 * value for value in refs]
    detail["latency_ms.p50"] = percentile(wall_ms, 50)
    detail["ops_per_s"] = wall_ops_s
    # Tails swing with the host's load far more than medians do, so they
    # are reported but carry no regression bound; each needs ten samples
    # beyond it.
    for q in (90, 99):
        if len(wall_ms) * (100 - q) >= 1000:
            detail[f"latency_ms.p{q}"] = percentile(wall_ms, q)
    detail["host_chunk_ms"] = host.median_chunk_ms()
    result = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "attempted": ops + len(checks),
        "failed": failed + checks.count(False),
        "digest": output,
        # None: no digest is recorded for this seed.
        "checked": None if expected is None else output == expected,
        "samples": len(walls),
        "end_to_end": {"ref_latency_ms.p50": percentile(ref_ms, 50),
                       "ref_ops_per_s": ref_ops_s,
                       "peak_rss_mb": peak_rss_mb()},
        "detail": detail,
    }
    if args.trace:
        layer_self_s = sum(tracer.self_ns.values()) / 1e9
        result["per_layer"] = per_layer_metrics(load_spec(), tracer, ops)
        result["missing"] = tracer.missing
        result["trace_table"] = tracer.table()
        result["self_time_sum_s"] = layer_self_s
        result["wall_s"] = wall_s
        if abs(layer_self_s - wall_s) > 0.05 * wall_s:
            result["failed"] += 1
            result["self_time_error"] = "self times do not sum to the wall"
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(path)
        result["trace_file"] = str(path.relative_to(BENCH_DIR.parent))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process "
                             "was started; set-up time counts from it")
    args = parser.parse_args(argv)
    print(json.dumps(run(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
