"""Run the repository benchmark and print every metric with its unit.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace [0|1]] [--quick] [--out FILE]

Each workload runs in fresh processes (``bench/workload.py``), so memory,
garbage-collector state and imports never carry over from one workload
to the next.  Set-up is timed several times, each in its own process,
and reported as the median; the last process also measures.  Times are
corrected to the reference host's speed (``workload.HostSpeed``).  Without
``--workload`` all workloads run in turn.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json``, or its
per-layer metrics with ``--trace 1``.  ``--out`` writes everything
measured, for ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, OUT_DIR, SRC_DIR, load_spec
from workload import WORKLOADS

#: Set-ups timed per workload; the median is ``setup_s``.
SETUPS = 5
#: A workload's processes must all end within this many seconds.
WORKLOAD_BUDGET_S = 170.0
QUICK_SECONDS = 2.0


def spawn(workload: str, args, seconds: float, setup_only: bool,
          deadline: float) -> dict:
    """Run ``workload.py`` once and return its result document."""
    env = dict(os.environ, TMPDIR=str(OUT_DIR / "tmp"), PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])))
    command = [sys.executable, str(BENCH_DIR / "workload.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
    command += ["--quick"] * args.quick + ["--setup-only"] * setup_only
    command += ["--spawned-at", repr(time.monotonic())]
    # A session of its own lets a timeout stop the server and pool
    # workers the workload started, not only the workload process.
    process = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                               text=True, start_new_session=True)
    try:
        stdout, _ = process.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RuntimeError(f"{workload}: ran past its {WORKLOAD_BUDGET_S:.0f}"
                           f" s budget") from None
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: workload process exited with "
                           f"{process.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, args, seconds: float) -> dict:
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    setups = [spawn(workload, args, seconds, True, deadline)
              for _ in range(SETUPS - 1 if not args.quick else 0)]
    result = spawn(workload, args, seconds, False, deadline)
    setups.append(result)
    result["setups_s"] = [setup["setup_s"] for setup in setups]
    result["end_to_end"]["setup_s"] = statistics.median(result["setups_s"])
    result["detail"]["setup_wall_s"] = statistics.median(
        setup["setup_wall_s"] for setup in setups)
    return result


def report(workload: str, result: dict, spec: dict, args) -> dict:
    """Print ``result`` for people; return its metrics for the JSON line."""
    units = {metric["name"]: metric["unit"]
             for metric in spec["end_to_end"] + spec["per_layer"]}
    kind = "per_layer" if args.trace else "end_to_end"
    measured = result.get(kind, {})
    metrics = {}
    checked = {None: "checked: false", True: "matches the recorded digest",
               False: "DIFFERS from the recorded digest"}[result["checked"]]
    print(f"== {workload}  seed {args.seed}  {'traced' if args.trace else ''}"
          f"{'quick' if args.quick else ''}  {result['attempted']} attempted,"
          f" {result['failed']} failed, {result['samples']} samples")
    print(f"  digest {result['digest']} ({checked})")
    for name, value in result["end_to_end"].items():
        print(f"  {name:34s} {value:14.4f} {units[name]}")
    print(f"  set-ups (s): {' '.join(f'{s:.4f}' for s in result['setups_s'])}")
    for name, value in result["detail"].items():
        print(f"  detail {name:27s} {value:14.4f}")
    if args.trace:
        print(result["trace_table"])
        print(f"  self times sum to {result['self_time_sum_s']:.4f} s of a "
              f"{result['wall_s']:.4f} s wall; spans in "
              f"{result['trace_file']}")
        for name, value in measured.items():
            print(f"  {name:34s} {value:14.4f} {units.get(name, '')}")
    for metric in spec[kind]:
        name = metric["name"]
        if name in measured:
            metrics[name] = {"value": measured[name], "unit": metric["unit"]}
        else:
            print(f"  missing {name}")
    return metrics


def main(argv=None) -> int:
    spec = load_spec()
    # service-jobs runs here but is not one of BENCHMARK.json's workloads:
    # see bench/README.md.
    names = list(WORKLOADS)
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="run only this workload (default: all)")
    parser.add_argument("--seed", type=int, default=7,
                        help="input seed; digests are recorded for 7 and 11")
    parser.add_argument("--seconds", type=float,
                        help=f"measuring time per workload (default: "
                             f"{spec['run_seconds']}, {QUICK_SECONDS:g} "
                             f"with --quick)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="trace the layers and print per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="small inputs and one set-up, for smoke tests")
    parser.add_argument("--out", metavar="FILE",
                        help="write everything measured as JSON")
    args = parser.parse_args(argv)
    if not (SRC_DIR / "repro").is_dir():
        print(f"error: the program's sources are missing ({SRC_DIR})",
              file=sys.stderr)
        return 2
    seconds = args.seconds or (QUICK_SECONDS if args.quick
                               else spec["run_seconds"])
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    selected = [args.workload] if args.workload else names
    results, metrics = {}, {}
    for workload in selected:
        try:
            results[workload] = run_workload(workload, args, seconds)
        except RuntimeError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        measured = report(workload, results[workload], spec, args)
        prefix = "" if args.workload else f"{workload}/"
        metrics.update({prefix + name: value
                        for name, value in measured.items()})
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"quick": args.quick, "trace": bool(args.trace),
                       "seed": args.seed, "seconds": seconds,
                       "workloads": results}, handle, indent=1)
    attempted = sum(result["attempted"] for result in results.values())
    failed = sum(result["failed"] for result in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
