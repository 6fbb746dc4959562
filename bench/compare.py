"""Compare two sets of benchmark runs, workload by workload and metric by metric.

    python3 bench/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is one ``run.py --out`` document.  A is the baseline, normally
the parent commit, and B the change.  For every workload and metric the
script prints each side's median and quartiles, B's change against A,
and a verdict:

* ``worse``: B's median is worse than A's by more than the metric's
  bound in ``BENCHMARK.json``;
* ``unresolved``: either side's spread (quartile distance over median)
  is wider than the bound, unless every B run beats every A run;
* ``gain``: the pair rule holds.  A[i] and B[i] form a pair, so run them
  alternately.  There are at least ten pairs, B wins at least nine
  tenths of them, and the medians differ by more than A's quartile
  distance.

Per-layer metrics have no bound and get only the pair rule.  Runs made
with ``--quick`` are never compared with full runs.  The exit code is 1
when any metric is worse, 2 on bad input.
"""

from __future__ import annotations

import json
import statistics
import sys

from common import load_spec

MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values):
    """Q1, median, Q3 as ``statistics.quantiles(values, n=4)`` gives them.

    That function needs two values; one value is its own quartiles.
    """
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def verdict(a, b, better, bound):
    """The verdict words for one metric's A and B values."""
    qa, qb = quartiles(a), quartiles(b)
    sign = 1 if better == "higher" else -1
    words = []
    if bound is not None:
        spreads = [(q[2] - q[0]) / q[1] for q in (qa, qb) if q[1]]
        all_better = all(sign * (y - x) > 0 for x in a for y in b)
        if any(spread > bound for spread in spreads) and not all_better:
            words.append("unresolved")
        elif qa[1] and -sign * (qb[1] - qa[1]) / qa[1] > bound:
            words.append("worse")
    pairs = list(zip(a, b))
    if len(pairs) >= MIN_PAIRS:
        wins = sum(sign * (y - x) > 0 for x, y in pairs)
        gap = sign * (qb[1] - qa[1])
        if wins >= WIN_SHARE * len(pairs) and gap > qa[2] - qa[0]:
            words.append("gain")
    return words


def side(docs, workload, section, name):
    return [doc["workloads"][workload][section][name] for doc in docs
            if name in doc["workloads"].get(workload, {}).get(section, {})]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    split = argv.index("--")
    docs = []
    for paths in (argv[:split], argv[split + 1:]):
        if not paths:
            print("error: each side needs at least one run file",
                  file=sys.stderr)
            return 2
        loaded = []
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                loaded.append(json.load(handle))
        docs.append(loaded)
    docs_a, docs_b = docs
    if len({doc["quick"] for doc in docs_a + docs_b}) > 1:
        print("error: refusing to compare --quick runs with full runs",
              file=sys.stderr)
        return 2
    spec = load_spec()
    traced = [sorted({doc["trace"] for doc in d}) for d in docs]
    print(f"A: {len(docs_a)} run(s), traced {traced[0]}; "
          f"B: {len(docs_b)} run(s), traced {traced[1]}")
    print(f"{'workload':17s} {'metric':34s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'change':>8s}  verdict")
    any_worse = False
    for workload in dict.fromkeys(name for doc in docs_a + docs_b
                                  for name in doc["workloads"]):
        for section in ("end_to_end", "per_layer"):
            for metric in spec[section]:
                name = metric["name"]
                a = side(docs_a, workload, section, name)
                b = side(docs_b, workload, section, name)
                if not a or not b:
                    continue
                qa, qb = quartiles(a), quartiles(b)
                change = (f"{100 * (qb[1] - qa[1]) / qa[1]:+.1f}%"
                          if qa[1] else "-")
                words = verdict(a, b, metric["better"], metric.get("bound"))
                any_worse |= "worse" in words
                cols = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (qa, qb)]
                print(f"{workload:17s} {name:34s} {cols[0]:>30s} "
                      f"{cols[1]:>30s} {change:>8s}  {' '.join(words)}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
