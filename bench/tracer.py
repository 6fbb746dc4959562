"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's side, around calls into each
layer of the program: the benchmark patches public functions and
instance methods with timing wrappers, so the program itself carries no
instrumentation.  Coarse calls (one ``run_system`` phase, one HTTP
request) are kept as spans with a name, start/end ns, parent span and op
id.  Per-item calls (``l2.access`` once per reference, one cache read
per cell) are kept only as aggregate count and ns, so a traced run stays
small.

Self time is a call's duration minus the time of the traced calls nested
in it; the self times of all layers plus the root span's own self time
add up to the root span, which covers the measured phase.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

ROOT = "bench.workload"


class Tracer:
    """Spans plus per-layer self time and call counts, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        #: (layer, tag) -> [calls, self ns]: per-design splits.
        self.tagged: Dict[Tuple[str, str], List[int]] = defaultdict(
            lambda: [0, 0])
        #: (name, tag) -> amount, for work counts such as installs.
        self.counts: Dict[Tuple[str, str], int] = defaultdict(int)
        #: layers whose patch target no longer exists in the program.
        self.missing: List[str] = []
        self.op: Optional[int] = None
        self._stack: List[list] = []  # [child ns, span id or None]
        self._next_id = 0

    def wrap(self, name: str, fn: Callable, keep: bool = True,
             tag: Optional[str] = None) -> Callable:
        """``fn`` with every call traced as layer ``name``.

        Only calls inside the root span, the measured phase, are traced.
        The wrapper runs once per reference for ``l2.access``, so it
        binds everything it touches up front: its own cost lands in the
        caller's self time.
        """
        stack, clock = self._stack, time.perf_counter_ns
        self_ns, calls = self.self_ns, self.calls
        bucket = None if tag is None else self.tagged[(name, tag)]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack and name != ROOT:
                return fn(*args, **kwargs)
            frame = [0, None]
            if keep:
                frame[1] = self._next_id
                self._next_id += 1
                parent = next((outer[1] for outer in reversed(stack)
                               if outer[1] is not None), None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                self_ns[name] += own
                calls[name] += 1
                if bucket is not None:
                    bucket[0] += 1
                    bucket[1] += own
                if stack:
                    stack[-1][0] += duration
                if keep:
                    self.spans.append({"id": frame[1], "name": name,
                                       "start_ns": start, "end_ns": end,
                                       "parent": parent, "op": self.op})
        return traced

    def call(self, name: str, fn: Callable, *args, keep: bool = True,
             tag: Optional[str] = None, **kwargs):
        """Call ``fn`` once as a traced call of layer ``name``."""
        return self.wrap(name, fn, keep=keep, tag=tag)(*args, **kwargs)

    def patch(self, owner, attr: str, layers: List[str],
              make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``make(original)``, if it still exists.

        When ``owner`` or its attribute is gone after a refactor, the
        ``layers`` the replacement would have timed are recorded as
        missing instead.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.extend(layers)
        else:
            setattr(owner, attr, make(fn))

    def count(self, name: str, amount: int, tag: str = "") -> None:
        self.counts[(name, tag)] += amount

    # -- results -----------------------------------------------------------
    def share_pct(self, layer: str) -> Optional[float]:
        """``layer``'s self time as a percentage of the root span."""
        if layer in self.missing:
            return None
        return 100.0 * self.self_ns.get(layer, 0) / self.root_ns()

    def root_ns(self) -> int:
        return sum(span["end_ns"] - span["start_ns"] for span in self.spans
                   if span["name"] == ROOT) or 1

    def table(self) -> str:
        """Per-layer self-time table, largest first, with per-tag rows."""
        total = self.root_ns()
        lines = [f"{'layer':34s} {'calls':>9s} {'self s':>9s} {'share':>7s}"
                 f" {'us/call':>10s}"]
        for name, own in sorted(self.self_ns.items(), key=lambda kv: -kv[1]):
            calls = self.calls[name]
            lines.append(f"{name:34s} {calls:9d} {own / 1e9:9.3f} "
                         f"{100.0 * own / total:6.1f}% "
                         f"{own / calls / 1e3:10.2f}")
            for (layer, tag), (tag_calls, tag_ns) in sorted(
                    self.tagged.items()):
                if layer == name and tag_calls:
                    lines.append(f"  {tag:32s} {tag_calls:9d} "
                                 f"{tag_ns / 1e9:9.3f} "
                                 f"{100.0 * tag_ns / total:6.1f}% "
                                 f"{tag_ns / tag_calls / 1e3:10.2f}")
        for (name, tag), amount in sorted(self.counts.items()):
            lines.append(f"count {name}{'.' + tag if tag else ''} = {amount}")
        for name in self.missing:
            lines.append(f"missing {name}: its patch target no longer exists")
        return "\n".join(lines)

    def write(self, path) -> None:
        document = {
            "spans": self.spans,
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "tagged": [[layer, tag, calls, ns] for (layer, tag), (calls, ns)
                       in sorted(self.tagged.items())],
            "counts": [[name, tag, amount] for (name, tag), amount
                       in sorted(self.counts.items())],
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


class NullTracer:
    """The untraced run's tracer: calls pass straight through."""

    op = None

    def call(self, name, fn, *args, keep=True, tag=None, **kwargs):
        return fn(*args, **kwargs)

    def wrap(self, name, fn, keep=True, tag=None):
        return fn


def instrument(tracer: Tracer) -> None:
    """Patch the program's public layer boundaries with timing wrappers.

    Only calls made through module attributes or class attributes are
    seen, which is how the program's own code reaches them: ``run_system``
    looks up ``generate_trace`` and friends in ``repro.sim.system``, and
    ``run_design_grid`` imports ``run_grid`` at call time.
    """
    import repro.analysis.derived as derived
    import repro.analysis.runner as runner
    import repro.sim.processor as processor
    import repro.sim.system as system

    def plain(layer, keep=True):
        return [layer], lambda fn: tracer.wrap(layer, fn, keep=keep)

    def traced_build(build):
        def wrapper(*args, **kwargs):
            l2 = tracer.call("core.build", build, *args, **kwargs)
            # The replay loop binds l2.access once per run, after the
            # design is built, so an instance attribute catches it.
            l2.access = tracer.wrap("l2.access", l2.access, keep=False,
                                    tag=l2.name)
            return l2
        return wrapper

    def traced_prewarm(prewarm):
        def wrapper(l2, resident):
            installs = tracer.call("sim.prewarm_l2", prewarm, l2, resident,
                                   tag=l2.name)
            tracer.count("sim.prewarm_l2.installs", installs)
            tracer.count("sim.prewarm_l2.installs", installs, tag=l2.name)
            return installs
        return wrapper

    def traced_cache_get(get):
        def wrapper(cache, key):
            result = tracer.call("runner.cache_get", get, cache, key,
                                 keep=False)
            tracer.count("runner.cache.hits" if result is not None
                         else "runner.cache.misses", 1)
            return result
        return wrapper

    def traced_get_or_compute(get_or_compute):
        def wrapper(lane, kind, cell_keys, params, compute):
            computed = []

            def counted_compute():
                computed.append(True)
                return compute()
            artifact = tracer.call("derived.get_or_compute", get_or_compute,
                                   lane, kind, cell_keys, params,
                                   counted_compute, keep=False)
            tracer.count("derived.misses" if computed else "derived.hits", 1)
            return artifact
        return wrapper

    tracer.patch(system, "generate_trace", *plain("workloads.generate_trace"))
    tracer.patch(system, "resident_block_addresses",
                 *plain("workloads.resident_set"))
    tracer.patch(system, "build_design", ["core.build", "l2.access"],
                 traced_build)
    tracer.patch(system, "prewarm_l2", ["sim.prewarm_l2"], traced_prewarm)
    tracer.patch(getattr(processor, "Processor", None), "run",
                 *plain("sim.replay"))
    tracer.patch(runner, "run_grid", *plain("runner.run_grid"))
    tracer.patch(runner, "cache_key",
                 *plain("runner.fingerprint", keep=False))
    tracer.patch(getattr(runner, "ResultCache", None), "get",
                 ["runner.cache_get"], traced_cache_get)
    tracer.patch(getattr(derived, "DerivedLane", None), "get_or_compute",
                 ["derived.get_or_compute"], traced_get_or_compute)
