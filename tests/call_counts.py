"""Calls per reference: a deterministic measure of an access path's cost.

Timings on a shared host move with its load; the number of calls a
replay makes into the program does not, so tests can bound it.
"""

from repro.analysis.perf import count_repro_calls
from repro.sim.system import System, prewarm_l2
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import generate_trace, resident_block_addresses


def repro_calls_per_reference(design, benchmark="perl", n_refs=2_000):
    """Calls into functions under ``src/repro`` per reference, counted
    with ``sys.setprofile`` during ``System.run`` after pre-warm."""
    spec = get_profile(benchmark).spec
    trace = generate_trace(spec, n_refs, seed=7)
    system = System(design)
    prewarm_l2(system.l2, resident_block_addresses(spec))
    calls = count_repro_calls(lambda: system.run(
        trace, benchmark=benchmark, warmup_refs=n_refs // 4))
    return calls / n_refs
