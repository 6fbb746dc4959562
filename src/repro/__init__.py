"""repro: a reproduction of "TLC: Transmission Line Caches"
(Beckmann & Wood, MICRO-36, 2003).

The package implements the paper's Transmission Line Cache family and
everything it is evaluated against and on top of:

* :mod:`repro.core` — the TLC designs (base + three optimized variants).
* :mod:`repro.nuca` — the SNUCA2 and DNUCA baselines (Kim et al.).
* :mod:`repro.tline` — on-chip transmission-line physics (extraction,
  pulse propagation, signalling criteria, power).
* :mod:`repro.cache`, :mod:`repro.interconnect` — cache and network
  substrates shared by all designs.
* :mod:`repro.area` — area / access-time / transistor models.
* :mod:`repro.sim` — the trace-replay processor timing model over
  busy-until link, mesh and bank resources, the memory model, and the
  ``run_system`` experiment entry point.
* :mod:`repro.workloads` — the twelve calibrated synthetic benchmarks.
* :mod:`repro.analysis` — the table/figure regeneration harness.

Quick start::

    from repro import run_system
    result = run_system("TLC", "mcf", n_refs=20_000)
    print(result.mean_lookup_latency, result.ipc)
"""

from repro.tech import Technology, TECH_45NM
from repro.core.config import (
    DESIGNS,
    build_design,
    design_names,
    get_design,
)
from repro.sim.system import System, SystemResult, run_system
from repro.workloads.profiles import PROFILES, benchmark_names, get_profile

__version__ = "1.0.0"

__all__ = [
    "Technology",
    "TECH_45NM",
    "DESIGNS",
    "build_design",
    "design_names",
    "get_design",
    "System",
    "SystemResult",
    "run_system",
    "PROFILES",
    "benchmark_names",
    "get_profile",
    "__version__",
]
