"""Helpers shared by the benchmark's runner, workloads and comparer."""

from __future__ import annotations

import json
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


def load_spec() -> dict:
    """``BENCHMARK.json``: workloads, metrics, bounds and run length."""
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)
