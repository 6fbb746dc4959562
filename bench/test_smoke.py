"""Smoke test of the benchmark: every workload in ``--quick`` mode.

    python -m pytest bench/
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from common import BENCH_DIR, REPO_ROOT, load_spec
from workload import WORKLOADS

SPEC = load_spec()


def run_bench(*args, cwd=REPO_ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_quick_run(workload, trace, tmp_path):
    out = tmp_path / "run.json"
    proc = run_bench("--quick", "--workload", workload, "--trace", str(trace),
                     "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(last["metrics"]) == [metric["name"] for metric in expected]
    for metric in expected:
        measured = last["metrics"][metric["name"]]
        assert measured["unit"] == metric["unit"]
        assert isinstance(measured["value"], (int, float))
        if not trace:
            assert measured["value"] > 0
    document = json.loads(out.read_text())
    assert document["quick"] is True
    assert document["workloads"][workload]["checked"] is True


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", SPEC["workloads"][0]["name"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_refuses_to_mix_quick_and_full_runs(tmp_path):
    paths = []
    for quick in (True, False):
        path = tmp_path / f"quick-{quick}.json"
        path.write_text(json.dumps({"quick": quick, "trace": False,
                                    "workloads": {}}))
        paths.append(str(path))
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "compare.py"),
                           paths[0], "--", paths[1]],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "refusing" in proc.stderr
