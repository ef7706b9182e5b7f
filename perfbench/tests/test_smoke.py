"""Smoke runs of the benchmark harness at the tests/conftest.py tiny geometry.

Run from the repository root:  python -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def run_bench(cwd, trace, workload="smoke"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def declared_metrics(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_reports_every_declared_metric(trace, kind):
    result = run_bench(ROOT, trace)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True and report["failed"] == 0 and report["attempted"] >= 1
    declared = declared_metrics(kind)
    assert {k: v["unit"] for k, v in report["metrics"].items()} == declared
    if trace:
        assert report["metrics"]["trace.absent_hooks"]["value"] == 0
        assert report["metrics"]["conv.conv1_fwd.gflop"]["value"] > 0


def test_fails_without_sources(tmp_path):
    """A directory holding only the benchmark cannot run it and says so."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    result = run_bench(tmp_path, 0)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
