"""Smoke tests of the benchmark at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q bench/smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import run  # noqa: E402
import table  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _declared(kind: str) -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def test_declared_metrics_match_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert _declared("end_to_end") == measure.end_to_end_units()
    assert _declared("per_layer") == tracing.per_layer_units()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_runs_at_tiny_size(workload, trace, tmp_path):
    result, info = measure.run_workload(workload, seed=3, seconds=0,
                                        trace=trace, work_root=tmp_path,
                                        tiny=True, setup_probes=1)
    assert result["correct"], info["passes"]
    assert result["attempted"] >= 2 and result["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _declared(kind)
    assert all(math.isfinite(v["value"]) for v in metrics.values())
    digests = {p["sha256"] for p in info["passes"]}
    assert len(digests) == 1 and None not in digests
    if trace:
        assert (tmp_path / info["spans_file"]).is_file()
    else:
        assert metrics["wall_s"]["value"] > 0
        assert metrics["written_mb"]["value"] > 0
    assert [p.name for p in tmp_path.iterdir()] == (
        [Path(info["spans_file"]).name] if trace else [])


def test_table_depends_only_on_the_seed():
    assert table.synthesize(5, 40) == table.synthesize(5, 40)
    assert table.synthesize(5, 40) != table.synthesize(6, 40)


def test_benchmark_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "staged-cli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
