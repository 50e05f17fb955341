"""tools/seed_table.py on a tiny campaign."""

import os
import statistics
import subprocess
import sys
from pathlib import Path

from nlosid import ExperimentConfig, SegParams, TrainSchedule
from nlosid.fileio import save_json

from conftest import small_sim

ROOT = Path(__file__).resolve().parent.parent


def test_seed_table_prints_a_row_per_seed_and_the_medians(tmp_path):
    """Seeds 11, 12 and 12 again: on two CPUs the first 12 runs in this
    process's share, with a pool of its own, and the second in a worker,
    serially; both give one report."""
    config = tmp_path / "tiny.json"
    save_json(config, ExperimentConfig(
        sim=small_sim(snr_db=60.0),
        seg=SegParams(min_pixels=2, marker_min_separation=1.0),
        schedule=TrainSchedule(max_epochs=300), n_realizations=45,
        n_train=30, n_test=15).to_dict())
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "seed_table.py"), "--config",
         str(config), "--seeds", "11", "12", "12"],
        env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == ("| seed | report.json sha256 | rows | "
                        "joint ratio test | network |")
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in lines[2:]]
    assert [row[0] for row in rows] == ["11", "12", "12", "median"]
    assert all(len(row[1]) == 64 for row in rows[:3])
    assert rows[1] == rows[2] and rows[0][1] != rows[1][1]
    for row in rows[:3]:
        assert int(row[2]) > 0
        for pair in row[3:]:
            assert all(0.0 <= float(r) <= 1.0 for r in pair.split(", "))
    assert rows[3][2] == f"{statistics.median(int(r[2]) for r in rows[:3]):g}"
    assert rows[3][3:] == rows[1][3:]     # the median of x, y, y is y
