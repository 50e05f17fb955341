"""tools/ingest_probe.py on a tiny config."""

import os
import subprocess
import sys
from pathlib import Path

from nlosid import ExperimentConfig
from nlosid.fileio import save_json

from conftest import small_sim

ROOT = Path(__file__).resolve().parent.parent


def test_ingest_probe_prints_a_row_per_run(tmp_path):
    """Two fresh ingests of one 25x13 sweep file: each row has a wall time,
    a peak RSS and the digest of one tensor."""
    config = tmp_path / "tiny.json"
    save_json(config, ExperimentConfig(sim=small_sim()).to_dict())
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ingest_probe.py"), "--config",
         str(config), "--realization", "3", "--runs", "2"],
        env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("sweep file: ")
    assert lines[1] == "| run | wall_s | peak_rss_mb | tensor.bin sha256 |"
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in lines[3:]]
    assert [row[0] for row in rows] == ["1", "2"]
    for _, wall, rss, digest in rows:
        assert float(wall) > 0 and float(rss) > 0 and len(digest) == 64
    assert rows[0][3] == rows[1][3]
