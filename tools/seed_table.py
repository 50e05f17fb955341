"""Report digest, row count and error rates of one config over seeds.

    PYTHONPATH=src python3 tools/seed_table.py [--config PATH] [--seeds N ...]

Runs the config's campaign once per seed (by default configs/reference.json
at 20260816 and 1 to 6), the seeds spread over this process's CPUs by
nlosid.experiment._over_cpus, each into a temporary directory.  Prints a
Markdown table with one row per seed: the sha256 of its report.json, its
feature-row count, and (type I, type II) of the joint ratio test and of the
network; then a row of medians.  nlosid is imported from PYTHONPATH, so one
script measures any checkout.  BLAS runs on one thread, as in bench/run.py,
so the digests are the benchmark's.
"""

import argparse
import hashlib
import os
import statistics
import sys
import tempfile
from dataclasses import replace
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (20260816, 1, 2, 3, 4, 5, 6)


def seed_row(config, seed: int) -> tuple:
    """(seed, report digest, feature rows, joint ratio-test rates, network
    rates) of one run of config at seed."""
    from nlosid import run_experiment

    with tempfile.TemporaryDirectory() as out:
        report = run_experiment(replace(config, seed=seed), out)
        digest = hashlib.sha256(
            (Path(out) / "report.json").read_bytes()).hexdigest()
    rates = [(e.type_i, e.type_ii) for e in (report.error_table["joint_mlr"],
                                             report.error_table["ann"])]
    return (seed, digest, report.counts["feature_rows"], *rates)


def _pair(rates) -> str:
    return ", ".join(f"{r:.3g}" for r in rates)


def _medians(pairs) -> tuple:
    """(median type I, median type II) of (type I, type II) pairs."""
    return tuple(statistics.median(column) for column in zip(*pairs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=str(ROOT / "configs"
                                                / "reference.json"))
    parser.add_argument("--seeds", type=int, nargs="+", default=SEEDS)
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"      # before numpy is imported
    from nlosid import ExperimentConfig
    from nlosid.experiment import _over_cpus
    from nlosid.fileio import load_json

    config = ExperimentConfig.from_dict(load_json(args.config))
    rows = _over_cpus(partial(seed_row, config), list(args.seeds))
    print("| seed | report.json sha256 | rows | joint ratio test | network |")
    print("|---|---|---|---|---|")
    for seed, digest, n_rows, joint, ann in rows:
        print(f"| {seed} | {digest} | {n_rows} | {_pair(joint)} "
              f"| {_pair(ann)} |")
    _, _, counts, joints, anns = zip(*rows)
    print(f"| median | | {statistics.median(counts):g} "
          f"| {_pair(_medians(joints))} | {_pair(_medians(anns))} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
