"""Wall time, peak RSS and output digest of `nlosid ingest`, fresh processes.

    PYTHONPATH=src python3 tools/ingest_probe.py [--config PATH]
        [--realization N] [--runs N]

Renders one realization of the config (by default configs/reference.json,
realization 0) and writes the np.fft.fft of every direction's taps as one
sweep CSV on the config's grid, bin m at m * sample_rate / n_taps GHz, in a
temporary directory.  Then runs `python -m nlosid.cli ingest` (with its
default Hann window) on it in --runs fresh processes, one after another,
and prints a Markdown table with one row per run: the wall time, the peak
resident set size (ru_maxrss of that process alone) and the sha256 of the
tensor .bin it wrote.  nlosid is imported from PYTHONPATH, by this script and by every
ingest it starts, so one script measures any checkout.
"""

import argparse
import hashlib
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def write_sweeps(config, realization: int, path) -> list:
    """Write the realization's sweep CSV to path; returns the ingest
    arguments that name its grid."""
    import numpy as np
    from nlosid import simulate_realization

    sim = config.sim
    _, _, cir = simulate_realization(sim, config.seed, realization)
    values = np.fft.fft(cir.data, axis=-1)
    freqs = np.arange(sim.n_taps) * (sim.sample_rate_ghz / sim.n_taps)
    grid = cir.grid
    with open(path, "w", encoding="utf-8") as f:
        f.write("az_deg,el_deg,freq_ghz,re,im\n")
        for i, j in np.ndindex(grid.shape):
            el, az = grid.angles_of(i, j)
            f.writelines(f"{az!r},{el!r},{fm!r},{v.real!r},{v.imag!r}\n"
                         for fm, v in zip(freqs.tolist(),
                                          values[i, j].tolist()))
    (az_lo, az_hi), (el_lo, el_hi) = sim.az_range_deg, sim.el_range_deg
    return [f"--az={az_lo!r}:{az_hi!r}:{sim.step_deg!r}",
            f"--el={el_lo!r}:{el_hi!r}:{sim.step_deg!r}"]


def ingest_once(sweep, axes, out) -> tuple:
    """(exit status, wall seconds, peak RSS in MB) of one fresh ingest."""
    argv = [sys.executable, "-m", "nlosid.cli", "--out", str(out), "ingest",
            str(sweep), *axes]
    quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, os.environ,
                         file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=str(ROOT / "configs"
                                                / "reference.json"))
    parser.add_argument("--realization", type=int, default=0)
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv)
    from nlosid import ExperimentConfig
    from nlosid.fileio import load_json

    config = ExperimentConfig.from_dict(load_json(args.config))
    with tempfile.TemporaryDirectory() as tmp:
        sweep, out = Path(tmp) / "sweep.csv", Path(tmp) / "tensor.json"
        axes = write_sweeps(config, args.realization, sweep)
        print(f"sweep file: {sweep.stat().st_size / 1e6:.1f} MB")
        print("| run | wall_s | peak_rss_mb | tensor.bin sha256 |")
        print("|---|---|---|---|")
        for run in range(1, args.runs + 1):
            code, wall, rss = ingest_once(sweep, axes, out)
            if code != 0:
                print(f"ingest exited {code}", file=sys.stderr)
                return 1
            digest = hashlib.sha256(
                out.with_suffix(".bin").read_bytes()).hexdigest()
            print(f"| {run} | {wall:.2f} | {rss:.1f} | {digest} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
