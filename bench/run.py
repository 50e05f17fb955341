"""nlosid benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
The line before it records the environment and every pass's time and
output digest.  The benchmark imports nlosid from ``src/`` of the checkout
it sits in and works under ``.bench_work/`` there.  See bench/README.md.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("reference-campaign", "measured-bootstrap", "staged-cli")

# One BLAS thread, at most nproc: each workload is one client in one process,
# and the OpenBLAS bundled with numpy would otherwise start a thread per
# core, up to 64.
BLAS_THREADS = 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "nlosid" / "__init__.py",
                   ROOT / "configs" / "reference.json"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run the "
                  f"benchmark from an nlosid checkout", file=sys.stderr)
            return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import measure   # imports numpy, so only after the thread cap is set

    result, info = measure.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        work_root=ROOT / ".bench_work")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
