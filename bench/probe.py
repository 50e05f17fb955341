"""Set-up probe: a fresh process that imports nlosid and builds one
workload's inputs, then exits.  measure.py times it from spawn to exit.

    python3 bench/probe.py WORKLOAD SEED INPUT_DIR [--tiny]
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("inputs", type=Path)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    workload = workloads.make(args.workload, ROOT, args.seed, args.tiny)
    workload.build(args.inputs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
