"""Generate one workload's inputs into a directory (run as a child process of
run.py, so generation stays out of the measured process).

Usage: python3 perfbench/prepare.py --workload NAME --seed N --out DIR [--tiny]
       python3 perfbench/prepare.py --workload synth-train --seed 1 --out FILE --acceptance
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import bootstrap


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--acceptance", action="store_true",
                        help="write the acceptance run's CZSL accuracy and H to --out")
    args = parser.parse_args()
    bootstrap.import_library()
    import workloads

    if args.acceptance:
        workloads.acceptance_into(args.tiny, Path(args.out))
    else:
        workloads.prepare_into(workloads.get(args.workload, args.tiny), args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
