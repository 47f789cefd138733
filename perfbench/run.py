"""Benchmark for rightq: one workload per run, measured in this process.

    python3 perfbench/run.py --workload qmm_strong --seed 1 --seconds 40 --trace 0

--trace 0 makes one warm-up pass of the workload's end-to-end calls,
then repeats timed passes while the next one still ends within
--seconds, and prints the end-to-end metrics.  --trace 1 profiles one
pass with cProfile, then alternates an end-to-end pass with a pass that
makes the same public calls one at a time inside spans, within the same
time, and prints the per-layer metrics.  Every pass checks its outputs; the run exits 1 if a
check failed.  The last line of standard output is the JSON result, the
lines before it are "key<TAB>value" details.
"""

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rightq" / "__init__.py").is_file():
        print(
            f"perfbench: no rightq package at {SRC}; run from a rightq checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    return harness.main(args)


if __name__ == "__main__":
    sys.exit(main())
