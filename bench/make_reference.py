"""Recompute the stored groebner-random answers: python3 bench/make_reference.py [SEEDS]

SEEDS is a range such as 0-20 (the default).  Each answer is the Kolchin
polynomial of one pool instance, kept only where the Groebner and the
prolongation routes agree; any disagreement aborts without writing.  Two
worker processes share the seeds.  Rerun it whenever the groebner-random
generator or GROEBNER_POOL changes.
"""

import multiprocessing
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def _row(seed: int):
    return seed, workloads.reference_row(seed)


def main(argv) -> int:
    first, _, last = (argv[0] if argv else "0-20").partition("-")
    seeds = range(int(first), int(last or first) + 1)
    rows = {}
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        for seed, row in pool.imap_unordered(_row, seeds):
            rows[seed] = row
            print(f"seed {seed}: {len(row)} answers", flush=True)
    workloads.write_reference(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
