"""Host drift check: raw seconds against reference-kernel units.

Usage (from the repository root): python3 bench/drift.py

Times one fixed batch of 60 so3 star products (twelve at each k = 1..5)
REPEATS times in each of SETS back-to-back sets, with a block of ten
reference-kernel calls timed right before every batch.  Prints, per set, the
median batch time in seconds and the median ratio batch / kernel block.  On a
host whose CPU speed drifts, the raw medians move between sets while the
ratios stay close; bench/README.md records one such measurement.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import gen  # noqa: E402
import liecontract as lc  # noqa: E402
import refkernel  # noqa: E402

SETS, REPEATS = 4, 15


def star_batch():
    rng = random.Random("drift")
    case = gen.catalogue_case(lc, "so3")
    split = lc.span_subalgebra(case.algebra, case.split_vectors)
    batch = []
    for k in range(1, 6):
        grp = lc.ExpansionGroup(split, k)
        for _ in range(12):
            a = grp.nil([gen.random_vector(rng, 3) for _ in range(k)], gen.random_vector(rng, 3))
            b = grp.nil([gen.random_vector(rng, 3) for _ in range(k)], gen.random_vector(rng, 3))
            batch.append((grp, a, b))
    return batch


def main():
    batch = star_batch()
    for grp, a, b in batch:
        grp.star(a, b)
    for s in range(SETS):
        raw, ratio = [], []
        for _ in range(REPEATS):
            start = time.perf_counter()
            for _ in range(10):
                refkernel.run()
            kernel = time.perf_counter() - start
            start = time.perf_counter()
            for grp, a, b in batch:
                grp.star(a, b)
            seconds = time.perf_counter() - start
            raw.append(seconds)
            ratio.append(seconds / kernel)
        print(f"set {s + 1}: median batch {statistics.median(raw):.3f} s "
              f"(range {min(raw):.3f}-{max(raw):.3f}), "
              f"median batch/kernel {statistics.median(ratio):.2f} "
              f"(range {min(ratio):.2f}-{max(ratio):.2f})")


if __name__ == "__main__":
    main()
