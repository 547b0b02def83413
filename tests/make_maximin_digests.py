"""Record sha256 digests of maximin designs for ``tests/test_design.py``.

Run by hand, from the repository root, with ``src`` on the path:

    PYTHONPATH=src python tests/make_maximin_digests.py
    PYTHONPATH=src python tests/make_maximin_digests.py --check [--max-n 160]

The first form rewrites ``tests/data/maximin_digests.json``: for each case
(n, k, seed, candidates) of the grid below, the sha256 of
``maximin_lhd(n, unit box, seed, candidates).unit_points.tobytes()``. The
unit points do not depend on the box's bounds. The digests pin the designs
bit for bit, so a change to the swap scan or to the candidate scoring that
moves any design shows here. ``--check`` recomputes every recorded case
with n up to ``--max-n`` and exits 1 naming each case that differs; the
whole grid takes a few minutes, most of it at n=320.
"""

import argparse
import hashlib
import json
import os
import sys

from opemu import DesignSpace, maximin_lhd

NS = (2, 3, 5, 12, 20, 40, 80, 160, 320)
KS = (1, 3, 8)
SEEDS = tuple(range(10))
CANDIDATES = (1, 10, 100)

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "maximin_digests.json")


def digest(n: int, k: int, seed: int, candidates: int) -> str:
    space = DesignSpace(bounds=[(0.0, 1.0)] * k)
    return hashlib.sha256(maximin_lhd(n, space, seed, candidates).unit_points.tobytes()).hexdigest()


def check(select) -> tuple:
    """Recompute the recorded cases that ``select`` keeps: the number of
    designs checked and a line naming each design that differs."""
    with open(OUT, encoding="utf-8") as fh:
        cases = json.load(fh)["cases"]
    checked, bad = 0, []
    for case in filter(select, cases):
        for seed, recorded in zip(SEEDS, case["sha256"]):
            checked += 1
            if digest(case["n"], case["k"], seed, case["candidates"]) != recorded:
                bad.append(f"n={case['n']} k={case['k']} seed={seed} "
                           f"candidates={case['candidates']}")
    return checked, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the recorded digests instead of rewriting them")
    parser.add_argument("--max-n", type=int, default=max(NS),
                        help="largest n to check (default: the whole grid)")
    args = parser.parse_args(argv)
    if args.check:
        checked, bad = check(lambda case: case["n"] <= args.max_n)
        print(f"{checked} designs checked, {len(bad)} differ")
        for line in bad:
            print("  differs:", line)
        return 1 if bad else 0
    cases = [{"n": n, "k": k, "candidates": c,
              "sha256": [digest(n, k, seed, c) for seed in SEEDS]}
             for n in NS for k in KS for c in CANDIDATES]
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"generator": "tests/make_maximin_digests.py", "seeds": list(SEEDS),
                   "cases": cases}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
