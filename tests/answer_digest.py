"""Print one SHA-1 over `solve`'s answers and both verification reports.

Run from the repository root:

    PYTHONPATH=src python tests/answer_digest.py

It is a script, not a test module, so pytest does not collect it.  The
inputs are criterion 2's 500 cases (tests/test_acceptance.py), the regular
3- to 600-gons at n = 1, 2, 3 and 7, the seed-1 inputs of the three
benchmark workloads (bench/workloads.py), and `random_polygon(65536,
seed=1)` of each model at n = 2, 64 and 1024, whose descents drop
thousands of rows at each hull and take the most quickhull rounds.  For each it hashes `solve`'s
rho, direction, winner, cuts, `Diagnostics` arrays and the stats that are
not timings, then the width residual, piece inradii and tolerance of the
report `solve` made and of a from-scratch `verify_solution`.  Two
versions of parcut that print the same digest gave the same answers bit
for bit.  Digests differ between numpy versions, so the script compares
nothing; it only prints.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

from parcut import canonicalize, random_polygon, regular_polygon, solve, verify_solution

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

_TIMINGS = ("build_ms", "solve_ms", "phases_ms")


def cases():
    """(canonical polygon, piece count) pairs, in a fixed order."""
    m_list, models = (8, 16, 32, 64, 128, 256), ("circle", "ellipse", "smoothed")
    for k in range(500):  # criterion 2
        yield random_polygon(m_list[k % 6], seed=k, model=models[k % 3]), 1 + k % 8
    for m in range(3, 601):
        P = regular_polygon(m)
        for n in (1, 2, 3, 7):
            yield P, n
    for name in workloads.WORKLOADS:
        for case in workloads.build(name, 1):
            yield canonicalize(case.vertices), case.n
    for model in ("circle", "ellipse", "smoothed"):
        P = random_polygon(65536, seed=1, model=model)
        for n in (2, 64, 1024):
            yield P, n


def _floats(*values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _report(h, rep) -> None:
    h.update(_floats(rep.width_residual, rep.tolerance, *rep.piece_inradii))


def main() -> None:
    h = hashlib.sha1()
    count = 0
    for P, n in cases():
        s = solve(P, n)
        h.update(_floats(s.rho, *s.direction, *(x for c in s.cuts for x in (*c.normal, c.offset))))
        h.update(repr((s.winner, sorted((k, v) for k, v in s.stats.items() if k not in _TIMINGS))).encode())
        h.update(s.diagnostics.root.tobytes() + s.diagnostics.f_at_M.tobytes())
        _report(h, s.verification)
        _report(h, verify_solution(P, n, s.rho, s.direction, s.cuts))
        count += 1
    print(f"{h.hexdigest()}  {count} cases")


if __name__ == "__main__":
    main()
