"""Print one SHA-1 over `solve`'s answers and both verification reports,
and a second over the paper's engine: its hierarchies and LP queries.

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
for bit.

The engine digest covers the regular hexagon at n = 3 and criterion 8's
polygons up to 2^10 edges (tests/test_acceptance.py), the regular 64-gon
among them.  For each it hashes the hierarchy's `dump()` and its vertex
store's points and facet triples; `lp_max`, `lp_max_section` and
`lp_max_constrained` on a fixed batch of objectives, planes and extra
half-spaces drawn from seed 0; `root_lp` on every edge; and the
vertex inspections of all those queries.  It takes a few seconds.

Digests differ between numpy versions, so the script compares nothing;
it only prints.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

from parcut import canonicalize, random_polygon, regular_polygon, solve, verify_solution
from parcut.dome import build_dome
from parcut.errors import NotQualifiedError
from parcut.hierarchy import build_hierarchy
from parcut.queries import QueryStats, lp_max, lp_max_constrained, lp_max_section, root_lp

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


def engine_cases():
    """(canonical polygon, piece count) pairs for the engine, in a fixed order."""
    yield regular_polygon(6), 3
    for e in (6, 8, 10):  # criterion 8, up to 2^10 edges
        yield regular_polygon(2**e), 3
    for k, e in enumerate(range(6, 11)):
        yield random_polygon(2**e, seed=e, model=("circle", "ellipse", "smoothed")[k % 3]), 2 + k % 4


def _floats(*values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _report(h, rep) -> None:
    h.update(_floats(rep.width_residual, rep.tolerance, *rep.piece_inradii))


def _lp(h, res) -> None:
    h.update(repr((res.status, res.basis)).encode())
    if res.point is not None:
        h.update(_floats(*res.point, res.value))


def engine_digest() -> str:
    h = hashlib.sha1()
    count = 0
    for P, n in engine_cases():
        H = build_hierarchy(build_dome(P))
        h.update(H.dump().encode() + repr(H.store.tris).encode())
        h.update(_floats(*(x for p in H.store.pts for x in p)))
        stats = QueryStats()
        apex = lp_max(H, (0.0, 0.0, 1.0), stats).point
        rng = np.random.default_rng(0)
        for _ in range(20):
            c = tuple(rng.normal(size=3))
            g = tuple(rng.normal(size=3))
            u = rng.uniform(-0.3, 0.3, size=2) * H.scale
            p = (apex[0] + u[0], apex[1] + u[1], apex[2] * rng.uniform())
            d = g[0] * p[0] + g[1] * p[1] + g[2] * p[2]
            _lp(h, lp_max(H, c, stats))
            _lp(h, lp_max_section(H, (g, d), c, stats))
            _lp(h, lp_max_constrained(H, c, (g, d), stats))
        roots = []
        for i in range(P.m):
            try:
                roots.append(root_lp(H, P, i, n, stats))
            except NotQualifiedError:
                roots.append(np.nan)
        h.update(_floats(*roots) + repr(stats.vertex_inspections).encode())
        count += 1
    return f"{h.hexdigest()}  engine, {count} hierarchies"


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
    print(engine_digest())


if __name__ == "__main__":
    main()
