"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np

from parcut.dome import build_dome
from parcut.geometry import canonicalize, diameter, regular_polygon
from parcut.hierarchy import bounded_core, build_hierarchy, perturb
from parcut.lp import INFEASIBLE, OPTIMAL, small_lp
from parcut.oracle import oracle_solve, random_polygon
from parcut.queries import (
    QueryStats,
    lp_max,
    lp_max_constrained,
    lp_max_section,
)
from parcut.solver import solve, verify_solution

SQ3 = math.sqrt(3.0)

# criterion 6 envelope constants, pinned from measured headroom:
# lp_max_section inspections stay a factor >= 4 under 1.0 * log2(m)^3 and
# solve totals a factor >= 50 under 0.1 * m * log2(m)^4 across 2^6..2^16.
C_SECTION = 1.0
C_SOLVE = 0.1


def _report(criterion: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {criterion}" + (f" -- {detail}" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def _report_all(results):
    """Print every sub-result first, then assert, so one run shows all."""
    for criterion, ok, detail in results:
        tag = "PASS" if ok else "FAIL"
        print(f"[{tag}] {criterion}" + (f" -- {detail}" if detail else ""))
    failed = [c for c, ok, _ in results if not ok]
    assert not failed, f"failed: {failed}"


def test_criterion_1_closed_forms():
    """Square, equilateral triangle, regular hexagon against closed forms."""
    t0 = time.perf_counter()
    square = canonicalize([(0, 0), (1, 0), (1, 1), (0, 1)])
    tri = canonicalize([(0, 0), (1, 0), (0.5, SQ3 / 2)])
    hexa = regular_polygon(6)
    worst = 0.0
    for n in range(1, 9):
        for P, expect in (
            (square, 1.0 / (2 * n)),
            (tri, (SQ3 / 2) / (2 * n + 1)),
            (hexa, SQ3 / (2 * n)),
        ):
            got = solve(P, n).rho
            worst = max(worst, abs(got - expect) / expect)
    dt = time.perf_counter() - t0
    _report(
        "criterion 1: closed-form agreement",
        worst <= 1e-9 and dt < 1.0,
        f"worst rel err {worst:.2e}, runtime {dt:.2f}s",
    )


def test_criterion_2_oracle_equivalence():
    """500 random polygons: solver rho vs brute-force oracle rho."""
    t0 = time.perf_counter()
    m_list = [8, 16, 32, 64, 128, 256]
    models = ["circle", "ellipse", "smoothed"]
    worst = 0.0
    bad_direction = 0
    checked = 0
    for k in range(500):
        m = m_list[k % len(m_list)]
        P = random_polygon(m, seed=k, model=models[k % 3])
        n = 1 + k % 8
        s = solve(P, n)
        rho_o, v_o = oracle_solve(P, n)
        rel = abs(s.rho - rho_o) / max(rho_o, 1e-300)
        worst = max(worst, rel)
        checked += 1
        if not np.allclose(s.direction, v_o, atol=1e-7):
            # facet-tie equivalence: the solver's winning edge must carry a
            # root matching rho; its own diagnostics certify that
            d = s.diagnostics[s.winner]
            if not (d.qualifies and abs(d.root - rho_o) <= 1e-8 * max(rho_o, 1.0)):
                bad_direction += 1
    dt = time.perf_counter() - t0
    _report(
        "criterion 2: oracle equivalence (500 cases)",
        worst <= 1e-8 and bad_direction == 0 and dt < 300.0,
        f"worst rel err {worst:.2e}, direction mismatches {bad_direction}, "
        f"runtime {dt:.1f}s over {checked} cases",
    )


def test_criterion_3_and_4_self_consistency_and_pieces():
    """Width identity and piece optimality on a fresh random sample."""
    worst_width = 0.0
    worst_piece = 0.0
    for k in range(60):
        P = random_polygon(8 + (k * 7) % 120, seed=1000 + k)
        n = 1 + k % 8
        s = solve(P, n)
        d = diameter(P)
        rep = verify_solution(P, n, s.rho, s.direction, s.cuts)
        worst_width = max(worst_width, abs(rep.width_residual) / d)
        worst_piece = max(
            worst_piece,
            abs(rep.max_piece_inradius - s.rho) / d,
            max(0.0, max(rep.piece_inradii) - s.rho) / d,
        )
    _report(
        "criterion 3: self-consistency width(P^rho) = 2 n rho",
        worst_width <= 1e-8,
        f"worst residual {worst_width:.2e} of diameter",
    )
    _report(
        "criterion 4: piece optimality at rho",
        worst_piece <= 1e-8,
        f"worst inradius gap {worst_piece:.2e} of diameter",
    )


def test_criterion_5_lp_query_correctness():
    """1e4 randomized hierarchy queries against the direct LP oracle."""
    rng = np.random.default_rng(2026)
    total = 0
    worst = 0.0
    presence_bad = 0
    t0 = time.perf_counter()
    while total < 10_000:
        m = int(rng.integers(8, 96))
        P = random_polygon(m, seed=int(rng.integers(1 << 30)))
        D0 = build_dome(P)
        Dp = perturb(D0, seed=int(rng.integers(1 << 30)))
        H = build_hierarchy(Dp, bounded_core(Dp), original=D0)
        rows = list(H.rows)
        apex = lp_max(H, (0.0, 0.0, 1.0)).value
        for _ in range(120):
            kind = total % 3
            c = tuple(rng.normal(size=3))
            seed = total
            if kind == 0:
                got = lp_max(H, c)
                ref = small_lp(rows, c, seed=seed)
            elif kind == 1:
                nrm = rng.normal(size=3)
                nrm /= np.linalg.norm(nrm)
                d = float(nrm @ (0.0, 0.0, rng.uniform(0.0, apex)))
                got = lp_max_section(H, (tuple(nrm), d), c)
                ref = small_lp(rows, c, seed=seed, equalities=[(tuple(nrm), d)])
            else:
                g = rng.normal(size=3)
                g /= np.linalg.norm(g)
                hoff = float(rng.uniform(-0.5, 0.8))
                got = lp_max_constrained(H, c, (tuple(g), hoff))
                ref = small_lp(rows + [(tuple(g), hoff)], c, seed=seed)
            total += 1
            if ref.status != OPTIMAL:
                if got.status != INFEASIBLE:
                    presence_bad += 1
                continue
            if got.status != OPTIMAL:
                presence_bad += 1
                continue
            rel = abs(got.value - ref.value) / max(1.0, abs(ref.value))
            worst = max(worst, rel)
    dt = time.perf_counter() - t0
    _report(
        "criterion 5: LP-query correctness (1e4 queries)",
        worst <= 1e-9 and presence_bad == 0,
        f"worst rel err {worst:.2e}, status mismatches {presence_bad}, {dt:.1f}s",
    )


def test_criterion_6_complexity_envelopes():
    """Instrumented envelopes, depth and storage bounds, wall-clock sanity."""
    rng = np.random.default_rng(7)
    section_ok = True
    section_detail = []
    solve_ok = True
    depth_ok = True
    storage_ok = True
    times = {}
    import gc

    for e in range(6, 17, 2):
        m = 2**e
        P = regular_polygon(m)
        gc.collect()
        t0 = time.perf_counter()
        s = solve(P, 2)
        times[m] = time.perf_counter() - t0
        log2m = math.log2(m)
        if s.stats["vertex_inspections"] > C_SOLVE * m * log2m**4:
            solve_ok = False

        D0 = build_dome(P)
        Dp = perturb(D0, seed=3)
        H = build_hierarchy(Dp, bounded_core(Dp), original=D0)
        if H.depth > math.log(m) / math.log(6 / 5) + 2:
            depth_ok = False
        if H.total_vertices() > 12 * m:
            storage_ok = False
        apex = lp_max(H, (0.0, 0.0, 1.0)).value
        stats = QueryStats()
        reps = 25
        for _ in range(reps):
            nrm = rng.normal(size=3)
            nrm /= np.linalg.norm(nrm)
            d = float(nrm @ (0.0, 0.0, rng.uniform(0.0, apex)))
            lp_max_section(H, (tuple(nrm), d), tuple(rng.normal(size=3)), stats)
        per_query = stats.vertex_inspections / reps
        section_detail.append(f"m=2^{e}:{per_query:.0f}")
        if per_query > C_SECTION * log2m**3:
            section_ok = False

    wall = times[65536]
    ratios = [times[4 * m] / times[m] for m in (4096, 16384)]
    _report_all(
        [
            (
                "criterion 6a: lp_max_section inspections <= C log^3 m",
                section_ok,
                f"C={C_SECTION}, per-query inspections {' '.join(section_detail)}",
            ),
            (
                "criterion 6b: solve inspections <= C m log^4 m",
                solve_ok,
                f"C={C_SOLVE}",
            ),
            ("criterion 6c: hierarchy depth <= log_1.2(m) + 2", depth_ok, ""),
            ("criterion 6d: hierarchy storage <= 12 m vertices", storage_ok, ""),
            (
                "criterion 6e: solve(regular 65536-gon) < 10 s",
                wall < 10.0,
                f"measured {wall:.2f}s",
            ),
            (
                "criterion 6f: solve_ms(4m)/solve_ms(m) < 6 for m >= 4096",
                all(r < 6.0 for r in ratios),
                "ratios " + ", ".join(f"{r:.2f}" for r in ratios),
            ),
        ]
    )


def test_criterion_7_invariance():
    """Rigid-motion equivariance, scale covariance, monotonicity in n."""
    rng = np.random.default_rng(99)
    worst_rho = 0.0
    worst_dir = 0.0
    worst_scale = 0.0
    mono_bad = 0
    for k in range(50):
        P = random_polygon(8 + (k * 5) % 64, seed=4000 + k)
        n = 2 + k % 5
        base = solve(P, n)

        th = rng.uniform(0, 2 * math.pi)
        R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        u = rng.normal(size=2) * rng.uniform(0.1, 50)
        P2 = canonicalize(P.vertices @ R.T + u)
        s2 = solve(P2, n)
        worst_rho = max(worst_rho, abs(s2.rho - base.rho) / base.rho)
        want = R @ np.asarray(base.direction)
        err = float(np.linalg.norm(want - s2.direction))
        if err > 1e-7:
            d = s2.diagnostics[s2.winner]
            if not (d.qualifies and abs(d.root - base.rho) <= 1e-8 * base.rho):
                worst_dir = max(worst_dir, err)

        lam = float(rng.choice([0.1, 3.0, 1000.0]))
        s3 = solve(canonicalize(P.vertices * lam), n)
        worst_scale = max(worst_scale, abs(s3.rho - lam * base.rho) / (lam * base.rho))

        rhos = [solve(P, nn).rho for nn in range(1, 5)]
        if not all(a > b for a, b in zip(rhos, rhos[1:])):
            mono_bad += 1

    _report(
        "criterion 7: invariance suite",
        worst_rho <= 1e-9 and worst_dir == 0.0 and worst_scale <= 1e-9 and mono_bad == 0,
        f"rigid rel {worst_rho:.2e}, dir mismatches {worst_dir:.2e}, "
        f"scale rel {worst_scale:.2e}, monotonicity violations {mono_bad}",
    )
