import math
import warnings
from collections import Counter

import numpy as np
import pytest

from parcut.errors import EmptyInteriorError, NonFiniteInputError, UnboundedError
from parcut.lp import OPTIMAL, small_lp
from parcut.oracle import random_polygon
from parcut.solver import solve
from parcut.geometry import (
    HPolygon,
    VPolygon,
    _convex_hull_ccw,
    canonicalize,
    chebyshev_lp,
    clip_halfplane,
    diameter,
    directional_width,
    inner_body,
    inradius_incenter,
    min_width,
    regular_polygon,
)

SQ3 = math.sqrt(3.0)


def unit_square() -> HPolygon:
    return canonicalize([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def equilateral() -> HPolygon:
    return canonicalize([(0.0, 0.0), (1.0, 0.0), (0.5, SQ3 / 2)])


def hexagon() -> HPolygon:
    return regular_polygon(6)


class TestCanonicalize:
    def test_unit_square_rows(self):
        P = unit_square()
        assert P.m == 4
        got = {(round(a[0], 12), round(a[1], 12), round(off, 12)) for a, off in zip(P.A, P.b)}
        assert got == {(1, 0, 1), (0, 1, 1), (-1, 0, 0), (0, -1, 0)}
        # canonical start: smallest angle in [0, 2pi) first
        assert P.A[0] == pytest.approx((1.0, 0.0))

    def test_redundant_rows_dropped(self):
        A = [(1, 0), (1, 0), (0, 1), (-1, 0), (0, -1), (1, 0)]
        b = [1, 1, 1, 0, 0, 5]
        P = canonicalize((np.array(A, float), np.array(b, float)))
        assert P.m == 4
        ref = unit_square()
        assert np.allclose(P.A, ref.A)
        assert np.allclose(P.b, ref.b)

    def test_contradictory_slab_is_empty(self):
        with pytest.raises(EmptyInteriorError):
            canonicalize((np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.0, -1.0])))

    def test_unbounded(self):
        with pytest.raises(UnboundedError):
            canonicalize((np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0])))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input(self, bad):
        verts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        A = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        b = np.array([1.0, 1.0, 0.0, 0.0])
        A_bad, b_bad, v_bad = A.copy(), b.copy(), np.array(verts)
        A_bad[1, 0] = b_bad[2] = v_bad[2, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for obj in (v_bad, VPolygon(v_bad), (A_bad, b), (A, b_bad), HPolygon(A_bad, b, v_bad)):
                with pytest.raises(NonFiniteInputError):
                    canonicalize(obj)

    def test_vertex_cycle_convention(self):
        P = unit_square()
        # vertices[j] = rows j and j+1 meeting point
        assert P.vertices[0] == pytest.approx((1.0, 1.0))
        assert P.vertices[3] == pytest.approx((1.0, 0.0))

    def test_idempotent_bit_for_bit(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pts = rng.normal(size=(12, 2)) * rng.uniform(0.5, 40)
            P1 = canonicalize(pts)
            P2 = canonicalize(P1)
            assert P1.A.tobytes() == P2.A.tobytes()
            assert P1.b.tobytes() == P2.b.tobytes()
            assert P1.vertices.tobytes() == P2.vertices.tobytes()


class TestWidths:
    def test_square_axis(self):
        assert directional_width(unit_square(), (1.0, 0.0)) == pytest.approx(1.0)

    def test_square_diagonal(self):
        d = math.sqrt(0.5)
        assert directional_width(unit_square(), (d, d)) == pytest.approx(math.sqrt(2))

    def test_triangle_height(self):
        P = equilateral()
        # outward normal of the base edge y = 0 is (0, -1)
        assert directional_width(P, (0.0, -1.0)) == pytest.approx(SQ3 / 2)

    def test_min_width_square(self):
        w = min_width(unit_square())
        assert w.width == pytest.approx(1.0)
        assert abs(w.direction[0]) == pytest.approx(1.0) or abs(w.direction[1]) == pytest.approx(1.0)

    def test_min_width_triangle_brute(self):
        P = equilateral()
        w = min_width(P)
        brute = min(directional_width(P, a) for a in P.A)
        assert w.width == pytest.approx(SQ3 / 2)
        assert w.width == pytest.approx(brute)

    def test_min_width_hexagon(self):
        P = hexagon()
        w = min_width(P)
        brute = min(directional_width(P, a) for a in P.A)
        assert w.width == pytest.approx(SQ3)
        assert w.width == pytest.approx(brute)

    def test_min_width_is_global_min_random(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            P = canonicalize(rng.normal(size=(16, 2)))
            w = min_width(P).width
            for _ in range(100):
                th = rng.uniform(0, 2 * math.pi)
                assert w <= directional_width(P, (math.cos(th), math.sin(th))) + 1e-9


def _min_width_loop(P):
    """Reference: rotating calipers with an advancing antipodal pointer."""
    A, b, verts = P.A, P.b, P.vertices
    m = P.m
    j = int(np.argmin(verts @ A[0]))
    best = None
    for i in range(m):
        cur = A[i] @ verts[j]
        for _ in range(m):
            nxt = A[i] @ verts[(j + 1) % m]
            if nxt >= cur:
                break
            j = (j + 1) % m
            cur = nxt
        if best is None or b[i] - cur < best[0]:
            best = (b[i] - cur, i)
    return best


def _clip_loop(vertices, a, off, eps=1e-12):
    """Reference: Sutherland-Hodgman, one vertex at a time."""
    out = []
    k = len(vertices)
    for i in range(k):
        p, q = vertices[i], vertices[(i + 1) % k]
        sp = a @ p - off
        sq = a @ q - off
        if sp <= eps:
            out.append(p)
        if (sp < -eps and sq > eps) or (sp > eps and sq < -eps):
            out.append(p + sp / (sp - sq) * (q - p))
    return np.array(out).reshape(-1, 2)


def _diameter_loop(P):
    """Reference: rotating calipers, one edge at a time."""
    verts = P.vertices.tolist()
    m = len(verts)
    best = 0.0
    j = 1
    for i in range(m):
        px, py = verts[i]
        qx, qy = verts[(i + 1) % m]
        ex = qx - px
        ey = qy - py
        jx, jy = verts[j]
        while True:
            jn = j + 1 if j + 1 < m else 0
            nx, ny = verts[jn]
            if ex * (ny - jy) - ey * (nx - jx) > 0:
                j, jx, jy = jn, nx, ny
            else:
                break
        for wx, wy in (verts[j], verts[(j + 1) % m]):
            best = max(best, math.hypot(wx - px, wy - py))
    return best


def _hull_loop(points):
    """Reference: monotone chain over the sorted set of distinct points.  A
    turn o -> a -> p counts when its cross product exceeds
    4e-16 |a - o|_1 |p - o|_1, about the most it can round by."""
    pts = sorted({(float(p[0]), float(p[1])) for p in points})

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                ux, uy, vx, vy = a[0] - o[0], a[1] - o[1], p[0] - o[0], p[1] - o[1]
                if ux * vy - uy * vx <= 4e-16 * (abs(ux) + abs(uy)) * (abs(vx) + abs(vy)):
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    return np.array(build(pts)[:-1] + build(reversed(pts))[:-1])


def _finish_loop(A, b):
    """Reference: rotate to the smallest normal angle, then one corner at a time."""
    start = int(np.argmin(np.arctan2(A[:, 1], A[:, 0]) % (2 * math.pi)))
    A = np.vstack([A[start:], A[:start]])
    b = np.concatenate([b[start:], b[:start]])
    m = len(b)
    verts = np.empty((m, 2))
    for j in range(m):
        a1, b1, a2, b2 = A[j], b[j], A[(j + 1) % m], b[(j + 1) % m]
        det = a1[0] * a2[1] - a1[1] * a2[0]
        verts[j] = ((b1 * a2[1] - b2 * a1[1]) / det, (a1[0] * b2 - a2[0] * b1) / det)
    return A, b, verts


def _canonicalize_vertices_loop(points):
    """Reference: the vertex path one edge at a time."""
    hull = _hull_loop(points)
    k = len(hull)
    A = np.empty((k, 2))
    b = np.empty(k)
    for j in range(k):
        p, q = hull[j], hull[(j + 1) % k]
        d = q - p
        n = np.array([d[1], -d[0]])
        n /= np.linalg.norm(n)
        A[j] = n
        b[j] = n @ p
    return _finish_loop(A, b)


def _canonicalize_rows_loop(A, b):
    """Reference: the row path one row at a time, its interior point from
    one LP over every row (unit rows only)."""
    res = small_lp([((a[0], a[1], 1.0), off) for a, off in zip(A, b)], (0.0, 0.0, 1.0))
    c = res.point[:2]
    duals = {}
    for i, (a, off) in enumerate(zip(A, b)):
        depth = off - (a[0] * c[0] + a[1] * c[1])
        duals.setdefault((a[0] / depth, a[1] / depth), i)
    chosen = sorted(
        {duals[(float(p[0]), float(p[1]))] for p in _hull_loop(np.array(list(duals)))},
        key=lambda i: math.atan2(A[i][1], A[i][0]) % (2 * math.pi),
    )
    return _finish_loop(A[chosen], b[chosen])


def _test_polygons(rng):
    polys = [regular_polygon(m) for m in (3, 4, 6, 64, 1024, 65536)]
    polys += [canonicalize(rng.normal(size=(int(rng.integers(3, 60)), 2)) * 10 ** rng.uniform(-3, 3)) for _ in range(30)]
    polys += [random_polygon(int(rng.integers(3, 3000)), seed=k, model=("circle", "ellipse", "smoothed")[k % 3]) for k in range(12)]
    return polys


def _dual_cloud(P, t):
    """The polar dual of P's rows moved in by t, about P's incenter: the
    cloud whose hull `inner_body(P, t)` takes."""
    _, c = inradius_incenter(P)
    return P.A / (P.b - t - P.A @ np.asarray(c))[:, None]


def _graded_cloud(corners=100, run=40, per_halving=4.0):
    """Corners on the unit circle whose angles halve every `per_halving`
    corners, so that a quickhull split cuts few of them off, and between
    each two a run of points on an arc inside their chord.  The runs turn
    left among themselves, so dropping right turns only wears them down
    from their ends; chord tests remove the rest."""
    th = np.sort(np.append(math.pi * 2.0 ** (-np.arange(corners) / per_halving), -math.pi / 2))
    s = np.linspace(0.0, 1.0, run + 2)[1:-1]
    arcs = [(1 - (b - a) ** 2 / 4) * np.stack([np.cos(a + s * (b - a)), np.sin(a + s * (b - a))], axis=1)
            for a, b in zip(th[:-1], th[1:])]
    return np.concatenate([np.stack([np.cos(th), np.sin(th)], axis=1)] + arcs)


def _assert_hull_is_loops(points):
    """Same corners as the loop reference, in the same cyclic order."""
    got = points[_convex_hull_ccw(points)]
    start = np.lexsort((got[:, 1], got[:, 0]))[0]
    assert np.array_equal(np.roll(got, -start, axis=0), _hull_loop(points))


class TestConvexHull:
    def test_contract(self):
        square = [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert _convex_hull_ccw(np.array(square, float)).tolist() == [0, 1, 2, 3]
        # duplicates keep their lowest index; interior and collinear points go
        pts = np.array(square + [(1, 0), (0.5, 0.5), (0.5, 0), (0, 0), (1, 1)], float)
        assert _convex_hull_ccw(pts).tolist() == [0, 1, 2, 3]
        assert _convex_hull_ccw(pts[::-1]).tolist() == [1, 4, 0, 5]
        for bad in ([(0, 0), (1, 1), (2, 2), (3, 3)], [(0, 0), (1, 0), (0, 0)]):
            with pytest.raises(EmptyInteriorError):
                _convex_hull_ccw(np.array(bad, float))

    @pytest.mark.parametrize("model", ["circle", "ellipse", "smoothed"])
    def test_dual_cloud_at_rho(self, model):
        # the ellipse of seed 2 loses a run of 2101 consecutive rows at rho,
        # which dropping reflex points one round at a time would peel for
        # a thousand rounds
        P = random_polygon(16384, seed=2, model=model)
        _assert_hull_is_loops(_dual_cloud(P, solve(P, 2).rho))

    def test_graded_angles(self):
        _assert_hull_is_loops(_graded_cloud())


class TestAgainstLoops:
    def test_diameter(self):
        rng = np.random.default_rng(23)
        for P in _test_polygons(rng):
            assert diameter(P) == pytest.approx(_diameter_loop(P), rel=1e-15)

    def test_canonicalize_vertices(self):
        # the same arithmetic, so the same bits
        rng = np.random.default_rng(24)
        clouds = [P.vertices for P in _test_polygons(rng)]
        clouds += [rng.normal(size=(int(rng.integers(3, 500)), 2)) + rng.normal(size=2) * 100 for _ in range(30)]
        clouds += [np.round(rng.normal(size=(40, 2)), 1) for _ in range(10)]  # duplicates, collinear runs
        for pts in clouds:
            P = canonicalize(pts)
            for got, ref in zip((P.A, P.b, P.vertices), _canonicalize_vertices_loop(pts)):
                assert got.tobytes() == ref.tobytes()

    def test_canonicalize_rows(self):
        # shuffled rows of P plus redundant ones give P's rows back, bit for bit
        rng = np.random.default_rng(25)
        for P in [P for P in _test_polygons(rng) if P.m <= 4096]:
            extra = rng.normal(size=(P.m // 2 + 1, 2))
            extra /= np.linalg.norm(extra, axis=1)[:, None]
            A = np.vstack([P.A, extra])
            lift = rng.uniform(0.01, 1.0, len(extra)) * np.abs(P.b).max()
            b = np.concatenate([P.b, (extra @ P.vertices.T).max(axis=1) + lift])
            perm = rng.permutation(len(b))
            Q = canonicalize((A[perm], b[perm]))
            for got, ref in zip((Q.A, Q.b, Q.vertices), _canonicalize_rows_loop(A[perm], b[perm])):
                assert got.tobytes() == ref.tobytes()
            assert Q.A.tobytes() == P.A.tobytes() and Q.b.tobytes() == P.b.tobytes()

    def test_chebyshev_lp_on_unsorted_rows(self):
        # the start sample comes from the rows in angle order, whatever order they come in
        rng = np.random.default_rng(26)
        for k in range(6):
            P = random_polygon(300 + 200 * k, seed=40 + k, model=("circle", "ellipse", "smoothed")[k % 3])
            perm = rng.permutation(P.m)
            rows = [((a[0], a[1], 1.0), off) for a, off in zip(P.A[perm], P.b[perm])]
            ref = small_lp(rows, (0.0, 0.0, 1.0))
            got = chebyshev_lp(P.A[perm], P.b[perm])
            assert got.status == ref.status == OPTIMAL
            assert got.value == pytest.approx(ref.value, abs=1e-12)

    def test_chebyshev_lp_hint_falls_back(self):
        # near the middle of a finely sampled arc the 4 rows of least depth
        # have nearly equal normals, so the hinted start is unbounded; the
        # LP starts again from every row (m <= 128) or from the angle bins
        # (m > 128) and reaches the optimum it reaches without the hint
        floor = ((0.0, 0.0, -1.0), 0.0)
        for P in (regular_polygon(100), random_polygon(120, seed=3, model="ellipse"),
                  regular_polygon(1000), random_polygon(700, seed=4, model="smoothed")):
            scale = float(np.abs(P.b).max())
            for j in (0, P.m // 3):
                point = 0.99 * (P.vertices[j - 1] + P.vertices[j]) / 2  # inside, by edge j
                for extras in ((), (floor,)):
                    ref = chebyshev_lp(P.A, P.b, extras)
                    fallbacks = Counter()
                    got = chebyshev_lp(P.A, P.b, extras, point, fallbacks)
                    assert got.status == ref.status == OPTIMAL
                    assert abs(got.value - ref.value) <= 1e-12 * scale
                    assert fallbacks == Counter(hint=1)

    def test_min_width(self):
        rng = np.random.default_rng(21)
        polys = [regular_polygon(m) for m in (3, 4, 6, 64, 1024)]
        polys += [canonicalize(rng.normal(size=(int(rng.integers(3, 60)), 2))) for _ in range(40)]
        polys += [inner_body(P, 0.3 * inradius_incenter(P)[0]) for P in polys[5:25]]
        for P in polys:
            w = min_width(P)
            ref_w, ref_i = _min_width_loop(P)
            assert w.width == pytest.approx(ref_w, abs=1e-14)
            assert P.b[w.edge_index] - P.A[w.edge_index] @ P.vertices[w.opposite_vertex] == (
                pytest.approx(w.width, abs=1e-14)
            )
            # a different edge only on a tie at rounding level
            assert w.edge_index == ref_i or abs(w.width - ref_w) <= 1e-14

    def test_clip_halfplane(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            P = canonicalize(rng.normal(size=(int(rng.integers(3, 30)), 2)))
            a = rng.normal(size=2)
            a /= np.linalg.norm(a)
            off = float(a @ P.vertices[int(rng.integers(P.m))]) * rng.choice([1.0, 0.5, 1.5])
            got = clip_halfplane(P.vertices, a, off)
            ref = _clip_loop(P.vertices, a, off)
            assert got.shape == ref.shape
            assert np.allclose(got, ref, rtol=0.0, atol=1e-14)


class TestInnerBody:
    def test_square_quarter(self):
        Q = inner_body(unit_square(), 0.25)
        assert Q is not None
        got = sorted(map(tuple, np.round(Q.vertices, 12).tolist()))
        assert got == [(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)]

    def test_square_beyond_inradius(self):
        assert inner_body(unit_square(), 0.6) is None

    def test_triangle_similar(self):
        # inradius r = sqrt(3)/6; at t = sqrt(3)/12 the inner triangle has side 1/2
        Q = inner_body(equilateral(), SQ3 / 12)
        assert Q is not None
        assert Q.m == 3
        side = np.linalg.norm(Q.vertices[0] - Q.vertices[1])
        assert side == pytest.approx(0.5, rel=1e-9)

    def test_nested_and_antitone(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            P = canonicalize(rng.normal(size=(10, 2)))
            r, _ = inradius_incenter(P)
            ts = sorted(rng.uniform(0, r * 0.95, size=3))
            polys = [inner_body(P, t) for t in ts]
            scale = diameter(P)
            for smaller, larger in zip(polys[1:], polys[:-1]):
                for v in smaller.vertices:
                    assert larger.contains(v, scale=scale)
            for Q in polys:
                for v in Q.vertices:
                    assert P.contains(v, scale=scale)

    def test_width_offset_identity(self):
        # width(P^t) = width(inner_t) + 2t, evaluated over edge normals
        rng = np.random.default_rng(3)
        for _ in range(8):
            P = canonicalize(rng.normal(size=(12, 2)))
            r, _ = inradius_incenter(P)
            for t in rng.uniform(0, r * 0.9, size=4):
                Q = inner_body(P, t)
                lhs = min(directional_width(Q, a) for a in P.A) + 2 * t
                assert lhs == pytest.approx(min_width(Q).width + 2 * t, rel=1e-9)

    def test_given_incenter_changes_nothing(self):
        # P's incenter decides emptiness as I_t's own Chebyshev LP does, and
        # the dual hull about it keeps the same rows
        draws = [random_polygon(int(m), seed=k, model=("circle", "ellipse", "smoothed")[k % 3])
                 for k, m in enumerate(np.geomspace(3, 3000, 30).astype(int))]
        for P in draws:
            r, c = inradius_incenter(P)
            for t in (0.1 * r, 0.5 * r, 0.9 * r):
                got, ref = inner_body(P, t, c), inner_body(P, t)
                for x, y in zip((got.A, got.b, got.vertices), (ref.A, ref.b, ref.vertices)):
                    assert x.tobytes() == y.tobytes()
        for P in draws + [canonicalize([(0, 0), (2, 0), (2, 1), (0, 1)])]:
            r, c = inradius_incenter(P)
            for t in (r, 1.001 * r):
                assert inner_body(P, t, c) is None and inner_body(P, t) is None


class TestInradius:
    def test_square(self):
        r, c = inradius_incenter(unit_square())
        assert r == pytest.approx(0.5)
        assert c == pytest.approx((0.5, 0.5))

    def test_triangle(self):
        r, _ = inradius_incenter(equilateral())
        assert r == pytest.approx(SQ3 / 6, rel=1e-9)

    def test_hexagon(self):
        r, _ = inradius_incenter(hexagon())
        assert r == pytest.approx(SQ3 / 2, rel=1e-9)

    def test_matches_inner_body_threshold(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            P = canonicalize(rng.normal(size=(8, 2)))
            r, _ = inradius_incenter(P)
            assert inner_body(P, r * 0.999) is not None
            assert inner_body(P, r * 1.001) is None


def test_diameter_square():
    assert diameter(unit_square()) == pytest.approx(math.sqrt(2))


def test_vpolygon_roundtrip():
    P = canonicalize(VPolygon(np.array([(0, 0), (2, 0), (2, 1), (0, 1)], float)))
    assert P.m == 4
    assert diameter(P) == pytest.approx(math.sqrt(5))
