import itertools
import math

import numpy as np
import pytest

import parcut.dome as dome_mod
from hierarchy_checks import check_hierarchy
from lp_reference import reference_lp
from parcut.dome import build_dome, facet_lifetimes
from parcut.errors import GeometryError
from parcut.geometry import canonicalize, inner_body, inradius_incenter, regular_polygon
from parcut.hierarchy import bounded_core, build_hierarchy, face_lattice, perturb
from parcut.oracle import random_polygon
from parcut.lp import OPTIMAL, small_lp
from parcut.tolerance import slack

SQ3 = math.sqrt(3.0)


def unit_square():
    return canonicalize([(0, 0), (1, 0), (1, 1), (0, 1)])


def equilateral():
    return canonicalize([(0, 0), (1, 0), (0.5, SQ3 / 2)])


def brute_force_vertices(D, tol=1e-9):
    """Independent lattice oracle: feasible concurrences of plane triples."""
    rows = D.row_list()
    found = []
    for (i, (n1, o1)), (j, (n2, o2)), (k, (n3, o3)) in itertools.combinations(
        enumerate(rows), 3
    ):
        A = np.array([n1, n2, n3], float)
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        p = np.linalg.solve(A, [o1, o2, o3])
        ok = all(np.dot(n, p) <= o + tol for n, o in rows)
        if ok and not any(np.allclose(p, q, atol=1e-7) for q in found):
            found.append(p)
    return found


class TestBuildDome:
    def test_square_rows(self):
        D = build_dome(unit_square())
        assert D.m == 4
        assert D.normals.shape == (5, 3)
        assert tuple(D.normals[4]) == (0.0, 0.0, -1.0)
        # apex = incenter at inradius height
        res = small_lp(D.row_list()[:5], (0, 0, 1))
        assert res.point == pytest.approx((0.5, 0.5, 0.5), abs=1e-9)

    def test_triangle_apex(self):
        D = build_dome(equilateral())
        res = small_lp(D.row_list()[:4], (0, 0, 1))
        assert res.value == pytest.approx(SQ3 / 6, rel=1e-9)

    def test_hexagon_apex(self):
        D = build_dome(regular_polygon(6))
        res = small_lp(D.row_list()[:7], (0, 0, 1))
        assert res.value == pytest.approx(SQ3 / 2, rel=1e-9)

    def test_slice_fidelity(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            P = canonicalize(rng.normal(size=(10, 2)))
            D = build_dome(P)
            r, _ = inradius_incenter(P)
            for t in rng.uniform(0.05, 0.9, size=3) * r:
                # slice of the dome rows at height t vs inner body
                Q1 = canonicalize((D.normals[: D.m, :2], D.offsets[: D.m] - t))
                Q2 = inner_body(P, t)
                assert Q1.m == Q2.m
                d = max(
                    np.linalg.norm(a - b) for a, b in zip(Q1.vertices, Q2.vertices)
                )
                assert d < 1e-9 * D.scale

    def test_upper_boundary_is_distance_function(self):
        rng = np.random.default_rng(1)
        P = canonicalize(rng.normal(size=(12, 2)))
        D = build_dome(P)
        r, c = inradius_incenter(P)
        for _ in range(100):
            x = np.array(c) + rng.uniform(-1, 1, size=2) * r * 0.8
            if not np.all(P.A @ x <= P.b + slack(1.0)):
                continue
            tmax = float(np.min(P.b - P.A @ x))
            p = (x[0], x[1], tmax)
            assert all(
                np.dot(D.normals[i], p) <= D.offsets[i] + 1e-9 for i in range(D.m + 1)
            )
            p_up = (x[0], x[1], tmax + 1e-6 * D.scale)
            assert any(
                np.dot(D.normals[i], p_up) > D.offsets[i] for i in range(D.m + 1)
            )


def lattice_counts(D):
    """(V, E, F) of the dome's face lattice."""
    _store, level = face_lattice(D, facet_lifetimes(D))
    return len(level.verts), len(level.edge_map()), len(level.cycles)


class TestFaceLattice:
    def test_triangle_is_tetrahedron(self):
        assert lattice_counts(build_dome(equilateral())) == (4, 6, 4)

    def test_square_counts(self):
        # four planes through the apex: two vertices joined by an edge of
        # length zero, so the lattice is that of a simple polytope
        assert lattice_counts(build_dome(unit_square())) == (6, 9, 5)

    def test_square_perturbed_counts(self):
        D = perturb(build_dome(unit_square()), seed=0)
        assert lattice_counts(D) == (6, 9, 5)

    def test_hexagon_perturbed_counts(self):
        # simple 3-polytope with F = m+1 facets: V = 2F-4, E = 3F-6
        D = perturb(build_dome(regular_polygon(6)), seed=0)
        assert lattice_counts(D) == (10, 15, 7)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for trial in range(8):
            P = canonicalize(rng.normal(size=(rng.integers(4, 9), 2)))
            D = perturb(build_dome(P), seed=trial)
            store, level = face_lattice(D, facet_lifetimes(D))
            ref = brute_force_vertices(D)
            got = [store.pts[v] for v in level.verts]
            assert len(got) == len(ref)
            for p in ref:
                assert any(np.allclose(p, q, atol=1e-7 * D.scale) for q in got)

    def test_euler_and_simplicity(self):
        for m, seed in [(8, 1), (16, 2), (64, 1)]:
            D = perturb(build_dome(regular_polygon(m)), seed=seed)
            V, E, F = lattice_counts(D)
            assert V - E + F == 2
            assert V == 2 * (m + 1) - 4
            # every vertex on exactly 3 facets, genericity after perturb
            count = {}
            for f, cyc in face_lattice(D, facet_lifetimes(D))[1].cycles.items():
                for v in cyc:
                    count[v] = count.get(v, 0) + 1
            assert set(count.values()) == {3}

    def test_vertices_on_their_planes(self):
        D = perturb(build_dome(regular_polygon(9)), seed=3)
        store, level = face_lattice(D, facet_lifetimes(D))
        rows = D.row_list()
        for v in level.verts:
            p = store.pts[v]
            for lab in store.tris[v]:
                n, o = rows[lab]
                assert abs(np.dot(n, p) - o) < 1e-8 * D.scale

    def test_facet_cycles_are_edges_of_both(self):
        D = perturb(build_dome(regular_polygon(7)), seed=4)
        for pair, facets in face_lattice(D, facet_lifetimes(D))[1].edge_map().items():
            assert len(facets) == 2

    def test_perturb_deterministic(self):
        D = build_dome(regular_polygon(10))
        a = perturb(D, seed=5)
        b = perturb(D, seed=5)
        assert np.array_equal(a.offsets, b.offsets)

    def test_perturb_matches_loop(self):
        # reference: the row-by-row form of the slack cap and the corners
        rng = np.random.default_rng(9)
        polys = [regular_polygon(m) for m in (3, 4, 64)]
        polys += [canonicalize(rng.normal(size=(20, 2))) for _ in range(10)]
        for seed, P in enumerate(polys):
            D = build_dome(P)
            m = D.m
            min_slack = math.inf
            for j in range(m):
                a1, a2 = D.normals[(j - 1) % m, :2], D.normals[(j + 1) % m, :2]
                det = a1[0] * a2[1] - a1[1] * a2[0]
                if abs(det) < 1e-12:
                    continue
                o1, o2 = D.offsets[(j - 1) % m], D.offsets[(j + 1) % m]
                z = ((o1 * a2[1] - o2 * a1[1]) / det, (a1[0] * o2 - a2[0] * o1) / det)
                slack = abs(D.normals[j, 0] * z[0] + D.normals[j, 1] * z[1] - D.offsets[j])
                min_slack = min(min_slack, slack)
            offsets = D.offsets.copy()
            delta = min(1e-7 * D.scale, 0.25 * min_slack)
            offsets[:m] -= delta * np.random.default_rng(seed).random(m)
            Dp = perturb(D, seed=seed)
            assert np.array_equal(Dp.offsets, offsets)
            for j in range(m):
                a1, a2 = D.normals[(j - 1) % m, :2], D.normals[j, :2]
                o1, o2 = offsets[(j - 1) % m], offsets[j]
                det = a1[0] * a2[1] - a1[1] * a2[0]
                corner = ((o1 * a2[1] - o2 * a1[1]) / det, (a1[0] * o2 - a2[0] * o1) / det)
                assert tuple(Dp.corners[j]) == corner

    def test_triangle_unchanged_by_perturbation(self):
        D0 = build_dome(equilateral())
        assert lattice_counts(D0) == lattice_counts(perturb(D0, seed=0))


def _core(P):
    """The bounded core of P's dome, checked: at most five labels with the
    floor among them, and bounded by its rows alone."""
    D = build_dome(P)
    core = bounded_core(D, facet_lifetimes(D))
    assert D.floor in core and len(core) <= 5, (P.m, sorted(core))
    _assert_bounded(D, core)
    return core


class TestBoundedCore:
    def test_triangle_core_is_everything(self):
        assert _core(equilateral()) == frozenset(range(4))

    def test_square_core(self):
        # four planes through the apex: no three rows bound, so all four stay
        assert _core(unit_square()) == frozenset(range(5))

    def test_hexagon_core(self):
        # every plane through the apex; the regular 64-gon is where rows
        # picked by their turn alone come out nearly antiparallel
        for m in (6, 64, 4096):
            assert len(_core(regular_polygon(m))) == 4, m

    def test_rectangle_ridge_core(self):
        # the apex is a segment: the last three rows left alive do not bound
        for w, h in ((2, 1), (10, 0.01), (1, 1e-9)):
            assert _core(canonicalize([(0, 0), (w, 0), (w, h), (0, h)])) == frozenset(range(5))

    def test_random_cores_bounded(self):
        # criterion 2's 500 polygons, and arcs closed by a flat base
        for k in range(500):
            P = random_polygon([8, 16, 32, 64, 128, 256][k % 6], seed=k, model=["circle", "ellipse", "smoothed"][k % 3])
            _core(P)
        for k in (199, 200, 300):
            th = np.linspace(0.0, math.pi, k + 1)
            _core(canonicalize(np.stack([np.cos(th), np.sin(th)], axis=1)))


def _reference_polygons():
    models = ["circle", "ellipse", "smoothed"]
    for k in range(500):  # criterion 2's cases
        yield random_polygon([8, 16, 32, 64, 128, 256][k % 6], seed=k, model=models[k % 3])
    for m in list(range(3, 513)) + [1000, 1024, 2047, 2048, 4095, 4096]:
        yield regular_polygon(m)
    for w, h in ((2, 1), (10, 0.01), (1, 1e-9)):
        yield canonicalize([(0, 0), (w, 0), (w, h), (0, h)])
    for k in (199, 200, 300):  # an arc closed by a flat base
        th = np.linspace(0.0, math.pi, k + 1)
        yield canonicalize(np.stack([np.cos(th), np.sin(th)], axis=1))


class TestFacetLifetimes:
    def test_square(self):
        D0 = build_dome(unit_square())
        life = facet_lifetimes(D0)
        assert life.M.tolist() == pytest.approx([0.5] * 4, abs=1e-15)
        assert life.apex == pytest.approx((0.5, 0.5, 0.5), abs=1e-15)
        assert life.events == 2

    def test_triangle(self):
        D0 = build_dome(equilateral())
        life = facet_lifetimes(D0)
        assert life.M.tolist() == pytest.approx([SQ3 / 6] * 3, rel=1e-15)
        assert life.events == 1

    def test_matches_lifted_lp(self):
        # M_i = max t over the dome with facet i held tight
        rng = np.random.default_rng(12)
        for _ in range(6):
            P = canonicalize(rng.normal(size=(12, 2)))
            D0 = build_dome(P)
            life = facet_lifetimes(D0)
            rows = D0.row_list()
            for i in range(P.m):
                res = reference_lp(rows, (0.0, 0.0, 1.0), equalities=[rows[i]])
                assert life.M[i] == pytest.approx(res.value, abs=1e-9)
            r, c = inradius_incenter(P)
            assert life.apex == pytest.approx((c[0], c[1], r), abs=1e-9)
            assert life.events == P.m - 2

    def test_readmission_and_degenerate_apexes(self, monkeypatch):
        # the dome's sweep has m - 2 events on the reference polygons, and
        # its events are level 0's vertices, stored as they come
        for P in _reference_polygons():
            D = build_dome(P)
            life = facet_lifetimes(D)
            assert life.events == D.m - 2, D.m
            store, _level = face_lattice(D, life)
            assert store.pts[D.m:] == [pt for pt, _tri in life.sweep], D.m
            assert store.tris[D.m:] == [tuple(sorted(tri)) for _pt, tri in life.sweep], D.m
        # degenerate apexes: four planes through one point, and a segment
        for P in (unit_square(), canonicalize([(0, 0), (2, 0), (2, 1), (0, 1)]),
                  regular_polygon(6), random_polygon(1024, seed=1, model="ellipse")):
            check_hierarchy(build_hierarchy(build_dome(P)))
        # a negative coincidence tolerance drops every estimate, so the
        # heap empties with four edges alive: nothing re-admits them, and
        # the sweep raises
        D = build_dome(canonicalize([(0, 0), (3, 0), (2.5, 2), (0.5, 1.5)]))
        monkeypatch.setattr(dome_mod, "_coincidence_tol", lambda scale: -1e3 * scale)
        with pytest.raises(GeometryError, match="collapse sweep stalled"):
            facet_lifetimes(D)


def _assert_bounded(D, core: frozenset[int]):
    rows = [D.row_list()[i] for i in sorted(core)]
    for k in range(3):
        for sgn in (1.0, -1.0):
            obj = [0.0, 0.0, 0.0]
            obj[k] = sgn
            assert small_lp(rows, tuple(obj)).status == OPTIMAL
