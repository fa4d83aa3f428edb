import math

import numpy as np
import pytest

from parcut.dome import build_dome
from parcut.errors import NonIndependentRemovalError
from parcut.geometry import canonicalize, regular_polygon
from parcut.hierarchy import (
    bounded_core,
    build_hierarchy,
    face_lattice,
    peel_level,
    perturb,
    pick_color,
    six_color,
)


def _hierarchy_for(P, seed=0, debug=False):
    D = perturb(build_dome(P), seed=seed)
    core = bounded_core(D)
    return build_hierarchy(D, core, debug=debug)


def _check_proper(coloring, adj):
    for v, nb in adj.items():
        for u in nb:
            assert coloring[u] != coloring[v]


class TestSixColor:
    def test_k4(self):
        adj = {i: {j for j in range(4) if j != i} for i in range(4)}
        col = six_color(adj)
        _check_proper(col, adj)
        assert len(set(col.values())) == 4

    def test_cube_graph(self):
        # facet adjacency of a cube: opposite facets not adjacent
        adj = {i: set(range(6)) - {i, i ^ 1} for i in range(6)}
        col = six_color(adj)
        _check_proper(col, adj)
        assert max(col.values()) <= 6

    def test_hexagon_dome_graph(self):
        D = perturb(build_dome(regular_polygon(6)), seed=0)
        adj = face_lattice(D).adjacency()
        col = six_color(adj)
        _check_proper(col, adj)

    def test_k7_rejected(self):
        from parcut.errors import NotPlanarError

        adj = {i: {j for j in range(7) if j != i} for i in range(7)}
        with pytest.raises(NotPlanarError):
            six_color(adj)


class TestPickColor:
    def test_fixed_point(self):
        core = frozenset({0, 1, 2, 3})
        coloring = {0: 1, 1: 2, 2: 3, 3: 4}
        assert pick_color(coloring, frozenset(core), core) == []

    def test_pigeonhole(self):
        # 12 removable facets, 6 colors: best class has at least 2
        core = frozenset({100})
        coloring = {i: (i % 6) + 1 for i in range(12)}
        coloring[100] = 1
        out = pick_color(coloring, frozenset(range(12)) | core, core)
        assert len(out) >= 2
        assert 100 not in out

    def test_ratio_on_hexagon(self):
        D = perturb(build_dome(regular_polygon(6)), seed=0)
        L = face_lattice(D)
        core = bounded_core(D)
        coloring = six_color(L.adjacency())
        removal = pick_color(coloring, L.level.index_set, core.labels)
        removable = len(L.level.index_set - core.labels)
        assert len(removal) >= math.ceil(removable / 6)


class TestPeel:
    def test_hexagon_dome_single_peel(self):
        D = perturb(build_dome(regular_polygon(6)), seed=0)
        L = face_lattice(D)
        core = bounded_core(D)
        outside = sorted(L.level.index_set - core.labels)
        assert outside, "hexagon dome should have at least one non-core facet"
        f = outside[0]
        from parcut.dome import _coincidence_tol

        rows = [D.row(i) for i in range(D.m + 1)]
        nxt, kills = peel_level(
            L.level, [f], L.store, rows, 1, _coincidence_tol(D.scale)
        )
        assert len(nxt.cycles) == len(L.level.cycles) - 1
        assert all(k == f for k in kills.values())
        # new vertices really do violate the removed facet
        n, off = rows[f]
        for vid in kills:
            p = L.store.pts[vid]
            assert n[0] * p[0] + n[1] * p[1] + n[2] * p[2] > off

    def test_non_independent_rejected(self):
        D = perturb(build_dome(regular_polygon(8)), seed=0)
        L = face_lattice(D)
        adj = L.adjacency()
        f = 0
        g = sorted(adj[f])[0]
        from parcut.dome import _coincidence_tol

        rows = [D.row(i) for i in range(D.m + 1)]
        with pytest.raises(NonIndependentRemovalError):
            peel_level(L.level, [f, g], L.store, rows, 1, _coincidence_tol(D.scale))


class TestBuildHierarchy:
    def test_triangle_trivial(self):
        H = _hierarchy_for(canonicalize([(0, 0), (1, 0), (0.5, 0.8)]), debug=True)
        assert H.depth <= 1
        assert H.core.labels == frozenset(range(4))

    def test_depth_bound_64(self):
        H = _hierarchy_for(regular_polygon(64), debug=True)
        assert H.depth <= math.log(65) / math.log(6 / 5) + 2

    def test_levels_nest_and_kills_unique(self):
        # debug=True runs the exhaustive nesting + kill-uniqueness checks
        rng = np.random.default_rng(5)
        for trial in range(5):
            P = canonicalize(rng.normal(size=(24, 2)))
            _hierarchy_for(P, seed=trial, debug=True)

    def test_storage_linear(self):
        for m in (16, 64, 256):
            H = _hierarchy_for(regular_polygon(m))
            assert H.total_vertices() <= 12 * m

    def test_core_is_last_level(self):
        H = _hierarchy_for(regular_polygon(32))
        assert H.levels[-1].index_set == H.core.labels

    def test_every_level_valid_polytope(self):
        H = _hierarchy_for(regular_polygon(20), debug=True)
        for lv in H.levels:
            # each level is a simple polytope: Euler and degree-3 vertices
            V = len(lv.verts)
            E = len(lv.edge_map())
            F = len(lv.cycles)
            assert V - E + F == 2

    def test_dump_deterministic(self):
        H1 = _hierarchy_for(regular_polygon(12), seed=3)
        H2 = _hierarchy_for(regular_polygon(12), seed=3)
        assert H1.dump() == H2.dump()
        assert "level 0" in H1.dump()
