import math

import numpy as np
import pytest

import parcut.hierarchy as hierarchy_mod
from hierarchy_checks import check_hierarchy
from parcut.dome import _coincidence_tol, build_dome, facet_lifetimes
from parcut.errors import GeometryError, NonIndependentRemovalError
from parcut.geometry import canonicalize, regular_polygon
from parcut.hierarchy import (
    MAX_PEEL_VERTICES,
    Level,
    bounded_core,
    build_hierarchy,
    face_lattice,
    peel_level,
    removal_set,
)
from parcut.oracle import random_polygon


def _hierarchy_for(P, check=False):
    H = build_hierarchy(build_dome(P))
    if check:
        check_hierarchy(H)
    return H


def _lattice(D):
    return face_lattice(D, facet_lifetimes(D))


GENERIC_HEXAGON = canonicalize([(0, 0), (3, 0), (4, 1.5), (3.2, 3), (1, 3.4), (-0.6, 1.8)])


class TestRemovalSet:
    def _check(self, level, adj, core):
        out = removal_set(level, adj, core)
        taken = set(out)
        assert out == sorted(taken)
        short = {f for f, cyc in level.cycles.items() if len(cyc) <= MAX_PEEL_VERTICES}
        assert taken <= short - core
        for f in out:
            assert not adj[f] & taken, f"facets {f} and a neighbour both taken"
        for f in short - core - taken:
            assert adj[f] & taken, f"facet {f} could still be taken"
        return out

    def test_every_level(self):
        # independent, outside the core, short, and maximal among the
        # short facets outside the core, on every level of a build
        for P in (regular_polygon(64), GENERIC_HEXAGON, random_polygon(256, seed=4)):
            H = _hierarchy_for(P)
            core = H.core
            for lv in H.levels[:-1]:
                adj = lv.adjacency(H.store.tris)
                assert self._check(lv, adj, core)
            assert removal_set(H.levels[-1], H.levels[-1].adjacency(H.store.tris), core) == []

    def test_fewest_vertices_first(self):
        # a path 0 - 1 - 2 of facets with 5, 4 and 5 vertices, and a facet
        # 3 of 12 vertices that borders nothing and is never taken
        cycles = {0: list(range(5)), 1: list(range(4)), 2: list(range(5)), 3: list(range(12))}
        adj = {0: {1}, 1: {0, 2}, 2: {1}, 3: set()}
        level = Level(cycles, [])
        assert removal_set(level, adj, frozenset()) == [1]
        assert removal_set(level, adj, frozenset({1})) == [0, 2]
        cycles[1] = list(range(6))
        assert removal_set(level, adj, frozenset()) == [0, 2]


class TestPeel:
    def test_hexagon_dome_single_peel(self):
        # a generic hexagon: no four planes through one point, so every
        # new vertex lies strictly beyond the removed plane
        D = build_dome(GENERIC_HEXAGON)
        store, level = _lattice(D)
        outside = sorted(level.index_set - bounded_core(D, facet_lifetimes(D)))
        assert outside, "hexagon dome should have at least one non-core facet"
        f = outside[0]
        rows = D.row_list()
        adj = level.adjacency(store.tris)
        nxt = peel_level(level, [f], store, rows, 1, _coincidence_tol(D.scale), adj)
        assert len(nxt.cycles) == len(level.cycles) - 1
        born = [v for v in nxt.verts if store.birth_level[v] == 1]
        assert born
        assert all(store.birth_killer[v] == f for v in born)
        # new vertices really do violate the removed facet
        n, off = rows[f]
        for vid in born:
            p = store.pts[vid]
            assert n[0] * p[0] + n[1] * p[1] + n[2] * p[2] > off

    def test_non_independent_rejected(self):
        D = build_dome(regular_polygon(8))
        store, level = _lattice(D)
        adj = level.adjacency(store.tris)
        f = 0
        g = sorted(adj[f])[0]
        rows = D.row_list()
        with pytest.raises(NonIndependentRemovalError):
            peel_level(level, [f, g], store, rows, 1, _coincidence_tol(D.scale), adj)

    def test_edge_without_unique_neighbour_rejected(self):
        # swapping two vertices of a cycle makes one of its edges join
        # vertices that share no facet besides the deleted one
        D = build_dome(GENERIC_HEXAGON)
        store, level = _lattice(D)
        adj = level.adjacency(store.tris)
        cyc = level.cycles[5]
        cyc[0], cyc[1] = cyc[1], cyc[0]
        rows = D.row_list()
        with pytest.raises(GeometryError, match="a removed facet edge has no unique neighbour"):
            peel_level(level, [5], store, rows, 1, _coincidence_tol(D.scale), adj)


class TestBuildHierarchy:
    def test_triangle_trivial(self):
        H = _hierarchy_for(canonicalize([(0, 0), (1, 0), (0.5, 0.8)]), check=True)
        assert H.depth <= 1
        assert H.core == frozenset(range(4))

    def test_depth_bound_64(self):
        H = _hierarchy_for(regular_polygon(64), check=True)
        assert H.depth <= math.log(65) / math.log(6 / 5) + 2

    def test_levels_nest_and_kills_unique(self):
        # check=True runs the exhaustive nesting + kill-uniqueness checks
        rng = np.random.default_rng(5)
        for trial in range(5):
            P = canonicalize(rng.normal(size=(24, 2)))
            _hierarchy_for(P, check=True)

    def test_storage_linear(self):
        for m in (16, 64, 256):
            H = _hierarchy_for(regular_polygon(m))
            assert H.total_vertices() <= 12 * m

    def test_core_is_last_level(self):
        H = _hierarchy_for(regular_polygon(32))
        assert H.levels[-1].index_set == H.core

    def test_every_level_valid_polytope(self):
        H = _hierarchy_for(regular_polygon(20), check=True)
        for lv in H.levels:
            # each level is a simple polytope: Euler and degree-3 vertices
            V = len(lv.verts)
            E = len(lv.edge_map())
            F = len(lv.cycles)
            assert V - E + F == 2

    def test_domes_that_are_not_simple(self):
        # four or more planes through one point (the apex of the square,
        # the regular polygons and the thin rectangle): the sweep breaks
        # the tie by event order, so every level stays a simple polytope
        shapes = [
            canonicalize([(0, 0), (1, 0), (1, 1), (0, 1)]),
            regular_polygon(6),
            regular_polygon(64),
            canonicalize([(0, 0), (1, 0), (1, 1e-9), (0, 1e-9)]),
        ]
        for P in shapes:
            H = _hierarchy_for(P, check=True)
            for lv in H.levels:
                V = len(lv.verts)
                E = len(lv.edge_map())
                F = len(lv.cycles)
                assert (V - E + F, 2 * E) == (2, 3 * V), P.m

    @pytest.mark.xfail(strict=True, raises=GeometryError,
                       reason="a cap's last three planes meet in a line (CHANGES.md FOUND)")
    def test_regular_68gon_builds(self):
        # a cap over a deleted 3-vertex facet ends on rows 28, 62 and the
        # floor; 28 and 62 have exactly opposite xy-normals, so the three
        # planes meet in a line and the build raises "final plane triple
        # is singular"; so do the regular 148-, 222-, 234-, 404-, 412-,
        # 456- and 482-gons, of 3..512
        check_hierarchy(_hierarchy_for(regular_polygon(68)))

    def test_deleted_facets_are_short(self):
        # every facet deleted between levels l and l + 1 has at most 11
        # vertices at level l, so a query reinstating it scans at most 11
        for P in (regular_polygon(4096), random_polygon(1024, seed=2)):
            H = _hierarchy_for(P)
            for l in range(H.depth):
                cur = H.levels[l]
                for f in cur.index_set - H.levels[l + 1].index_set:
                    assert len(cur.cycles[f]) <= 11, (P.m, l, f, len(cur.cycles[f]))

    def test_sweeps_the_dome_once(self, monkeypatch):
        # level 0 is facet_lifetimes' sweep of the whole dome, and every
        # other sweep of the build caps the hole of one short deleted facet
        lifetimes, sweeps = [], []
        real_lifetimes, real_sweep = hierarchy_mod.facet_lifetimes, hierarchy_mod.collapse_sweep

        def lifetimes_spy(D):
            lifetimes.append(D.m)
            return real_lifetimes(D)

        def sweep_spy(labels, *args):
            sweeps.append(len(labels))
            return real_sweep(labels, *args)

        monkeypatch.setattr(hierarchy_mod, "facet_lifetimes", lifetimes_spy)
        monkeypatch.setattr(hierarchy_mod, "collapse_sweep", sweep_spy)
        for P in (regular_polygon(4096), random_polygon(1024, seed=1, model="ellipse")):
            lifetimes.clear()
            sweeps.clear()
            _hierarchy_for(P)
            assert lifetimes == [P.m]
            assert sweeps and max(sweeps) <= MAX_PEEL_VERTICES, (P.m, sorted(set(sweeps)))

    def test_stalled_sweeps_raise(self, monkeypatch):
        # a negative coincidence tolerance drops every estimate, so a sweep's
        # heap empties early and the build raises: the dome's own sweep on
        # this 4-gon, and the 4-edge cap over the regular hexagon's deleted
        # facet 1 (the dome's sweep keeps its own tolerance there)
        import parcut.dome as dome_mod

        quad, hexagon = canonicalize([(0, 0), (3, 0), (2.5, 2), (0.5, 1.5)]), regular_polygon(6)
        for P in (quad, hexagon):
            _hierarchy_for(P, check=True)
        with monkeypatch.context() as patch:
            patch.setattr(dome_mod, "_coincidence_tol", lambda scale: -1e3 * scale)
            with pytest.raises(GeometryError, match="collapse sweep stalled"):
                _hierarchy_for(quad)
        monkeypatch.setattr(hierarchy_mod, "_coincidence_tol", lambda scale: -1e3 * scale)
        with pytest.raises(GeometryError, match="collapse sweep stalled"):
            _hierarchy_for(hexagon)

    def test_dump_deterministic(self):
        H1 = _hierarchy_for(regular_polygon(12))
        H2 = _hierarchy_for(regular_polygon(12))
        assert H1.dump() == H2.dump()
        assert "level 0" in H1.dump()
