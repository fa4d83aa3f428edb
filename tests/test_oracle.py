import math

import numpy as np
import pytest

import parcut.oracle as oracle_mod
from parcut.dome import build_dome
from parcut.errors import EmptyInteriorError
from parcut.geometry import canonicalize, inradius_incenter
from parcut.hierarchy import build_hierarchy
from parcut.oracle import oracle_Mi, oracle_fi, oracle_solve, random_polygon
from parcut.queries import eval_fi, facet_max_t
from parcut.solver import solve, verify_solution

SQ3 = math.sqrt(3.0)


def unit_square():
    return canonicalize([(0, 0), (1, 0), (1, 1), (0, 1)])


def equilateral():
    return canonicalize([(0, 0), (1, 0), (0.5, SQ3 / 2)])


class TestOracleFi:
    def test_square_hand_value(self):
        assert oracle_fi(unit_square(), 0, 0.1, 3) == pytest.approx(0.4, abs=1e-12)

    def test_triangle_height(self):
        assert oracle_fi(equilateral(), 0, 0.0, 1) == pytest.approx(SQ3 / 2, rel=1e-9)

    def test_square_collapse(self):
        assert oracle_fi(unit_square(), 0, 0.5, 1) == pytest.approx(0.0, abs=1e-8)

    def test_empty_inner(self):
        with pytest.raises(EmptyInteriorError):
            oracle_fi(unit_square(), 0, 0.7, 1)


class TestOracleMi:
    def test_square(self):
        for i in range(4):
            assert oracle_Mi(unit_square(), i) == pytest.approx(0.5, abs=1e-9)

    def test_triangle(self):
        for i in range(3):
            assert oracle_Mi(equilateral(), i) == pytest.approx(SQ3 / 6, abs=1e-9)

    def test_rectangle(self):
        P = canonicalize([(0, 0), (2, 0), (2, 1), (0, 1)])
        for i in range(4):
            assert oracle_Mi(P, i) == pytest.approx(0.5, abs=1e-9)

    def test_agrees_with_facet_max_t(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            P = canonicalize(rng.normal(size=(10, 2)))
            D0 = build_dome(P)
            H = build_hierarchy(D0)
            diam = max(1.0, float(np.abs(P.vertices).max()))
            for i in range(P.m):
                a = oracle_Mi(P, i)
                b = facet_max_t(H, i)[0]
                assert abs(a - b) < 1e-9 * diam


class TestOracleSolve:
    def test_square(self):
        rho, v = oracle_solve(unit_square(), 2)
        assert rho == pytest.approx(0.25, abs=1e-9)

    def test_triangle(self):
        rho, v = oracle_solve(equilateral(), 2)
        assert rho == pytest.approx(SQ3 / 10, abs=1e-9)

    def test_agrees_with_solver_random_32gon(self):
        P = random_polygon(32, seed=7)
        s = solve(P, 4)
        rho, v = oracle_solve(P, 4)
        assert s.rho == pytest.approx(rho, rel=1e-8)

    def test_n1_is_the_inradius(self):
        for k in range(6):
            P = random_polygon(12 + 5 * k, seed=20 + k, model=("circle", "ellipse")[k % 2])
            rho, v = oracle_solve(P, 1)
            assert rho == inradius_incenter(P)[0]
            assert any(np.allclose(v, a) for a in P.A)

    def test_bisection_tol_bounds_the_error(self, monkeypatch):
        P = random_polygon(24, seed=3)
        fine, _ = oracle_solve(P, 3)
        monkeypatch.setattr(oracle_mod, "_BISECTION_TOL", 1e-4)
        coarse, _ = oracle_solve(P, 3)
        assert abs(coarse - fine) <= 1e-4
        assert abs(coarse - fine) > 1e-10  # the coarse run really stopped early

    def test_stop_is_relative_on_thin_rectangle(self):
        # rho = 2.5e-5 here, so a stop at an absolute 1e-12 leaves 1e-8 relative
        P = canonicalize([(0, 0), (10, 0), (10, 0.01), (0, 0.01)])
        rho, _ = oracle_solve(P, 200)
        ref = solve(P, 200).rho
        assert abs(rho - ref) <= 1e-8 * ref

    def test_max_iter_caps_the_bisection(self, monkeypatch):
        P = random_polygon(24, seed=3)
        r, _ = inradius_incenter(P)
        monkeypatch.setattr(oracle_mod, "_MAX_ITER", 1)
        rho, _ = oracle_solve(P, 3)
        assert rho in (0.25 * r, 0.75 * r)

    def test_independent_of_fast_path(self):
        import ast

        tree = ast.parse(open(oracle_mod.__file__).read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").split(".")[-1])
            elif isinstance(node, ast.Import):
                imported.update(a.name.split(".")[-1] for a in node.names)
        assert not imported & {"dome", "hierarchy", "queries", "solver"}


class TestRandomPolygon:
    def test_triangle(self):
        P = random_polygon(3, seed=7)
        assert P.m == 3

    def test_circle_inradius_bound(self):
        P = random_polygon(64, seed=1, model="circle")
        r, _ = inradius_incenter(P)
        assert 0.9 <= r <= 1.0

    def test_deterministic(self):
        a = random_polygon(24, seed=5, model="smoothed")
        b = random_polygon(24, seed=5, model="smoothed")
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.b, b.b)

    def test_vertex_count(self):
        for model in ("circle", "ellipse", "smoothed"):
            for m in (8, 32, 100):
                P = random_polygon(m, seed=3, model=model)
                assert P.m >= 0.9 * m

    @pytest.mark.parametrize("model", ["circle", "ellipse", "smoothed"])
    def test_draws_2_16_gons(self, model):
        # every one of 65536 uniform draws is a corner once the hull's
        # cutoff scales with each turn's own edges, and the polygon solves
        # and verifies from scratch with no safety net firing
        P = random_polygon(65536, seed=1, model=model)
        assert P.m == 65536
        s = solve(P, 64)
        assert s.stats["fallbacks"] == {"incenter_every_row": 0, "singular_gap": 0, "inner_every_row": 0, "piece_every_row": 0}
        assert verify_solution(P, 64, s.rho, s.direction, s.cuts).ok

    def test_bad_model(self):
        with pytest.raises(ValueError):
            random_polygon(8, model="torus")


class TestGridAgreement:
    def test_oracle_fi_matches_eval_fi(self):
        rng = np.random.default_rng(2)
        for trial in range(4):
            P = random_polygon(16, seed=trial)
            D0 = build_dome(P)
            H = build_hierarchy(D0)
            diam = max(1.0, float(np.abs(P.vertices).max()) * 2)
            n = 1 + trial % 4
            for i in range(0, P.m, 3):
                Mi = oracle_Mi(P, i)
                for t in np.linspace(0.0, Mi, 17):
                    a = eval_fi(H, P, i, float(t), n)
                    try:
                        b = oracle_fi(P, i, float(t), n)
                    except EmptyInteriorError:
                        continue  # grid endpoint collapses the clip
                    assert abs(a - b) < 1e-9 * diam
