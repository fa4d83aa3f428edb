import math
from collections import Counter

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from lifetime_reference import critical_radius
from parcut.dome import build_dome, facet_lifetimes
from parcut.errors import (
    GeometryError,
    InvalidPieceCountError,
    NotQualifiedError,
    OutOfRangeError,
    VerificationFailedError,
)
from parcut.geometry import canonicalize, chebyshev_lp, diameter, inner_body, inradius_incenter, regular_polygon
from parcut.hierarchy import build_hierarchy
from parcut.oracle import oracle_fi, oracle_solve, random_polygon
from parcut.queries import eval_fi, facet_max_t, root_lp
from parcut.solver import Cut, _piece_inradii, place_cuts, solve, verify_solution

SQ3 = math.sqrt(3.0)


def _cut_inradius(P, extras):
    """Inradius of P cut by the lifted slab rows `extras`, as verify solves it."""
    return chebyshev_lp(P.A, P.b, [((0.0, 0.0, -1.0), 0.0)] + extras).value


def unit_square():
    return canonicalize([(0, 0), (1, 0), (1, 1), (0, 1)])


def equilateral():
    return canonicalize([(0, 0), (1, 0), (0.5, SQ3 / 2)])


def hier_for(P):
    return build_hierarchy(build_dome(P))


def lifetimes(P):
    """Every edge's lifetime M_i, from the dome's collapse sweep."""
    return facet_lifetimes(build_dome(P)).M


class TestEvalFi:
    def test_square_quarter(self):
        P = unit_square()
        H = hier_for(P)
        for i in range(4):
            assert eval_fi(H, P, i, 0.25, 2) == pytest.approx(0.0, abs=1e-9)

    def test_square_at_top(self):
        P = unit_square()
        H = hier_for(P)
        assert eval_fi(H, P, 0, 0.5, 2) == pytest.approx(-1.0, abs=1e-9)

    def test_positive_at_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            P = canonicalize(rng.normal(size=(10, 2)))
            H = hier_for(P)
            for i in range(P.m):
                assert eval_fi(H, P, i, 0.0, 1) > 0

    def test_out_of_range(self):
        P = unit_square()
        H = hier_for(P)
        with pytest.raises(OutOfRangeError):
            eval_fi(H, P, 0, 0.6, 2)


class TestRootLp:
    def test_square(self):
        P = unit_square()
        H = hier_for(P)
        for i in range(4):
            assert root_lp(H, P, i, 2) == pytest.approx(0.25, rel=1e-9)

    def test_triangle(self):
        P = equilateral()
        H = hier_for(P)
        for i in range(3):
            assert root_lp(H, P, i, 2) == pytest.approx(SQ3 / 10, rel=1e-9)

    def test_hexagon(self):
        P = regular_polygon(6)
        H = hier_for(P)
        for i in range(6):
            assert root_lp(H, P, i, 3) == pytest.approx(SQ3 / 6, rel=1e-9)

    def test_not_qualified(self):
        # long rectangle: the short edges' width gap stays positive
        P = canonicalize([(0, 0), (8, 0), (8, 1), (0, 1)])
        H = hier_for(P)
        short = [i for i in range(4) if abs(P.A[i, 0]) > 0.5]
        with pytest.raises(NotQualifiedError):
            root_lp(H, P, short[0], 2)


class TestSolve:
    def test_square_family(self):
        P = unit_square()
        for n in range(1, 9):
            s = solve(P, n)
            assert s.rho == pytest.approx(1.0 / (2 * n), rel=1e-12)
            assert abs(s.direction[0]) == pytest.approx(1.0) or abs(
                s.direction[1]
            ) == pytest.approx(1.0)
            assert len(s.cuts) == n - 1

    def test_square_cut_position(self):
        s = solve(unit_square(), 2)
        assert len(s.cuts) == 1
        assert s.cuts[0].offset == pytest.approx(0.5, abs=1e-9)

    def test_triangle_n3(self):
        s = solve(equilateral(), 3)
        assert s.rho == pytest.approx((SQ3 / 2) / 7, rel=1e-12)
        assert len(s.cuts) == 2
        # direction is one of the three edge normals
        P = equilateral()
        assert any(np.allclose(s.direction, a, atol=1e-9) for a in P.A)

    def test_hexagon_n1(self):
        s = solve(regular_polygon(6), 1)
        assert s.rho == pytest.approx(SQ3 / 2, rel=1e-12)
        assert s.cuts == []

    def test_invalid_n(self):
        with pytest.raises(InvalidPieceCountError):
            solve(unit_square(), 0)
        with pytest.raises(InvalidPieceCountError):
            solve(unit_square(), -3)

    def test_accepts_vertex_input(self):
        s = solve([(0, 0), (1, 0), (1, 1), (0, 1)], 2)
        assert s.rho == pytest.approx(0.25)

    def test_winner_is_a_row(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            P = canonicalize(rng.normal(size=(14, 2)))
            s = solve(P, 1 + trial % 5)
            assert any(np.allclose(s.direction, a, atol=1e-9) for a in P.A)

    def test_rho_decreasing_in_n(self):
        rng = np.random.default_rng(2)
        for trial in range(6):
            P = canonicalize(rng.normal(size=(12, 2)))
            rhos = [solve(P, n).rho for n in range(1, 6)]
            assert all(a > b for a, b in zip(rhos, rhos[1:]))

    def test_rho_below_inradius(self):
        rng = np.random.default_rng(3)
        for trial in range(6):
            P = canonicalize(rng.normal(size=(10, 2)))
            r, _ = inradius_incenter(P)
            for n in (2, 4):
                assert 0 < solve(P, n).rho < r

    def test_qualifying_diagnostics(self):
        s = solve(unit_square(), 2)
        d = s.diagnostics
        assert d is not None
        M = lifetimes(unit_square())
        assert np.allclose(M, 0.5, rtol=0, atol=1e-9)
        q = ~np.isnan(d.root)
        assert np.all(0 < d.root[q]) and np.all(d.root[q] <= M[q] + 1e-9)
        assert not np.any(np.isnan(d.f_at_M[q])) and np.all(d.f_at_M[q] <= 1e-9)

    def test_gap_strictly_decreasing(self):
        rng = np.random.default_rng(11)
        for trial in range(3):
            P = canonicalize(rng.normal(size=(9, 2)))
            H = hier_for(P)
            n = 2 + trial
            for i in range(0, P.m, 2):
                Mi = facet_max_t(H, i)[0]
                vals = [eval_fi(H, P, i, t, n) for t in np.linspace(0.0, Mi, 6)]
                assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_roots_are_zeros_of_their_gap(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            P = canonicalize(rng.normal(size=(10, 2)))
            n = 1 + trial % 4
            H = hier_for(P)
            s = solve(P, n)
            d = s.diagnostics
            M = lifetimes(P)
            for i in np.nonzero(~np.isnan(d.root))[0]:
                val = eval_fi(H, P, int(i), min(d.root[i], M[i]), n)
                assert abs(val) < 1e-8

    def test_rigid_motion_equivariance(self):
        rng = np.random.default_rng(4)
        P = canonicalize(rng.normal(size=(12, 2)))
        base = solve(P, 3)
        for trial in range(8):
            th = rng.uniform(0, 2 * math.pi)
            R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
            u = rng.normal(size=2) * 5
            P2 = canonicalize(P.vertices @ R.T + u)
            s2 = solve(P2, 3)
            assert s2.rho == pytest.approx(base.rho, rel=1e-9)
            assert np.allclose(R @ np.asarray(base.direction), s2.direction, atol=1e-7)

    def test_scale_covariance(self):
        rng = np.random.default_rng(5)
        P = canonicalize(rng.normal(size=(10, 2)))
        base = solve(P, 4)
        for lam in (0.1, 3.0, 1000.0):
            s2 = solve(canonicalize(P.vertices * lam), 4)
            assert s2.rho == pytest.approx(lam * base.rho, rel=1e-9)
            assert np.allclose(s2.direction, base.direction, atol=1e-9)

    def test_phases_are_timed(self):
        # vertex input (canonicalized inside solve) and canonical input, at
        # n = 1 (no inner body) and n >= 2: every phase is timed, in order,
        # and together they take solve_ms, up to the rounding of the sum
        V = random_polygon(200, seed=3).vertices
        for P in (V, canonicalize(V)):
            for n in (1, 2, 7):
                stats = solve(P, n).stats
                phases = stats["phases_ms"]
                assert list(phases) == ["canonicalize", "incenter", "descent", "diagnostics",
                                        "cuts", "verify"]
                assert all(t >= 0.0 for t in phases.values())
                assert sum(phases.values()) <= stats["solve_ms"] * (1 + 1e-12)
                assert stats["build_ms"] == pytest.approx(phases["canonicalize"])


class TestPlaceCuts:
    def test_square_n4(self):
        P = unit_square()
        s = solve(P, 4)
        offs = sorted(c.offset for c in s.cuts)
        assert offs == pytest.approx([0.25, 0.5, 0.75], abs=1e-9)
        assert s.rho == pytest.approx(0.125)

    def test_spacing_is_two_rho(self):
        rng = np.random.default_rng(6)
        P = canonicalize(rng.normal(size=(9, 2)))
        s = solve(P, 5)
        offs = [c.offset for c in s.cuts]
        gaps = np.diff(offs)
        assert np.allclose(gaps, 2 * s.rho, atol=1e-9)

    def test_n1_empty(self):
        assert place_cuts(None, 0.5, (1.0, 0.0), 1) == []

    def test_missing_inner_body_raises(self):
        with pytest.raises(VerificationFailedError, match="cuts"):
            place_cuts(None, 0.5, (1.0, 0.0), 2)


class TestVerify:
    def test_square_pieces(self):
        P = unit_square()
        s = solve(P, 2)
        rep = s.verification
        assert rep.ok
        assert rep.piece_inradii == pytest.approx([0.25, 0.25], abs=1e-9)

    def test_triangle_max_piece(self):
        P = equilateral()
        s = solve(P, 2)
        assert s.verification.max_piece_inradius == pytest.approx(SQ3 / 10, abs=1e-9)

    def test_corrupted_rho_fails_width(self):
        P = unit_square()
        s = solve(P, 2)
        with pytest.raises(VerificationFailedError) as exc:
            verify_solution(P, 2, s.rho * 1.01, s.direction, s.cuts)
        assert exc.value.clause == "width"

    def test_cut_inradius_matches_full_lp(self):
        # reference: one LP over every polygon row plus the slab rows
        from parcut.lp import small_lp

        rng = np.random.default_rng(13)
        for trial in range(8):
            P = random_polygon(300 + 50 * trial, seed=trial)
            for _ in range(3):
                v = rng.normal(size=2)
                v /= np.linalg.norm(v)
                proj = P.vertices @ v
                lo, hi = np.sort(rng.uniform(proj.min(), proj.max(), size=2))
                extras = [((-v[0], -v[1], 1.0), -lo), ((v[0], v[1], 1.0), hi)]
                rows = [((a[0], a[1], 1.0), b) for a, b in zip(P.A, P.b)]
                ref = small_lp(rows + [((0.0, 0.0, -1.0), 0.0)] + extras, (0.0, 0.0, 1.0))
                assert _cut_inradius(P, extras) == pytest.approx(ref.value, abs=1e-12)

    def test_cut_inradius_bounded_on_uneven_normals(self):
        # a finely cut arc closed by one flat base: the base, the last row,
        # is the only normal below the x-axis, so a start sample that misses
        # it leaves the lifted LP unbounded
        from parcut.lp import small_lp

        for k in (199, 200, 300):
            th = np.linspace(0.0, math.pi, k + 1)
            P = canonicalize(np.stack([np.cos(th), np.sin(th)], axis=1))
            rows = [((a[0], a[1], 1.0), b) for a, b in zip(P.A, P.b)]
            v = (1.0, 0.0)
            for extras in ([], [((v[0], v[1], 1.0), 0.1)], [((-v[0], -v[1], 1.0), -0.1)]):
                ref = small_lp(rows + [((0.0, 0.0, -1.0), 0.0)] + extras, (0.0, 0.0, 1.0))
                assert _cut_inradius(P, extras) == pytest.approx(ref.value, abs=1e-12)
            for n in (1, 2):
                s = solve(P, n)
                assert s.verification.ok
                assert s.verification.max_piece_inradius == pytest.approx(s.rho, abs=1e-9)

    def test_cut_inradius_unbounded_sample_takes_every_row(self, monkeypatch):
        import parcut.geometry as geometry_mod
        from parcut.lp import UNBOUNDED, LpResult, small_lp

        calls = []

        def first_unbounded(rows, *args, **kwargs):
            calls.append(len(rows))
            if len(calls) == 1:
                return LpResult(UNBOUNDED)
            return small_lp(rows, *args, **kwargs)

        P = regular_polygon(1000)
        ref = _cut_inradius(P, [])
        monkeypatch.setattr(geometry_mod, "small_lp", first_unbounded)
        assert _cut_inradius(P, []) == pytest.approx(ref, abs=1e-12)
        assert calls[1] == P.m + 1

    def test_corrupted_cut_fails_pieces(self):
        P = unit_square()
        s = solve(P, 2)
        bad = [Cut(s.cuts[0].normal, s.cuts[0].offset + 0.15)]
        with pytest.raises(VerificationFailedError) as exc:
            verify_solution(P, 2, s.rho, s.direction, bad)
        assert exc.value.clause == "pieces"


class TestLifetimePath:
    def test_inspection_counter_grows_with_m(self):
        stats = [
            solve(regular_polygon(m), 2).stats for m in (64, 256, 1024, 4096)
        ]
        counts = [st["vertex_inspections"] for st in stats]
        assert counts[0] > 0
        assert all(a < b for a, b in zip(counts, counts[1:]))
        assert all(st["lp_queries"] > 0 for st in stats)

    def test_solve_never_perturbs(self, monkeypatch):
        import parcut.hierarchy as hierarchy_mod
        import parcut.solver as solver_mod

        def refuse(*args, **kwargs):
            raise AssertionError("solve perturbed the dome")

        monkeypatch.setattr(hierarchy_mod, "perturb", refuse)
        monkeypatch.setattr(solver_mod, "perturb", refuse)
        for P in (unit_square(), regular_polygon(6), random_polygon(40, seed=1)):
            s = solve(P, 3)
            assert s.verification.ok

    def test_descent_step_cap_raises(self, monkeypatch):
        # stand-ins under which the rows of I_t never settle: gap roots
        # that fall a little on every call, so no step repeats its offset,
        # and a hull that drops the first row on every other step
        import parcut.solver as solver_mod

        real = solver_mod._gap_roots
        calls = []

        def falling(*args):
            calls.append(1)
            return real(*args) - 1e-9 * len(calls)

        monkeypatch.setattr(solver_mod, "_gap_roots", falling)
        monkeypatch.setattr(solver_mod, "_angle_order_hull", lambda points: np.arange(len(calls) % 2, len(points)))
        with pytest.raises(GeometryError, match="did not settle"):
            solve(random_polygon(40, seed=3), 3)
        assert len(calls) == solver_mod._MAX_STEPS

    def test_descent_keeps_the_incenter_inside(self, monkeypatch):
        # stand-in gap roots above the inradius: I_t no longer holds the
        # incenter, so its rows cannot be read off the polar dual
        import parcut.solver as solver_mod

        real = solver_mod._gap_roots
        monkeypatch.setattr(solver_mod, "_gap_roots", lambda *args: real(*args) + 10.0)
        with pytest.raises(GeometryError, match="incenter"):
            solve(random_polygon(40, seed=3), 3)

    def test_piece_lp_fallbacks_are_counted(self, monkeypatch):
        # a stand-in small_lp that calls every LP of fewer than 200 rows
        # unbounded: the incenter LP falls back from its angle bins to every
        # row, and the honest claim's pieces need no LP.  With the cut moved
        # by 1e-6 of the diameter the bounds settle neither piece, and each
        # piece LP (about 500 rows) falls back from its angle bins to every
        # row and still finds its inradius
        import parcut.geometry as geometry_mod
        from parcut.lp import UNBOUNDED, LpResult, small_lp

        P = random_polygon(1000, seed=5)
        ref = solve(P, 2)
        v = np.asarray(ref.direction)
        moved = np.array([ref.cuts[0].offset + 1e-6 * diameter(P)])
        vtol = 1e-8 * diameter(P)
        inner = inner_body(P, ref.rho)
        expected = _piece_inradii(P, v, moved, vtol, inner, ref.rho)

        def short_unbounded(rows, *args, **kwargs):
            if len(rows) < 200:
                return LpResult(UNBOUNDED)
            return small_lp(rows, *args, **kwargs)

        monkeypatch.setattr(geometry_mod, "small_lp", short_unbounded)
        s = solve(P, 2)
        assert s.stats["fallbacks"] == {"incenter_every_row": 1, "singular_gap": 0, "inner_every_row": 0, "piece_every_row": 0}
        assert s.verification.fallbacks == {"inner_every_row": 0, "piece_every_row": 0}
        assert s.verification.piece_inradii == ref.verification.piece_inradii
        fallbacks = Counter()
        got = _piece_inradii(P, v, moved, vtol, inner, ref.rho, fallbacks)
        assert fallbacks == Counter(every_row=2)
        assert got == pytest.approx(expected, abs=1e-12 * s.rho)

    def test_inner_lp_fallback_is_counted(self, monkeypatch):
        # the same stand-in under a from-scratch verify: I_rho's Chebyshev
        # LP over the 1000 rows starts from 16 angle-bin rows, so it falls
        # back to every row once, and the pieces need no LP
        import parcut.geometry as geometry_mod
        from parcut.lp import UNBOUNDED, LpResult, small_lp

        P = random_polygon(1000, seed=5)
        ref = solve(P, 2)

        def short_unbounded(rows, *args, **kwargs):
            if len(rows) < 200:
                return LpResult(UNBOUNDED)
            return small_lp(rows, *args, **kwargs)

        monkeypatch.setattr(geometry_mod, "small_lp", short_unbounded)
        rep = verify_solution(P, 2, ref.rho, ref.direction, ref.cuts)
        assert rep.fallbacks == {"inner_every_row": 1, "piece_every_row": 0}
        assert rep.piece_inradii == pytest.approx(ref.verification.piece_inradii, abs=1e-12 * ref.rho)

    def test_singular_gap_is_counted(self, monkeypatch):
        # a stand-in _antipodes that hands the bracket's first row its own
        # corner: at n = 1 the gap row (A_i, 1) then repeats one of the
        # corner's two lifted rows, so that plane triple is singular
        import parcut.solver as solver_mod

        P = random_polygon(40, seed=1)
        ref = solve(P, 1)
        real = solver_mod._antipodes

        def own_corner_first(ang):
            k = real(ang)
            k[0] = 0
            return k

        monkeypatch.setattr(solver_mod, "_antipodes", own_corner_first)
        s = solve(P, 1)
        assert ref.stats["fallbacks"]["singular_gap"] == 0
        assert s.stats["fallbacks"]["singular_gap"] == 1
        # that row's root goes unreported, and a tied apex row wins instead
        assert np.isnan(s.diagnostics.root).sum() == np.isnan(ref.diagnostics.root).sum() + 1
        assert s.rho == ref.rho and s.diagnostics.root[s.winner] == pytest.approx(ref.rho, rel=1e-12)
        assert s.verification.ok

    def test_thin_rectangle(self):
        # 1 x 1e-9: rho = h / (2n) along (0, 1); verification's 1e-8 slack
        # is wider than the rectangle, so rho is checked against its closed form
        h = 1e-9
        P = canonicalize([(0, 0), (1, 0), (1, h), (0, h)])
        for n in (1, 2, 3):
            s = solve(P, n)
            assert s.rho == pytest.approx(h / (2 * n), rel=1e-9)
            assert s.direction == (0.0, 1.0)

    def test_solve_never_builds_a_hierarchy(self, monkeypatch):
        import parcut.hierarchy as hierarchy_mod
        import parcut.queries as queries_mod
        import parcut.solver as solver_mod

        def refuse(*args, **kwargs):
            raise AssertionError("solve built or swept a dome, or built or queried a hierarchy")

        for name in ("build_hierarchy", "face_lattice", "bounded_core"):
            monkeypatch.setattr(hierarchy_mod, name, refuse)
            monkeypatch.setattr(solver_mod, name, refuse)
        for name in ("build_dome", "facet_lifetimes"):
            monkeypatch.setattr(solver_mod, name, refuse)
        for name in ("eval_fi", "root_lp", "facet_max_t", "lp_max", "lp_max_section",
                     "lp_max_constrained"):
            monkeypatch.setattr(queries_mod, name, refuse)
        for name in ("eval_fi", "facet_max_t", "lp_max", "lp_max_section", "lp_max_constrained"):
            monkeypatch.setattr(solver_mod, name, refuse)
        P = random_polygon(40, seed=1)
        s = solve(P, 3)
        assert len(s.diagnostics.root) == len(s.diagnostics.f_at_M) == P.m
        assert s.verification.ok

    @pytest.mark.parametrize("k", [64, 340, 0, 9, 101, 226, 455])
    def test_reported_roots_are_zeros_of_the_oracle_gap(self, k):
        # criterion 2's case k: case 64 is m = 128, n = 1; case 340 is m = 128, n = 5
        m = (8, 16, 32, 64, 128, 256)[k % 6]
        P = random_polygon(m, seed=k, model=("circle", "ellipse", "smoothed")[k % 3])
        n = 1 + k % 8
        s = solve(P, n)
        scale = max(1.0, float(np.abs(P.b).max()))
        d = s.diagnostics
        M = lifetimes(P)
        roots = np.nonzero(~np.isnan(d.root))[0]
        assert s.winner in roots
        for i in roots.tolist():
            assert abs(oracle_fi(P, i, d.root[i], n)) <= 1e-12 * scale
        for i in np.nonzero(~np.isnan(d.f_at_M))[0].tolist():
            assert abs(d.f_at_M[i] - oracle_fi(P, i, M[i], n)) <= 1e-12 * scale

    def test_ties_break_by_lowest_index(self):
        # every edge of the square and the regular hexagon ties
        for P in (unit_square(), regular_polygon(6)):
            for n in range(1, 5):
                s = solve(P, n)
                assert s.winner == 0
                assert s.direction == (float(P.A[0, 0]), float(P.A[0, 1]))
                assert not np.any(np.isnan(s.diagnostics.root))
                assert np.all(np.abs(s.diagnostics.root - s.rho) <= 1e-12 * s.rho)

    def test_segment_apex_n1(self):
        # a rectangle's apex is a segment: only the long edges' widths
        # vanish at the inradius (the thin one's lifetimes differ by an ulp)
        for w, h in ((2.0, 1.0), (10.0, 0.01)):
            P = canonicalize([(0, 0), (w, 0), (w, h), (0, h)])
            s = solve(P, 1)
            assert s.rho == pytest.approx(h / 2, rel=1e-15)
            assert s.direction == (0.0, 1.0)
            assert np.array_equal(~np.isnan(s.diagnostics.root), np.abs(P.A[:, 1]) == 1.0)

    def test_rho_is_smallest_qualifying_gap_lp_root(self):
        for k in range(12):
            model = ("circle", "ellipse", "smoothed")[k % 3]
            P = random_polygon(10 + 9 * k, seed=300 + k, model=model)
            n = 1 + k % 6
            s = solve(P, n)
            root = s.diagnostics.root
            assert s.rho == pytest.approx(np.nanmin(root), rel=1e-12)
            assert not np.isnan(root[s.winner])
            assert abs(root[s.winner] - s.rho) <= 1e-12 * s.rho
            # the paper's gap LP on the hierarchy agrees
            assert root_lp(hier_for(P), P, s.winner, n) == pytest.approx(s.rho, rel=1e-12)

    def test_domes_and_hierarchies_are_not_mutated(self, monkeypatch):
        import parcut.solver as solver_mod

        def snapshot(obj):
            return {k: (id(v), len(v) if isinstance(v, (list, dict)) else None)
                    for k, v in vars(obj).items()}

        domes = []

        def recording(build):
            def wrapper(*args, **kwargs):
                D = build(*args, **kwargs)
                domes.append((D, snapshot(D)))
                return D
            return wrapper

        monkeypatch.setattr(solver_mod, "build_dome", recording(solver_mod.build_dome))
        P = random_polygon(30, seed=5)
        solve(P, 3)
        assert not domes  # solve builds none
        H = hier_for(P)
        domes.append((H.dome, snapshot(H.dome)))
        before = snapshot(H)
        for i in range(P.m):
            facet_max_t(H, i)
            eval_fi(H, P, i, 0.0, 3)
        root_lp(H, P, solve(P, 3).winner, 3)
        assert snapshot(H) == before
        for D, seen in domes:
            assert snapshot(D) == seen


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    m=st.integers(8, 512),
    seed=st.integers(0, 2**16),
    model=st.sampled_from(["circle", "ellipse", "smoothed"]),
    n=st.integers(1, 64),
)
def test_descent_matches_lifetime_bracket(m, seed, model, n):
    # the descent against the bracket search over the swept lifetimes
    # (tests/lifetime_reference.py): the same rho bit for bit and the same
    # winner at n >= 2; at n = 1 rho is the incenter LP's inradius, not
    # the sweep's apex height, so the two agree to a few ulp
    P = random_polygon(m, seed=seed, model=model)
    s = solve(P, n)
    rho, winner = critical_radius(P, n)
    if n > 1:
        assert s.rho == rho and s.winner == winner
    else:
        assert abs(s.rho - rho) <= 4 * np.spacing(rho)
        assert abs(s.diagnostics.root[s.winner] - rho) <= 1e-12 * rho


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(
    m=st.sampled_from([3, 4, 5, 8, 16, 32, 64]),
    n=st.integers(1, 8),
    seed=st.integers(0, 2**16),
    model=st.sampled_from(["circle", "ellipse", "smoothed"]),
    angle=st.floats(0.0, 2 * math.pi),
    log_scale=st.floats(-1.0, 3.0),
)
def test_oracle_invariance_and_monotone_in_n(m, n, seed, model, angle, log_scale):
    # criteria 2 and 7 on drawn inputs: rho agrees with the oracle, is
    # invariant under rotation, covariant under scale over 0.1..1000, and
    # falls as n grows
    P = random_polygon(m, seed=seed, model=model)
    rho = solve(P, n).rho
    ref, _ = oracle_solve(P, n)
    assert abs(rho - ref) <= 1e-8 * ref
    c, s = math.cos(angle), math.sin(angle)
    rotated = solve(P.vertices @ np.array([[c, s], [-s, c]]), n).rho
    assert abs(rotated - rho) <= 1e-9 * rho
    k = 10.0**log_scale
    assert abs(solve(P.vertices * k, n).rho - k * rho) <= 1e-9 * k * rho
    assert solve(P, n + 1).rho < rho


UNIT_SQUARE = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], float)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("scale", [1e-12, 1e-13, 1e-15])
def test_unit_square_scaled_far_below_unit(scale, n):
    # the bounds settle every piece with no LP, so the LP path's absolute
    # 1e-12 floors never see these pieces, and a from-scratch verify
    # rebuilds I_rho at this scale
    P = canonicalize(UNIT_SQUARE * scale)
    s = solve(P, n)
    assert s.rho == pytest.approx(scale / (2 * n), rel=1e-8)
    assert verify_solution(P, n, s.rho, s.direction, s.cuts).ok


@pytest.mark.parametrize("shift", [1e3, 1e4, 1e5, 1e6])
@pytest.mark.parametrize("height", [1e-3, 1e-4])
def test_thin_rectangle_far_from_origin(height, shift):
    # emptiness is judged against the polygon's extent about its centre,
    # not against |b|, so the shift alone does not empty I_rho, in a
    # from-scratch verify or for the half-plane form
    P = canonicalize(np.array([(0, 0), (1, 0), (1, height), (0, height)]) + shift)
    Q = canonicalize((P.A, P.b))
    assert Q.A.tobytes() == P.A.tobytes() and Q.b.tobytes() == P.b.tobytes()
    for n in (2, 3):
        s = solve(P, n)
        assert s.rho == pytest.approx(height / (2 * n), abs=1e-9)  # 1e-9 of the diameter
        assert verify_solution(P, n, s.rho, s.direction, s.cuts).ok


@pytest.mark.xfail(strict=True, raises=VerificationFailedError,
                   reason="width residual -2.98e-8: solve works in the input's frame, not a centred one")
def test_unit_square_shifted_by_1e8():
    assert solve(UNIT_SQUARE + 1e8, 3).rho == pytest.approx(1 / 6, rel=1e-8)
