"""verify_solution against the all-rows reference it replaced.

The reference clips P at every cut in turn, solves each piece's inradius
LP over every row of P, and finds the inner body's interior point with one
LP over every row.  The verification under test solves I_rho's Chebyshev
LP once, which also gives P's inradius, settles interior pieces by the
strip lemma, splits P's boundary at the cuts, judges a piece degenerate
by its extent along the cut normal, and gives each remaining piece's LP
only its own edges.  An end piece's LP starts from
the rows of least depth at the ends of I_rho's edge farthest along the
cut normal, I_rho being the inner body that verification rebuilt from P
and the claim; the start may change the number of LP rounds, never a
value, so the reference has no such start.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parcut.errors import EmptyInteriorError, InvalidPieceCountError, VerificationFailedError
from parcut import geometry, solver
from parcut.geometry import (
    canonicalize,
    clip_halfplane,
    diameter,
    inner_body,
    inradius_incenter,
    min_width,
    regular_polygon,
)
from parcut.lp import OPTIMAL, small_lp
from parcut.oracle import random_polygon
from parcut.solver import Cut, _piece_inradii, solve, verify_solution
from parcut.tolerance import slack

FLOOR = ((0.0, 0.0, -1.0), 0.0)


def _lifted(A, b):
    return [((a0, a1, 1.0), bi) for (a0, a1), bi in zip(A.tolist(), b.tolist())]


def _diameter_ref(P):
    V = P.vertices
    return max(float(np.hypot(*(V - p).T).max()) for p in V)


def _pieces_ref(P, v, offsets):
    """Clip chain and one LP over every row of P for each piece."""
    pieces = []
    verts = P.vertices
    for off in offsets:
        pieces.append(clip_halfplane(verts, v, off))
        verts = clip_halfplane(verts, -v, -off)
    pieces.append(verts)
    rows = _lifted(P.A, P.b)
    radii = []
    for j, piece in enumerate(pieces):
        if len(piece) < 3:
            raise VerificationFailedError("pieces", "degenerate piece produced")
        extras = [FLOOR]
        if j > 0:
            extras.append(((-v[0], -v[1], 1.0), -offsets[j - 1]))
        if j < len(pieces) - 1:
            extras.append(((v[0], v[1], 1.0), offsets[j]))
        res = small_lp(rows + extras, (0.0, 0.0, 1.0))
        if res.status != OPTIMAL:
            raise VerificationFailedError("pieces", f"piece {j} inradius LP failed")
        radii.append(res.value)
    return radii


def _verify_ref(P, n, rho, direction, cuts):
    """The verification as it was: returns the piece inradii or raises."""
    vtol = 1e-8 * _diameter_ref(P)
    b = P.b - rho
    res = small_lp(_lifted(P.A, b), (0.0, 0.0, 1.0))
    inner = None
    if res.status == OPTIMAL and res.value > slack(max(1.0, float(np.abs(b).max()))):
        try:
            inner = canonicalize((P.A, b))
        except EmptyInteriorError:
            pass
    if inner is None:
        r = small_lp(_lifted(P.A, P.b) + [FLOOR], (0.0, 0.0, 1.0)).value
        if rho > r + vtol:
            raise VerificationFailedError("width", "rho exceeds the inradius")
        width_inner = 0.0
    else:
        width_inner = min_width(inner)
    if abs(width_inner + 2 * rho - 2 * n * rho) > vtol:
        raise VerificationFailedError("width", "width residual")
    if abs(width_inner - 2 * (n - 1) * rho) > vtol:
        raise VerificationFailedError("min-fi", "gap residual")
    if any(np.hypot(*np.subtract(c.normal, direction)) > 1e-8 for c in cuts):
        raise VerificationFailedError("cuts", "normal differs from the direction")
    radii = _pieces_ref(P, np.asarray(direction, float), [float(c.offset) for c in cuts])
    if len(radii) != n:
        raise VerificationFailedError("pieces", "piece count")
    if max(radii) > rho + vtol or max(radii) < rho - vtol:
        raise VerificationFailedError("pieces", "max piece inradius")
    return radii


def _outcome(fn, *args):
    try:
        return fn(*args)
    except VerificationFailedError as exc:
        return exc.clause


# (m, n, model) spanning m = 8..2000, n = 1..300 and the three models,
# kept to a few seconds of reference LPs
CASES = [
    (8, 1, "circle"), (8, 300, "ellipse"), (12, 5, "smoothed"), (30, 7, "circle"),
    (64, 2, "ellipse"), (60, 150, "smoothed"), (120, 300, "circle"), (256, 32, "ellipse"),
    (1000, 12, "smoothed"), (1000, 20, "circle"), (2000, 2, "ellipse"), (2000, 6, "smoothed"),
]


class TestAgainstReference:
    @pytest.mark.parametrize("m,n,model", CASES)
    def test_piece_inradii_and_tampered_claims(self, m, n, model):
        P = random_polygon(m, seed=500 + m + n, model=model)
        s = solve(P, n)
        rep = verify_solution(P, n, s.rho, s.direction, s.cuts)
        ref = _verify_ref(P, n, s.rho, s.direction, s.cuts)
        assert len(rep.piece_inradii) == len(ref) == n
        assert np.max(np.abs(np.subtract(rep.piece_inradii, ref))) <= 1e-12 * s.rho

        diam = _diameter_ref(P)
        tampered = [(P, n, s.rho * (1 + 1e-6), s.direction, s.cuts),
                    (P, n, s.rho * (1 - 1e-6), s.direction, s.cuts)]
        if n > 1:
            j = int(np.argmax(rep.piece_inradii))
            moved = list(s.cuts)
            c = min(j, n - 2)  # a cut bounding the fullest piece
            step = 1e-6 * diam if c == j else -1e-6 * diam
            moved[c] = Cut(moved[c].normal, moved[c].offset + step)
            tampered.append((P, n, s.rho, s.direction, moved))
            tampered.append((P, n, s.rho, s.direction, s.cuts[:-1]))
            th = 1e-6  # every cut's normal turned off the direction
            R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
            turned = [Cut(tuple(R @ cut.normal), cut.offset) for cut in s.cuts]
            tampered.append((P, n, s.rho, s.direction, turned))
        if n > 2:  # claims that reach the interior pieces
            c = (n - 1) // 2  # between pieces c and c + 1, at least one interior
            moved = list(s.cuts)
            moved[c] = Cut(moved[c].normal, moved[c].offset + 1e-6 * diam)
            tampered.append((P, n, s.rho, s.direction, moved))
            shifted = [Cut(cut.normal, cut.offset + 1e-6 * diam) for cut in s.cuts]
            tampered.append((P, n, s.rho, s.direction, shifted))
            doubled = s.cuts[:c] + [s.cuts[c]] + s.cuts[c:]
            tampered.append((P, n, s.rho, s.direction, doubled))
            for shift in (3 * s.rho, -3 * s.rho):  # end midlines miss I_rho
                restarted = [Cut(cut.normal, cut.offset + shift) for cut in s.cuts]
                tampered.append((P, n, s.rho, s.direction, restarted))
        for claim in tampered:
            got = _outcome(verify_solution, *claim)
            assert isinstance(got, str), (m, n, claim[2] / s.rho)
            assert got == _outcome(_verify_ref, *claim)


def _check_split(P, v, offsets, rho=None):
    """_piece_inradii against the reference, with the strip lemma at rho
    when it is given."""
    v = np.asarray(v, float) / np.linalg.norm(v)
    offsets = np.asarray(offsets, float)
    vtol = 1e-8 * _diameter_ref(P)
    lemma = () if rho is None else (inner_body(P, rho), rho)
    got = _outcome(_piece_inradii, P, v, offsets, vtol, *lemma)
    ref = _outcome(_pieces_ref, P, v, offsets.tolist())
    if isinstance(ref, str):
        assert got == ref
    else:
        scale = max(ref)
        assert np.max(np.abs(np.subtract(got, ref))) <= 1e-12 * scale


class TestBoundarySplit:
    def test_cuts_through_vertices(self):
        for P in (regular_polygon(6), regular_polygon(12), canonicalize([(0, 0), (2, 0), (3, 1), (1, 2)])):
            for v in list(P.A[:3]) + [(1.0, 0.0), (1.0, 1.0)]:
                v = np.asarray(v, float) / np.linalg.norm(v)
                proj = np.unique(P.vertices @ v)[1:-1]
                for shift in (0.0, -1e-9, 1e-9):  # on, just below, just above
                    _check_split(P, v, proj + shift)
        # the regular hexagon's solution at n = 2 cuts through two vertices
        P = regular_polygon(6)
        s = solve(P, 2)
        assert np.sort(np.abs(P.vertices @ np.asarray(s.direction) - s.cuts[0].offset))[1] < 1e-15
        assert s.verification.piece_inradii == pytest.approx(_verify_ref(P, 2, s.rho, s.direction, s.cuts), abs=1e-12)

    def test_long_edges_span_many_slabs(self):
        # the 10 x 0.01 rectangle at n = 200: cut across its short side, the
        # long edges are parallel to the cuts and the short ones span all
        # 200 slabs; cut across its long side, the reverse
        P = canonicalize([(0, 0), (10, 0), (10, 0.01), (0, 0.01)])
        s = solve(P, 200)
        assert s.direction == (0.0, 1.0)
        assert s.verification.piece_inradii == pytest.approx(
            _verify_ref(P, 200, s.rho, s.direction, s.cuts), abs=1e-12 * s.rho
        )
        _check_split(P, (1.0, 0.0), np.linspace(0.0, 10.0, 201)[1:-1])
        _check_split(P, (1.0, 1e-3), np.linspace(0.0, 10.0, 201)[1:-1])

    def test_cut_on_a_parallel_edge(self):
        P = canonicalize([(0, 0), (1, 0), (1, 1), (0, 1)])
        _check_split(P, (0.0, 1.0), [0.5, 1.0])  # the top piece is a segment
        _check_split(P, (0.0, 1.0), [0.0, 0.5])
        _check_split(P, (0.0, 1.0), [0.25, 0.5, 0.75])

    def test_random_cuts(self):
        rng = np.random.default_rng(31)
        for k in range(12):
            P = random_polygon(int(rng.integers(3, 300)), seed=k, model=("circle", "ellipse", "smoothed")[k % 3])
            v = rng.normal(size=2)
            proj = P.vertices @ (v / np.linalg.norm(v))
            _check_split(P, v, np.sort(rng.uniform(proj.min(), proj.max(), size=int(rng.integers(1, 40)))))

    def test_unordered_cuts_fail_pieces(self):
        P = regular_polygon(8)
        _check_split(P, (1.0, 0.0), [0.3, -0.3])
        with pytest.raises(VerificationFailedError) as exc:
            _piece_inradii(P, np.array([1.0, 0.0]), np.array([0.3, -0.3]), 1e-8)
        assert exc.value.clause == "pieces"


_CHEBYSHEV_LP = solver.chebyshev_lp


class _CountingLp:
    """Stands in for `solver.chebyshev_lp` and counts the piece LPs."""

    def __init__(self):
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return _CHEBYSHEV_LP(*args, **kwargs)


class TestStripLemma:
    def test_honest_claim_solves_two_piece_lps(self, monkeypatch):
        P = random_polygon(1000, seed=3, model="smoothed")
        s = solve(P, 64)
        v = np.asarray(s.direction)
        offsets = np.array([c.offset for c in s.cuts])
        vtol = 1e-8 * _diameter_ref(P)
        lp = _CountingLp()
        monkeypatch.setattr(solver, "chebyshev_lp", lp)
        got = _piece_inradii(P, v, offsets, vtol, inner_body(P, s.rho), s.rho)
        assert lp.calls == 2
        ref = _pieces_ref(P, v, offsets.tolist())
        assert np.max(np.abs(np.subtract(got, ref))) <= 1e-12 * s.rho

    def test_end_piece_lp_is_one_round(self, monkeypatch):
        # I_rho meets the cut normal in an edge (the winner's row) at one end
        # of a random draw and in a vertex at the other, and in an edge at
        # both ends of the regular 4096-gon; each end piece's LP is a single
        # small_lp call of at most 6 rows either way
        polygons = [random_polygon(4096, seed=s, model=model)
                    for s, model in enumerate(("circle", "ellipse", "smoothed"))]
        for P in polygons + [regular_polygon(4096)]:
            s = solve(P, 2)
            v = np.asarray(s.direction)
            offsets = np.array([c.offset for c in s.cuts])
            inner = inner_body(P, s.rho)
            rows = []

            def counting_lp(constraints, *args, **kwargs):
                rows.append(len(constraints))
                return small_lp(constraints, *args, **kwargs)

            fallbacks = Counter()
            with monkeypatch.context() as mp:
                mp.setattr(geometry, "small_lp", counting_lp)
                got = _piece_inradii(P, v, offsets, 1e-8 * _diameter_ref(P), inner, s.rho, fallbacks)
            assert len(rows) == 2 and max(rows) <= 6, rows
            assert not fallbacks
            ref = _pieces_ref(P, v, offsets.tolist())
            assert np.max(np.abs(np.subtract(got, ref))) <= 1e-12 * s.rho

    def test_random_slabs(self, monkeypatch):
        # slabs of random half-width up to just over rho, at random starts:
        # the lemma settles those whose midline lies in I_rho, the LP the rest
        lp = _CountingLp()
        monkeypatch.setattr(solver, "chebyshev_lp", lp)
        rng = np.random.default_rng(47)
        pieces = 0
        for k in range(12):
            P = random_polygon(int(rng.integers(3, 300)), seed=40 + k, model=("circle", "ellipse", "smoothed")[k % 3])
            r, _ = inradius_incenter(P)
            rho = float(rng.uniform(0.02, 0.3)) * r
            v = rng.normal(size=2)
            proj = P.vertices @ (v / np.linalg.norm(v))
            w = rho * (float(rng.uniform(0.3, 1.0)), 1.0, 1.0 + 1e-9)[k % 3]
            offsets = np.arange(proj.min() + rng.uniform(0, 2 * w), proj.max(), 2 * w)
            _check_split(P, v, offsets, rho)
            pieces += len(offsets) + 1
        assert lp.calls < pieces / 2  # the lemma settled most pieces

    def test_slabs_at_a_pointed_end(self):
        # the triangle's ends along x are sharp, so I_rho stops well short of
        # them: slabs there have midlines outside I_rho and inradius below w
        P = canonicalize([(0, 0), (4, 0), (2, 1)])
        v = np.array([1.0, 0.0])
        rho = 0.1
        offsets = np.arange(0.05, 3.96, 2 * rho)
        _check_split(P, v, offsets, rho)
        ref = _pieces_ref(P, v, offsets.tolist())
        assert min(ref[1:-1]) < 0.9 * rho
        # midline on I_rho's extremes: exactly rho wide settles at w; a hair
        # wider (beyond vtol) has inradius rho, not w
        s = inner_body(P, rho).vertices @ v
        for w in (rho, rho * (1 + 1e-6)):
            _check_split(P, v, s.max() + w * np.array([-3.0, -1.0, 1.0]), rho)
            _check_split(P, v, s.min() + w * np.array([-1.0, 1.0, 3.0]), rho)
        # a repeated cut leaves a piece of width 0, not of inradius 0
        _check_split(P, v, [1.0, 2.0, 2.0, 3.0], rho)
        assert _outcome(_piece_inradii, P, v, np.array([1.0, 2.0, 2.0, 3.0]), 1e-8,
                        inner_body(P, rho), rho) == "pieces"


def test_one_piece_reuses_the_inradius():
    # at n = 1 I_rho is empty; the one Chebyshev LP of I_rho that decides
    # it also gives P's inradius, which the one piece, P, reports
    for P in (random_polygon(64, seed=1), random_polygon(1000, seed=2, model="ellipse")):
        s = solve(P, 1)
        lp = _CountingLp()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "chebyshev_lp", lp)
            mp.setattr(solver, "chebyshev_lp", lp)
            rep = verify_solution(P, 1, s.rho, s.direction, s.cuts)
        assert lp.calls == 1
        r = _piece_inradii(P, np.asarray(s.direction), np.array([]), 1e-8 * _diameter_ref(P))
        assert len(rep.piece_inradii) == len(r) == 1
        assert abs(rep.piece_inradii[0] - inradius_incenter(P)[0]) <= 1e-15 * s.rho
        assert abs(r[0] - inradius_incenter(P)[0]) <= 1e-15 * s.rho


def test_solve_at_one_piece_solves_one_lp():
    # at n = 1 I_rho is the apex, so solve builds no inner body and its
    # verification's one Chebyshev LP decides that I_rho is empty
    square = canonicalize([(0, 0), (1, 0), (1, 1), (0, 1)])
    rectangle = canonicalize([(0, 0), (2, 0), (2, 1), (0, 1)])  # its apex is a segment
    for P in (random_polygon(64, seed=1), random_polygon(1000, seed=2, model="ellipse"), square, rectangle):
        lp = _CountingLp()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "chebyshev_lp", lp)
            mp.setattr(solver, "chebyshev_lp", lp)
            s = solve(P, 1)
        assert lp.calls == 1
        assert s.verification.ok and s.cuts == []


def test_verify_from_scratch_solves_one_inner_lp(monkeypatch):
    # the piece LPs aside, a from-scratch verify solves I_rho's Chebyshev
    # LP once, whatever n is and whether or not I_rho is empty
    P = random_polygon(300, seed=7, model="smoothed")
    calls = []

    def counting_lp(A, b, *args, **kwargs):
        calls.append(len(b))
        return _CHEBYSHEV_LP(A, b, *args, **kwargs)

    for n in (1, 2, 5, 40):
        s = solve(P, n)
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(geometry, "chebyshev_lp", counting_lp)
            mp.setattr(solver, "chebyshev_lp", counting_lp)
            assert verify_solution(P, n, s.rho, s.direction, s.cuts).ok
        assert calls.count(P.m) == 1, (n, calls)  # a piece LP reads its own edges only



def test_verify_from_scratch_inner_lp_reads_few_rows(monkeypatch):
    # I_rho's Chebyshev LP on a 1000-gon starts from 16 angle-bin rows and
    # adds at most 8 per round: 40 rows in two rounds of 16 and 24 (257
    # in rounds of 128 and 129 from 64 bins); the bound has headroom, so a
    # start that grows back fails
    P = random_polygon(1000, seed=5)
    s = solve(P, 2)
    rows, counting = [], [False]

    def inner_lp(A, b, *args, **kwargs):
        counting[0] = len(b) == P.m  # a piece LP reads its own edges only
        try:
            return _CHEBYSHEV_LP(A, b, *args, **kwargs)
        finally:
            counting[0] = False

    def counting_lp(constraints, *args, **kwargs):
        if counting[0]:
            rows.append(len(constraints))
        return small_lp(constraints, *args, **kwargs)

    monkeypatch.setattr(solver, "chebyshev_lp", inner_lp)
    monkeypatch.setattr(geometry, "small_lp", counting_lp)
    assert verify_solution(P, 2, s.rho, s.direction, s.cuts).ok
    assert rows and sum(rows) <= 64, rows

# the hexagon of the numpy-only package check in CI
HEXAGON = [(0, 0), (3, 0), (4, 1.5), (3.2, 3), (1, 3.4), (-0.6, 1.8)]


class TestClaim:
    """The claim is checked before any geometry: a malformed one raises
    the "claim" clause, or InvalidPieceCountError for n as `solve` does."""

    @staticmethod
    def _rejected(n, rho, direction, cuts):
        with pytest.raises(VerificationFailedError) as exc:
            verify_solution(canonicalize(HEXAGON), n, rho, direction, cuts)
        assert exc.value.clause == "claim"

    @pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf, -0.5, 0.0])
    @pytest.mark.parametrize("n", [1, 3])
    def test_rho_finite_and_positive(self, n, rho):
        s = solve(canonicalize(HEXAGON), n)
        self._rejected(n, rho, s.direction, s.cuts)

    @pytest.mark.parametrize("direction", [(math.nan, math.nan), (5.0, 7.0), (0.6, 0.8 + 1e-7),
                                           (math.inf, 0.0), (1.0, 0.0, 0.0)])
    def test_direction_finite_unit_vector(self, direction):
        s = solve(canonicalize(HEXAGON), 1)
        self._rejected(1, s.rho, direction, s.cuts)

    def test_direction_checked_before_the_cuts(self):
        s = solve(canonicalize(HEXAGON), 3)
        v = (5 * s.direction[0], 5 * s.direction[1])
        self._rejected(3, s.rho, v, [Cut(v, cut.offset) for cut in s.cuts])

    @pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf])
    def test_cut_offsets_finite(self, offset):
        s = solve(canonicalize(HEXAGON), 3)
        cuts = [s.cuts[0], Cut(s.cuts[1].normal, offset)]
        self._rejected(3, s.rho, s.direction, cuts)

    @pytest.mark.parametrize("n", [0, -2, 2.0, 2.5, True, "2"])
    def test_piece_count(self, n):
        P = canonicalize(HEXAGON)
        s = solve(P, 2)
        with pytest.raises(InvalidPieceCountError):
            verify_solution(P, n, s.rho, s.direction, s.cuts)


class TestSmallPolygons:
    """Verification's slack is relative to P's diameter at every size."""

    @staticmethod
    def square(side):
        return canonicalize([(0, 0), (side, 0), (side, side), (0, side)])

    @pytest.mark.parametrize("side", [1e-6, 1e-9])
    def test_solve(self, side):
        for n in (1, 2, 3):
            s = solve(self.square(side), n)
            assert s.rho == pytest.approx(side / (2 * n), rel=1e-14)
            assert s.verification.ok
            assert s.verification.tolerance == pytest.approx(1e-8 * side * np.sqrt(2), rel=1e-12)

    def test_verify_from_scratch(self):
        # as `parcut verify` runs it: I_rho is rebuilt from P and the claim,
        # and its emptiness test must not floor at unit size
        P = self.square(1e-9)
        for n in (2, 3, 7):
            s = solve(P, n)
            assert verify_solution(P, n, s.rho, s.direction, s.cuts).ok

    @pytest.mark.parametrize("side", [1e-4, 1e-6])
    def test_wrong_claims_fail(self, side):
        P = self.square(side)
        n = 3
        s = solve(P, n)
        assert verify_solution(P, n, s.rho, s.direction, s.cuts).ok
        moved = [Cut(s.cuts[0].normal, s.cuts[0].offset + 0.3 * side)] + s.cuts[1:]
        for claim in ((s.rho * (1 + 1e-6), s.cuts), (s.rho * 2, s.cuts), (s.rho, moved)):
            with pytest.raises(VerificationFailedError):
                verify_solution(P, n, claim[0], s.direction, claim[1])


def _turn(u, angle):
    c, s = math.cos(angle), math.sin(angle)
    return (c * u[0] - s * u[1], s * u[0] + c * u[1])


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(
    m=st.integers(3, 64),
    n=st.integers(1, 8),
    seed=st.integers(0, 2**16),
    model=st.sampled_from(["circle", "ellipse", "smoothed"]),
)
def test_verify_rejects_tampered_claims(m, n, seed, model):
    # tampered by 1e-6 of the diameter, not of rho: verify's tolerance is
    # 1e-8 of the diameter, so on a sliver rho * (1 +- 1e-6) is rightly
    # accepted.  The cut normals are turned and the direction is not:
    # turned together they can still cut pieces within that tolerance
    P = random_polygon(m, seed=seed, model=model)
    s = solve(P, n)
    assert verify_solution(P, n, s.rho, s.direction, s.cuts).ok
    d = 1e-6 * diameter(P)
    claims = [(s.rho + d, s.cuts), (s.rho - d, s.cuts)]
    if s.cuts:
        first = s.cuts[0]
        turned = [Cut(_turn(cut.normal, 1e-6), cut.offset) for cut in s.cuts]
        claims += [
            (s.rho, [Cut(first.normal, first.offset + d)] + s.cuts[1:]),
            (s.rho, s.cuts[1:]),
            (s.rho, turned),
        ]
    for rho, cuts in claims:
        with pytest.raises(VerificationFailedError):
            verify_solution(P, n, rho, s.direction, cuts)
