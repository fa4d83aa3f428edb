"""Optimal equal-spaced parallel cuts of a convex polygon.

The critical radius rho is the unique root of

    g(t) = minwidth(I_t) - 2 (n - 1) t,

where I_t = {x : Ax <= b - t} is the inner parallel body (the union of
the radius-t disks inside P is I_t thickened by t); for n = 1 rho is the
inradius.  `solve` finds it without any hierarchy:

* lifetimes -- one non-strict collapse sweep over the unperturbed dome
  gives every M_i, the offset at which edge i leaves the inner body;
  the sweep's last event is the apex, i.e. the incenter at the height
  of the inradius.  Four planes through one point do not move these
  heights, so `solve` never perturbs.
* bracket -- the rows of I_t are exactly those with M_i > t, so between
  consecutive sorted lifetimes the alive set, and with it every corner
  of I_t and every edge's antipodal corner, stays fixed.  A binary
  search over the sorted lifetimes finds the bracket where g changes
  sign, reading g in O(m) per probe.
* root -- inside the bracket each width is linear in t, so each edge's
  gap f_i(t) = b_i - min_{I_t} A_i.x - (2n-1) t has its root in closed
  form (the concurrence of the antipodal corner's two lifted rows with
  the gap row).  The smallest root is rho, and its edge normal is the
  cut direction; ties within rounding break by lowest index.

The n-1 cuts are then equally spaced along that normal and the answer is
verified from scratch.  Per-edge diagnostics are read off the same
bracket: an edge's root is reported only when it lies there.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .dome import build_dome, facet_lifetimes
from .errors import InvalidPieceCountError, VerificationFailedError
from .geometry import (
    _FLOOR,
    HPolygon,
    _corners,
    _expand_ranges,
    canonicalize,
    chebyshev_lp,
    clip_halfplane,
    diameter,
    inner_body,
    inradius_incenter,
    min_width,
)
from .hierarchy import bounded_core, build_hierarchy, face_lattice, perturb  # noqa: F401 -- bench/spans.py wraps solver.X
from .lp import OPTIMAL, small_lp  # noqa: F401 -- bench/spans.py wraps solver.small_lp
from .queries import eval_fi, facet_max_t, lp_max, lp_max_constrained, lp_max_section  # noqa: F401 -- bench/spans.py wraps solver.X
from .tolerance import DEFAULT_TOL, Tol

# lifetimes or roots closer than this, relative to the largest offset, are
# equal up to rounding; tied roots break by lowest index
_TIE_REL = 1e-13
# a slab's half-width may exceed rho by this much, relative to the largest
# cut offset or rho, and still be settled by the strip lemma: the rounding
# of an honest claim's offsets
_LEMMA_REL = 4 * np.finfo(float).eps


@dataclass(slots=True)
class FacetDiagnostics:
    """Per-edge byproducts of the solve, read off rho's bracket.

    `M` is the swept lifetime M_i.  `root` is the root of the gap f_i when
    it lies in the bracket of lifetimes that holds rho (where f_i is
    linear, so the closed form is exact), else None; `qualifies` says
    whether it is there.  `f_at_M` is f_i(M_i) for the edges that die at
    the bracket's top, read there, else None.
    """

    index: int
    M: float
    f_at_M: float | None
    qualifies: bool
    root: float | None


@dataclass(frozen=True)
class Cut:
    """Cut line {x : normal . x = offset}."""

    normal: tuple[float, float]
    offset: float


@dataclass
class VerificationReport:
    width_residual: float
    min_fi_residual: float
    piece_inradii: list[float]
    max_piece_inradius: float
    tolerance: float
    ok: bool


@dataclass
class Solution:
    rho: float
    direction: tuple[float, float]
    winner: int
    cuts: list[Cut]
    n: int
    diagnostics: list[FacetDiagnostics]
    verification: VerificationReport | None
    stats: dict


# ---------------------------------------------------------------------------
# rho from the lifetimes


def _antipodes(ang: np.ndarray, S: np.ndarray) -> np.ndarray:
    """For each row of S, the corner (S[k], S[k+1]) whose normal cone holds
    the opposite normal: where A_i.x is smallest over that polygon."""
    a = ang[S]
    opp = (a + math.pi) % (2 * math.pi)
    return (np.searchsorted(a, opp, side="right") - 1) % len(S)


def _widths(P: HPolygon, S: np.ndarray, t: float, ang: np.ndarray) -> np.ndarray:
    """Width of I_t along each normal of S, given that S are its rows."""
    A = P.A[S]
    b = P.b[S] - t
    X = _corners(A, b)[0][_antipodes(ang, S)]
    return b - (A[:, 0] * X[:, 0] + A[:, 1] * X[:, 1])


def _gap_roots(P: HPolygon, S: np.ndarray, n: int, ang: np.ndarray) -> np.ndarray:
    """Root of every gap f_i, i in S, while exactly the rows S are alive.

    The antipodal corner then moves along the line where its two lifted
    rows meet, so f_i is linear and its root is the concurrence of those
    two rows with the gap row (A_i, 2n-1) . (x, t) = b_i.  Solved like
    `_solve3`: the two lifted rows share their t-coefficient, so they are
    differenced exactly first.  Singular triples give +inf.
    """
    k = _antipodes(ang, S)
    p = S[k]
    q = S[(k + 1) % len(S)]
    lo = np.minimum(p, q)
    hi = np.maximum(p, q)
    A, b = P.A, P.b
    c = float(2 * n - 1)
    dx = A[hi, 0] - A[lo, 0]
    dy = A[hi, 1] - A[lo, 1]
    do = b[hi] - b[lo]
    ex = A[S, 0] - c * A[lo, 0]
    ey = A[S, 1] - c * A[lo, 1]
    eo = b[S] - c * b[lo]
    det = dx * ey - ex * dy
    singular = np.abs(det) <= 1e-14 * (np.abs(dx) + np.abs(dy)) * (np.abs(ex) + np.abs(ey))
    det = np.where(singular, 1.0, det)
    x = (do * ey - eo * dy) / det
    y = (dx * eo - ex * do) / det
    return np.where(singular, np.inf, b[lo] - A[lo, 0] * x - A[lo, 1] * y)


def _critical_radius(P: HPolygon, n: int, M: np.ndarray, r: float, ang: np.ndarray,
                     tie: float, work: dict):
    """rho and the winning edge from the lifetimes M and the inradius r,
    with rho's bracket: its alive rows S, their gap roots tau and its top.

    Lifetimes that agree to rounding are one event: a row whose swept
    M_i falls a hair short of its peers must stay alive until they die, or
    a segment-shaped apex would lose one of its four rows.
    """
    M = np.minimum(M, r)
    u = np.unique(M)
    first = np.concatenate([[0], np.nonzero(np.diff(u) > tie)[0] + 1])
    low = u[first]  # event k: lifetimes in [low[k], top[k]]
    top = np.append(u[first[1:] - 1], u[-1])
    c = 2.0 * (n - 1)

    def alive(k):  # rows of I_t for t in (top[k-1], top[k])
        S = np.nonzero(M >= low[k])[0]
        work["rows"] += len(S)
        work["probes"] += 1
        return S

    lo, hi = 0, len(top) - 1
    if n > 1:  # first event k with g(top[k]) <= 0; g(r) < 0 for n >= 2
        while lo < hi:
            mid = (lo + hi) // 2
            work["steps"] += 1
            t = float(top[mid])
            if _widths(P, alive(mid), t, ang).min() - c * t <= 0.0:
                hi = mid
            else:
                lo = mid + 1
    S = alive(hi)
    tau = _gap_roots(P, S, n, ang)
    best = float(tau.min())
    if not math.isfinite(best):
        raise VerificationFailedError("no-root", "no edge gap has a root; invalid input?")
    winner = int(S[np.nonzero(tau <= best + tie)[0][0]])
    return (best if n > 1 else r), winner, S, tau, float(top[hi])


def _diagnostics(P: HPolygon, n: int, M: np.ndarray, S: np.ndarray, tau: np.ndarray,
                 t_hi: float, ang: np.ndarray, tie: float) -> list[FacetDiagnostics]:
    """Per-edge diagnostics read off rho's bracket (alive rows S, roots tau,
    top t_hi): a root counts only inside the bracket, and f_i(M_i) is read
    at t_hi for the rows that die there, from one width evaluation."""
    inside = tau <= t_hi + tie
    root = dict(zip(S[inside].tolist(), tau[inside].tolist()))
    dying = M[S] <= t_hi + tie
    f = _widths(P, S, t_hi, ang) - 2.0 * (n - 1) * t_hi
    f_at_M = dict(zip(S[dying].tolist(), f[dying].tolist()))
    return [
        FacetDiagnostics(i, Mi, f_at_M.get(i), i in root, root.get(i))
        for i, Mi in enumerate(M.tolist())
    ]


def solve(P, n: int, *, tol: Tol = DEFAULT_TOL) -> Solution:
    """Compute rho with width(P^rho) = 2 n rho, the direction, and the cuts.

    Canonicalize, lift to the dome, sweep it once for the lifetimes, find
    rho's bracket and its closed-form root, place the cuts and verify;
    `Solution.diagnostics` holds every edge's `FacetDiagnostics`.
    """
    t_start = time.perf_counter()
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise InvalidPieceCountError(f"piece count must be a positive integer, got {n!r}")
    n = int(n)
    if not isinstance(P, HPolygon):
        P = canonicalize(P, tol)  # HPolygon input is canonical by contract

    D0 = build_dome(P)
    life = facet_lifetimes(D0)
    t_built = time.perf_counter()

    work = {"probes": 0, "rows": 0, "steps": 0}
    ang = np.arctan2(P.A[:, 1], P.A[:, 0]) % (2 * math.pi)  # ascending: P is canonical
    tie = _TIE_REL * float(np.abs(P.b).max())
    r = life.apex[2]
    rho, winner, S, tau, t_hi = _critical_radius(P, n, life.M, r, ang, tie, work)
    direction = (float(P.A[winner, 0]), float(P.A[winner, 1]))
    diag = _diagnostics(P, n, life.M, S, tau, t_hi, ang, tie)

    inner = _inner_from_lifetimes(P, rho, life.M, tie)
    if inner is None:
        inner = inner_body(P, rho, tol, interior=life.apex[:2])
    cuts = place_cuts(P, rho, direction, n, _inner=inner)
    report = verify_solution(P, n, rho, direction, cuts, tol, _inner=inner, _diam=D0.scale)
    t_end = time.perf_counter()

    return Solution(
        rho=rho,
        direction=direction,
        winner=winner,
        cuts=cuts,
        n=n,
        diagnostics=diag,
        verification=report,
        stats={
            "m": P.m,
            "build_ms": (t_built - t_start) * 1e3,
            "solve_ms": (t_end - t_start) * 1e3,
            "lp_queries": work["probes"],
            "vertex_inspections": life.events + work["rows"],
            "binary_search_steps": work["steps"],
        },
    )


def _inner_from_lifetimes(P: HPolygon, rho: float, Ms, tie: float) -> HPolygon | None:
    """Inner body at rho assembled from the facet lifetimes.

    The rows supporting the inner body are exactly those with M_i > rho,
    in unchanged cyclic order, so their consecutive intersections are its
    vertices; no redundancy pass is needed.  A lifetime within `tie` of
    rho equals it up to rounding, so its row counts as dead there.
    """
    alive = np.nonzero(Ms > rho + tie)[0]
    k = len(alive)
    if k < 3:
        return None
    A = P.A[alive]
    b = P.b[alive] - rho
    verts, det = _corners(A, b)
    if np.any(np.abs(det) < 1e-13):
        return None  # adjacent near-parallel rows: fall back to the hull path
    return HPolygon(A, b, verts)


def place_cuts(P: HPolygon, rho: float, v, n: int, _inner: HPolygon | None = None) -> list[Cut]:
    """n-1 equally spaced cut lines normal to v, spanning width(P^rho)."""
    if n <= 1:
        return []
    inner = _inner if _inner is not None else inner_body(P, rho)
    if inner is None:
        raise VerificationFailedError("cuts", f"inner body empty at rho={rho}")
    vv = np.asarray(v, float)
    s_min = float((inner.vertices @ vv).min()) - rho
    return [
        Cut((float(vv[0]), float(vv[1])), s_min + 2.0 * rho * j)
        for j in range(1, n)
    ]


def _piece_inradii(P: HPolygon, v, offsets: np.ndarray, vtol: float, tol: Tol,
                   inner: HPolygon | None = None, rho: float = 0.0) -> list[float]:
    """Inradius of each piece of P between consecutive cut offsets along v.

    Interior pieces are settled by the strip lemma when the inner body
    `inner` = I_rho is given.  A slab {lo <= v.x <= hi} of half-width
    w = (hi - lo)/2 bounds every disk in it by w, and for 0 < w <= rho
    I_w contains I_rho, so a point of I_rho on the midline (lo + hi)/2
    centres a disk of radius w inside both P and the slab: the piece's
    inradius is exactly w whenever the midline lies within I_rho's
    extremes [s_min, s_max] along v.  The width test admits
    w <= rho + eps, where eps = _LEMMA_REL * max(|offset|, rho) over all
    offsets, capped at vtol, covers the rounding of an honest claim's
    offsets s_0 + 2 rho j: they round at the size of their terms, which
    near a zero crossing far exceeds |lo| and |hi|.  In that band the true
    inradius lies in [rho, w], both within vtol of rho, so no verdict
    changes.  A midline that rounding puts delta outside I_rho errs by at
    most delta, since I_(rho - delta) reaches delta further along v.  The
    reported value is w, from the offsets; rho is never copied in.

    The two end pieces, and any piece that fails the test (a wider or
    misplaced slab, w <= 0, or no inner body), get an inradius LP.  For
    those P's boundary is split at the cuts in one sorted pass.  Edge k
    runs from vertex k-1 to vertex k and spans [lo_k, hi_k] along v, so it
    meets the pieces from the first whose upper cut is >= lo_k to the last
    whose lower cut is <= hi_k: two binary searches on the offsets.  The
    test is widened by vtol, because an extra row of P is valid for a
    piece but a missing one is not.  A piece's inradius LP reads only its
    own edges' rows and its one or two slab rows, and its vertex cycle is
    its own edges' endpoints (a convex polygon inside P holding the piece)
    clipped by its slab rows.
    """
    A, b, V = P.A, P.b, P.vertices
    m = P.m
    k = len(offsets)
    if np.any(np.diff(offsets) < 0):
        raise VerificationFailedError("pieces", "cuts are out of order along the direction")
    vx, vy = float(v[0]), float(v[1])
    inradii = np.zeros(k + 1)
    settled = np.zeros(k + 1, dtype=bool)
    if inner is not None and k >= 2:
        lo, hi = offsets[:-1], offsets[1:]
        w = (hi - lo) / 2
        mid = (lo + hi) / 2
        s = inner.vertices[:, 0] * vx + inner.vertices[:, 1] * vy
        eps = min(_LEMMA_REL * max(abs(offsets[0]), abs(offsets[-1]), rho), vtol)
        settled[1:k] = (w > 0) & (w <= rho + eps) & (mid >= s.min()) & (mid <= s.max())
        inradii[1:k] = w

    proj = V[:, 0] * vx + V[:, 1] * vy
    prev = np.roll(proj, 1)
    first = np.searchsorted(offsets, np.minimum(prev, proj) - vtol, side="left")
    last = np.searchsorted(offsets, np.maximum(prev, proj) + vtol, side="right")
    edge, piece = _expand_ranges(first, last + 1)
    order = np.argsort(piece, kind="stable")  # edges stay in index order
    edge = edge[order]
    bounds = np.searchsorted(piece[order], np.arange(k + 2))

    for j in np.nonzero(~settled)[0].tolist():
        E = edge[bounds[j]:bounds[j + 1]]
        verts = V[np.union1d((E - 1) % m, E)]
        extras = [_FLOOR]
        if j > 0:
            verts = clip_halfplane(verts, -v, -offsets[j - 1])
            extras.append(((-vx, -vy, 1.0), -float(offsets[j - 1])))
        if j < k:
            verts = clip_halfplane(verts, v, offsets[j])
            extras.append(((vx, vy, 1.0), float(offsets[j])))
        if len(verts) < 3:
            raise VerificationFailedError("pieces", "degenerate piece produced")
        res = chebyshev_lp(A[E], b[E], extras, tol)
        if res.status != OPTIMAL:
            raise VerificationFailedError("pieces", f"piece {j} inradius LP failed")
        inradii[j] = res.value
    return inradii.tolist()


def verify_solution(
    P: HPolygon,
    n: int,
    rho: float,
    direction,
    cuts: list[Cut],
    tol: Tol = DEFAULT_TOL,
    _inner: HPolygon | None = None,
    _diam: float | None = None,
) -> VerificationReport:
    """Check the three defining identities of a solution.

    (a) width(inner_rho) + 2 rho = 2 n rho, (b) cutting P yields n pieces
    with max inradius rho (none exceeding it), (c) the smallest width gap
    over edges vanishes at rho.  Every cut's normal must be `direction`.
    Raises VerificationFailedError otherwise.

    It reads only P and the claim, never the solver's state, in
    O((m + n) log m): the inner body I_rho comes from a Chebyshev LP by
    constraint generation and a dual hull.  Interior pieces are settled
    by the strip lemma against I_rho, each reporting the half-width of
    its slab; the two end pieces and any piece that fails the lemma's
    test (or every piece, when I_rho is empty) get an inradius LP that
    reads only their own edges, found by splitting P's boundary at the
    cuts in one sorted pass (`_piece_inradii`).
    """
    diam = _diam if _diam is not None else diameter(P)
    vtol = 1e-8 * max(diam, 1.0)

    inner = _inner if _inner is not None else inner_body(P, rho)
    if inner is None:
        r, _ = inradius_incenter(P, tol)
        if rho > r + vtol:
            raise VerificationFailedError("width", f"rho={rho} exceeds inradius {r}")
        width_inner = 0.0
    else:
        width_inner = min_width(inner).width
    width_residual = width_inner + 2 * rho - 2 * n * rho
    if abs(width_residual) > vtol:
        raise VerificationFailedError(
            "width", f"width(inner)+2rho-2nrho = {width_residual:g}"
        )

    min_fi_residual = width_inner - 2 * (n - 1) * rho
    if abs(min_fi_residual) > vtol:
        raise VerificationFailedError("min-fi", f"min_i f_i(rho) = {min_fi_residual:g}")

    # a normal off by angle d tilts its line by up to d * diam inside P, so
    # agreement to 1e-8 keeps every cut within vtol of the claimed one
    v = np.asarray(direction, float)
    normals = np.array([cut.normal for cut in cuts], float).reshape(-1, 2)
    if not np.all(np.hypot(*(normals - v).T) <= 1e-8):
        raise VerificationFailedError("cuts", "a cut's normal differs from the direction")
    offsets = np.array([float(cut.offset) for cut in cuts])
    inradii = _piece_inradii(P, v, offsets, vtol, tol, inner, rho)
    if len(inradii) != n:
        raise VerificationFailedError("pieces", f"{len(inradii)} pieces, wanted {n}")
    max_r = max(inradii)
    if max_r > rho + vtol:
        raise VerificationFailedError(
            "pieces", f"piece inradius {max_r:g} exceeds rho {rho:g}"
        )
    if max_r < rho - vtol:
        raise VerificationFailedError(
            "pieces", f"max piece inradius {max_r:g} falls short of rho {rho:g}"
        )
    return VerificationReport(
        width_residual=float(width_residual),
        min_fi_residual=float(min_fi_residual),
        piece_inradii=[float(r) for r in inradii],
        max_piece_inradius=float(max_r),
        tolerance=vtol,
        ok=True,
    )
