"""Optimal equal-spaced parallel cuts of a convex polygon.

The critical radius rho is the unique root of

    g(t) = minwidth(I_t) - 2 (n - 1) t,

where I_t = {x : Ax <= b - t} is the inner parallel body (the union of
the radius-t disks inside P is I_t thickened by t); for n = 1 rho is the
inradius.  `solve` finds it without any hierarchy:

* lifetimes -- one heights-only collapse sweep over the unperturbed
  dome (`facet_lifetimes`) gives every M_i, the offset at which edge i
  leaves the inner body, and the apex, i.e. the incenter at the height
  of the inradius; it keeps no other dome vertex.  Four planes through
  one point do not move these heights, so `solve` never perturbs.
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

The n-1 cuts are then equally spaced along that normal and checked by
`verify_solution` on `solve`'s own I_rho and dome diameter, so a wrong
lifetime could pass; called with P and the claim alone, as `parcut
verify` calls it, it checks from scratch.  At n = 1, I_rho is the apex:
`solve` builds no inner body, and the verification's one LP finds it
empty.  Per-edge diagnostics are read off the same bracket as float
arrays indexed by edge: an edge's root is reported only when it lies
there, and nan stands for a value not reported.
`Solution.stats["fallbacks"]` counts the path's safety nets: the
sweep's re-admissions after its heap ran empty early, the inner bodies
at n >= 2 that the lifetimes could not assemble, so that `inner_body`
built them, the bracket's gap roots whose plane triple was singular,
and, from the verification, I_rho's Chebyshev LP when its start fell
back to every row, the piece LPs whose start at I_rho was unbounded and
those that fell back to every row.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .dome import build_dome, facet_lifetimes
from .errors import InvalidPieceCountError, VerificationFailedError
from .geometry import (
    _FLOOR,
    HPolygon,
    _antipodes,
    _corners,
    _expand_ranges,
    canonicalize,
    chebyshev_lp,
    diameter,
    inner_body,
    min_width,
)
from .geometry import clip_halfplane  # noqa: F401 -- bench/spans.py wraps solver.X
from .hierarchy import bounded_core, build_hierarchy, face_lattice, perturb  # noqa: F401 -- bench/spans.py wraps solver.X
from .lp import OPTIMAL, small_lp  # noqa: F401 -- bench/spans.py wraps solver.small_lp
from .queries import eval_fi, facet_max_t, lp_max, lp_max_constrained, lp_max_section  # noqa: F401 -- bench/spans.py wraps solver.X

# lifetimes or roots closer than this, relative to the largest offset, are
# equal up to rounding; tied roots break by lowest index
_TIE_REL = 1e-13
# a slab's half-width may exceed rho by this much, relative to the largest
# cut offset or rho, and still be settled by the strip lemma: the rounding
# of an honest claim's offsets
_LEMMA_REL = 4 * np.finfo(float).eps


@dataclass(frozen=True)
class Diagnostics:
    """Per-edge byproducts of the solve, read off rho's bracket: three
    float arrays indexed by edge, nan wherever a value is not reported.

    `M` is the swept lifetime M_i.  `root` is the root of the gap f_i when
    it lies in the bracket of lifetimes that holds rho (where f_i is
    linear, so the closed form is exact); an edge qualifies exactly where
    its root is reported.  `f_at_M` is f_i(M_i) for the edges that die at
    the bracket's top, read there.
    """

    M: np.ndarray
    root: np.ndarray
    f_at_M: np.ndarray


@dataclass(frozen=True)
class Cut:
    """Cut line {x : normal . x = offset}."""

    normal: tuple[float, float]
    offset: float


@dataclass
class VerificationReport:
    width_residual: float
    piece_inradii: list[float]
    max_piece_inradius: float
    tolerance: float
    ok: bool
    fallbacks: dict[str, int]


@dataclass
class Solution:
    rho: float
    direction: tuple[float, float]
    winner: int
    cuts: list[Cut]
    n: int
    diagnostics: Diagnostics
    verification: VerificationReport | None
    stats: dict


# ---------------------------------------------------------------------------
# rho from the lifetimes


def _widths(P: HPolygon, S: np.ndarray, t: float, ang: np.ndarray) -> np.ndarray:
    """Width of I_t along each normal of S, given that S are its rows."""
    A = P.A[S]
    b = P.b[S] - t
    X = _corners(A, b)[0][_antipodes(ang[S])]
    return b - (A[:, 0] * X[:, 0] + A[:, 1] * X[:, 1])


def _gap_roots(P: HPolygon, S: np.ndarray, n: int, ang: np.ndarray) -> np.ndarray:
    """Root of every gap f_i, i in S, while exactly the rows S are alive.

    The antipodal corner then moves along the line where its two lifted
    rows meet, so f_i is linear and its root is the concurrence of those
    two rows with the gap row (A_i, 2n-1) . (x, t) = b_i.  Solved like
    `_solve3`: the two lifted rows share their t-coefficient, so they are
    differenced exactly first.  Singular triples give +inf, which `solve`
    counts in `stats["fallbacks"]["singular_gap"]`.
    """
    k = _antipodes(ang[S])
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
                 t_hi: float, ang: np.ndarray, tie: float) -> Diagnostics:
    """Per-edge diagnostics read off rho's bracket (alive rows S, roots tau,
    top t_hi): a root counts only inside the bracket, and f_i(M_i) is read
    at t_hi for the rows that die there, from one width evaluation."""
    root = np.full(len(M), np.nan)
    f_at_M = np.full(len(M), np.nan)
    inside = tau <= t_hi + tie
    root[S[inside]] = tau[inside]
    dying = M[S] <= t_hi + tie
    f = _widths(P, S, t_hi, ang) - 2.0 * (n - 1) * t_hi
    f_at_M[S[dying]] = f[dying]
    return Diagnostics(M, root, f_at_M)


def solve(P, n: int) -> Solution:
    """Compute rho with width(P^rho) = 2 n rho, the direction, and the cuts.

    Canonicalize, lift to the dome, sweep it once for the lifetimes, find
    rho's bracket and its closed-form root, place the cuts and verify;
    `Solution.diagnostics` holds the per-edge `Diagnostics` arrays.
    """
    t_start = time.perf_counter()
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise InvalidPieceCountError(f"piece count must be a positive integer, got {n!r}")
    n = int(n)
    if not isinstance(P, HPolygon):
        P = canonicalize(P)  # HPolygon input is canonical by contract

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

    # at n = 1 I_rho is the apex, which no row outlives: verify finds it empty
    inner = _inner_from_lifetimes(P, rho, life.M, tie) if n > 1 else None
    inner_fallback = inner is None and n > 1
    if inner_fallback:
        inner = inner_body(P, rho, life.apex[:2])
    cuts = place_cuts(P, rho, direction, n, _inner=inner)
    report = verify_solution(P, n, rho, direction, cuts, _inner=inner, _diam=D0.scale)
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
            "fallbacks": {"sweep_readmits": life.readmits, "inner_body": int(inner_fallback),
                          "singular_gap": int(np.count_nonzero(tau == np.inf)), **report.fallbacks},
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


def _far_edge(X: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The vertex of the convex cycle X where s is largest and its
    neighbour with the larger s: the ends of the edge where s is largest,
    or of an edge through the vertex where it is."""
    i = int(np.argmax(s))
    j = (i + 1) % len(s) if s[(i + 1) % len(s)] > s[i - 1] else i - 1
    return X[[i, j]]


def _piece_inradii(P: HPolygon, v, offsets: np.ndarray, vtol: float,
                   inner: HPolygon | None = None, rho: float = 0.0,
                   fallbacks: Counter | None = None) -> list[float]:
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
    own edges' rows and its one or two slab rows.  A piece at most 1e-12
    wide along v inside P is degenerate.

    Given I_rho, each end piece's LP starts at I_rho's face farthest
    along -v (piece 0) or +v (piece k): the ends of its edge there, or
    of an edge through its vertex there (`_far_edge`).  For an honest
    claim piece 0 is P's part with v.x <= s_min + rho, so a disk of
    radius r >= rho in it is centred in I_r, within I_rho, at
    v.x <= s_min + rho - r: r = rho, and the centre lies on I_rho's face
    at s_min (likewise for piece k at s_max).  The LP then starts from
    the rows those disks touch and ends in one round of 4 rows plus the
    floor and slab rows (`chebyshev_lp`).  The hint comes from I_rho
    alone and changes only the number of rounds, never a value.  The
    Counter `fallbacks` counts the LPs whose hinted start was unbounded
    ("hint") and those whose angle-bin start was ("every_row").
    """
    A, b, V = P.A, P.b, P.vertices
    k = len(offsets)
    if np.any(np.diff(offsets) < 0):
        raise VerificationFailedError("pieces", "cuts are out of order along the direction")
    vx, vy = float(v[0]), float(v[1])
    inradii = np.zeros(k + 1)
    settled = np.zeros(k + 1, dtype=bool)
    hints = {}
    if inner is not None:
        s = inner.vertices[:, 0] * vx + inner.vertices[:, 1] * vy
        hints = {k: _far_edge(inner.vertices, s), 0: _far_edge(inner.vertices, -s)}
        if k >= 2:
            lo, hi = offsets[:-1], offsets[1:]
            w = (hi - lo) / 2
            mid = (lo + hi) / 2
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

    # each piece's extent along v inside P: flat at most 1e-12, clip_halfplane's eps
    extent = (np.minimum(np.append(offsets, np.inf), proj.max())
              - np.maximum(np.insert(offsets, 0, -np.inf), proj.min()))
    for j in np.nonzero(~settled)[0].tolist():
        if extent[j] <= 1e-12:
            raise VerificationFailedError("pieces", "degenerate piece produced")
        E = edge[bounds[j]:bounds[j + 1]]
        extras = [_FLOOR]
        if j > 0:
            extras.append(((-vx, -vy, 1.0), -float(offsets[j - 1])))
        if j < k:
            extras.append(((vx, vy, 1.0), float(offsets[j])))
        res = chebyshev_lp(A[E], b[E], extras, hints.get(j), fallbacks)
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
    _inner: HPolygon | None = None,
    _diam: float | None = None,
) -> VerificationReport:
    """Check the two defining identities of a solution.

    (a) width(inner_rho) + 2 rho = 2 n rho, which says that the smallest
    width gap min_i f_i(rho) = width(inner_rho) - 2 (n-1) rho over edges
    vanishes, (b) cutting P yields n pieces with max inradius rho (none
    exceeding it).  Every cut's normal must be `direction`.
    Raises VerificationFailedError otherwise.  Every check allows 1e-8
    times P's diameter, whatever its size.

    Called with P and the claim alone, as `parcut verify` calls it, it
    reads nothing of the solver's state and runs in O((m + n) log m).  One
    Chebyshev LP of I_rho gives its centre, P's incenter, and its inradius
    r - rho, so P's inradius r, the one piece's when there are no cuts;
    `inner_body` about that centre builds I_rho or finds it empty.
    `solve` passes its own I_rho (`_inner`, none at n = 1) and dome
    diameter (`_diam`), so its check rests on its lifetimes.  Interior
    pieces are settled by the strip lemma against I_rho; the others get
    an inradius LP over their own edges, an end piece's starting at
    I_rho's face farthest along the cut normal (`_piece_inradii`).  The
    start changes the number of LP rounds, never a value.  The report's
    `fallbacks` counts I_rho's LP when its angle-bin start fell back to
    every row ("inner_every_row"), the piece LPs whose start at I_rho was
    unbounded ("piece_hint") and those whose angle-bin start fell back to
    every row ("piece_every_row").
    """
    diam = _diam if _diam is not None else diameter(P)
    vtol = 1e-8 * diam

    inner, r = _inner, None
    inner_fallbacks = Counter()
    if inner is None:
        res = chebyshev_lp(P.A, P.b - rho, fallbacks=inner_fallbacks)  # OPTIMAL: P is bounded
        r = rho + res.value  # P's inradius: I_rho's is r - rho
        inner = inner_body(P, rho, res.point[:2])
    if inner is None:
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

    # a normal off by angle d tilts its line by up to d * diam inside P, so
    # agreement to 1e-8 keeps every cut within vtol of the claimed one
    v = np.asarray(direction, float)
    normals = np.array([cut.normal for cut in cuts], float).reshape(-1, 2)
    if not np.all(np.hypot(*(normals - v).T) <= 1e-8):
        raise VerificationFailedError("cuts", "a cut's normal differs from the direction")
    offsets = np.array([float(cut.offset) for cut in cuts])
    fallbacks = Counter()
    if r is not None and not cuts:  # the one piece is P, whose inradius is r
        inradii = [r]
    else:
        inradii = _piece_inradii(P, v, offsets, vtol, inner, rho, fallbacks)
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
        piece_inradii=[float(r) for r in inradii],
        max_piece_inradius=float(max_r),
        tolerance=vtol,
        ok=True,
        fallbacks={"inner_every_row": inner_fallbacks["every_row"], "piece_hint": fallbacks["hint"],
                   "piece_every_row": fallbacks["every_row"]},
    )
