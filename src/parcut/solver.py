"""Optimal equal-spaced parallel cuts of a convex polygon.

The critical radius rho is the unique root of

    g(t) = minwidth(I_t) - 2 (n - 1) t,

where I_t = {x : Ax <= b - t} is the inner parallel body (the union of
the radius-t disks inside P is I_t thickened by t); for n = 1 rho is the
inradius.  `solve` finds it from the rows alive at rho, with no dome and
no hierarchy:

* incenter -- one Chebyshev LP of P with the floor row gives P's
  incenter c and inradius r.  c centres the largest disk of every
  nonempty I_t, so the rows of I_t are the corners of their polar dual
  A_i / (b_i - t - A_i.c) about c, which one convex hull finds.
* descent -- while a set S of rows stays the rows of I_t, every edge's
  antipodal corner moves along the line where its two lifted rows meet,
  so each gap f_i(t) = b_i - min_{I_t} A_i.x - (2n-1) t is linear and
  its root has a closed form (`_gap_roots`).  Widths of I_t along a
  fixed direction are concave in t, so these linear pieces bound g from
  above and every root for S lies at or above rho.  From S = every row,
  the descent takes t, the least root for S, and the rows of I_t, until
  they are S again: then t = rho and S are I_rho's rows.  Each step
  starts where the bound is tight and g <= 0, so t never increases and
  no S repeats.  At n >= 2 the first t is at most minwidth(P)/(2n) <=
  3r/4, since each linear width falls at rate 2 or more and minwidth(P)
  <= 3r, so c lies at depth r/4 or more in every I_t the descent reads.
  No bound on the number of steps is proved; past `_MAX_STEPS` `solve`
  raises.  At n = 1, rho = r, and S are the rows of I_t just below the
  apex, at t = r - tie, which keeps every row through a segment-shaped
  apex.  The smallest root of S is rho, and its edge normal is the cut
  direction; ties within rounding break by lowest index.

The n-1 cuts are then equally spaced along that normal across I_rho, the
polygon of S's rows, and checked by `verify_solution` on that I_rho and
on r, so a wrong descent could pass; called with P and the claim alone,
as `parcut verify` calls it, it checks from scratch.  At n = 1, I_rho is
the apex: `solve` builds no inner body, and the verification solves no
LP.  Per-edge diagnostics are read off S's bracket as float arrays
indexed by edge: an edge's root is reported only when it lies there, and
nan stands for a value not reported.  `Solution.stats["fallbacks"]`
counts the path's safety nets: the incenter LP when its start fell back
to every row, S's gap roots whose plane triple was singular, and, from
the verification, I_rho's Chebyshev LP when its start fell back to every
row, the piece LPs whose start at I_rho was unbounded and those that
fell back to every row.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .dome import build_dome, facet_lifetimes  # noqa: F401 -- bench/spans.py wraps solver.X
from .errors import GeometryError, InvalidPieceCountError, VerificationFailedError
from .geometry import (
    _FLOOR,
    HPolygon,
    _angle_order_hull,
    _antipodes,
    _antipodes_of,
    _corners,
    _expand_ranges,
    _meet,
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

# roots or heights closer than this, relative to the largest offset, are
# equal up to rounding; tied roots break by lowest index
_TIE_REL = 1e-13
# a slab's half-width may exceed rho by this much, relative to the largest
# cut offset or rho, and still be settled by the strip lemma: the rounding
# of an honest claim's offsets
_LEMMA_REL = 4 * np.finfo(float).eps
# the most steps the descent takes before `solve` raises; no input seen
# has taken more than 3
_MAX_STEPS = 64
# the phases of `solve`, in order, timed in `stats["phases_ms"]`
_PHASES = ("canonicalize", "incenter", "descent", "diagnostics", "cuts", "verify")


@dataclass(frozen=True)
class Diagnostics:
    """Per-edge byproducts of the solve, read off rho's bracket: two float
    arrays indexed by edge, nan wherever a value is not reported.

    The bracket is the range of offsets up to t_hi over which I_rho's rows
    S stay the rows of I_t; its top t_hi is the least height above rho at
    which an edge of S meets its two neighbours in S.  `root` is the root
    of the gap f_i when it lies in the bracket (where f_i is linear, so the
    closed form is exact); an edge qualifies exactly where its root is
    reported.  `f_at_M` is f_i(M_i) for the edges that die at the
    bracket's top, M_i = t_hi being where edge i leaves I_t, read there.
    """

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
# rho from the rows alive at rho


def _widths(P: HPolygon, S: np.ndarray, t: float, rows=slice(None)) -> np.ndarray:
    """Width of I_t along the normals of S at positions `rows`, every one
    by default, given that S are its rows: from each normal's antipodal
    corner of I_t, where two rows of S meet."""
    angS = P.angles[S]
    k = _antipodes_of(angS, angS[rows])
    p, q = S[k], S[k - (len(S) - 1)]  # rows k and k + 1 of S, cyclically
    X = _meet(P.A[p], P.b[p] - t, P.A[q], P.b[q] - t)[0]
    i = S[rows]
    b = P.b[i] - t
    return b - (P.A[i, 0] * X[:, 0] + P.A[i, 1] * X[:, 1])


def _gap_roots(P: HPolygon, S: np.ndarray, n: int, k: np.ndarray) -> np.ndarray:
    """Root of every gap f_i, i in S, while exactly the rows S are alive,
    given the `_antipodes` k of S's normal angles.

    The antipodal corner then moves along the line where its two lifted
    rows meet, so f_i is linear and its root is the concurrence of those
    two rows with the gap row (A_i, 2n-1) . (x, t) = b_i.  Solved like
    `_solve3`: the two lifted rows share their t-coefficient, so they are
    differenced exactly first.  Singular triples give +inf, which `solve`
    counts in `stats["fallbacks"]["singular_gap"]`.
    """
    p = S[k]
    q = S[k - (len(S) - 1)]  # row k + 1 of S, cyclically
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


def _descend(P: HPolygon, n: int, c, r: float, tie: float, work: dict):
    """rho and the winning edge from P's incenter c and inradius r, with
    I_rho's rows S, their antipodes k and gap roots tau, and the number of
    steps taken.

    Each step reads S's gap roots, and at n >= 2 the rows of I_t at their
    least root t: the polar dual's corners about c, whose points run round
    c in P's angle order.  At n >= 2 the first step, from every row,
    reads P's stored antipodes; every other step searches those of its
    S.  A step
    whose t is the offset S were read at ends the descent with no hull,
    since I_t's rows are then S.
    """
    A = P.A
    Ac = A[:, 0] * c[0] + A[:, 1] * c[1]

    def alive(t):  # the rows of I_t
        depth = (P.b - t) - Ac
        if not depth.min() > 0:
            raise GeometryError(f"the incenter left the inner body at offset {t!r}")
        work["rows"] += len(depth)
        return _angle_order_hull(A / depth[:, None])

    if n == 1:
        S = alive(r - tie)
        k = _antipodes(P.angles[S])
    else:
        S, k = np.arange(P.m), P.antipodes
    at = None  # the offset whose rows S are
    for steps in range(1, _MAX_STEPS + 1):
        work["rows"] += len(S)
        tau = _gap_roots(P, S, n, k)
        t = float(tau.min())
        if not math.isfinite(t):
            raise VerificationFailedError("no-root", "no edge gap has a root; invalid input?")
        if n == 1 or t == at:
            break
        S2 = alive(t)
        if np.array_equal(S2, S):
            break
        S, at = S2, t
        k = _antipodes(P.angles[S])
    else:
        raise GeometryError(f"the descent to rho did not settle in {_MAX_STEPS} steps")
    winner = int(S[np.nonzero(tau <= t + tie)[0][0]])
    return (t if n > 1 else r), winner, S, k, tau, steps


def _heights(ax, ay, b, p, e, q):
    """Height t where lifted row e meets rows p and q, for index arrays,
    and where that triple is not near-singular: `dome._solve3`'s branch
    for three rows of t-coefficient 1, on arrays."""
    dx1 = ax[e] - ax[p]
    dy1 = ay[e] - ay[p]
    do1 = b[e] - b[p]
    dx2 = ax[q] - ax[e]
    dy2 = ay[q] - ay[e]
    do2 = b[q] - b[e]
    det = dx1 * dy2 - dx2 * dy1
    ok = ~(np.abs(det) <= 1e-14 * ((np.abs(dx1) + np.abs(dy1)) * (np.abs(dx2) + np.abs(dy2))))
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (do1 * dy2 - do2 * dy1) / det
        y = (dx1 * do2 - dx2 * do1) / det
    return b[p] - ax[p] * x - ay[p] * y, ok


def _diagnostics(P: HPolygon, n: int, rho: float, S: np.ndarray, tau: np.ndarray,
                 tie: float) -> Diagnostics:
    """Per-edge diagnostics read off rho's bracket (I_rho's rows S and
    their roots tau): a root counts only inside the bracket, and f_i(M_i)
    is read at its top t_hi for the rows that die there, from the widths
    along those rows alone.  An edge of S meets its neighbours below rho,
    or not at all, while it grows, so t_hi is the least of the other
    heights."""
    h, ok = _heights(P.A[:, 0], P.A[:, 1], P.b, np.roll(S, 1), S, np.roll(S, -1))
    ends = ok & (h >= rho - tie)
    t_hi = float(h[ends].min()) if ends.any() else rho
    root = np.full(P.m, np.nan)
    f_at_M = np.full(P.m, np.nan)
    inside = tau <= t_hi + tie
    root[S[inside]] = tau[inside]
    dying = np.flatnonzero(ends & (h <= t_hi + tie))
    f_at_M[S[dying]] = _widths(P, S, t_hi, dying) - 2.0 * (n - 1) * t_hi
    return Diagnostics(root, f_at_M)


def _piece_count(n) -> int:
    """n as an int, when it is a positive integer."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise InvalidPieceCountError(f"piece count must be a positive integer, got {n!r}")
    return int(n)


def solve(P, n: int) -> Solution:
    """Compute rho with width(P^rho) = 2 n rho, the direction, and the cuts.

    Canonicalize, find P's incenter, descend to the rows alive at rho and
    its closed-form root, place the cuts and verify;
    `Solution.diagnostics` holds the per-edge `Diagnostics` arrays and
    `stats["phases_ms"]` the wall time of each of those steps (`_PHASES`).
    """
    marks = [time.perf_counter()]
    n = _piece_count(n)
    if not isinstance(P, HPolygon):
        P = canonicalize(P)  # HPolygon input is canonical by contract
    marks.append(time.perf_counter())

    lp_fallbacks = Counter()
    res = chebyshev_lp(P.A, P.b, [_FLOOR], fallbacks=lp_fallbacks)  # OPTIMAL: P is bounded
    r = float(res.value)
    marks.append(time.perf_counter())

    work = {"rows": 0}
    tie = _TIE_REL * float(np.abs(P.b).max())
    rho, winner, S, k, tau, steps = _descend(P, n, res.point[:2], r, tie, work)
    direction = (float(P.A[winner, 0]), float(P.A[winner, 1]))
    inner = None  # at n = 1 I_rho is the apex, which no row outlives
    if n > 1:
        A, b = P.A[S], P.b[S] - rho
        inner = HPolygon(A, b, _corners(A, b)[0], P.angles[S], k)
    marks.append(time.perf_counter())
    diag = _diagnostics(P, n, rho, S, tau, tie)
    marks.append(time.perf_counter())
    cuts = place_cuts(inner, rho, direction, n)
    marks.append(time.perf_counter())
    report = verify_solution(P, n, rho, direction, cuts, _inner=inner, _r=r)
    marks.append(time.perf_counter())

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
            "build_ms": (marks[1] - marks[0]) * 1e3,
            "solve_ms": (marks[-1] - marks[0]) * 1e3,
            "phases_ms": {k: (t1 - t0) * 1e3 for k, t0, t1 in zip(_PHASES, marks, marks[1:])},
            "lp_queries": 1,
            "vertex_inspections": work["rows"],
            "binary_search_steps": 0,
            "descent_steps": steps,
            "fallbacks": {"incenter_every_row": lp_fallbacks["every_row"],
                          "singular_gap": int(np.count_nonzero(tau == np.inf)), **report.fallbacks},
        },
    )


def place_cuts(inner: HPolygon | None, rho: float, v, n: int) -> list[Cut]:
    """n-1 equally spaced cut lines normal to v, spanning the width of the
    inner body `inner` = I_rho along v (none at n = 1)."""
    if n <= 1:
        return []
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

    # each piece's extent along v inside P: at most 1e-12 is degenerate
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
    _r: float | None = None,
) -> VerificationReport:
    """Check the two defining identities of a solution.

    (a) width(inner_rho) + 2 rho = 2 n rho, which says that the smallest
    width gap min_i f_i(rho) = width(inner_rho) - 2 (n-1) rho over edges
    vanishes, (b) cutting P yields n pieces with max inradius rho (none
    exceeding it).  Every cut's normal must be `direction`.
    Raises VerificationFailedError otherwise.  Every check allows 1e-8
    times P's diameter, whatever its size.  The claim itself is checked
    first, before any geometry: n must be a positive integer
    (InvalidPieceCountError otherwise, as in `solve`), and rho must be
    finite and positive, `direction` a finite unit vector to 1e-8 and
    every cut offset finite (clause "claim" otherwise).

    Called with P and the claim alone, as `parcut verify` calls it, it
    reads nothing of the solver's state and runs in O((m + n) log m).  One
    Chebyshev LP of I_rho gives its centre, P's incenter, and its inradius
    r - rho, so P's inradius r, the one piece's when there are no cuts;
    `inner_body` about that centre builds I_rho or finds it empty.
    `solve` passes its own I_rho (`_inner`, none at n = 1) and P's
    inradius (`_r`) from its own LP, so its check rests on its descent
    and solves no LP at n = 1.  Interior
    pieces are settled by the strip lemma against I_rho; the others get
    an inradius LP over their own edges, an end piece's starting at
    I_rho's face farthest along the cut normal (`_piece_inradii`).  The
    start changes the number of LP rounds, never a value.  The report's
    `fallbacks` counts I_rho's LP when its angle-bin start fell back to
    every row ("inner_every_row"), the piece LPs whose start at I_rho was
    unbounded ("piece_hint") and those whose angle-bin start fell back to
    every row ("piece_every_row").
    """
    n = _piece_count(n)
    v = np.asarray(direction, float)
    offsets = np.array([float(cut.offset) for cut in cuts])
    if not (math.isfinite(rho) and rho > 0):
        raise VerificationFailedError("claim", f"rho={rho!r} is not a finite positive number")
    if v.shape != (2,) or not np.isfinite(v).all() or abs(math.hypot(v[0], v[1]) - 1.0) > 1e-8:
        raise VerificationFailedError("claim", f"direction {direction!r} is not a unit vector")
    if not np.isfinite(offsets).all():
        raise VerificationFailedError("claim", "a cut offset is not finite")
    vtol = 1e-8 * diameter(P)

    inner, r = _inner, _r
    inner_fallbacks = Counter()
    if r is None:
        res = chebyshev_lp(P.A, P.b - rho, fallbacks=inner_fallbacks)  # OPTIMAL: P is bounded
        r = rho + res.value  # P's inradius: I_rho's is r - rho
        inner = inner_body(P, rho, res.point[:2])
    if inner is None:
        if rho > r + vtol:
            raise VerificationFailedError("width", f"rho={rho} exceeds inradius {r}")
        width_inner = 0.0
    else:
        width_inner = min_width(inner)
    width_residual = width_inner + 2 * rho - 2 * n * rho
    if abs(width_residual) > vtol:
        raise VerificationFailedError(
            "width", f"width(inner)+2rho-2nrho = {width_residual:g}"
        )

    # a normal off by angle d tilts its line by up to d * diam inside P, so
    # agreement to 1e-8 keeps every cut within vtol of the claimed one
    normals = np.array([cut.normal for cut in cuts], float).reshape(-1, 2)
    if not np.all(np.hypot(*(normals - v).T) <= 1e-8):
        raise VerificationFailedError("cuts", "a cut's normal differs from the direction")
    fallbacks = Counter()
    if not cuts:  # the one piece is P, whose inradius is r
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
