"""Planar convex-polygon primitives.

Polygons live in two interchangeable forms: a counterclockwise vertex
list (`VPolygon`) and an irredundant half-plane description with unit
outward normals (`HPolygon`).  `canonicalize` converts either form (or a
raw half-plane system) into the canonical HPolygon: unit rows, sorted
counterclockwise by normal angle starting from the smallest angle in
[0, 2pi), every row supporting an edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInteriorError, NonFiniteInputError, UnboundedError
from .lp import OPTIMAL, UNBOUNDED, small_lp
from .tolerance import slack

# angle bins of the start sample of `chebyshev_lp`, and rows it adds per round
_LP_BATCH = 64
# the lifted row t >= 0
_FLOOR = ((0.0, 0.0, -1.0), 0.0)


@dataclass(frozen=True)
class VPolygon:
    """Convex polygon as a counterclockwise vertex array (k x 2)."""

    vertices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vertices", np.asarray(self.vertices, dtype=float))


@dataclass(frozen=True)
class HPolygon:
    """Irredundant half-plane form {x : A x <= b}, unit outward normals.

    Rows are sorted counterclockwise by normal angle; `vertices[j]` is the
    corner where rows j and j+1 (cyclically) meet, so edge j runs from
    vertices[j-1] to vertices[j].
    """

    A: np.ndarray
    b: np.ndarray
    vertices: np.ndarray

    @property
    def m(self) -> int:
        return len(self.b)

    def contains(self, x, scale: float = 1.0) -> bool:
        return bool(np.all(self.A @ np.asarray(x) <= self.b + slack(scale)))


@dataclass(frozen=True)
class WidthResult:
    """Minimum width of a polygon and where it is achieved."""

    width: float
    direction: tuple[float, float]
    edge_index: int
    opposite_vertex: int


def _turns(ox, oy, ax, ay, px, py):
    """The cross product of a - o and p - o, which is positive where
    o -> a -> p turns left, and the most it can round by.

    That bound is about 4.4e-16 (|a - o|_1)(|p - o|_1) whatever the points'
    size or offset, so a turn counts only beyond 4e-16 times that product.
    A thin but real corner clears it by far: the regular 2^16-gon's turns
    by a factor of 6e10.
    """
    ux = ax - ox
    uy = ay - oy
    vx = px - ox
    vy = py - oy
    return ux * vy - uy * vx, 4e-16 * (np.abs(ux) + np.abs(uy)) * (np.abs(vx) + np.abs(vy))


def _bends(x, y):
    """Which points of a sequence, but its first and last, fail to turn
    left between their neighbours, and which of those turn right beyond
    rounding."""
    cross, cut = _turns(x[:-2], y[:-2], x[1:-1], y[1:-1], x[2:], y[2:])
    return cross <= cut, cross < -cut


def _spare(fail: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The points of a monotone or cyclic chain that may go at once, of
    those that `fail` to turn left.

    A point that turns `right` beyond rounding is no corner, whatever its
    neighbours are.  One that turns within rounding of straight may be a
    corner whose neighbour sits within rounding of it, so it goes only
    while both neighbours stay: every one whose neighbours turn left, and
    of each longer run those at even indices.  It then lies within
    rounding of the segment between them, and a run loses half its points
    at a time.
    """
    flat = fail & ~right
    if not np.count_nonzero(flat):
        return right
    flat[1:] &= ~right[:-1]
    flat[:-1] &= ~right[1:]
    go = flat.copy()
    go[1:] &= ~flat[:-1]
    go[:-1] &= ~flat[1:]
    go[::2] |= flat[::2]
    return go | right


def _convex_hull_ccw(points: np.ndarray) -> np.ndarray:
    """Indices of the hull corners of `points`, counterclockwise.

    Drops interior and collinear points, and of exact duplicates keeps the
    lowest index.  Each corner kept turns left by `_turns` between the
    corners before and after it, except the first and the last point in
    (x, y) order, which are corners whatever their turn.

    Points that already run once counterclockwise round a strictly convex
    polygon come back whole, in order.  Others are sorted by (x, y) and
    split by the line through the first and the last point into a lower
    and an upper chain.  With those two points the chains form one cycle,
    on which quickhull works in vectorized rounds.  Known corners cut the
    cycle into ranges.  Each round tests every point of an open range
    against the range's end corners (the chord) and against its two
    neighbours, and `_spare` says which of those that fail may go.  A
    range whose points all pass both tests is a convex chain, so they are
    all corners.  In any other range the failures go, and the point
    farthest beyond the chord becomes a corner, which splits the range.
    Farthest points are corners in exact arithmetic.  A last pass drops
    any that rounding left without a left turn between its final
    neighbours.
    """
    n = len(points)
    x, y = points[:, 0], points[:, 1]
    if n >= 3:
        xc = np.concatenate((x[-1:], x, x[:1]))
        yc = np.concatenate((y[-1:], y, y[:1]))
        cross, cut = _turns(xc[:-2], yc[:-2], x, y, xc[2:], yc[2:])
        if not np.count_nonzero(cross <= cut):
            # with every turn left, the edges' directions wind round as
            # often as they pass from the lower half-plane to the upper one
            dy = y - yc[:-2]
            down = (dy < 0) | ((dy == 0) & (x < xc[:-2]))
            if np.count_nonzero(down[:-1] > down[1:]) + (down[-1] > down[0]) == 1:
                return np.arange(n)

    order = np.lexsort((y, x))  # stable: equal points keep index order
    sx, sy = x[order], y[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    first[1:] = (sx[1:] != sx[:-1]) | (sy[1:] != sy[:-1])
    if np.count_nonzero(first) < n:
        order, sx, sy = order[first], sx[first], sy[first]
    k = len(order)
    if k < 3:
        raise EmptyInteriorError("fewer than 3 distinct points")
    # the cycle: left end, lower chain, right end, upper chain, left end
    # again; positions in it are the output's order
    cross, cut = _turns(sx[0], sy[0], sx[1:-1], sy[1:-1], sx[-1], sy[-1])
    below = cross > cut
    mid = np.arange(1, k - 1)
    cyc = np.concatenate(([0], mid[below], [k - 1], mid[~below][::-1], [0]))
    corner = np.zeros(len(cyc), dtype=bool)
    corner[[0, np.count_nonzero(below) + 1]] = True

    # the working cycle: its positions in `cyc`, coordinates, known corners
    fixed = corner.copy()
    fixed[-1] = True
    wx, wy = sx[cyc], sy[cyc]
    fail = np.zeros(len(cyc), dtype=bool)
    right = fail.copy()
    fail[1:-1], right[1:-1] = _bends(wx, wy)
    pos = np.flatnonzero(fixed | ~_spare(fail, right))
    wx, wy, fixed = wx[pos], wy[pos], fixed[pos]
    split = False
    while np.count_nonzero(fixed) < len(fixed):
        inner = fixed[1:-1]  # a view; the first and last positions are corners
        owner = inner.cumsum()  # the range each inner position lies in
        ends = np.flatnonzero(fixed)
        ex, ey = wx[ends], wy[ends]
        cross, cut = _turns(ex[owner], ey[owner], wx[1:-1], wy[1:-1], ex[owner + 1], ey[owner + 1])
        free = ~inner
        chord = free & (cross > cut)
        bent, right = _bends(wx, wy)
        bent &= chord
        right &= chord
        fails = free & (bent | ~chord)
        if not np.count_nonzero(fails):  # every range left is a convex chain
            corner[pos[1:-1][free]] = True
            break
        failed = np.zeros(len(ends), dtype=bool)
        failed[owner[fails]] = True
        open_ = failed[owner]
        stay = chord & open_ & ~_spare(bent, right)
        beyond = np.where(stay, cross, -np.inf)
        starts = ends[:-1] - 1
        starts[0] = 0
        top = stay & (beyond == np.maximum.reduceat(beyond, starts)[owner])
        corner[pos[1:-1][(free & ~open_) | top]] = True
        split = split or bool(np.count_nonzero(top))
        inner |= top
        live = fixed.copy()
        live[1:-1] |= stay
        pos, wx, wy, fixed = pos[live], wx[live], wy[live], fixed[live]

    hull = cyc[np.flatnonzero(corner)]
    while split:
        hx, hy = sx[hull], sy[hull]
        fail, right = _bends(np.concatenate((hx[-1:], hx, hx[:1])), np.concatenate((hy[-1:], hy, hy[:1])))
        fail[0] = fail[hull == k - 1] = right[0] = right[hull == k - 1] = False
        split = bool(np.count_nonzero(fail))
        hull = hull[~_spare(fail, right)]
    if len(hull) < 3:
        raise EmptyInteriorError("points are collinear")
    return order[hull]


def _corners(A: np.ndarray, b: np.ndarray):
    """Crossing of each row with the next one (cyclically): corner k of
    the polygon {A x <= b} when every row supports an edge.  Returns the
    corners and the 2x2 determinants they were solved with."""
    A2 = np.roll(A, -1, axis=0)
    b2 = np.roll(b, -1)
    det = A[:, 0] * A2[:, 1] - A[:, 1] * A2[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        X = np.stack(
            [(b * A2[:, 1] - b2 * A[:, 1]) / det, (A[:, 0] * b2 - A2[:, 0] * b) / det],
            axis=1,
        )
    return X, det


def _finish_hpolygon(A: np.ndarray, b: np.ndarray) -> HPolygon:
    """Rotate rows to the canonical start and recompute corner vertices."""
    ang = np.arctan2(A[:, 1], A[:, 0]) % (2 * math.pi)
    start = int(np.argmin(ang))
    A = np.roll(A, -start, axis=0)
    b = np.roll(b, -start)
    verts, det = _corners(A, b)
    if np.any(np.abs(det) < 1e-300):
        raise EmptyInteriorError("adjacent rows are parallel")
    return HPolygon(A, b, verts)


def canonicalize(obj) -> HPolygon:
    """Convert vertices, an (A, b) pair, or an HPolygon to canonical form.

    Raises NonFiniteInputError when any number in it is NaN or infinite,
    before anything else, EmptyInteriorError when the region is empty or
    has no interior and UnboundedError when the half-planes fail to bound
    it.  Rows are judged from their Chebyshev centre, which one LP finds.
    """
    if isinstance(obj, HPolygon):
        obj = (obj.A, obj.b)
    if isinstance(obj, tuple) and len(obj) == 2:
        A, b = np.asarray(obj[0], float), np.asarray(obj[1], float)
        _require_finite(A, b)
        return _canonicalize_rows(A, b)
    V = np.asarray(obj.vertices if isinstance(obj, VPolygon) else obj, float)
    _require_finite(V)
    return _canonicalize_vertices(V)


def _require_finite(*arrays: np.ndarray) -> None:
    if not all(np.isfinite(x).all() for x in arrays):
        raise NonFiniteInputError("input has a NaN or infinite number")


def _canonicalize_vertices(vertices: np.ndarray) -> HPolygon:
    hull = vertices[_convex_hull_ccw(vertices)]
    d = np.roll(hull, -1, axis=0) - hull
    A = np.stack([d[:, 1], -d[:, 0]], axis=1)
    # row-wise dot products as stacked 1x2 @ 2x1 products: matmul runs the
    # vector dot of `a @ p` on each pair, so every row rounds as it would
    # one at a time, where elementwise products and sums round differently
    A /= np.sqrt(_rowdot(A, A))[:, None]
    return _finish_hpolygon(A, _rowdot(A, hull))


def _rowdot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return (X[:, None, :] @ Y[:, :, None])[:, 0, 0]


def _canonicalize_rows(A: np.ndarray, b: np.ndarray) -> HPolygon:
    A = np.atleast_2d(np.asarray(A, float))
    b = np.asarray(b, float).ravel()
    if A.shape[0] != b.shape[0] or A.shape[1] != 2:
        raise ValueError("need an m x 2 matrix and an m-vector")

    norm = np.hypot(A[:, 0], A[:, 1])
    trivial = norm <= 1e-300
    if np.any(b[trivial] < -slack(b[trivial])):
        raise EmptyInteriorError("contradictory trivial row")
    # 0.x <= b with b >= 0 says nothing; unit rows are kept bit for bit
    A, b, norm = A[~trivial], b[~trivial], norm[~trivial]
    if len(b) == 0:
        raise UnboundedError("no effective half-planes")
    rescale = np.abs(norm - 1.0) > slack(1.0)
    A = np.where(rescale[:, None], A / norm[:, None], A)
    b = np.where(rescale, b / norm, b)

    # feasibility first: a contradictory system is empty even when unbounded
    res = chebyshev_lp(A, b)
    if res.status == OPTIMAL and res.value <= slack(float(np.abs(b).max())):
        raise EmptyInteriorError("region is empty or lower-dimensional")

    ang = np.arctan2(A[:, 1], A[:, 0]) % (2 * math.pi)
    order = np.argsort(ang, kind="stable")
    s = ang[order]
    if max(np.diff(s).max(initial=0.0), 2 * math.pi - (s[-1] - s[0])) >= math.pi - 1e-12:
        raise UnboundedError("normals leave a half-plane uncovered")
    if res.status != OPTIMAL:
        raise UnboundedError("interior direction escapes to infinity")
    A, b = A[order], b[order]
    x, y = res.point[:2]
    return _dual_hull(A, b, b - (A[:, 0] * x + A[:, 1] * y))


def _dual_hull(A: np.ndarray, b: np.ndarray, depth: np.ndarray) -> HPolygon:
    """The irredundant rows of {A x <= b}, rows in angle order, from each
    row's `depth` b - A.c at a point c inside: the corners of the polar
    dual a / depth, which keep their order."""
    chosen = np.sort(_convex_hull_ccw(A / depth[:, None]))
    return _finish_hpolygon(A[chosen], b[chosen])


def directional_width(P: VPolygon | HPolygon, v) -> float:
    """Extent of the polygon between supporting lines normal to v."""
    verts = P.vertices if isinstance(P, (VPolygon, HPolygon)) else np.asarray(P)
    proj = verts @ np.asarray(v, float)
    return float(proj.max() - proj.min())


def _antipodes(ang: np.ndarray) -> np.ndarray:
    """For each of the ascending normal angles `ang` of a convex polygon's
    rows, the corner k, where rows k and k+1 meet, whose normal cone holds
    the opposite normal: where that row's A_i.x is smallest."""
    return (np.searchsorted(ang, (ang + math.pi) % (2 * math.pi), side="right") - 1) % len(ang)


def min_width(P: HPolygon) -> WidthResult:
    """Minimum width over all directions, from the antipodal vertex pairs.

    The minimizing direction is always one of the edge normals.  Vertex j,
    where rows j and j+1 meet, minimizes n . x for every n whose opposite
    lies between those two normals, so each edge's antipodal vertex is a
    binary search on the rows' sorted normal angles (canonical order); its
    two neighbours are checked too, which absorbs rounding in the angles.
    """
    A, b, verts = P.A, P.b, P.vertices
    m = P.m
    ang = np.arctan2(A[:, 1], A[:, 0]) % (2 * math.pi)
    cand = (_antipodes(ang)[:, None] + np.array([-1, 0, 1])) % m
    V = verts[cand]
    proj = A[:, None, 0] * V[:, :, 0] + A[:, None, 1] * V[:, :, 1]
    low = proj.argmin(axis=1)
    w = b - proj[np.arange(m), low]
    i = int(np.argmin(w))
    return WidthResult(float(w[i]), (float(A[i, 0]), float(A[i, 1])), i, int(cand[i, low[i]]))


def inner_body(P: HPolygon, t: float, incenter=None) -> HPolygon | None:
    """Inner parallel body I_t = {A x <= b - t} of a canonical P, with
    fewer rows when edges disappear; None when it is empty.

    P's `incenter` c centres the largest disk of every nonempty I_t, of
    radius min(b - t - A.c); without it, I_t's one Chebyshev LP finds c
    and that radius.  The rows are the polar dual's corners about c.
    """
    if t < 0:
        raise ValueError("offset must be nonnegative")
    A, b = P.A, P.b - t
    limit = slack(float(np.abs(b).max()))
    c = incenter
    if c is None:
        res = chebyshev_lp(A, b)  # P bounds it, so it is OPTIMAL
        if res.value <= limit:
            return None
        c = res.point[:2]
    depth = b - (A[:, 0] * c[0] + A[:, 1] * c[1])
    if incenter is not None and depth.min() <= limit:
        return None
    try:
        return _dual_hull(A, b, depth)
    except EmptyInteriorError:
        return None


def _spread_rows(A: np.ndarray) -> np.ndarray:
    """`chebyshev_lp`'s sample start: the first and the last row, in angle
    order, of each of _LP_BATCH equal angle bins; every row up to
    2 * _LP_BATCH rows."""
    m = len(A)
    if m <= 2 * _LP_BATCH:
        return np.ones(m, dtype=bool)
    ang = np.arctan2(A[:, 1], A[:, 0]) % (2 * math.pi)
    order = np.argsort(ang, kind="stable")
    bins = np.minimum((ang[order] * (_LP_BATCH / (2 * math.pi))).astype(int), _LP_BATCH - 1)
    change = np.nonzero(np.diff(bins))[0]
    used = np.zeros(m, dtype=bool)
    used[order[[0, m - 1]]] = True
    used[order[change]] = True
    used[order[change + 1]] = True
    return used


def chebyshev_lp(A: np.ndarray, b: np.ndarray, extras=(), points=None, fallbacks=None):
    """Maximize t subject to A x + t <= b and the lifted rows `extras`.

    With unit rows of A this is the largest disk, of radius t centred at
    x, inside {A x <= b}; `extras` are ((a_x, a_y, a_t), offset) rows such
    as the floor t >= 0.  Returns the LpResult of `small_lp`.

    Solved by constraint generation: start from a subset of the rows plus
    every extra row, then add the rows the optimum violates, most violated
    first, until it violates none.  An optimum of a subset that is feasible
    for every row is optimal for all of them, so the start changes the
    number of rounds, never the optimal value beyond rounding.

    Given `points`, one or more (x, y) near which largest disks are
    expected to be centred, the start is the 4 rows of least depth
    b - A.x at the nearest of them.  Where the points are the ends of the
    edge or the vertex of optimal centres, those include every row the
    largest disks touch, and the LP ends in one round.  Otherwise, and
    when that start is unbounded, the start is the first and the last
    row, in angle order, of each of _LP_BATCH equal angle bins, or every
    row up to 2 * _LP_BATCH rows.  Those bin rows bound the LP whenever
    all rows do: consecutive start normals lie within one bin or are
    consecutive normals of the rows, so no two are pi or more apart.  An
    unbounded bin start (possible only by rounding) falls back to every
    row.  A Counter `fallbacks`, when given, counts "hint" for each
    unbounded start at `points` and "every_row" for each unbounded bin
    start.
    """
    m = len(b)
    hinted = points is not None and m > 4
    if hinted:
        depth = (b - np.asarray(points, float).reshape(-1, 2) @ A.T).min(axis=0)
        used = np.zeros(m, dtype=bool)
        used[np.argpartition(depth, 4)[:4]] = True
    else:
        used = _spread_rows(A)
    extras = list(extras)
    while True:
        idx = np.nonzero(used)[0]
        rows = [((a0, a1, 1.0), bi) for (a0, a1), bi in zip(A[idx].tolist(), b[idx].tolist())]
        res = small_lp(rows + extras, (0.0, 0.0, 1.0))
        if res.status == UNBOUNDED and not used.all():
            if fallbacks is not None:
                fallbacks["hint" if hinted else "every_row"] += 1
            used = _spread_rows(A) if hinted else np.ones(m, dtype=bool)
            hinted = False
            continue
        if res.status != OPTIMAL:
            return res
        x, y, t = res.point
        ax = A[:, 0] * x
        ay = A[:, 1] * y
        excess = ax + ay + t - b
        allow = slack(np.abs(b) + np.abs(ax) + np.abs(ay) + abs(t))
        new = np.nonzero((excess > allow) & ~used)[0]
        if len(new) == 0:
            return res
        used[new[np.argsort(excess[new] - allow[new])[::-1][:_LP_BATCH]]] = True


def inradius_incenter(P: HPolygon):
    """Largest inscribed-disk radius and one center achieving it."""
    res = chebyshev_lp(P.A, P.b, [_FLOOR])
    if res.status != OPTIMAL:
        raise EmptyInteriorError("polygon has no inscribed disk")
    return float(res.value), (float(res.point[0]), float(res.point[1]))


def diameter(P: HPolygon) -> float:
    """Largest vertex-to-vertex distance, over the antipodal vertex pairs.

    Every antipodal pair has a vertex on an edge whose antipodal vertex
    (found as in `min_width`) is the other one, so each edge's two ends are
    measured to that vertex and its two neighbours.
    """
    A, V = P.A, P.vertices
    m = P.m
    ang = np.arctan2(A[:, 1], A[:, 0]) % (2 * math.pi)
    far = (_antipodes(ang)[:, None] + np.array([-1, 0, 1])) % m
    x, y = V[:, 0], V[:, 1]
    fx, fy = x[far], y[far]
    best = 0.0
    for ex, ey in ((np.roll(x, 1), np.roll(y, 1)), (x, y)):  # edge k: vertices k-1, k
        best = max(best, float(np.hypot(fx - ex[:, None], fy - ey[:, None]).max()))
    return best


def _expand_ranges(first: np.ndarray, stop: np.ndarray):
    """Flatten the integer ranges [first[k], stop[k]) into two arrays: the
    owner k of each element and its value, in order of k."""
    count = stop - first
    owner = np.repeat(np.arange(len(first)), count)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(count) - count - first, count)


def clip_halfplane(vertices: np.ndarray, a, off: float, eps: float = 1e-12) -> np.ndarray:
    """Clip a convex vertex cycle against a . x <= off (Sutherland-Hodgman)."""
    V = np.asarray(vertices, float).reshape(-1, 2)
    a = np.asarray(a, float)
    s = V[:, 0] * a[0] + V[:, 1] * a[1] - off
    Q = np.roll(V, -1, axis=0)
    sq = np.roll(s, -1)
    keep = s <= eps
    cross = ((s < -eps) & (sq > eps)) | ((s > eps) & (sq < -eps))
    # each vertex contributes itself if kept, then its edge's crossing point
    out = np.empty((len(V), 2, 2))
    out[:, 0] = V
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(cross, s / (s - sq), 0.0)
    out[:, 1] = V + lam[:, None] * (Q - V)
    return out[np.stack([keep, cross], axis=1)]


def regular_polygon(m: int, radius: float = 1.0, center=(0.0, 0.0), phase: float = 0.0) -> HPolygon:
    """Canonical regular m-gon with the given circumradius."""
    ang = phase + 2 * math.pi * np.arange(m) / m
    verts = np.stack(
        [center[0] + radius * np.cos(ang), center[1] + radius * np.sin(ang)], axis=1
    )
    return canonicalize(verts)
