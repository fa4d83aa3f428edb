"""Planar convex-polygon primitives.

A polygon is an irredundant half-plane description with unit outward
normals (`HPolygon`).  `canonicalize` turns a vertex array, or a raw
half-plane system, into the canonical HPolygon: unit rows, sorted
counterclockwise by normal angle starting from the smallest angle in
[0, 2pi), every row supporting an edge, with the rows' normal angles and
antipodal corners read once and stored beside them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInteriorError, GeometryError, NonFiniteInputError, UnboundedError
from .lp import OPTIMAL, UNBOUNDED, small_lp
from .tolerance import slack

# angle bins of pi/4 for the start sample of `chebyshev_lp` (16 rows), and
# the most violated rows it adds per round
_LP_BATCH = 8
# the lifted row t >= 0
_FLOOR = ((0.0, 0.0, -1.0), 0.0)
# the least and the greatest normal float: squares outside have lost bits
# to underflow or overflowed
_TINY = float(np.finfo(float).tiny)
_HUGE = float(np.finfo(float).max)
# edges whose six candidate pairs `diameter` holds at once
_PAIR_CHUNK = 8192


@dataclass(frozen=True)
class HPolygon:
    """Irredundant half-plane form {x : A x <= b}, unit outward normals.

    Rows are sorted counterclockwise by normal angle; `vertices[j]` is the
    corner where rows j and j+1 (cyclically) meet, so edge j runs from
    vertices[j-1] to vertices[j].  `angles` are the rows' normal angles in
    [0, 2pi), ascending (`_angles`), and `antipodes[i]`, an int32, is the
    corner where row i's A_i.x is smallest (`_antipodes`): both are read
    once, when the polygon is built, and `solve`, `min_width` and
    `diameter` take them from here.
    """

    A: np.ndarray
    b: np.ndarray
    vertices: np.ndarray
    angles: np.ndarray
    antipodes: np.ndarray

    @property
    def m(self) -> int:
        return len(self.b)


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


def _winds_convex(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether the points run once counterclockwise round a strictly
    convex polygon: every turn left by `_turns`, with the edges'
    directions winding round once."""
    if len(x) < 3:
        return False
    xc = np.concatenate((x[-1:], x, x[:1]))
    yc = np.concatenate((y[-1:], y, y[:1]))
    cross, cut = _turns(xc[:-2], yc[:-2], x, y, xc[2:], yc[2:])
    if np.count_nonzero(cross <= cut):
        return False
    # with every turn left, the edges' directions wind round as often as
    # they pass from the lower half-plane to the upper one
    dy = y - yc[:-2]
    down = (dy < 0) | ((dy == 0) & (x < xc[:-2]))
    return np.count_nonzero(down[:-1] > down[1:]) + int(down[-1] > down[0]) == 1


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
    which `_hull_rounds` reduces to its corners.
    """
    x, y = points[:, 0], points[:, 1]
    n = len(points)
    if _winds_convex(x, y):
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
    return order[_hull_rounds(sx, sy, cyc, np.count_nonzero(below) + 1)]


def _angle_order_hull(points: np.ndarray) -> np.ndarray:
    """Indices, ascending, of the hull corners of points that run once
    counterclockwise round the origin in index order, the origin inside
    their hull: the polar dual a_i / depth_i of rows a_i in angle order,
    about a point at depth_i > 0 from every row.

    The same corners as `_convex_hull_ccw`, with no sort.  Points that run
    round a strictly convex polygon come back whole.  Otherwise the index
    order, rotated to start at the least point in (x, y) order, is already
    a cycle of the kind `_hull_rounds` takes, with the greatest point as
    its second known corner: the hull's corners come in it
    counterclockwise, and a point that turns right between two neighbours
    less than pi apart round the origin lies in their triangle with the
    origin.  Of the points on one ray only the farthest can be a corner.
    Exact duplicates share a normal angle, so they are neighbours in index
    order, and the first, the lowest index, stays.
    """
    x, y = points[:, 0], points[:, 1]
    if _winds_convex(x, y):
        return np.arange(len(points))
    idx = None
    same = (x[1:] == x[:-1]) & (y[1:] == y[:-1])
    if np.count_nonzero(same):
        idx = np.flatnonzero(np.concatenate(([True], ~same)))
        x, y = x[idx], y[idx]
    k = len(x)
    if k < 3:
        raise EmptyInteriorError("fewer than 3 distinct points")
    on = np.flatnonzero(x == x.min())
    lo = int(on[np.argmin(y[on])])
    on = np.flatnonzero(x == x.max())
    hi = int(on[np.argmax(y[on])])
    cyc = np.concatenate((np.arange(lo, k), np.arange(lo + 1)))
    hull = np.sort(_hull_rounds(x, y, cyc, (hi - lo) % k))
    return hull if idx is None else idx[hull]


def _hull_rounds(x: np.ndarray, y: np.ndarray, cyc: np.ndarray, mid: int) -> np.ndarray:
    """The hull corners of the points (x, y) on the closed cycle `cyc`,
    in its order: indices that run counterclockwise from the least point
    in (x, y) order, at both ends of `cyc`, through the greatest, at
    position `mid`, and back, with every hull corner among them in order.

    Quickhull works on the cycle in vectorized rounds.  Known corners cut
    the cycle into ranges.  Each round tests every point of an open range
    against the range's end corners (the chord) and against its two
    neighbours, and `_spare` says which of those that fail may go.  A
    range whose points all pass both tests is a convex chain, so they are
    all corners.  In any other range the failures go, and the point
    farthest beyond the chord becomes a corner, which splits the range.
    Farthest points are corners in exact arithmetic.  A last pass drops
    any that rounding left without a left turn between its final
    neighbours, bar the least and the greatest point.
    """
    corner = np.zeros(len(cyc), dtype=bool)
    corner[[0, mid]] = True

    # the working cycle: its positions in `cyc`, coordinates, known corners
    fixed = corner.copy()
    fixed[-1] = True
    wx, wy = x[cyc], y[cyc]
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
        hx, hy = x[hull], y[hull]
        fail, right = _bends(np.concatenate((hx[-1:], hx, hx[:1])), np.concatenate((hy[-1:], hy, hy[:1])))
        fail[0] = fail[hull == cyc[mid]] = right[0] = right[hull == cyc[mid]] = False
        split = bool(np.count_nonzero(fail))
        hull = hull[~_spare(fail, right)]
    if len(hull) < 3:
        raise EmptyInteriorError("points are collinear")
    return hull


def _corners(A: np.ndarray, b: np.ndarray):
    """Crossing of each row with the next one (cyclically): corner k of
    the polygon {A x <= b} when every row supports an edge.  Returns the
    corners and the 2x2 determinants they were solved with."""
    return _meet(A, b, np.roll(A, -1, axis=0), np.roll(b, -1))


def _meet(A: np.ndarray, b: np.ndarray, A2: np.ndarray, b2: np.ndarray):
    """Crossing of row i of {A x <= b} with row i of {A2 x <= b2}, for
    every i, and the 2x2 determinants it was solved with."""
    det = A[:, 0] * A2[:, 1] - A[:, 1] * A2[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        X = np.stack(
            [(b * A2[:, 1] - b2 * A[:, 1]) / det, (A[:, 0] * b2 - A2[:, 0] * b) / det],
            axis=1,
        )
    return X, det


def _finish_hpolygon(A: np.ndarray, b: np.ndarray, ang: np.ndarray) -> HPolygon:
    """Rotate rows, with their normal angles `ang`, to the canonical start,
    and compute the corner vertices and the antipodes."""
    start = int(np.argmin(ang))
    if start:
        A, b, ang = np.roll(A, -start, axis=0), np.roll(b, -start), np.roll(ang, -start)
    verts, det = _corners(A, b)
    if np.any(np.abs(det) < 1e-300):
        raise EmptyInteriorError("adjacent rows are parallel")
    return HPolygon(A, b, verts, ang, _antipodes(ang))


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
    V = np.asarray(obj, float)
    _require_finite(V)
    return _canonicalize_vertices(V)


def _require_finite(*arrays: np.ndarray) -> None:
    if not all(np.isfinite(x).all() for x in arrays):
        raise NonFiniteInputError("input has a NaN or infinite number")


def _canonicalize_vertices(vertices: np.ndarray) -> HPolygon:
    """The rows of the hull's edges, each edge's normal scaled to unit length.

    An edge whose squared length is not a normal float, having lost bits
    to underflow or overflowed, is first scaled by a power of two to a
    largest coordinate in [0.5, 1).  That is exact, bar a coordinate it
    takes below 2^-1022, which lies far below the other's ulp, so the
    unit row is as it would be in exact range.  Edges whose squares are
    normal are not touched.  Raises GeometryError when an edge's
    coordinates overflow.
    """
    hull = vertices[_convex_hull_ccw(vertices)]
    d = np.roll(hull, -1, axis=0) - hull
    A = np.stack([d[:, 1], -d[:, 0]], axis=1)
    # row-wise dot products as stacked 1x2 @ 2x1 products: matmul runs the
    # vector dot of `a @ p` on each pair, so every row rounds as it would
    # one at a time, where elementwise products and sums round differently
    with np.errstate(over="ignore"):
        sq = _rowdot(A, A)
    off = ~((sq >= _TINY) & (sq <= _HUGE))
    if np.count_nonzero(off):
        if not np.isfinite(A[off]).all():
            raise GeometryError("an edge of the hull is longer than a float can hold")
        A[off] = np.ldexp(A[off], -np.frexp(np.abs(A[off]).max(axis=1))[1][:, None])
        sq[off] = _rowdot(A[off], A[off])
    A /= np.sqrt(sq)[:, None]
    return _finish_hpolygon(A, _rowdot(A, hull), _angles(A))


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

    ang = _angles(A)
    order = np.argsort(ang, kind="stable")
    s = ang[order]
    if max(np.diff(s).max(initial=0.0), 2 * math.pi - (s[-1] - s[0])) >= math.pi - 1e-12:
        raise UnboundedError("normals leave a half-plane uncovered")
    if res.status != OPTIMAL:
        raise UnboundedError("interior direction escapes to infinity")
    A, b = A[order], b[order]
    x, y = res.point[:2]
    return _dual_hull(A, b, b - (A[:, 0] * x + A[:, 1] * y), s)


def _dual_hull(A: np.ndarray, b: np.ndarray, depth: np.ndarray, ang: np.ndarray) -> HPolygon:
    """The irredundant rows of {A x <= b}, rows in angle order with normal
    angles `ang`, from each row's `depth` b - A.c at a point c inside: the
    corners of the polar dual a / depth, which keep their order."""
    chosen = _angle_order_hull(A / depth[:, None])
    return _finish_hpolygon(A[chosen], b[chosen], ang[chosen])


def _angles(A: np.ndarray) -> np.ndarray:
    """Each row's normal angle in [0, 2pi): `arctan2`, plus 2pi where that
    is negative and plus 0.0 elsewhere, which turns -0.0 into 0.0.  On
    arctan2's range that equals `% (2 * pi)` bit for bit, at a fraction of
    its cost."""
    ang = np.arctan2(A[:, 1], A[:, 0])
    ang += (ang < 0) * (2 * math.pi)
    return ang


def _antipodes(ang: np.ndarray) -> np.ndarray:
    """For each of the ascending normal angles `ang` of a convex polygon's
    rows, the corner k, where rows k and k+1 meet, whose normal cone holds
    the opposite normal: where that row's A_i.x is smallest.  As int32."""
    return _antipodes_of(ang, ang).astype(np.int32)


def _antipodes_of(ang: np.ndarray, th: np.ndarray) -> np.ndarray:
    """`_antipodes` of rows with normal angles `th` in [0, 2pi), among the
    corners of the polygon whose ascending normal angles are `ang`.

    The opposite angle th + pi wraps by one subtraction of 2pi, which is
    exact there (Sterbenz), so it equals (th + pi) % (2pi) bit for bit;
    the corner before the first is the last one."""
    opp = th + math.pi
    opp -= (opp >= 2 * math.pi) * (2 * math.pi)
    k = np.searchsorted(ang, opp, side="right") - 1
    k[k < 0] = len(ang) - 1
    return k


def _padded(x: np.ndarray) -> np.ndarray:
    """The cyclic column x with its last entry put before it and its first
    after it, so that entries k - 1, k and k + 1 of the cycle sit at k,
    k + 1 and k + 2, with no wrap."""
    return np.concatenate((x[-1:], x, x[:1]))


def min_width(P: HPolygon) -> float:
    """Minimum width over all directions, from the antipodal vertex pairs.

    The minimizing direction is always one of the edge normals.  Vertex j,
    where rows j and j+1 meet, minimizes n . x for every n whose opposite
    lies between those two normals, so each edge's antipodal vertex is a
    binary search on the rows' sorted normal angles (canonical order),
    made once when P was built (`HPolygon.antipodes`); its two neighbours
    are checked too, which absorbs rounding in the angles.  The three
    candidates are three 1-D passes over the cyclically padded
    vertex columns, with no m x 3 array.
    """
    ax, ay = P.A[:, 0], P.A[:, 1]
    x, y = _padded(P.vertices[:, 0]), _padded(P.vertices[:, 1])
    k = P.antipodes
    low = None
    for j in (k, k + 1, k + 2):  # vertices k - 1, k, k + 1
        proj = ax * x[j] + ay * y[j]
        low = proj if low is None else np.minimum(low, proj)
    return float((P.b - low).min())


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
        return _dual_hull(A, b, depth, P.angles)
    except EmptyInteriorError:
        return None


def _spread_rows(A: np.ndarray) -> np.ndarray:
    """`chebyshev_lp`'s sample start: the first and the last row, in angle
    order, of each of _LP_BATCH equal angle bins; every row up to
    2 * _LP_BATCH rows.  Rows already in angle order, as a canonical
    polygon's are, need no sort."""
    m = len(A)
    if m <= 2 * _LP_BATCH:
        return np.ones(m, dtype=bool)
    ang = _angles(A)
    order = None
    if not (ang[1:] >= ang[:-1]).all():
        order = np.argsort(ang, kind="stable")
        ang = ang[order]
    bins = np.minimum((ang * (_LP_BATCH / (2 * math.pi))).astype(int), _LP_BATCH - 1)
    change = np.nonzero(np.diff(bins))[0]
    pick = np.concatenate(([0, m - 1], change, change + 1))
    used = np.zeros(m, dtype=bool)
    used[pick if order is None else order[pick]] = True
    return used


def chebyshev_lp(A: np.ndarray, b: np.ndarray, extras=(), points=None, fallbacks=None):
    """Maximize t subject to A x + t <= b and the lifted rows `extras`.

    With unit rows of A this is the largest disk, of radius t centred at
    x, inside {A x <= b}; `extras` are ((a_x, a_y, a_t), offset) rows such
    as the floor t >= 0.  Returns the LpResult of `small_lp`.

    Solved by constraint generation, as in Clarkson's algorithm: start
    from a small subset of the rows plus every extra row, then add the at
    most _LP_BATCH rows the optimum violates most, until it violates none.
    An optimum of a subset that is feasible for every row is optimal for
    all of them, so the start changes the number of rounds, never the
    optimal value beyond rounding.

    Given `points`, one or more (x, y) near which largest disks are
    expected to be centred, the start is the 4 rows of least depth
    b - A.x at the nearest of them.  Where the points are the ends of the
    edge or the vertex of optimal centres, those include every row the
    largest disks touch, and the LP ends in one round.  Otherwise, and
    when that start is unbounded, the start is the first and the last
    row, in angle order, of each of _LP_BATCH equal angle bins of pi/4,
    16 rows, or every row up to 16.  Those bin rows bound the LP whenever
    all rows do: consecutive start normals lie within one bin, less than
    pi/4 apart, or are consecutive normals of the rows, so no two are pi
    or more apart.  An unbounded bin start (possible only by rounding)
    falls back to every row.  A Counter `fallbacks`, when given, counts
    "hint" for each unbounded start at `points` and "every_row" for each
    unbounded bin start.
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
    (`HPolygon.antipodes`, as in `min_width`) is the other one, so each
    edge's two ends are
    measured to that vertex and its two neighbours: six pairs an edge,
    streamed _PAIR_CHUNK edges at a time.

    The pairs' squared distances dx^2 + dy^2 are cheap, and `np.hypot` runs
    only on the pairs whose square lies within 1e-12 relative of the
    largest square so far.  That returns the float hypot over every pair
    would: rounding moves a square by at most about 10 ulp from the square
    of the distance hypot rounds, far inside 1e-12, so the pair whose hypot
    is largest passes.  That holds while the largest square is a finite
    normal float; otherwise, with squares that overflowed or lost bits to
    underflow, hypot runs over every pair.
    """
    x, y = _padded(P.vertices[:, 0]), _padded(P.vertices[:, 1])
    a = P.antipodes

    def pairs():
        for lo in range(0, P.m, _PAIR_CHUNK):
            hi = min(lo + _PAIR_CHUNK, P.m)
            j = np.arange(3)[:, None] + a[lo:hi]  # rows: vertices a - 1, a, a + 1
            fx, fy = x[j], y[j]
            dx, dy = np.empty((2, 3, 2, hi - lo))
            for e in (0, 1):  # edge k runs from vertex k - 1 to vertex k, at k and k + 1 in x
                np.subtract(fx, x[lo + e:hi + e], out=dx[:, e])
                np.subtract(fy, y[lo + e:hi + e], out=dy[:, e])
            yield dx, dy

    top, near = 0.0, []
    with np.errstate(over="ignore"):
        for dx, dy in pairs():
            sq = dx * dx + dy * dy
            top = max(top, float(sq.max()))
            keep = sq >= top * (1 - 1e-12)
            near.append((dx[keep], dy[keep]))
    if not _TINY <= top <= _HUGE:  # squares overflowed or lost bits to underflow
        near = pairs()
    return max(float(np.hypot(dx, dy).max(initial=0.0)) for dx, dy in near)


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


def regular_polygon(m: int) -> HPolygon:
    """Canonical regular m-gon with circumradius 1 about the origin, its
    first vertex at (1, 0)."""
    ang = 2 * math.pi * np.arange(m) / m
    return canonicalize(np.stack([np.cos(ang), np.sin(ang)], axis=1))
