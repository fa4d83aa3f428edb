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
from .tolerance import DEFAULT_TOL, Tol

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

    def contains(self, x, tol: Tol = DEFAULT_TOL, scale: float = 1.0) -> bool:
        return bool(np.all(self.A @ np.asarray(x) <= self.b + tol.slack(scale)))


@dataclass(frozen=True)
class WidthResult:
    """Minimum width of a polygon and where it is achieved."""

    width: float
    direction: tuple[float, float]
    edge_index: int
    opposite_vertex: int


def _convex_hull_ccw(points: np.ndarray) -> np.ndarray:
    """Indices of the hull corners of `points`, counterclockwise.

    Monotone chain with strict turns: drops interior and collinear points,
    and of exact duplicates keeps the lowest index.
    """
    x, y = points[:, 0], points[:, 1]
    order = np.lexsort((np.arange(len(points)), y, x))
    xs, ys = x[order], y[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])
    order = order[first]
    if len(order) < 3:
        raise EmptyInteriorError("fewer than 3 distinct points")
    pts = [(px, py, k) for (px, py), k in zip(points[order].tolist(), order.tolist())]
    span = max(float(xs[-1] - xs[0]), float(ys.max() - ys.min()), 1.0)
    # Collinearity cutoff sits near machine precision on purpose: double
    # cross products carry ~1e-16 * span^2 of noise, while the thinnest
    # legitimate corners (regular 2^16-gon) are ~1e-12 * span^2.
    eps = 1e-14 * span * span

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                cross = (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
                if cross <= eps:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = build(pts)
    upper = build(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise EmptyInteriorError("points are collinear")
    return np.array([p[2] for p in hull])


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


def canonicalize(obj, tol: Tol = DEFAULT_TOL, interior=None) -> HPolygon:
    """Convert vertices, an (A, b) pair, or an HPolygon to canonical form.

    Raises NonFiniteInputError when any number in it is NaN or infinite,
    before anything else, EmptyInteriorError when the region is empty or
    has no interior and UnboundedError when the half-planes fail to bound
    it.  A known strictly interior point may be passed to skip the
    feasibility LP.
    """
    if isinstance(obj, HPolygon):
        obj = (obj.A, obj.b)
    if isinstance(obj, tuple) and len(obj) == 2:
        A, b = np.asarray(obj[0], float), np.asarray(obj[1], float)
        _require_finite(A, b)
        return _canonicalize_rows(A, b, tol, interior)
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


def _canonicalize_rows(A: np.ndarray, b: np.ndarray, tol: Tol, interior=None) -> HPolygon:
    A = np.atleast_2d(np.asarray(A, float))
    b = np.asarray(b, float).ravel()
    if A.shape[0] != b.shape[0] or A.shape[1] != 2:
        raise ValueError("need an m x 2 matrix and an m-vector")

    norm = np.hypot(A[:, 0], A[:, 1])
    trivial = norm <= 1e-300
    if np.any(b[trivial] < -(tol.abs + tol.rel * np.abs(b[trivial]))):
        raise EmptyInteriorError("contradictory trivial row")
    # 0.x <= b with b >= 0 says nothing; unit rows are kept bit for bit
    A, b, norm = A[~trivial], b[~trivial], norm[~trivial]
    if len(b) == 0:
        raise UnboundedError("no effective half-planes")
    rescale = np.abs(norm - 1.0) > tol.slack(1.0)
    A = np.where(rescale[:, None], A / norm[:, None], A)
    b = np.where(rescale, b / norm, b)

    # Feasibility / interior first (a contradictory system is EmptyInterior
    # even when it also fails to bound); the Chebyshev LP decides it unless
    # the caller already knows a strictly interior point.
    scale = max(1.0, float(np.abs(b).max()))
    c = None
    if interior is not None:
        cand = np.asarray(interior, float)
        if (b - (A[:, 0] * cand[0] + A[:, 1] * cand[1])).min() > tol.slack(scale):
            c = cand
    if c is None:
        res = chebyshev_lp(A, b, tol=tol)
        if res.status == OPTIMAL and res.value <= tol.slack(scale):
            raise EmptyInteriorError("region is empty or lower-dimensional")

    ang = np.arctan2(A[:, 1], A[:, 0]) % (2 * math.pi)
    s = np.sort(ang)
    if max(np.diff(s).max(initial=0.0), 2 * math.pi - (s[-1] - s[0])) >= math.pi - 1e-12:
        raise UnboundedError("normals leave a half-plane uncovered")
    if c is None:
        if res.status != OPTIMAL:
            raise UnboundedError("interior direction escapes to infinity")
        c = np.array(res.point[:2])

    # Polar dual: row (a, b) -> point a / (b - a.c); irredundant rows are
    # exactly the hull vertices of the dual cloud, in matching CCW order.
    depth = b - (A[:, 0] * c[0] + A[:, 1] * c[1])
    chosen = _convex_hull_ccw(A / depth[:, None])
    chosen = chosen[np.argsort(ang[chosen], kind="stable")]
    return _finish_hpolygon(A[chosen], b[chosen])


def directional_width(P: VPolygon | HPolygon, v) -> float:
    """Extent of the polygon between supporting lines normal to v."""
    verts = P.vertices if isinstance(P, (VPolygon, HPolygon)) else np.asarray(P)
    proj = verts @ np.asarray(v, float)
    return float(proj.max() - proj.min())


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
    opp = (ang + math.pi) % (2 * math.pi)
    j = np.searchsorted(ang, opp, side="right") - 1
    cand = (j[:, None] + np.array([-1, 0, 1])) % m
    V = verts[cand]
    proj = A[:, None, 0] * V[:, :, 0] + A[:, None, 1] * V[:, :, 1]
    low = proj.argmin(axis=1)
    w = b - proj[np.arange(m), low]
    i = int(np.argmin(w))
    return WidthResult(float(w[i]), (float(A[i, 0]), float(A[i, 1])), i, int(cand[i, low[i]]))


def inner_body(P: HPolygon, t: float, tol: Tol = DEFAULT_TOL, interior=None) -> HPolygon | None:
    """Inner parallel body {A x <= b - t}, recanonicalized; None when empty.

    Edges of P may disappear, so the result can have fewer rows.  The
    incenter of P is interior to every nonempty inner body, so callers
    that know it can pass it to skip the feasibility LP.
    """
    if t < 0:
        raise ValueError("offset must be nonnegative")
    try:
        return _canonicalize_rows(P.A, P.b - t, tol, interior)
    except EmptyInteriorError:
        return None


def chebyshev_lp(A: np.ndarray, b: np.ndarray, extras=(), tol: Tol = DEFAULT_TOL):
    """Maximize t subject to A x + t <= b and the lifted rows `extras`.

    With unit rows of A this is the largest disk, of radius t centred at
    x, inside {A x <= b}; `extras` are ((a_x, a_y, a_t), offset) rows such
    as the floor t >= 0.  Returns the LpResult of `small_lp`.

    Solved by constraint generation: start from the first and the last
    row, in angle order, of each of _LP_BATCH equal angle bins, plus every
    extra row, then add the rows the optimum violates, most violated first,
    until it violates none.  An optimum of a subset that is feasible for
    every row is optimal for all of them.  The start rows bound the LP
    whenever all rows do: consecutive start normals lie within one bin or
    are consecutive normals of the rows, so no two are pi or more apart.
    An unbounded start (possible only by rounding) falls back to every
    row.  Up to 2 * _LP_BATCH rows it is a single LP over all rows.
    """
    m = len(b)
    if m <= 2 * _LP_BATCH:
        used = np.ones(m, dtype=bool)
    else:
        ang = np.arctan2(A[:, 1], A[:, 0]) % (2 * math.pi)
        order = np.argsort(ang, kind="stable")
        bins = np.minimum((ang[order] * (_LP_BATCH / (2 * math.pi))).astype(int), _LP_BATCH - 1)
        change = np.nonzero(np.diff(bins))[0]
        used = np.zeros(m, dtype=bool)
        used[order[[0, m - 1]]] = True
        used[order[change]] = True
        used[order[change + 1]] = True
    extras = list(extras)
    while True:
        idx = np.nonzero(used)[0]
        rows = [((a0, a1, 1.0), bi) for (a0, a1), bi in zip(A[idx].tolist(), b[idx].tolist())]
        res = small_lp(rows + extras, (0.0, 0.0, 1.0), tol=tol)
        if res.status == UNBOUNDED and not used.all():
            used[:] = True
            continue
        if res.status != OPTIMAL:
            return res
        x, y, t = res.point
        ax = A[:, 0] * x
        ay = A[:, 1] * y
        excess = ax + ay + t - b
        slack = tol.abs + tol.rel * (np.abs(b) + np.abs(ax) + np.abs(ay) + abs(t))
        new = np.nonzero((excess > slack) & ~used)[0]
        if len(new) == 0:
            return res
        used[new[np.argsort(excess[new] - slack[new])[::-1][:_LP_BATCH]]] = True


def inradius_incenter(P: HPolygon, tol: Tol = DEFAULT_TOL):
    """Largest inscribed-disk radius and one center achieving it."""
    res = chebyshev_lp(P.A, P.b, [_FLOOR], tol)
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
    opp = (ang + math.pi) % (2 * math.pi)
    j = np.searchsorted(ang, opp, side="right") - 1
    far = V[(j[:, None] + np.array([-1, 0, 1])) % m]  # (m, 3, 2)
    ends = np.stack([np.roll(V, 1, axis=0), V], axis=1)  # edge k: vertices k-1, k
    d = far[:, None, :, :] - ends[:, :, None, :]
    return float(np.hypot(d[..., 0], d[..., 1]).max())


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
