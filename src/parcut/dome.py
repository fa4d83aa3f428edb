"""The dome of a convex polygon and the facet tops the hierarchy reads off it.

The dome of P = {x : Ax <= b} (unit outward normals) is the bounded
3-polytope {(x, t) : Ax <= b - t, t >= 0}.  Slicing it at height t gives
the inner parallel body of P at offset t, and its upper boundary is the
graph of the distance-to-boundary function.  Lifted facet rows keep the
un-normalized normal (A_i, 1) so that slice algebra stays exact.

Sweeping upward from the floor, the slice is a convex polygon whose
edges die one by one, and each death is a vertex of the dome.
`facet_lifetimes` is the one sweep of the whole dome.  It reads every
facet's top, the height at which its polygon edge leaves the inner body,
off the dome as it is, and keeps no dome vertex but the apex: only the
order of the deaths, from which the hierarchy's level 0 replays every
vertex (`parcut.hierarchy.face_lattice`).
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .geometry import HPolygon, diameter
from .lp import small_lp  # noqa: F401 -- bench/spans.py wraps dome.small_lp


@dataclass(frozen=True)
class Dome:
    """Half-space description of the lifted polytope plus its floor polygon."""

    polygon: HPolygon
    normals: np.ndarray  # (m+1, 3); row m is the floor (0, 0, -1)
    offsets: np.ndarray  # (m+1,)
    corners: np.ndarray  # (m, 2) floor polygon corners; corner j starts edge j
    scale: float

    @property
    def m(self) -> int:
        return len(self.offsets) - 1

    @property
    def floor(self) -> int:
        return self.m

    def row(self, label: int) -> tuple[tuple[float, float, float], float]:
        n = self.normals[label]
        return (float(n[0]), float(n[1]), float(n[2])), float(self.offsets[label])

    def row_list(self) -> list[tuple[tuple[float, float, float], float]]:
        """All rows as python tuples, for the sweeps that index them a lot;
        a new list each call, so callers build it once."""
        # columns, not rows: m short-lived row lists would each be tracked
        # by the garbage collector and can set off full collections
        N = self.normals.T.tolist()
        return list(zip(zip(*N), self.offsets.tolist()))


def build_dome(P: HPolygon) -> Dome:
    """Lift a canonical polygon: facet i gets the row (A_i, 1) . (x,t) <= b_i."""
    m = P.m
    normals = np.empty((m + 1, 3))
    normals[:m, :2] = P.A
    normals[:m, 2] = 1.0
    normals[m] = (0.0, 0.0, -1.0)
    offsets = np.concatenate([P.b, [0.0]])
    corners = np.roll(P.vertices, 1, axis=0)  # corner j = start of edge j
    return Dome(P, normals, offsets, corners, diameter(P))


def _coincidence_tol(scale: float) -> float:
    """Distance below which two dome vertices count as one point.

    Kept near machine precision relative to the polygon's diameter
    `scale`: genuine degeneracies of the input coincide to ~1e-15 * scale.
    """
    return 1e-13 * scale


# ---------------------------------------------------------------------------
# plane triples and the heights-only sweep


def _solve3(n1, o1, n2, o2, n3, o3):
    """Concurrence point of three dome planes n.p = o, or None if near-singular.

    Dome rows only: a lifted row has t-coefficient 1 and the floor -1, and
    a triple holds at most one floor row, so at least two of the three
    rows are lifted and share their t-coefficient.  Those are differenced
    first: the subtraction is exact for nearby doubles and removes the
    catastrophic cancellation that plain Cramer suffers when the three
    normals are almost parallel (adjacent rows of a fine-grained polygon).
    Written branch-heavy and allocation-free; this sits on the innermost
    path of every sweep.
    """
    t1 = n1[2]
    t2 = n2[2]
    t3 = n3[2]
    if t1 == t2:
        if t2 == t3:
            dx1 = n2[0] - n1[0]
            dy1 = n2[1] - n1[1]
            do1 = o2 - o1
            dx2 = n3[0] - n2[0]
            dy2 = n3[1] - n2[1]
            do2 = o3 - o2
            det = dx1 * dy2 - dx2 * dy1
            s = (abs(dx1) + abs(dy1)) * (abs(dx2) + abs(dy2))
            if abs(det) <= 1e-14 * s:
                return None
            x = (do1 * dy2 - do2 * dy1) / det
            y = (dx1 * do2 - dx2 * do1) / det
            return (x, y, (o1 - n1[0] * x - n1[1] * y) / t1)
        pa, qa, pb, qb, no, oo = n1, o1, n2, o2, n3, o3
    elif t2 == t3:
        pa, qa, pb, qb, no, oo = n2, o2, n3, o3, n1, o1
    else:
        pa, qa, pb, qb, no, oo = n1, o1, n3, o3, n2, o2

    # two lifted rows and the floor: difference the lifted ones exactly
    dx = pb[0] - pa[0]
    dy = pb[1] - pa[1]
    do = qb - qa
    ta = pa[2]
    r = no[2] / ta
    ex = no[0] - r * pa[0]
    ey = no[1] - r * pa[1]
    eo = oo - r * qa
    det = dx * ey - ex * dy
    s = (abs(dx) + abs(dy)) * (abs(ex) + abs(ey))
    if abs(det) <= 1e-14 * s:
        return None
    x = (do * ey - eo * dy) / det
    y = (dx * eo - ex * do) / det
    return (x, y, (qa - pa[0] * x - pa[1] * y) / ta)


@dataclass(frozen=True)
class Lifetimes:
    """Facet tops of a dome, read off one collapse sweep.

    `M[i]` is the offset at which polygon edge i leaves the inner parallel
    body (the top of lifted facet i); `apex` is (x, y, t) of the dome's
    highest point, i.e. the incenter and the inradius.  `events` counts
    the sweep's vertex events, and `readmits` the times its heap ran
    empty early and every live edge was estimated again (a safety net).
    `order` holds the m - 3 edges that die before the last three, in order.
    """

    M: np.ndarray
    apex: tuple[float, float, float]
    events: int
    readmits: int
    order: np.ndarray


def _heights(ax, ay, b, p, e, q):
    """Point (x, y, t) where lifted row e meets rows p and q, for index
    arrays, and where that triple is not near-singular.

    `_solve3`'s branch for three rows of t-coefficient 1, in its operation
    order, so each point is bit for bit the one it returns.
    """
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
    return x, y, b[p] - ax[p] * x - ay[p] * y, ok


def facet_lifetimes(D: Dome) -> Lifetimes:
    """Every facet top of a dome in O(m log m), from one heights-only sweep.

    The slice at height h is the inner body I_h, whose edges die one by
    one as h grows.  Edge j dies where its lifted row meets those of its
    two current neighbours; a heap keyed (height, edge, generation) pops
    the deaths in order, each death re-estimates the two edges it joins,
    and estimates more than a skip margin below the current height are
    dropped (the edge is growing).  A popped height is its edge's top;
    the three edges alive at the end share the apex.  The dome need not
    be generic: four planes through one point leave every death height,
    and so every top, unchanged, whichever of them the sweep kills first.

    Only heights are kept, on flat lists of the lifted rows: the m first
    estimates come from one numpy pass, the two re-estimates per death
    inline the same arithmetic (`_heights`), and only the apex is solved
    as a point.  Each popped edge goes into `order`, C ints allocated
    once (a list or a growing array raises peak memory at 2^16); the
    hierarchy's `face_lattice` replays it into every vertex.
    """
    m = D.m
    axa, aya, ba = D.normals[:m, 0], D.normals[:m, 1], D.offsets[:m]
    skip = 100.0 * _coincidence_tol(D.scale)
    idx = np.arange(m)
    h, ok = _heights(axa, aya, ba, np.roll(idx, 1), idx, np.roll(idx, -1))[2:]
    live = np.nonzero(ok & ~(h < -skip))[0]  # the floor is at height 0
    heap = list(zip(h[live].tolist(), live.tolist(), [0] * len(live)))
    heapq.heapify(heap)  # pops as if pushed one by one: the tuples are distinct

    ax, ay, b = axa.tolist(), aya.tolist(), ba.tolist()
    nxt = list(range(1, m)) + [0]
    prv = [m - 1] + list(range(m - 1))
    gen = [0] * m  # generation of each edge's estimate; -1 once it died
    M = [0.0] * m
    order = array("i", [0]) * (m - 3)
    n_alive = m
    readmits = 0
    pop = heapq.heappop
    push = heapq.heappush
    while n_alive > 3:
        if not heap:
            # Every estimate was dropped below the current height; rounding
            # near the resolution floor can do that.  Re-admit every live edge.
            readmits += 1
            if readmits > 2:
                raise GeometryError("collapse sweep stalled; inconsistent input")
            e = np.array([j for j in range(m) if gen[j] >= 0])
            for j in e.tolist():
                gen[j] += 1
            h, ok = _heights(axa, aya, ba, np.array(prv)[e], e, np.array(nxt)[e])[2:]
            for hj, j in zip(h[ok].tolist(), e[ok].tolist()):
                push(heap, (hj, j, gen[j]))
            continue
        h, j, g = pop(heap)
        if g != gen[j]:
            continue
        p = prv[j]
        q = nxt[j]
        M[j] = h
        order[m - n_alive] = j
        gen[j] = -1
        nxt[p] = q
        prv[q] = p
        gen[p] += 1
        gen[q] += 1
        n_alive -= 1
        lim = h - skip
        # re-estimate p against (prv[p], q) and q against (p, nxt[q]): `_heights`
        # inlined, sharing the differences of rows p and q; the tests read
        # `not <=` and `not <` so that a nan compares as it does there
        xp = ax[p]
        yp = ay[p]
        bp = b[p]
        xq = ax[q]
        yq = ay[q]
        bq = b[q]
        dx = xq - xp
        dy = yq - yp
        do = bq - bp
        s = abs(dx) + abs(dy)
        a = prv[p]
        xa = ax[a]
        ya = ay[a]
        dx1 = xp - xa
        dy1 = yp - ya
        do1 = bp - b[a]
        det = dx1 * dy - dx * dy1
        if not abs(det) <= 1e-14 * ((abs(dx1) + abs(dy1)) * s):
            x = (do1 * dy - do * dy1) / det
            y = (dx1 * do - dx * do1) / det
            eh = b[a] - xa * x - ya * y
            if not eh < lim:
                push(heap, (eh, p, gen[p]))
        c = nxt[q]
        dx2 = ax[c] - xq
        dy2 = ay[c] - yq
        do2 = b[c] - bq
        det = dx * dy2 - dx2 * dy
        if not abs(det) <= 1e-14 * (s * (abs(dx2) + abs(dy2))):
            x = (do * dy2 - do2 * dy) / det
            y = (dx * do2 - dx2 * do) / det
            eh = bp - xp * x - yp * y
            if not eh < lim:
                push(heap, (eh, q, gen[q]))

    a = next(j for j in range(m) if gen[j] >= 0)
    c = nxt[nxt[a]]
    apex = _solve3(*D.row(a), *D.row(nxt[a]), *D.row(c))
    if apex is None:
        raise GeometryError("final plane triple is singular")
    M[a] = M[nxt[a]] = M[c] = apex[2]
    return Lifetimes(np.array(M), apex, m - 2, readmits, np.frombuffer(order, np.intc))
