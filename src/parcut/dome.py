"""The dome of a convex polygon and the facet tops the hierarchy reads off it.

The dome of P = {x : Ax <= b} (unit outward normals) is the bounded
3-polytope {(x, t) : Ax <= b - t, t >= 0}.  Slicing it at height t gives
the inner parallel body of P at offset t, and its upper boundary is the
graph of the distance-to-boundary function.  Lifted facet rows keep the
un-normalized normal (A_i, 1) so that slice algebra stays exact.

Sweeping upward from a bottom cycle, a shrinking convex slice loses its
edges one by one, and each death is a vertex.  `collapse_sweep` is the
one implementation of that sweep.  Run over the whole dome from its
floor (`facet_lifetimes`), it gives every facet's top, the height at
which its polygon edge leaves the inner body, and every dome vertex with
its three planes, which the hierarchy's level 0 stores as they come
(`parcut.hierarchy.face_lattice`); run in a deleted facet's plane, it
caps the hole that facet leaves (`parcut.hierarchy.peel_level`).  A
sweep whose slice runs out of dying edges early raises GeometryError.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .geometry import HPolygon, _read_only, diameter
from .lp import small_lp  # noqa: F401 -- bench/spans.py wraps dome.small_lp


@dataclass(frozen=True)
class Dome:
    """Half-space description of the lifted polytope plus its floor polygon."""

    polygon: HPolygon
    normals: np.ndarray  # (m+1, 3); row m is the floor (0, 0, -1)
    offsets: np.ndarray  # (m+1,)
    corners: np.ndarray  # (m, 2) floor polygon corners; corner j starts edge j
    scale: float

    def __post_init__(self):
        _read_only(self)

    @property
    def m(self) -> int:
        return len(self.offsets) - 1

    @property
    def floor(self) -> int:
        return self.m

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
# plane triples and the collapse sweep


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


def collapse_sweep(labels, bottom, rows, lam, ctol):
    """Run the edge-collapse sweep over a bounded shrinking convex slice:
    the whole dome from its floor (`facet_lifetimes`), or the cap over
    the hole a deleted facet leaves (`parcut.hierarchy.peel_level`).

    labels[j] is the plane carrying edge j of the bottom cycle, and bottom
    is a 3-D point on that cycle.  rows maps a label to its half-space
    (n, off) with n . p <= off; lam is the sweep functional (height
    h = lam . p, bottom cycle at the minimum h).  Returns the death
    events [(point, (la, lb, lc))], final last.

    Each live edge's death is estimated where its plane meets those of
    its two live neighbours, by one `estimate`: at the start and for both
    neighbours after each death.  An estimate more than 100 ctol below
    the current height is an edge that is growing, not dying, and is not
    queued.  A bounded slice always has a dying edge while more than
    three are alive, so a heap that runs empty before then means the
    input is inconsistent, and the sweep raises GeometryError.  Four or
    more planes through one point need no special case: their edges die
    one after another at the same height, in the order the heap pops
    them.  The relinking is purely combinatorial, and each event lands at
    the height where its edge dies.
    """
    k = len(labels)
    if k < 3:
        raise GeometryError("slice needs at least 3 edges")
    nxt = [(j + 1) % k for j in range(k)]
    prv = [(j - 1) % k for j in range(k)]
    gen = [0] * k  # generation of each edge's estimate; -1 once it died
    lrows = [rows[lab] for lab in labels]
    lam0, lam1, lam2 = lam
    skip_margin = 100.0 * ctol
    events = []
    heap: list[tuple[float, int, int]] = []
    pending_pt: dict[int, tuple] = {}

    def estimate(j, lim):
        """Queue edge j's death under its current neighbours unless it
        lies below height lim."""
        na, oa = lrows[prv[j]]
        nb, ob = lrows[j]
        nc, oc = lrows[nxt[j]]
        pt = _solve3(na, oa, nb, ob, nc, oc)
        if pt is None:
            return
        h = lam0 * pt[0] + lam1 * pt[1] + lam2 * pt[2]
        if h < lim:
            return
        pending_pt[j] = pt
        heapq.heappush(heap, (h, j, gen[j]))

    h0 = lam0 * bottom[0] + lam1 * bottom[1] + lam2 * bottom[2]
    for j in range(k):
        estimate(j, h0 - skip_margin)

    n_alive = k
    while n_alive > 3:
        if not heap:
            raise GeometryError("collapse sweep stalled; inconsistent input")
        h, j, g = heapq.heappop(heap)
        if g != gen[j]:
            continue
        p, q = prv[j], nxt[j]
        events.append((pending_pt[j], (labels[p], labels[j], labels[q])))
        gen[j] = -1
        nxt[p] = q
        prv[q] = p
        gen[p] += 1
        gen[q] += 1
        n_alive -= 1
        estimate(p, h - skip_margin)
        estimate(q, h - skip_margin)

    a = next(j for j in range(k) if gen[j] >= 0)
    b = nxt[a]
    c = nxt[b]
    na, oa = lrows[a]
    nb, ob = lrows[b]
    nc, oc = lrows[c]
    pt = _solve3(na, oa, nb, ob, nc, oc)
    if pt is None:
        raise GeometryError("final plane triple is singular")
    events.append((pt, (labels[a], labels[b], labels[c])))
    return events


@dataclass(frozen=True)
class Lifetimes:
    """Facet tops of a dome, read off its collapse sweep.

    `sweep` is the sweep's events, [(point, (p, j, q))]: edge j died at
    point between its neighbours p and q then, in order of death, and
    the last event is the apex, where the three edges left meet.  `M[i]`
    is the offset at which polygon edge i leaves the inner parallel body
    (the top of lifted facet i).
    """

    M: np.ndarray
    sweep: list

    def __post_init__(self):
        _read_only(self)

    @property
    def apex(self) -> tuple[float, float, float]:
        """(x, y, t) of the dome's highest point: the incenter and the inradius."""
        return self.sweep[-1][0]

    @property
    def events(self) -> int:
        """The number of the sweep's vertex events, m - 2."""
        return len(self.sweep)


def facet_lifetimes(D: Dome) -> Lifetimes:
    """Every facet top of a dome in O(m log m), from one `collapse_sweep`
    of the whole dome upward from its floor.

    The slice at height h is the inner body I_h, whose edges die one by
    one as h grows.  A death's height is its edge's top; the three edges
    alive at the end share the apex.  The dome need not be generic: four
    planes through one point leave every death height, and so every top,
    unchanged, whichever of them the sweep kills first.
    """
    m = D.m
    bottom = (float(D.corners[0, 0]), float(D.corners[0, 1]), 0.0)
    ctol = _coincidence_tol(D.scale)
    sweep = collapse_sweep(range(m), bottom, D.row_list(), (0.0, 0.0, 1.0), ctol)
    M = np.empty(m)
    for pt, tri in sweep[:-1]:
        M[tri[1]] = pt[2]
    apex, tri = sweep[-1]
    M[list(tri)] = apex[2]
    return Lifetimes(M, sweep)
