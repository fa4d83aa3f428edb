"""The dome of a convex polygon and the collapse sweep over it.

The dome of P = {x : Ax <= b} (unit outward normals) is the bounded
3-polytope {(x, t) : Ax <= b - t, t >= 0}.  Slicing it at height t gives
the inner parallel body of P at offset t, and its upper boundary is the
graph of the distance-to-boundary function.  Lifted facet rows keep the
un-normalized normal (A_i, 1) so that slice algebra stays exact.

The collapse sweep runs upward from the floor: the slice at height h is
a convex polygon whose edges die one by one as h grows, and each death
is a vertex of the dome.  `facet_lifetimes` reads every facet's top, the
height at which its polygon edge leaves the inner body, off one
non-strict sweep of the dome as it is.  The sweep is written against an
arbitrary "bottom cycle + bounding planes + sweep direction" input, so
the hierarchy (`parcut.hierarchy`) reuses it over the hole left by
deleting a facet.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVertexError, GeometryError
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

    Kept near machine precision: genuine degeneracies of unperturbed
    input coincide to ~1e-15 * scale, while perturbed data stays several
    orders above this.
    """
    return 1e-13 * max(scale, 1.0)


# ---------------------------------------------------------------------------
# the collapse sweep


def _solve3(n1, o1, n2, o2, n3, o3):
    """Concurrence point of three planes n.p = o, or None if near-singular.

    Planes sharing an identical t-coefficient (all lifted facet rows do)
    are differenced first: the subtraction is exact for nearby doubles and
    removes the catastrophic cancellation that plain Cramer suffers when
    the three normals are almost parallel (adjacent rows of a fine-grained
    polygon).  Written branch-heavy and allocation-free; this sits on the
    innermost path of every sweep.
    """
    t1 = n1[2]
    t2 = n2[2]
    t3 = n3[2]
    if t1 == t2:
        if t2 == t3:
            if t1 == 0.0:
                return None  # three vertical planes never share a point
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
    elif t1 == t3:
        pa, qa, pb, qb, no, oo = n1, o1, n3, o3, n2, o2
    else:
        # generic rows: plain Cramer
        d11 = n2[1] * t3 - t2 * n3[1]
        d12 = n2[0] * t3 - t2 * n3[0]
        d13 = n2[0] * n3[1] - n2[1] * n3[0]
        det = n1[0] * d11 - n1[1] * d12 + t1 * d13
        s = (
            (abs(n1[0]) + abs(n1[1]) + abs(t1))
            * (abs(n2[0]) + abs(n2[1]) + abs(t2))
            * (abs(n3[0]) + abs(n3[1]) + abs(t3))
        )
        if abs(det) <= 1e-14 * s:
            return None
        x = o1 * d11 - n1[1] * (o2 * t3 - t2 * o3) + t1 * (o2 * n3[1] - n2[1] * o3)
        y = n1[0] * (o2 * t3 - t2 * o3) - o1 * d12 + t1 * (n2[0] * o3 - o2 * n3[0])
        z = n1[0] * (n2[1] * o3 - o2 * n3[1]) - n1[1] * (n2[0] * o3 - o2 * n3[0]) + o1 * d13
        return (x / det, y / det, z / det)

    # two rows share the t-coefficient: difference them exactly
    dx = pb[0] - pa[0]
    dy = pb[1] - pa[1]
    do = qb - qa
    ta = pa[2]
    if ta == 0.0:
        ex, ey, eo = pa[0], pa[1], qa
        tn = no[2]
        if tn == 0.0:
            return None
        det = dx * ey - ex * dy
        s = (abs(dx) + abs(dy)) * (abs(ex) + abs(ey))
        if abs(det) <= 1e-14 * s:
            return None
        x = (do * ey - eo * dy) / det
        y = (dx * eo - ex * do) / det
        return (x, y, (oo - no[0] * x - no[1] * y) / tn)
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


def collapse_sweep(labels, corners, rows, lam, ctol, strict=True):
    """Run the edge-collapse sweep over a bounded shrinking convex slice.

    labels[j] is the plane carrying edge j of the bottom cycle; corners[j]
    is the 3-D corner where edge j starts (shared with edge j-1).  rows
    maps a label to its half-space (n, off) with n . p <= off; lam is the
    sweep functional (height h = lam . p, bottom cycle at the minimum h).
    Returns the death events [(point, (la, lb, lc), h)], final last.

    In strict mode an event landing on an existing joint (four planes
    through one point) raises DegenerateVertexError.  Non-strict mode
    accepts such coincidences, whether they are the resolution floor of
    perturbed input or true concurrences of unperturbed input: the
    relinking is purely combinatorial, and each event still lands at the
    height where its edge dies.
    """
    k = len(labels)
    if k < 3:
        raise GeometryError("slice needs at least 3 edges")
    if k == 3:
        na, oa = rows[labels[0]]
        nb, ob = rows[labels[1]]
        nc, oc = rows[labels[2]]
        pt = _solve3(na, oa, nb, ob, nc, oc)
        if pt is None:
            raise GeometryError("final plane triple is singular")
        if strict:
            c2 = ctol * ctol
            for c in corners:
                if _d2(pt, c) <= c2:
                    raise DegenerateVertexError(
                        "four planes concur at the apex; perturb the input"
                    )
        h = lam[0] * pt[0] + lam[1] * pt[1] + lam[2] * pt[2]
        return [(pt, (labels[0], labels[1], labels[2]), h)]
    nxt = [(j + 1) % k for j in range(k)]
    prv = [(j - 1) % k for j in range(k)]
    alive = [True] * k
    gen = [0] * k
    joint = [corners[nxt[j]] for j in range(k)]  # meeting point of edges j, nxt[j]
    h0 = lam[0] * corners[0][0] + lam[1] * corners[0][1] + lam[2] * corners[0][2]

    ctol2 = ctol * ctol
    skip_margin = 100.0 * ctol
    events = []
    heap: list[tuple[float, int, int]] = []
    pending_pt: dict[int, tuple] = {}

    lrows = [rows[lab] for lab in labels]
    lam0, lam1, lam2 = lam
    push = heapq.heappush

    def estimate(j, h_now, margin):
        na, oa = lrows[prv[j]]
        nb, ob = lrows[j]
        nc, oc = lrows[nxt[j]]
        pt = _solve3(na, oa, nb, ob, nc, oc)
        if pt is None:
            return
        h = lam0 * pt[0] + lam1 * pt[1] + lam2 * pt[2]
        if h < h_now - margin:
            return  # edge currently growing; no death under these neighbors
        pending_pt[j] = pt
        push(heap, (h, j, gen[j]))

    lim0 = h0 - skip_margin
    na, oa = lrows[k - 1]
    nb, ob = lrows[0]
    for j in range(k):  # initial estimates, inlined like the event loop
        nc, oc = lrows[j + 1 - k]
        pt = _solve3(na, oa, nb, ob, nc, oc)
        na, oa, nb, ob = nb, ob, nc, oc
        if pt is None:
            continue
        h = lam0 * pt[0] + lam1 * pt[1] + lam2 * pt[2]
        if h < lim0:
            continue
        pending_pt[j] = pt
        push(heap, (h, j, 0))

    n_alive = k
    h_now = h0
    retries = 0
    pop = heapq.heappop
    while n_alive > 3:
        if not heap:
            # All candidates were filtered as past events; numerical noise
            # can do that near the resolution floor.  Re-admit everything.
            retries += 1
            if retries > 2:
                raise GeometryError("collapse sweep stalled; inconsistent input")
            for j in range(k):
                if alive[j]:
                    gen[j] += 1
                    estimate(j, h_now, math.inf)
            continue
        h, j, g = pop(heap)
        if not alive[j] or g != gen[j]:
            continue
        pt = pending_pt[j]
        p, q = prv[j], nxt[j]
        if strict and (_d2(pt, joint[p]) <= ctol2 or _d2(pt, joint[j]) <= ctol2):
            raise DegenerateVertexError(
                "four planes concur at one point; perturb the input"
            )
        events.append((pt, (labels[p], labels[j], labels[q]), h))
        alive[j] = False
        nxt[p] = q
        prv[q] = p
        joint[p] = pt
        gen[p] += 1
        gen[q] += 1
        h_now = h
        n_alive -= 1
        # re-estimate both neighbours (inlined: hottest loop of the build)
        lim = h_now - skip_margin
        for e in (p, q):
            na, oa = lrows[prv[e]]
            nb, ob = lrows[e]
            nc, oc = lrows[nxt[e]]
            ept = _solve3(na, oa, nb, ob, nc, oc)
            if ept is None:
                continue
            eh = lam0 * ept[0] + lam1 * ept[1] + lam2 * ept[2]
            if eh < lim:
                continue
            pending_pt[e] = ept
            push(heap, (eh, e, gen[e]))

    a = alive.index(True)
    b = nxt[a]
    c = nxt[b]
    na, oa = rows[labels[a]]
    nb, ob = rows[labels[b]]
    nc, oc = rows[labels[c]]
    pt = _solve3(na, oa, nb, ob, nc, oc)
    if pt is None:
        raise GeometryError("final plane triple is singular")
    if strict:
        for jj in (a, b, c):
            if _d2(pt, joint[jj]) <= ctol2:
                raise DegenerateVertexError(
                    "four planes concur at the apex; perturb the input"
                )
    h = lam[0] * pt[0] + lam[1] * pt[1] + lam[2] * pt[2]
    events.append((pt, (labels[a], labels[b], labels[c]), h))
    return events


def _d2(p, q):
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    dz = p[2] - q[2]
    return dx * dx + dy * dy + dz * dz


def _dome_sweep(D: Dome, strict: bool):
    """Collapse sweep of the whole dome upward from its floor polygon."""
    corners3 = [(x, y, 0.0) for x, y in zip(*D.corners.T.tolist())]  # columns: see row_list
    return collapse_sweep(
        list(range(D.m)),
        corners3,
        D.row_list(),
        (0.0, 0.0, 1.0),
        _coincidence_tol(D.scale),
        strict=strict,
    )


@dataclass(frozen=True)
class Lifetimes:
    """Facet tops of a dome, read off one collapse sweep.

    `M[i]` is the offset at which polygon edge i leaves the inner parallel
    body (the top of lifted facet i); `apex` is (x, y, t) of the dome's
    highest point, i.e. the incenter and the inradius.  `events` counts
    the sweep's vertex events.
    """

    M: np.ndarray
    apex: tuple[float, float, float]
    events: int


def facet_lifetimes(D: Dome) -> Lifetimes:
    """Every facet top of a dome in O(m log m), from one non-strict sweep.

    A facet's top is its death event in the collapse sweep: the
    concurrence of the facet with its two neighbours at that moment; the
    three facets alive at the end share the apex.  The dome need not be
    generic: four planes through one point leave every death height, and
    so every top, unchanged, whichever of them the sweep kills first.
    """
    events = _dome_sweep(D, strict=False)
    M = np.empty(D.m)
    for pt, tri, _h in events[:-1]:
        M[tri[1]] = pt[2]
    apex, tri, _h = events[-1]
    M[list(tri)] = apex[2]
    return Lifetimes(M, tuple(apex), len(events))
