"""The dome of a convex polygon and its face lattice.

The dome of P = {x : Ax <= b} (unit outward normals) is the bounded
3-polytope {(x, t) : Ax <= b - t, t >= 0}.  Slicing it at height t gives
the inner parallel body of P at offset t, and its upper boundary is the
graph of the distance-to-boundary function.  Lifted facet rows keep the
un-normalized normal (A_i, 1) so that slice algebra stays exact.

The face lattice is built by a kinetic sweep: the slice at height h is a
convex polygon whose edges die one by one as h grows, and every death is
a lattice vertex.  The same engine later recomputes the local lattice
over the hole left by deleting a facet, so it is written against an
arbitrary "bottom cycle + bounding planes + sweep direction" input.

The lattice, and the hierarchy built on it, need a simple polytope, so
they run on a `perturb`ed dome.  The heights at which facets die do not:
`facet_lifetimes` reads them off one non-strict sweep of the dome as it
is.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVertexError, GeometryError
from .geometry import HPolygon, diameter
from .lp import OPTIMAL, UNBOUNDED, small_lp
from .tolerance import DEFAULT_TOL, Tol

FLOOR = -1  # sentinel replaced by m at build time; kept for readability


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


def perturb(D: Dome, seed: int = 0, magnitude: float = 1e-7) -> Dome:
    """Shrink each lifted offset by a random hair to break plane ties.

    The floor is never moved, and determinism follows from the seed.  The
    nominal magnitude is `magnitude` times the polygon diameter, but it is
    capped by the smallest redundancy slack of any row (distance from the
    row's line to the crossing of its two neighbours) so that fine-grained
    polygons keep every floor edge.
    """
    m = D.m
    rng = np.random.default_rng(seed)
    N = D.normals[:m, :2]
    off = D.offsets[:m]
    a1 = np.roll(N, 1, axis=0)  # row j-1
    a2 = np.roll(N, -1, axis=0)  # row j+1
    o1 = np.roll(off, 1)
    o2 = np.roll(off, -1)
    det = a1[:, 0] * a2[:, 1] - a1[:, 1] * a2[:, 0]
    crossing = np.abs(det) >= 1e-12  # parallel neighbours never squeeze a row out
    with np.errstate(divide="ignore", invalid="ignore"):
        zx = (o1 * a2[:, 1] - o2 * a1[:, 1]) / det
        zy = (a1[:, 0] * o2 - a2[:, 0] * o1) / det
    slack = np.abs(N[:, 0] * zx + N[:, 1] * zy - off)[crossing]
    min_slack = float(slack.min()) if len(slack) else math.inf
    delta = min(magnitude * D.scale, 0.25 * min_slack)
    offsets = D.offsets.copy()
    offsets[:m] -= delta * rng.random(m)

    # corner j = crossing of rows j-1 and j under the new offsets
    po = offsets[:m]
    pp = np.roll(po, 1)
    det = a1[:, 0] * N[:, 1] - a1[:, 1] * N[:, 0]
    corners = np.stack(
        [(pp * N[:, 1] - po * a1[:, 1]) / det, (a1[:, 0] * po - N[:, 0] * pp) / det],
        axis=1,
    )
    # A perturbed row must still carry a positive-length floor edge.
    min_len = 10.0 * _coincidence_tol(D.scale)
    nxt = np.roll(corners, -1, axis=0)
    length = (nxt[:, 0] - corners[:, 0]) * -N[:, 1] + (nxt[:, 1] - corners[:, 1]) * N[:, 0]
    short = np.nonzero(length < min_len)[0]
    if len(short):
        raise DegenerateVertexError(
            f"perturbation collapsed floor edge {int(short[0])}; input nearly redundant"
        )
    return Dome(D.polygon, D.normals, offsets, corners, D.scale)


def _coincidence_tol(scale: float) -> float:
    """Distance below which two lattice vertices count as one point.

    Kept near machine precision: genuine degeneracies of unperturbed
    input coincide to ~1e-15 * scale, while perturbed data stays several
    orders above this.
    """
    return 1e-13 * max(scale, 1.0)


# ---------------------------------------------------------------------------
# vertex store and per-level lattice data


class VertexStore:
    """Append-only store of lattice vertices shared by all hierarchy levels."""

    __slots__ = (
        "pts",
        "tris",
        "birth_level",
        "birth_killer",
        "by_triple",
        "_tris_buf",
        "_pts_buf",
    )

    def __init__(self):
        self.pts: list[tuple[float, float, float]] = []
        self.tris: list[tuple[int, int, int]] = []
        self.birth_level: list[int] = []
        self.birth_killer: list[int] = []
        self.by_triple: dict[tuple[int, int, int], int] = {}
        self._tris_buf = None
        self._pts_buf = None

    def tri_array(self):
        """Triples as a growing numpy array covering every current vertex.

        Extends incrementally, so repeated calls during the hierarchy
        build convert each new vertex exactly once."""
        n = len(self.tris)
        buf = self._tris_buf
        if buf is None:
            self._tris_buf = np.asarray(self.tris, dtype=np.int64).reshape(n, 3)
        elif len(buf) < n:
            extra = np.asarray(self.tris[len(buf):], dtype=np.int64).reshape(-1, 3)
            self._tris_buf = np.concatenate([buf, extra])
        return self._tris_buf

    def pts_array(self):
        n = len(self.pts)
        buf = self._pts_buf
        if buf is None:
            self._pts_buf = np.asarray(self.pts, dtype=float).reshape(n, 3)
        elif len(buf) < n:
            extra = np.asarray(self.pts[len(buf):], dtype=float).reshape(-1, 3)
            self._pts_buf = np.concatenate([buf, extra])
        return self._pts_buf

    def alloc(self, point, triple, level: int, killer: int) -> int:
        vid = len(self.pts)
        a, b, c = triple
        if a > b:
            a, b = b, a
        if b > c:
            b, c = c, b
            if a > b:
                a, b = b, a
        tri = (a, b, c)
        self.pts.append((float(point[0]), float(point[1]), float(point[2])))
        self.tris.append(tri)
        self.birth_level.append(level)
        self.birth_killer.append(killer)
        self.by_triple[tri] = vid
        return vid

    def __len__(self) -> int:
        return len(self.pts)


@dataclass
class Level:
    """One hierarchy level: which facets are present and their vertex cycles."""

    index_set: frozenset[int]
    cycles: dict[int, list[int]]
    verts: list[int] | None = None  # vertex ids, maintained by the builders

    def vertex_ids(self):
        if self.verts is not None:
            return self.verts
        out: set[int] = set()
        for cyc in self.cycles.values():
            out.update(cyc)
        return out

    def edge_map(self) -> dict[tuple[int, int], list[int]]:
        """Undirected vertex pair -> the (two) facets sharing that edge."""
        out: dict[tuple[int, int], list[int]] = {}
        for f, cyc in self.cycles.items():
            k = len(cyc)
            for i in range(k):
                u, v = cyc[i], cyc[(i + 1) % k]
                key = (u, v) if u < v else (v, u)
                out.setdefault(key, []).append(f)
        return out

    def adjacency(self, tris=None) -> dict[int, set[int]]:
        """Facet adjacency.  With the vertex-triple table it avoids edge
        maps entirely: the three facets at any vertex are pairwise
        adjacent, and every adjacency shows up at some vertex."""
        adj: dict[int, set[int]] = {f: set() for f in self.cycles}
        if tris is None:
            for fs in self.edge_map().values():
                if len(fs) == 2:
                    a, b = fs
                    adj[a].add(b)
                    adj[b].add(a)
            return adj
        for v in self.vertex_ids():
            a, b, c = tris[v]
            adj[a].add(b)
            adj[a].add(c)
            adj[b].add(a)
            adj[b].add(c)
            adj[c].add(a)
            adj[c].add(b)
        return adj


@dataclass
class FaceLattice:
    """Complete face lattice of a dome (level-0 view plus vertex store)."""

    dome: Dome
    store: VertexStore
    level: Level

    @property
    def n_facets(self) -> int:
        return len(self.level.cycles)

    @property
    def n_vertices(self) -> int:
        return len(self.level.vertex_ids())

    @property
    def n_edges(self) -> int:
        return len(self.level.edge_map())

    def vertices(self) -> dict[int, tuple[tuple[float, float, float], tuple[int, int, int]]]:
        return {v: (self.store.pts[v], self.store.tris[v]) for v in self.level.vertex_ids()}

    def edges(self) -> dict[tuple[int, int], list[int]]:
        return self.level.edge_map()

    def facets(self) -> dict[int, list[int]]:
        return self.level.cycles

    def adjacency(self) -> dict[int, set[int]]:
        return self.level.adjacency()


@dataclass(frozen=True)
class BoundedCore:
    """A few facet labels whose half-spaces alone already bound a polytope."""

    labels: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.labels)


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


def cycle_from_triples(f, vids, tris):
    """Cyclic order of a facet's vertices, derived purely combinatorially.

    Two vertices of facet f are consecutive on its boundary exactly when
    they share a second facet (the edge f-meets-g has two endpoints), so
    the cycle is a walk over that adjacency.  No coordinates are touched,
    which keeps thin facets with nearly coincident vertices exact.
    """
    open_end: dict[int, int] = {}
    adj: dict[int, list[int]] = {}
    for v in vids:
        adj[v] = []
    for v in vids:
        a, b, c = tris[v]
        for lab in (a, b, c):
            if lab == f:
                continue
            u = open_end.pop(lab, None)
            if u is None:
                open_end[lab] = v
            else:
                adj[u].append(v)
                adj[v].append(u)
    if open_end:
        raise GeometryError(f"facet {f}: inconsistent edge structure")
    start = vids[0]
    cyc = [start]
    prev, cur = None, start
    while True:
        a, b = adj[cur]
        nxt = a if a != prev else b
        if nxt == start:
            break
        cyc.append(nxt)
        prev, cur = cur, nxt
    if len(cyc) != len(vids):
        raise GeometryError(f"facet {f}: boundary is disconnected")
    return cyc


def face_lattice(D: Dome, tol: Tol = DEFAULT_TOL, strict: bool = True) -> FaceLattice:
    """Full face lattice of the dome in O(m log m).

    Requires a generic dome (no four facet planes through a point); in
    strict mode a violation raises DegenerateVertexError, which signals
    that `perturb` should be applied first.  Pipelines that have already
    perturbed pass strict=False and accept resolution-floor coincidences.
    """
    m = D.m
    floor = D.floor
    store = VertexStore()

    corner_vid = []
    for j in range(m):
        p = (float(D.corners[j, 0]), float(D.corners[j, 1]), 0.0)
        corner_vid.append(store.alloc(p, ((j - 1) % m, j, floor), 0, -1))

    events = _dome_sweep(D, strict)

    # Assemble each facet cycle from the event chains: going CCW, a lifted
    # facet runs along its floor edge, climbs the side it shares with its
    # successor (events where it was the left neighbour), crosses its top
    # vertex and descends the other side.
    left: dict[int, list[int]] = {i: [] for i in range(m)}
    right: dict[int, list[int]] = {i: [] for i in range(m)}
    top: dict[int, int] = {}
    for pt, (lp, le, lq), _h in events[:-1]:
        vid = store.alloc(pt, (lp, le, lq), 0, -1)
        right[lp].append(vid)
        top[le] = vid
        left[lq].append(vid)
    fpt, ftri, _fh = events[-1]
    fvid = store.alloc(fpt, ftri, 0, -1)
    for lab in ftri:
        if lab in top:
            raise GeometryError(f"facet {lab} died twice in the sweep")
        top[lab] = fvid

    cycles: dict[int, list[int]] = {floor: corner_vid}
    for i in range(m):
        cycles[i] = (
            [corner_vid[i], corner_vid[(i + 1) % m]]
            + right[i]
            + [top[i]]
            + left[i][::-1]
        )

    level = Level(frozenset(range(m + 1)), cycles, list(range(len(store))))
    return FaceLattice(D, store, level)


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


# ---------------------------------------------------------------------------
# bounded core


def bounded_core(D: Dome, tol: Tol = DEFAULT_TOL, seed: int = 0) -> BoundedCore:
    """Find <= 6 facets that bound a polytope on their own.

    Start from the floor facet and chase the face maximizing t: if that
    face is a vertex its three facets plus the floor suffice; if it is an
    edge, add the facets binding the edge's two endpoints.
    """
    m = D.m
    rows = D.row_list()
    res = small_lp(rows, (0.0, 0.0, 1.0), tol=tol, seed=seed)
    if res.status != OPTIMAL:
        raise GeometryError("dome has no apex; invalid input")
    basis = [i for i in res.basis if i != D.floor]

    lam = _cone_coefficients(D, basis)
    support = [i for i, l in zip(basis, lam) if l > 1e-7 * max(lam)]

    labels = {D.floor}
    if len(support) == 3:
        labels.update(support)
    elif len(support) == 2:
        a, b = support
        labels.update((a, b))
        na, nb = D.normals[a], D.normals[b]
        u = np.cross(na, nb)
        u /= np.linalg.norm(u)
        eqs = [((na[0], na[1], na[2]), float(D.offsets[a])),
               ((nb[0], nb[1], nb[2]), float(D.offsets[b]))]
        for sgn in (1.0, -1.0):
            end = small_lp(rows, tuple(sgn * u), tol=tol, seed=seed, equalities=eqs)
            if end.status != OPTIMAL:
                raise GeometryError("apex ridge endpoint LP failed")
            labels.update(i for i in end.basis if i not in (a, b))
    else:
        raise GeometryError("unexpected apex support; dome rows degenerate")

    if len(labels) > 6:
        raise GeometryError("bounded core exceeded 6 facets")

    core_rows = [D.row(i) for i in sorted(labels)]
    for k in range(3):
        obj = [0.0, 0.0, 0.0]
        for sgn in (1.0, -1.0):
            obj[k] = sgn
            chk = small_lp(core_rows, tuple(obj), tol=tol, seed=seed)
            if chk.status == UNBOUNDED:
                raise GeometryError("core candidate is unbounded")
    return BoundedCore(frozenset(labels))


def _cone_coefficients(D: Dome, basis) -> list[float]:
    """Write (0,0,1) as a nonnegative combination of the basis normals."""
    N = np.array([D.normals[i] for i in basis], float)
    target = np.array([0.0, 0.0, 1.0])
    lam, *_ = np.linalg.lstsq(N.T, target, rcond=None)
    resid = N.T @ lam - target
    if np.linalg.norm(resid) > 1e-6:
        raise GeometryError("apex KKT system inconsistent")
    return [max(float(v), 0.0) for v in lam]
