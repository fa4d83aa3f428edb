"""LP maximization on the hierarchy in polylogarithmic time.

Three query flavors, all driven by the same descent, which does a
constant amount of work per level: a deleted facet has at most
`hierarchy.MAX_PEEL_VERTICES` vertices, so every facet it reinstates is
scanned whole.

* `lp_max`: maximize a linear objective over the full dome.  Solve on the
  tiny core by enumeration, then walk levels downward; when the incumbent
  vertex gets cut off, its kill record names the one reinstated facet that
  did it, and the optimum moves onto that facet (a planar sub-LP, solved
  by a scan of the facet's vertex cycle).
* `lp_max_section`: maximize over the dome cut by a plane.  A section
  vertex lives on an edge of the current level; it is tracked as its
  facet pair plus the two endpoint vertices, which are refreshed from the
  kill records at every level.  When the point itself is cut off, the
  optimum moves onto the killer facet, which meets the plane in a segment
  whose ends are found by a scan of the facet's vertex cycle; where the
  facet misses the plane, the section is empty and the answer INFEASIBLE.
* `lp_max_constrained`: one extra half-space, solved as "try without it,
  else optimize on its boundary plane" per the section machinery.

Results carry the facet labels that pin the optimum.  The hierarchy is
built on the dome as it is, so every answer is the LP's own value.

On these sit the paper's per-edge root step, which `solve` does not use
(it descends to the rows alive at rho and solves their gaps in closed
form):

* `eval_fi`: the width gap f_i(t) = b_i - min_{I_t} A_i.x - (2n-1) t,
  from one section LP at height t, up to and including t = M_i.
* `root_lp`: the root of f_i on (0, M_i] for a qualifying edge
  (f_i(M_i) <= 0), as the highest point of the dome under the gap row
  A_i.x + (2n-1) t <= b_i.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotQualifiedError, OutOfRangeError
from .geometry import HPolygon
from .hierarchy import Hierarchy, _sorted_triple
from .lp import INFEASIBLE, OPTIMAL, LpResult
from .tolerance import slack


@dataclass
class QueryStats:
    """Instrumentation counter for the complexity acceptance envelopes."""

    vertex_inspections: int = 0


# ---------------------------------------------------------------------------
# full-dimensional descent


def lp_max(H: Hierarchy, c, stats: QueryStats | None = None) -> LpResult:
    """Exact maximizer vertex of the dome for objective c."""
    if stats is None:
        stats = QueryStats()
    vid = _vertex_descend(H, tuple(map(float, c)), stats)
    p = H.store.pts[vid]
    val = c[0] * p[0] + c[1] * p[1] + c[2] * p[2]
    return LpResult(OPTIMAL, p, val, H.store.tris[vid])


def _vertex_descend(H: Hierarchy, c, stats: QueryStats) -> int:
    pts = H.store.pts
    birth = H.store.birth_level
    best = -1
    bestval = -1e400
    bestpt = None
    for vid in H.levels[-1].verts:
        p = pts[vid]
        v = c[0] * p[0] + c[1] * p[1] + c[2] * p[2]
        stats.vertex_inspections += 1
        if v > bestval or (v == bestval and (bestpt is None or p < bestpt)):
            best, bestval, bestpt = vid, v, p
    vid = best
    killer = H.store.birth_killer
    for l in range(H.depth - 1, -1, -1):
        if birth[vid] == l + 1:
            vid = _facet_descend(H, l, killer[vid], c, stats)
    return vid


def facet_max_t(H: Hierarchy, i: int, stats: QueryStats | None = None):
    """Highest point of lifted facet i: the offset at which the polygon edge
    i disappears from the inner body.  Returns (value, facet triple)."""
    if stats is None:
        stats = QueryStats()
    vid = _facet_descend(H, 0, i, (0.0, 0.0, 1.0), stats)
    return H.store.pts[vid][2], H.store.tris[vid]


def _facet_descend(H: Hierarchy, level: int, facet: int, c, stats: QueryStats) -> int:
    """Maximizer vertex of c over one facet of the polytope at `level`, by
    a scan of the facet's vertex cycle there (ties to the smaller point).

    In a descent the facet is a deleted one, reinstated, so its cycle has
    at most `hierarchy.MAX_PEEL_VERTICES` vertices.  `facet_max_t` may ask
    for any level-0 facet and pays its cycle's length.  At level 0 the m
    lifted facets' cycles hold 5m - 6 vertices in all (the floor holds m
    of the 6F - 12), so `facet_max_t` on every edge, as
    `eval_fi` and `root_lp` run it, costs O(m) together; single cycles
    can be long: the regular 4096-gon has 285 longer than 8, up to 155.
    """
    cyc = H.levels[level].cycles[facet]
    pts = H.store.pts
    stats.vertex_inspections += len(cyc)
    best = cyc[0]
    bp = pts[best]
    bestval = c[0] * bp[0] + c[1] * bp[1] + c[2] * bp[2]
    for w in cyc[1:]:
        p = pts[w]
        val = c[0] * p[0] + c[1] * p[1] + c[2] * p[2]
        if val > bestval or (val == bestval and p < bp):
            best, bp, bestval = w, p, val
    return best


# ---------------------------------------------------------------------------
# section descent


def lp_max_section(H: Hierarchy, plane, c, stats: QueryStats | None = None) -> LpResult:
    """Maximize c over the dome intersected with a plane {n . p = d}."""
    if stats is None:
        stats = QueryStats()
    (n, d) = plane
    sec = _section_descend(H, tuple(map(float, n)), float(d), tuple(map(float, c)), stats)
    if sec is None:
        return LpResult(INFEASIBLE)
    u, v, pair, x = sec
    val = c[0] * x[0] + c[1] * x[1] + c[2] * x[2]
    if u == v:
        return LpResult(OPTIMAL, x, val, H.store.tris[u])
    return LpResult(OPTIMAL, x, val, pair)


def lp_max_constrained(H: Hierarchy, c, extra, stats: QueryStats | None = None) -> LpResult:
    """Maximize c over the dome with one extra half-space g . p <= h."""
    if stats is None:
        stats = QueryStats()
    g, hoff = extra
    res = lp_max(H, c, stats)
    p = res.point
    val = g[0] * p[0] + g[1] * p[1] + g[2] * p[2]
    if val <= hoff + slack(abs(hoff) + H.scale * (abs(g[0]) + abs(g[1]) + abs(g[2]))):
        return res
    return lp_max_section(H, (g, hoff), c, stats)


def _section_descend(H: Hierarchy, n, d, c, stats: QueryStats):
    """Core-to-level-0 descent of the best plane point.

    Returns (u, v, pair, x): the optimum x on the edge between vertices u
    and v carried by the facet pair; u == v marks a vertex lying exactly
    on the plane.  None when the plane misses the polytope.

    A point cut off by more than `ztol` by a reinstated facet g is no
    longer feasible, so the level's optimum, if the section is not empty,
    lies on g: when g's face misses the plane, so does the level's
    polytope, and the answer is None.
    """
    birth = H.store.birth_level
    killer = H.store.birth_killer
    by_triple = H.store.by_triple
    nx, ny, nz = n
    ztol = 1e-10 * (abs(nx) + abs(ny) + abs(nz)) * H.scale

    # seed on the top level: the best plane point on the core's facets
    secs = [sec for f in sorted(H.core) if (sec := _segment_on_facet(H, H.depth, f, n, d, c, ztol, stats))]
    if not secs:
        return None
    u, v, pair, x = max(secs, key=lambda sec: c[0] * sec[3][0] + c[1] * sec[3][1] + c[2] * sec[3][2])
    for l in range(H.depth - 1, -1, -1):
        hits = []
        if birth[u] == l + 1:
            hits.append(killer[u])
        if v != u and birth[v] == l + 1:
            g2 = killer[v]
            if g2 not in hits:
                hits.append(g2)
        cut = -1
        for g in hits:
            gn, goff = H.rows[g]
            stats.vertex_inspections += 1
            if gn[0] * x[0] + gn[1] * x[1] + gn[2] * x[2] - goff > ztol:
                cut = g
                break
        if cut >= 0:
            sec = _segment_on_facet(H, l, cut, n, d, c, ztol, stats)
            if sec is None:
                return None
            u, v, pair, x = sec
            continue
        # point survives; refresh endpoint vertices onto the current level
        if u != v:
            if birth[u] == l + 1:
                u = by_triple.get(_sorted_triple(pair[0], pair[1], killer[u]), u)
            if birth[v] == l + 1:
                v = by_triple.get(_sorted_triple(pair[0], pair[1], killer[v]), v)
    return (u, v, pair, x)


def _segment_on_facet(H: Hierarchy, level: int, facet: int, n, d, c, ztol, stats: QueryStats):
    """Optimum of c on {plane} intersected with one facet polygon.

    The plane cuts the convex vertex cycle in at most one segment, whose
    ends are on-plane vertices or sign changes along the cycle.  One scan
    of the cycle finds them; it has at most `hierarchy.MAX_PEEL_VERTICES`
    vertices, since only deleted facets are reinstated and the descent
    starts on the few facets of the core.  Returns the
    better end as (u, v, pair, x) or None when the plane misses the facet
    (the whole section is then empty).
    """
    cyc = H.levels[level].cycles[facet]
    pts = H.store.pts
    tris = H.store.tris
    D = len(cyc)
    nx, ny, nz = n

    stats.vertex_inspections += D
    svals = []
    push = svals.append
    smax = -1e400
    smin = 1e400
    for w in cyc:
        p = pts[w]
        sw = nx * p[0] + ny * p[1] + nz * p[2] - d
        push(sw)
        if sw > smax:
            smax = sw
        if sw < smin:
            smin = sw
    if smax < -ztol or smin > ztol:
        return None
    best = None
    bestval = -1e400
    cx, cy, cz = c
    for i in range(D):
        sa = svals[i]
        wa = cyc[i]
        if -ztol <= sa <= ztol:
            p = pts[wa]
            val = cx * p[0] + cy * p[1] + cz * p[2]
            if val > bestval or (val == bestval and best is not None and p < best[3]):
                best = (wa, wa, None, p)
                bestval = val
            continue
        j = i + 1 if i + 1 < D else 0
        sb = svals[j]
        if (sa > ztol and sb < -ztol) or (sa < -ztol and sb > ztol):
            wb = cyc[j]
            pa = pts[wa]
            pb = pts[wb]
            lam = sa / (sa - sb)
            xx = (
                pa[0] + lam * (pb[0] - pa[0]),
                pa[1] + lam * (pb[1] - pa[1]),
                pa[2] + lam * (pb[2] - pa[2]),
            )
            val = cx * xx[0] + cy * xx[1] + cz * xx[2]
            if val > bestval or (val == bestval and best is not None and xx < best[3]):
                ta = tris[wa]
                tb = tris[wb]
                shared = [lab for lab in ta if lab in tb]
                best = (wa, wb, (shared[0], shared[1]), xx)
                bestval = val
    return best


# ---------------------------------------------------------------------------
# the width gap f_i and its root


def eval_fi(
    H: Hierarchy,
    P: HPolygon,
    i: int,
    t: float,
    n: int,
    stats: QueryStats | None = None,
    _Mi: float | None = None,
) -> float:
    """Width gap f_i(t) = b_i - min_{inner_t} A_i.x - (2n-1) t for t <= M_i.

    `_Mi` is facet i's top when the caller already has it."""
    if stats is None:
        stats = QueryStats()
    Mi = _Mi if _Mi is not None else facet_max_t(H, i, stats)[0]
    if t > Mi + slack(H.scale):
        raise OutOfRangeError(f"t={t} beyond facet {i} lifetime M={Mi}")
    if t < 0:
        raise OutOfRangeError("t must be nonnegative")

    a = P.A[i]
    c = (-float(a[0]), -float(a[1]), 0.0)
    res = lp_max_section(H, ((0.0, 0.0, 1.0), t), c, stats)
    if res.status != OPTIMAL:
        raise OutOfRangeError(f"slice at t={t} is empty")
    return float(P.b[i]) + res.value - (2 * n - 1) * t


def root_lp(
    H: Hierarchy,
    P: HPolygon,
    i: int,
    n: int,
    stats: QueryStats | None = None,
) -> float:
    """Root of f_i on (0, M_i]; requires the qualification f_i(M_i) <= 0."""
    if stats is None:
        stats = QueryStats()
    Mi = facet_max_t(H, i, stats)[0]
    fM = eval_fi(H, P, i, Mi, n, stats, _Mi=Mi)
    if fM > slack(H.scale) * 10.0:
        raise NotQualifiedError(f"facet {i}: f_i(M_i) = {fM:g} > 0")
    return _gap_lp(H, i, n, stats)


def _gap_lp(H: Hierarchy, i: int, n: int, stats: QueryStats) -> float:
    """Maximize t over the dome cut by the gap row A_i.x + (2n-1) t <= b_i:
    the root of f_i when i qualifies."""
    nrm, off = H.rows[i]
    g = (nrm[0], nrm[1], float(2 * n - 1))
    res = lp_max_constrained(H, (0.0, 0.0, 1.0), (g, off), stats)
    if res.status != OPTIMAL:
        raise NotQualifiedError(f"facet {i}: root LP infeasible")
    return res.value
