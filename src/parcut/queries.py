"""LP maximization on the hierarchy in polylogarithmic time.

Three query flavors, all driven by the same descent:

* `lp_max`: maximize a linear objective over the full dome.  Solve on the
  tiny core by enumeration, then walk levels downward; when the incumbent
  vertex gets cut off, its kill record names the one reinstated facet that
  did it, and the optimum moves onto that facet (a planar sub-LP).
* `lp_max_section`: maximize over the dome cut by a plane.  A section
  vertex lives on an edge of the current level; it is tracked as its
  facet pair plus the two endpoint vertices, which are refreshed from the
  kill records at every level.  When the point itself is cut off, the
  killer facet intersects the plane in a segment whose ends are found by
  binary search on the facet's vertex cycle.
* `lp_max_constrained`: one extra half-space, solved as "try without it,
  else optimize on its boundary plane" per the section machinery.

Results carry the facet labels that pin the optimum, so callers can
re-solve the same basis against unperturbed coefficients.

On these sit the paper's per-edge root step, which `solve` does not use
(it reads the same quantities off one sweep of the dome):

* `eval_fi`: the width gap f_i(t) = b_i - min_{I_t} A_i.x - (2n-1) t,
  from a section LP at height t re-solved on the unperturbed rows.  Near
  the apex it evaluates below the requested t: the section is taken at
  min(t, apex - 1e-7 * scale), so at t = M_i = rho on criterion-2 case
  64 (m = 128, n = 1) it gives f_25 = 5.7e-5 where the oracle gives 0.
* `root_lp`: the root of f_i on (0, M_i] for a qualifying edge
  (f_i(M_i) <= 0), as the highest point of the dome under the gap row
  A_i.x + (2n-1) t <= b_i, re-solved on the unperturbed rows of the
  LP's basis.  That basis can be stale: on criterion-2 case 340
  (m = 128, n = 5), edge 98, the section descent names the facet pair
  (34, 36), though row 35 lives until t = 0.2176, above the root, so the
  re-solve lands 3.1e-9 relative above the closed-form root 0.21395786.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dome import _solve3
from .errors import NotQualifiedError, OutOfRangeError
from .geometry import HPolygon
from .hierarchy import Hierarchy
from .lp import INFEASIBLE, OPTIMAL, LpResult
from .tolerance import DEFAULT_TOL, Tol


@dataclass
class QueryStats:
    """Instrumentation counters for the complexity acceptance envelopes.

    Setting `trace` to a list additionally records the incumbent objective
    value at every level of a full-dimensional descent."""

    levels_visited: int = 0
    facet_sub_lps: int = 0
    vertex_inspections: int = 0
    binary_search_steps: int = 0
    trace: list[float] | None = None


# ---------------------------------------------------------------------------
# full-dimensional descent


def lp_max(H: Hierarchy, c, stats: QueryStats | None = None) -> LpResult:
    """Exact maximizer vertex of the dome for objective c."""
    if stats is None:
        stats = QueryStats()
    vid = _vertex_descend(H, tuple(map(float, c)), 0, stats)
    p = H.store.pts[vid]
    val = c[0] * p[0] + c[1] * p[1] + c[2] * p[2]
    return LpResult(OPTIMAL, p, val, H.store.tris[vid])


def _vertex_descend(H: Hierarchy, c, stop_level: int, stats: QueryStats) -> int:
    pts = H.store.pts
    birth = H.store.birth_level
    best = -1
    bestval = -1e400
    bestpt = None
    for vid in H.core_vertices:
        p = pts[vid]
        v = c[0] * p[0] + c[1] * p[1] + c[2] * p[2]
        stats.vertex_inspections += 1
        if v > bestval or (v == bestval and (bestpt is None or p < bestpt)):
            best, bestval, bestpt = vid, v, p
    vid = best
    killer = H.store.birth_killer
    trace = stats.trace
    if trace is not None:
        trace.append(bestval)
    for l in range(H.depth - 1, stop_level - 1, -1):
        stats.levels_visited += 1
        if birth[vid] == l + 1:
            stats.facet_sub_lps += 1
            vid = _facet_descend(H, l, killer[vid], c, stats)
        if trace is not None:
            p = pts[vid]
            trace.append(c[0] * p[0] + c[1] * p[1] + c[2] * p[2])
    return vid


def lp_max_facet(H: Hierarchy, level: int, facet: int, c, stats: QueryStats | None = None) -> LpResult:
    """Maximize c over one facet of the polytope at `level`."""
    if stats is None:
        stats = QueryStats()
    vid = _facet_descend(H, level, facet, tuple(map(float, c)), stats)
    p = H.store.pts[vid]
    val = c[0] * p[0] + c[1] * p[1] + c[2] * p[2]
    return LpResult(OPTIMAL, p, val, H.store.tris[vid])


def facet_max_t(H: Hierarchy, i: int, stats: QueryStats | None = None):
    """Highest point of lifted facet i: the offset at which the polygon edge
    i disappears from the inner body.  Returns (value, facet triple)."""
    if stats is None:
        stats = QueryStats()
    vid = _facet_descend(H, 0, i, (0.0, 0.0, 1.0), stats)
    return H.store.pts[vid][2], H.store.tris[vid]


def _facet_descend(H: Hierarchy, level: int, facet: int, c, stats: QueryStats) -> int:
    """Maximizer vertex of c over one facet of the polytope at `level`.

    The hierarchy stores every facet's cyclic vertex array per level, and
    the cycle of a facet is a convex polygon, so the planar sub-LP of the
    descent is a single extreme-vertex binary search on that array.
    """
    cyc = H.levels[level].cycles[facet]
    pts = H.store.pts
    D = len(cyc)
    if D <= 8:
        stats.vertex_inspections += D
        best = cyc[0]
        bp = pts[best]
        bestval = c[0] * bp[0] + c[1] * bp[1] + c[2] * bp[2]
        for w in cyc[1:]:
            p = pts[w]
            val = c[0] * p[0] + c[1] * p[1] + c[2] * p[2]
            if val > bestval or (val == bestval and p < bp):
                best, bp, bestval = w, p, val
        return best

    def s(i):
        p = pts[cyc[i]]
        stats.vertex_inspections += 1
        return c[0] * p[0] + c[1] * p[1] + c[2] * p[2]

    return cyc[_extreme_index(s, D, stats)]


# ---------------------------------------------------------------------------
# section descent


def lp_max_section(H: Hierarchy, plane, c, stats: QueryStats | None = None) -> LpResult:
    """Maximize c over the dome intersected with a plane {n . p = d}."""
    if stats is None:
        stats = QueryStats()
    (n, d) = plane
    sec = _section_descend(H, tuple(map(float, n)), float(d), tuple(map(float, c)), 0, stats)
    if sec is None:
        return LpResult(INFEASIBLE)
    u, v, pair, x = sec
    val = c[0] * x[0] + c[1] * x[1] + c[2] * x[2]
    if u == v:
        return LpResult(OPTIMAL, x, val, H.store.tris[u])
    return LpResult(OPTIMAL, x, val, pair)


def lp_max_constrained(H: Hierarchy, c, extra, stats: QueryStats | None = None, tol: Tol = DEFAULT_TOL) -> LpResult:
    """Maximize c over the dome with one extra half-space g . p <= h."""
    if stats is None:
        stats = QueryStats()
    g, hoff = extra
    res = lp_max(H, c, stats)
    p = res.point
    val = g[0] * p[0] + g[1] * p[1] + g[2] * p[2]
    slack = tol.slack(abs(hoff) + H.scale * (abs(g[0]) + abs(g[1]) + abs(g[2])))
    if val <= hoff + slack:
        return res
    return lp_max_section(H, (g, hoff), c, stats)


def _sorted_triple(a, b, c):
    if a > b:
        a, b = b, a
    if b > c:
        b, c = c, b
        if a > b:
            a, b = b, a
    return (a, b, c)


def _section_descend(H: Hierarchy, n, d, c, stop_level: int, stats: QueryStats):
    """Core-to-`stop_level` descent of the best plane point.

    Returns (u, v, pair, x): the optimum x on the edge between vertices u
    and v carried by the facet pair; u == v marks a vertex lying exactly
    on the plane.  None when the plane misses the polytope.
    """
    pts = H.store.pts
    tris = H.store.tris
    birth = H.store.birth_level
    killer = H.store.birth_killer
    by_triple = H.store.by_triple
    nx, ny, nz = n
    ztol = 1e-10 * (abs(nx) + abs(ny) + abs(nz)) * max(H.scale, 1.0)

    # seed on the core by scanning its few edges
    best = None
    bestval = -1e400
    for (u, v) in H.core_edges:
        pu = pts[u]
        pv = pts[v]
        su = nx * pu[0] + ny * pu[1] + nz * pu[2] - d
        sv = nx * pv[0] + ny * pv[1] + nz * pv[2] - d
        stats.vertex_inspections += 2
        cand = []
        if abs(su) <= ztol:
            cand.append((u, u, pu))
        if abs(sv) <= ztol:
            cand.append((v, v, pv))
        if (su > ztol and sv < -ztol) or (su < -ztol and sv > ztol):
            lam = su / (su - sv)
            x = (
                pu[0] + lam * (pv[0] - pu[0]),
                pu[1] + lam * (pv[1] - pu[1]),
                pu[2] + lam * (pv[2] - pu[2]),
            )
            cand.append((u, v, x))
        for (a, b, x) in cand:
            val = c[0] * x[0] + c[1] * x[1] + c[2] * x[2]
            if val > bestval or (val == bestval and best is not None and x < best[3]):
                pair = None
                if a != b:
                    ta = tris[a]
                    tb = tris[b]
                    shared = [lab for lab in ta if lab in tb]
                    pair = (shared[0], shared[1])
                best = (a, b, pair, x)
                bestval = val
    if best is None:
        return None

    u, v, pair, x = best
    for l in range(H.depth - 1, stop_level - 1, -1):
        stats.levels_visited += 1
        hits = []
        if birth[u] == l + 1:
            hits.append(killer[u])
        if v != u and birth[v] == l + 1:
            g2 = killer[v]
            if g2 not in hits:
                hits.append(g2)
        cut = -1
        cut_excess = 0.0
        for g in hits:
            gn, goff = H.rows[g]
            stats.vertex_inspections += 1
            excess = gn[0] * x[0] + gn[1] * x[1] + gn[2] * x[2] - goff
            if excess > ztol:
                cut = g
                cut_excess = excess
                break
        if cut >= 0:
            sec = _segment_on_facet(H, l, cut, n, d, c, ztol, stats)
            if sec is not None:
                u, v, pair, x = sec
                continue
            if cut_excess > 1000.0 * ztol:
                return None  # decisively cut off and the facet misses the plane
            # marginal violation yet the killer facet does not reach the
            # plane: noise-floor call, treat the point as surviving
        # point survives; refresh endpoint vertices onto the current level
        if u != v:
            if birth[u] == l + 1:
                u = by_triple.get(_sorted_triple(pair[0], pair[1], killer[u]), u)
            if birth[v] == l + 1:
                v = by_triple.get(_sorted_triple(pair[0], pair[1], killer[v]), v)
    return (u, v, pair, x)


def _segment_on_facet(H: Hierarchy, level: int, facet: int, n, d, c, ztol, stats: QueryStats):
    """Optimum of c on {plane} intersected with one facet polygon.

    The plane cuts the convex vertex cycle in at most one segment; its two
    ends sit on cycle edges located by binary search from the extreme
    vertices.  Returns the better end as (u, v, pair, x) or None when the
    plane misses the facet (the whole section is then empty).
    """
    cyc = H.levels[level].cycles[facet]
    pts = H.store.pts
    tris = H.store.tris
    D = len(cyc)
    nx, ny, nz = n

    if D <= 24:
        # scan path: cycles this small dominate the call mix, so skip the
        # binary-search machinery and enumerate candidate section points
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

    def s(i):
        p = pts[cyc[i]]
        stats.vertex_inspections += 1
        return nx * p[0] + ny * p[1] + nz * p[2] - d

    imax = _extreme_index(s, D, stats)
    smax = s(imax)
    if smax < -ztol:
        return None
    imin = _extreme_index(lambda i: -s(i), D, stats)
    smin = s(imin)
    if smin > ztol:
        return None

    ends = []
    if abs(smax) <= ztol or abs(smin) <= ztol:
        # Tangency: the plane grazes the facet in a vertex or a whole edge
        # (adjacent facet planes do the latter).  Collect the contiguous
        # on-plane band around the touching extreme.
        start = imax if abs(smax) <= ztol else imin
        band = [start]
        for step in (1, -1):
            i = start
            for _ in range(D - 1):
                i = (i + step) % D
                if i == start or abs(s(i)) > ztol:
                    break
                band.append(i)
        seen = set()
        for i in band:
            w = cyc[i]
            if w not in seen:
                seen.add(w)
                ends.append((w, w, None, pts[w]))
    if smax > ztol and smin < -ztol:
        for fwd in (1, -1):
            a, b = _sign_change(s, imax, imin, D, fwd, ztol, stats)
            wa, wb = cyc[a], cyc[b]
            pa, pb = pts[wa], pts[wb]
            sa = nx * pa[0] + ny * pa[1] + nz * pa[2] - d
            sb = nx * pb[0] + ny * pb[1] + nz * pb[2] - d
            if abs(sa) <= ztol:
                ends.append((wa, wa, None, pa))
                continue
            lam = sa / (sa - sb)
            x = (
                pa[0] + lam * (pb[0] - pa[0]),
                pa[1] + lam * (pb[1] - pa[1]),
                pa[2] + lam * (pb[2] - pa[2]),
            )
            ta = tris[wa]
            tb = tris[wb]
            shared = [lab for lab in ta if lab in tb]
            ends.append((wa, wb, (shared[0], shared[1]), x))

    best = None
    bestval = -1e400
    for (a, b, pair, x) in ends:
        val = c[0] * x[0] + c[1] * x[1] + c[2] * x[2]
        if val > bestval or (val == bestval and best is not None and x < best[3]):
            best = (a, b, pair, x)
            bestval = val
    return best


def _sign_change(s, imax, imin, D, direction, ztol, stats: QueryStats):
    """Edge index pair (a, a+dir) where s crosses from >= 0 to < -ztol on
    the arc from imax to imin; s is monotone along each arc."""
    span = (imin - imax) * direction % D
    lo, hi = 0, span  # s(imax + dir*lo) >= 0 > s(imax + dir*hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        stats.binary_search_steps += 1
        if s((imax + direction * mid) % D) < -ztol:
            hi = mid
        else:
            lo = mid
    return (imax + direction * lo) % D, (imax + direction * hi) % D


def _extreme_index(s, D, stats: QueryStats):
    """Index of the cyclic maximum of a linear functional over a convex
    vertex cycle.

    Classic extreme-vertex binary search on the single ascent/descent sign
    change of the edge increments; exact float comparisons, so a flat or
    noisy plateau can defeat it -- the result is verified to be a local
    maximum and a linear scan takes over otherwise.
    """
    if D <= 8:
        vals = [s(i) for i in range(D)]
        return max(range(D), key=lambda i: (vals[i], -i))

    memo: dict[int, float] = {}

    def sv(i):
        i %= D
        v = memo.get(i)
        if v is None:
            v = s(i)
            memo[i] = v
        return v

    def ascending(i):
        stats.binary_search_steps += 1
        return sv(i + 1) > sv(i)

    def is_peak(i):
        return not ascending(i) and ascending(i - 1)

    if is_peak(0):
        return 0
    lo, hi = 0, D
    steps_cap = 4 * D.bit_length() + 16
    steps = 0
    while lo + 1 < hi and steps < steps_cap:
        steps += 1
        mid = (lo + hi) // 2
        if is_peak(mid):
            return mid
        alo = ascending(lo)
        amid = ascending(mid)
        if alo and not amid:
            hi = mid
        elif not alo and amid:
            lo = mid
        elif alo:  # both ascending: past the valley iff value dropped
            if sv(lo) > sv(mid):
                hi = mid
            else:
                lo = mid
        else:  # both descending: climbed back iff value rose
            if sv(lo) < sv(mid):
                hi = mid
            else:
                lo = mid
    cand = lo % D
    if is_peak(cand):
        return cand
    # plateau or noise: exact fallback
    vals = [s(i) for i in range(D)]
    return max(range(D), key=lambda i: (vals[i], -i))


# ---------------------------------------------------------------------------
# the width gap f_i and its root


def _resolve_rows(orig_rows, labels, extra=None):
    """Exact concurrence of up to three original rows (plus one extra)."""
    rows = [orig_rows[lab] for lab in labels]
    if extra is not None:
        rows.append(extra)
    if len(rows) != 3:
        return None
    (n1, o1), (n2, o2), (n3, o3) = rows
    return _solve3(n1, o1, n2, o2, n3, o3)


def _facet_top(H: Hierarchy, i: int, stats: QueryStats) -> float:
    """M_i re-solved on the unperturbed rows via the winning facet triple."""
    val, tri = facet_max_t(H, i, stats)
    pt = _resolve_rows(H.orig_rows, tri)
    return pt[2] if pt is not None else val


def eval_fi(
    H: Hierarchy,
    P: HPolygon,
    i: int,
    t: float,
    n: int,
    tol: Tol = DEFAULT_TOL,
    stats: QueryStats | None = None,
    _Mi: float | None = None,
) -> float:
    """Width gap f_i(t) = b_i - min_{inner_t} A_i.x - (2n-1) t for t <= M_i.

    `_Mi` is facet i's top when the caller already has it."""
    if stats is None:
        stats = QueryStats()
    Mi = _Mi if _Mi is not None else _facet_top(H, i, stats)
    scale = max(H.scale, 1.0)
    if t > Mi + tol.slack(scale):
        raise OutOfRangeError(f"t={t} beyond facet {i} lifetime M={Mi}")
    if t < 0:
        raise OutOfRangeError("t must be nonnegative")

    apex = lp_max(H, (0.0, 0.0, 1.0), stats)
    a = P.A[i]
    c = (-float(a[0]), -float(a[1]), 0.0)
    bi = float(P.b[i])

    tq = min(t, apex.value - 1e-7 * scale)
    tq = max(tq, 0.0)
    res = lp_max_section(H, ((0.0, 0.0, 1.0), tq), c, stats)
    if res.status != OPTIMAL:
        res = lp_max_section(H, ((0.0, 0.0, 1.0), max(0.0, tq - 1e-6 * scale)), c, stats)
    if res.status != OPTIMAL:
        raise OutOfRangeError(f"slice at t={t} is empty")

    if len(res.basis) == 2:
        pt = _resolve_rows(H.orig_rows, res.basis, extra=((0.0, 0.0, 1.0), t))
    else:
        pt = _resolve_rows(H.orig_rows, res.basis)
    if pt is None:
        return bi + res.value - (2 * n - 1) * t
    return bi - (a[0] * pt[0] + a[1] * pt[1]) - (2 * n - 1) * t


def root_lp(
    H: Hierarchy,
    P: HPolygon,
    i: int,
    n: int,
    tol: Tol = DEFAULT_TOL,
    stats: QueryStats | None = None,
) -> float:
    """Root of f_i on (0, M_i]; requires the qualification f_i(M_i) <= 0."""
    if stats is None:
        stats = QueryStats()
    Mi = _facet_top(H, i, stats)
    fM = eval_fi(H, P, i, Mi, n, tol, stats, _Mi=Mi)
    scale = max(H.scale, 1.0)
    if fM > tol.slack(scale) * 10.0:
        raise NotQualifiedError(f"facet {i}: f_i(M_i) = {fM:g} > 0")
    return _gap_lp(H, i, n, stats)


def _gap_lp(H: Hierarchy, i: int, n: int, stats: QueryStats) -> float:
    """Maximize t over the dome cut by the gap row A_i.x + (2n-1) t <= b_i,
    re-solved on the unperturbed rows; the root of f_i when i qualifies."""
    nrm, off = H.rows[i]
    g = (nrm[0], nrm[1], float(2 * n - 1))
    res = lp_max_constrained(H, (0.0, 0.0, 1.0), (g, off), stats)
    if res.status != OPTIMAL:
        raise NotQualifiedError(f"facet {i}: root LP infeasible")
    if len(res.basis) == 3:
        pt = _resolve_rows(H.orig_rows, res.basis)
    else:
        a = H.original.normals[i]
        g_row = ((float(a[0]), float(a[1]), float(2 * n - 1)), float(H.original.offsets[i]))
        pt = _resolve_rows(H.orig_rows, res.basis, extra=g_row)
    return pt[2] if pt is not None else res.value
