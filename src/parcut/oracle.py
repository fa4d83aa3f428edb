"""Brute-force reference implementations for cross-validation.

Everything here is deliberately simple and independent of the dome,
hierarchy, query and solver machinery: polygon clipping, dual-hull inner
bodies, direct vertex projections, bisection, and small LPs over the
full constraint list.  Slow but trustworthy; the acceptance suite pits
the fast solver against it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptyInteriorError
from .geometry import HPolygon, canonicalize, clip_halfplane, inner_body, inradius_incenter
from .lp import OPTIMAL, UNBOUNDED, small_lp
from .tolerance import slack


# bisections stop once the bracket is at most _BISECTION_TOL times its
# upper end, so the error is relative whatever the polygon's scale, or
# after _MAX_ITER steps
_BISECTION_TOL = 1e-12
_MAX_ITER = 200


def _clip_inner(P: HPolygon, t: float, eps: float) -> np.ndarray:
    verts = P.vertices
    for a, b in zip(P.A, P.b):
        verts = clip_halfplane(verts, a, b - t, eps)
        if len(verts) == 0:
            return verts
    return verts


def oracle_fi(P: HPolygon, i: int, t: float, n: int) -> float:
    """Width gap along edge normal i at offset t, by explicit clipping."""
    eps = 1e-9 * max(1.0, float(np.abs(P.b).max()))
    verts = _clip_inner(P, t, eps)
    if len(verts) == 0:
        raise EmptyInteriorError(f"inner body empty at t={t}")
    proj = verts @ P.A[i]
    return float(proj.max() - proj.min()) - 2.0 * (n - 1) * t


def _row_alive(P: HPolygon, i: int, t: float) -> bool:
    """Does row i still touch the inner body at offset t?

    The margin between the relaxed maximum and b_i - t can close with an
    arbitrarily shallow slope, so the comparison slack sits near machine
    precision to keep the bisected M_i sharp."""
    rows3 = [((a[0], a[1], 1.0), b) for a, b in zip(P.A, P.b)]
    feas = small_lp(rows3 + [((0.0, 0.0, -1.0), -t)], (0.0, 0.0, 1.0))
    eps = 1e-13 * max(1.0, abs(float(P.b[i])))
    if feas.status != OPTIMAL or feas.value < t - eps:
        return False  # inner body already empty
    others = [
        (tuple(a), float(b - t)) for j, (a, b) in enumerate(zip(P.A, P.b)) if j != i
    ]
    res = small_lp(others, tuple(P.A[i]))
    if res.status == UNBOUNDED:
        return True
    if res.status != OPTIMAL:
        return False
    return res.value > P.b[i] - t - eps


def oracle_Mi(P: HPolygon, i: int) -> float:
    """Largest offset at which row i is still non-redundant, by bisection."""
    r, _ = inradius_incenter(P)
    lo, hi = 0.0, r * (1.0 + 1e-9 + _BISECTION_TOL)
    if _row_alive(P, i, hi):
        return min(hi, r)
    for _ in range(_MAX_ITER):
        if hi - lo <= _BISECTION_TOL * hi:
            break
        mid = 0.5 * (lo + hi)
        if _row_alive(P, i, mid):
            lo = mid
        else:
            hi = mid
    return min(0.5 * (lo + hi), r)


def _fi_lp(P: HPolygon, i: int, t: float, n: int) -> float:
    """f_i(t) via one LP: on [0, M_i] the max side equals b_i - t."""
    rows = [(tuple(a), float(b - t)) for a, b in zip(P.A, P.b)]
    res = small_lp(rows, tuple(P.A[i]), maximize=False)
    if res.status != OPTIMAL:
        raise EmptyInteriorError(f"inner body empty at t={t}")
    return (P.b[i] - t) - res.value - 2.0 * (n - 1) * t


def _edge_widths(P: HPolygon, t: float, center) -> np.ndarray | None:
    """Width of the inner body I_t along every edge normal of P.

    I_t is `inner_body` about P's incenter `center`; the widths project
    its vertices directly.  None when I_t is empty (or thinner than its
    emptiness slack).
    """
    Q = inner_body(P, t, center)
    if Q is None:
        return None
    proj = Q.vertices @ P.A.T
    return proj.max(axis=0) - proj.min(axis=0)


def _inradius_direction(P: HPolygon, r: float, center) -> int:
    """n = 1: lowest-index edge touching the incircle whose width gap
    vanishes at the inradius, i.e. an edge that qualifies with root r."""
    scale = max(1.0, float(np.abs(P.b).max()))
    depth = P.b - P.A @ np.asarray(center)
    for i in np.nonzero(depth <= r + slack(scale))[0]:
        if _fi_lp(P, int(i), r, 1) <= slack(scale) * 10.0:
            return int(i)
    raise EmptyInteriorError("no edge qualifies at the inradius; invalid input?")


def oracle_solve(P: HPolygon, n: int):
    """Reference (rho, direction) straight from the defining identity.

    rho is the root of g(t) = minwidth(I_t) - 2(n-1) t, where I_t is the
    inner parallel body {A x <= b - t}.  g strictly decreases from the
    polygon's width at t = 0, so one bisection on [0, inradius] finds it:
    each step builds I_t with the dual hull and projects its vertices onto
    every edge normal of P, O(m log m) per step.  The direction is the
    edge normal of least width at rho, lowest index among widths within
    the tolerance slack.  For n = 1, rho is the inradius itself, read from
    the lifted LP rather than bisected.
    """
    r, center = inradius_incenter(P)
    if n == 1:
        i = _inradius_direction(P, r, center)
        return float(r), (float(P.A[i, 0]), float(P.A[i, 1]))
    c = 2.0 * (n - 1)
    lo, hi = 0.0, r
    for _ in range(_MAX_ITER):
        if hi - lo <= _BISECTION_TOL * hi:
            break
        mid = 0.5 * (lo + hi)
        w = _edge_widths(P, mid, center)
        if w is not None and w.min() - c * mid > 0.0:
            lo = mid
        else:
            hi = mid
    rho = 0.5 * (lo + hi)
    w = _edge_widths(P, rho, center)
    if w is None:
        raise EmptyInteriorError("inner body empty at the bisected root; invalid input?")
    scale = max(1.0, float(np.abs(P.b).max()))
    i = int(np.nonzero(w <= w.min() + slack(scale))[0][0])
    return float(rho), (float(P.A[i, 0]), float(P.A[i, 1]))


def random_polygon(m: int, seed: int = 0, model: str = "circle") -> HPolygon:
    """Deterministic random convex m-gon: m points at uniform random
    angles on the model's curve.

    `canonicalize`'s hull drops a point only when its turn is lost in the
    rounding of its own cross product, so draws keep their corners even at
    m = 2^16 (all 65536 of them at seed 1, in every model).  A draw that
    keeps fewer than 0.9 m is redrawn, up to 64 times.
    """
    if m < 3:
        raise ValueError("need at least 3 vertices")
    if model not in ("circle", "ellipse", "smoothed"):
        raise ValueError(f"unknown model {model!r}")
    rng = np.random.default_rng(seed)
    for _ in range(64):
        ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=m))
        if model == "circle":
            rad = np.ones(m)
            ax = (1.0, 1.0)
        elif model == "ellipse":
            rad = np.ones(m)
            ax = (1.0 + rng.uniform(0.2, 2.0), 1.0)
        else:
            # amplitude below 1/9 keeps r + r'' positive: curve stays convex
            rad = 1.0 + 0.08 * np.sin(3 * ang + rng.uniform(0, 2 * math.pi))
            ax = (1.0, 1.0)
        pts = np.stack([ax[0] * rad * np.cos(ang), ax[1] * rad * np.sin(ang)], axis=1)
        try:
            P = canonicalize(pts)
        except EmptyInteriorError:
            continue
        if P.m >= 0.9 * m:
            return P
    raise EmptyInteriorError(f"could not draw a convex {m}-gon from model {model}")
