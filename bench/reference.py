"""Correctness references for the benchmark, built from numpy and scipy alone.

Nothing here imports parcut: a claim (rho, direction, cuts) is checked
against the polygon's own vertices with scipy's qhull and HiGHS.

* rho.  For the regular m-gon (m even, circumradius 1) rho = cos(pi/m)/n.
  Otherwise, for n >= 2, g(t) = minwidth(I_t) - 2(n-1)t strictly decreases
  and rho is its root (I_t = {x : A x <= b - t}, the inner parallel body),
  so the claim is accepted when g(rho(1-d)) > 0 > g(rho(1+d)): the root
  lies within relative d of it, which is what a bisection to d would
  establish.  For n = 1, rho is the inradius from a HiGHS LP.
* direction.  The width of I_rho along it is the minimum width of I_rho to
  within 1e-8 * diameter (n >= 2; with one piece there is no cut).
* cuts.  n - 1 of them, parallel to the direction, 2 rho apart.
* pieces.  Every piece's inradius, from one HiGHS LP over all pieces, is at
  most rho(1 + 1e-8), and the largest equals rho to 1e-8.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix
from scipy.spatial import ConvexHull, HalfspaceIntersection

RHO_REL = 1e-8
DIAM_REL = 1e-8
_HIGHS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


class CheckFailed(Exception):
    """A claim disagrees with the reference."""


class Polygon:
    """Rows {A x <= b} (unit outward normals) of a CCW convex vertex cycle."""

    def __init__(self, vertices):
        V = np.asarray(vertices, float)
        E = np.roll(V, -1, axis=0) - V
        turn = E[:, 0] * np.roll(E[:, 1], -1) - E[:, 1] * np.roll(E[:, 0], -1)
        if len(V) < 3 or not np.all(turn > 0):
            raise ValueError("vertices must be a strictly convex CCW cycle")
        N = np.stack([E[:, 1], -E[:, 0]], axis=1)
        self.V = V
        self.A = N / np.hypot(N[:, 0], N[:, 1])[:, None]
        self.b = (self.A * V).sum(axis=1)
        self.diameter = _diameter(V)
        self.inradius, self.incenter = _inradius(self.A, self.b)


def _diameter(V: np.ndarray) -> float:
    """Largest width over 1024 evenly spaced directions: the diameter to
    within a factor cos(pi/2048), enough to scale tolerances."""
    a = np.arange(1024) * (math.pi / 1024)
    dirs = np.stack([np.cos(a), np.sin(a)], axis=1)
    return float(widths(V, dirs).max())


def _inradius(A: np.ndarray, b: np.ndarray):
    """Largest r with A x + r <= b, and its center, by HiGHS."""
    res = linprog(
        [0.0, 0.0, -1.0],
        A_ub=np.hstack([A, np.ones((len(b), 1))]),
        b_ub=b,
        bounds=[(None, None), (None, None), (0.0, None)],
        method="highs",
        options=_HIGHS,
    )
    if res.status != 0:
        raise CheckFailed(f"reference inradius LP: {res.message}")
    return float(res.x[2]), res.x[:2]


def inner_vertices(P: Polygon, t: float) -> np.ndarray | None:
    """CCW vertices of I_t by qhull, or None when I_t has no interior."""
    depth = P.inradius - t
    if depth <= 1e-12 * P.diameter:
        return None
    hs = np.hstack([P.A, -(P.b - t)[:, None]])
    X = HalfspaceIntersection(hs, P.incenter).intersections
    X = X[np.all(np.isfinite(X), axis=1)]
    return X[ConvexHull(X).vertices]  # qhull gives 2-D hulls in CCW order


def widths(W: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Width of the convex CCW cycle W along each unit row of dirs."""
    k = len(W)
    E = np.roll(W, -1, axis=0) - W
    ang = np.arctan2(-E[:, 0], E[:, 1])  # outward normal angle of edge j
    start = int(np.argmin(ang))
    ang = np.unwrap(np.roll(ang, -start))
    # ang now ascends from edge `start`; a direction between the normals of
    # rolled edges i-1 and i is maximized at the vertex they share, W[i + start]

    def extreme(d):
        a = np.arctan2(d[:, 1], d[:, 0])
        a = ang[0] + (a - ang[0]) % (2 * math.pi)
        j = (np.searchsorted(ang, a) + start) % k
        cand = (j[:, None] + np.arange(-1, 2)) % k
        return (W[cand] * d[:, None, :]).sum(axis=2).max(axis=1)

    return extreme(dirs) + extreme(-dirs)


def g(P: Polygon, n: int, t: float) -> float:
    """minwidth(I_t) - 2(n-1)t; minwidth of an empty or flat I_t is 0."""
    W = inner_vertices(P, t)
    width = 0.0 if W is None else float(widths(W, P.A).min())
    return width - 2.0 * (n - 1) * t


def check_rho(P: Polygon, n: int, rho: float, regular_m: int | None = None) -> None:
    if not (math.isfinite(rho) and rho > 0):
        raise CheckFailed(f"rho = {rho}")
    if regular_m is not None:
        ref = math.cos(math.pi / regular_m) / n
        if abs(rho - ref) > RHO_REL * ref:
            raise CheckFailed(f"rho {rho!r} != cos(pi/{regular_m})/{n} = {ref!r}")
    elif n == 1:
        if abs(rho - P.inradius) > RHO_REL * P.inradius:
            raise CheckFailed(f"rho {rho!r} != inradius {P.inradius!r}")
    else:
        lo, hi = g(P, n, rho * (1 - RHO_REL)), g(P, n, rho * (1 + RHO_REL))
        if not (lo > 0 > hi):
            raise CheckFailed(f"root of g not within {RHO_REL:g} of rho={rho!r}: g = {lo:g}, {hi:g}")


def check_direction(P: Polygon, n: int, rho: float, direction) -> None:
    d = np.asarray(direction, float)
    if d.shape != (2,) or abs(math.hypot(d[0], d[1]) - 1.0) > 1e-12:
        raise CheckFailed(f"direction {direction} is not a unit vector")
    if n == 1:
        return
    W = inner_vertices(P, rho)
    if W is None:
        raise CheckFailed(f"inner body at rho={rho!r} has no interior")
    w = widths(W, np.vstack([d, P.A]))
    if w[0] > w[1:].min() + DIAM_REL * P.diameter:
        raise CheckFailed(f"width {w[0]!r} along {direction} exceeds minimum {w[1:].min()!r}")


def check_cuts(P: Polygon, n: int, rho: float, direction, cuts) -> np.ndarray:
    """The cut offsets along the direction, once they pass the checks."""
    if len(cuts) != n - 1:
        raise CheckFailed(f"{len(cuts)} cuts for n = {n}")
    d = np.asarray(direction, float)
    off = []
    for normal, offset in cuts:
        c = np.asarray(normal, float)
        if abs(c[0] * d[1] - c[1] * d[0]) > 1e-12 or abs(math.hypot(*c) - 1.0) > 1e-12:
            raise CheckFailed(f"cut normal {normal} not parallel to {direction}")
        off.append(offset if c @ d > 0 else -offset)
    off = np.asarray(off)
    gaps = np.diff(off)
    if len(gaps) and np.abs(gaps - 2.0 * rho).max() > DIAM_REL * P.diameter:
        raise CheckFailed(f"cuts not 2 rho apart: gaps {gaps.min()!r}..{gaps.max()!r}")
    return off


def piece_inradii(P: Polygon, direction, offsets) -> np.ndarray:
    """Inradius of every piece P ∩ {offsets[k-1] <= d.x <= offsets[k]}.

    One HiGHS LP over all pieces: the pieces share no variable, so
    maximizing the sum of radii maximizes each.  A piece's rows are its
    two slab rows and every edge of P whose span along d meets the slab.
    """
    d = np.asarray(direction, float)
    n = len(offsets) + 1
    proj = P.V @ d
    lo_e = np.minimum(proj, np.roll(proj, -1))
    hi_e = np.maximum(proj, np.roll(proj, -1))
    eps = 1e-9 * P.diameter
    first = np.searchsorted(offsets, lo_e - eps, side="left")
    last = np.searchsorted(offsets, hi_e + eps, side="right")
    count = last - first + 1
    edge = np.repeat(np.arange(len(proj)), count)
    piece = np.repeat(first, count) + np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    rows_A = [P.A[edge]]
    rows_b = [P.b[edge]]
    rows_p = [piece]
    k = np.arange(n - 1)
    rows_A += [np.tile(d, (n - 1, 1)), np.tile(-d, (n - 1, 1))]
    rows_b += [offsets, -offsets]
    rows_p += [k, k + 1]  # piece k lies below cut k, piece k + 1 above it
    A = np.vstack(rows_A)
    b = np.concatenate(rows_b)
    p = np.concatenate(rows_p)
    r = np.arange(len(b))
    M = coo_matrix(
        (np.concatenate([A[:, 0], A[:, 1], np.ones(len(b))]),
         (np.concatenate([r, r, r]), np.concatenate([3 * p, 3 * p + 1, 3 * p + 2]))),
        shape=(len(b), 3 * n),
    ).tocsr()
    c = np.zeros(3 * n)
    c[2::3] = -1.0
    bounds = [(None, None), (None, None), (0.0, None)] * n
    res = linprog(c, A_ub=M, b_ub=b, bounds=bounds, method="highs", options=_HIGHS)
    if res.status != 0:
        raise CheckFailed(f"reference piece LP: {res.message}")
    return res.x[2::3]


def check_pieces(P: Polygon, rho: float, direction, offsets) -> np.ndarray:
    """Every piece's inradius is at most rho(1 + 1e-8) and the largest is rho
    to 1e-8: both say that the largest is within 1e-8 of rho."""
    radii = piece_inradii(P, direction, offsets)
    if abs(radii.max() - rho) > RHO_REL * rho:
        raise CheckFailed(f"largest piece inradius {radii.max()!r} != rho {rho!r}")
    return radii


def check_solution(P: Polygon, n: int, rho: float, direction, cuts, regular_m=None) -> np.ndarray:
    """Raise CheckFailed unless the claim is right; returns the piece inradii.

    `cuts` is a list of (normal, offset) pairs."""
    check_rho(P, n, rho, regular_m)
    check_direction(P, n, rho, direction)
    off = check_cuts(P, n, rho, direction, cuts)
    return check_pieces(P, rho, direction, off)


def check_verify_report(radii_ref: np.ndarray, rho: float, report_radii) -> None:
    """The verifier's piece inradii agree with the reference ones."""
    got = np.asarray(report_radii, float)
    if got.shape != radii_ref.shape or np.abs(got - radii_ref).max() > RHO_REL * rho:
        raise CheckFailed("verify_solution piece inradii disagree with the reference")
