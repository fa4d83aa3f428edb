"""`min_width`, `diameter` and `_antipodes` as `parcut.geometry` ran them
before they were written as cheap 1-D passes.

Each reads the rows' normal angles with `% (2 * pi)`, gathers m x 3
candidate vertices, and `diameter` takes `np.hypot` over all 6 m
candidate pairs.  The rewritten functions must return equal values bit
for bit.  It is a test reference only.
"""

from __future__ import annotations

import math

import numpy as np

from parcut.geometry import HPolygon


def reference_angles(A: np.ndarray) -> np.ndarray:
    return np.arctan2(A[:, 1], A[:, 0]) % (2 * math.pi)


def reference_antipodes(ang: np.ndarray) -> np.ndarray:
    """For each of the ascending normal angles `ang` of a convex polygon's
    rows, the corner k, where rows k and k+1 meet, whose normal cone holds
    the opposite normal: where that row's A_i.x is smallest."""
    return (np.searchsorted(ang, (ang + math.pi) % (2 * math.pi), side="right") - 1) % len(ang)


def reference_min_width(P: HPolygon) -> float:
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
    cand = (reference_antipodes(ang)[:, None] + np.array([-1, 0, 1])) % m
    V = verts[cand]
    proj = A[:, None, 0] * V[:, :, 0] + A[:, None, 1] * V[:, :, 1]
    low = proj.argmin(axis=1)
    w = b - proj[np.arange(m), low]
    return float(w[np.argmin(w)])


def reference_diameter(P: HPolygon) -> float:
    """Largest vertex-to-vertex distance, over the antipodal vertex pairs.

    Every antipodal pair has a vertex on an edge whose antipodal vertex
    (found as in `min_width`) is the other one, so each edge's two ends are
    measured to that vertex and its two neighbours.
    """
    A, V = P.A, P.vertices
    m = P.m
    ang = np.arctan2(A[:, 1], A[:, 0]) % (2 * math.pi)
    far = (reference_antipodes(ang)[:, None] + np.array([-1, 0, 1])) % m
    x, y = V[:, 0], V[:, 1]
    fx, fy = x[far], y[far]
    best = 0.0
    for ex, ey in ((np.roll(x, 1), np.roll(y, 1)), (x, y)):  # edge k: vertices k-1, k
        best = max(best, float(np.hypot(fx - ex[:, None], fy - ey[:, None]).max()))
    return best
