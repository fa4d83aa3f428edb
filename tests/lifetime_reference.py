"""rho by a bracket search over the swept lifetimes, as `parcut.solve` found
it before it descended to the rows alive at rho.

`critical_radius(P, n)` sweeps the dome once for every edge's lifetime
M_i (`facet_lifetimes`), merges lifetimes that agree to rounding into one
event, binary-searches the events for the bracket where the gap g changes
sign, and solves the bracket's gaps in closed form.  At n >= 2 its rho and
winner must equal `solve`'s bit for bit.  It is a test reference only.
"""

from __future__ import annotations

import math

import numpy as np

from parcut.dome import build_dome, facet_lifetimes
from parcut.geometry import _antipodes
from parcut.solver import _TIE_REL, _gap_roots, _widths


def _critical_radius(P, n: int, M: np.ndarray, r: float, tie: float):
    """rho and the winning edge from the lifetimes M and the inradius r.

    Lifetimes that agree to rounding are one event: a row whose swept
    M_i falls a hair short of its peers must stay alive until they die, or
    a segment-shaped apex would lose one of its four rows.
    """
    M = np.minimum(M, r)
    u = np.unique(M)
    first = np.concatenate([[0], np.nonzero(np.diff(u) > tie)[0] + 1])
    low = u[first]  # event k: lifetimes in [low[k], top[k]]
    top = np.append(u[first[1:] - 1], u[-1])
    c = 2.0 * (n - 1)

    def alive(k):  # rows of I_t for t in (top[k-1], top[k])
        return np.nonzero(M >= low[k])[0]

    lo, hi = 0, len(top) - 1
    if n > 1:  # first event k with g(top[k]) <= 0; g(r) < 0 for n >= 2
        while lo < hi:
            mid = (lo + hi) // 2
            t = float(top[mid])
            if _widths(P, alive(mid), t).min() - c * t <= 0.0:
                hi = mid
            else:
                lo = mid + 1
    S = alive(hi)
    tau = _gap_roots(P, S, n, _antipodes(P.angles[S]))
    best = float(tau.min())
    if not math.isfinite(best):
        raise ValueError("no edge gap has a root")
    winner = int(S[np.nonzero(tau <= best + tie)[0][0]])
    return (best if n > 1 else r), winner


def critical_radius(P, n: int):
    """rho and the winning edge of a canonical P cut into n pieces."""
    life = facet_lifetimes(build_dome(P))
    tie = _TIE_REL * float(np.abs(P.b).max())
    return _critical_radius(P, n, life.M, life.apex[2], tie)
