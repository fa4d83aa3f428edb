"""Small-dimension linear programming.

Seidel's randomized incremental LP in 1, 2 or 3 variables: expected
linear time in the number of constraints, and deterministic, since the
rows are always shuffled with seed 0.  The recursion is written out once
per dimension (`_lp3`, `_lp2`, `_lp1`) over flat float rows
(a_0, ..., a_{d-1}, b, rid), with its dot products, slacks, eliminations
and back-substitutions inline.
Unboundedness is detected with a large bounding box, so coordinates of
genuine optima must stay well below ``_BOX_FACTOR`` times the data scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .tolerance import slack

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_BOX_FACTOR = 1e9
# the two variables kept when variable piv is eliminated, in order
_KEEP = ((1, 2), (0, 2), (0, 1))


@dataclass(frozen=True)
class LpResult:
    """Outcome of a small LP: status, optimizer, objective value, active rows."""

    status: str
    point: tuple[float, ...] | None = None
    value: float | None = None
    basis: tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == OPTIMAL


def _lp1(rows, c, box):
    """1-D base case over rows (a, b, rid): intersect half-lines, pick the
    end favored by c."""
    lo, hi = -box, box
    lo_id, hi_id = ("box", 0, -1), ("box", 0, 1)
    for a, b, rid in rows:
        if a > 1e-300:
            cand = b / a
            if cand < hi:
                hi, hi_id = cand, rid
        elif a < -1e-300:
            cand = b / a
            if cand > lo:
                lo, lo_id = cand, rid
        elif b < -slack(b):
            return INFEASIBLE, None, ()
    if lo > hi + slack(max(abs(lo), abs(hi), 1.0)):
        return INFEASIBLE, None, ()
    if c[0] >= 0.0:
        return OPTIMAL, (hi,), (hi_id,)
    return OPTIMAL, (lo,), (lo_id,)


def _lp2(rows, c, box):
    """Seidel's recursion in 2 variables over rows (a0, a1, b, rid), in
    order: maximize c.x from the box corner c favors."""
    c0, c1 = c
    x0, x1 = (box if c0 >= 0.0 else -box), (box if c1 >= 0.0 else -box)
    basis = (("box", 0, 1 if c0 >= 0.0 else -1), ("box", 1, 1 if c1 >= 0.0 else -1))
    done = []
    for row in rows:
        a0, a1, b, rid = row
        p0, p1 = a0 * x0, a1 * x1
        # a.x <= b + slack(|b| + sum |a_k x_k|)
        if p0 + p1 <= b + (1e-12 + 1e-9 * (abs(b) + abs(p0) + abs(p1))):
            done.append(row)
            continue
        # the optimum moves onto a.x = b: eliminate the variable with the
        # larger coefficient, x_piv = q0 + s x_k, and solve in 1-D
        piv = 1 if abs(a1) > abs(a0) else 0
        k = 1 - piv
        ap = row[piv]
        if abs(ap) <= 1e-300:
            return INFEASIBLE, None, ()
        q0 = b / ap
        s = -row[k] / ap
        sub = [(r[k] + r[piv] * s, r[2] - r[piv] * q0, r[3]) for r in done]
        # box planes of the eliminated variable become ordinary rows
        sub.append((s, box - q0, ("box", piv, 1)))
        sub.append((-s, box + q0, ("box", piv, -1)))
        st, y, sb = _lp1(sub, (c[k] + c[piv] * s,), box)
        if st != OPTIMAL:
            return INFEASIBLE, None, ()
        xp = q0 + s * y[0]
        x0, x1 = (xp, y[0]) if piv == 0 else (y[0], xp)
        basis = (rid,) + sb
        done.append(row)
    return OPTIMAL, (x0, x1), basis


def _lp3(rows, c, box):
    """Seidel's recursion in 3 variables over rows (a0, a1, a2, b, rid), in
    order: maximize c.x from the box corner c favors."""
    c0, c1, c2 = c
    x0, x1, x2 = (box if c0 >= 0.0 else -box), (box if c1 >= 0.0 else -box), (box if c2 >= 0.0 else -box)
    basis = (("box", 0, 1 if c0 >= 0.0 else -1), ("box", 1, 1 if c1 >= 0.0 else -1),
             ("box", 2, 1 if c2 >= 0.0 else -1))
    done = []
    for row in rows:
        a0, a1, a2, b, rid = row
        p0, p1, p2 = a0 * x0, a1 * x1, a2 * x2
        if p0 + p1 + p2 <= b + (1e-12 + 1e-9 * (abs(b) + abs(p0) + abs(p1) + abs(p2))):
            done.append(row)
            continue
        # eliminate the variable with the largest coefficient (the first of
        # equals), x_piv = q0 + s0 x_k + s1 x_l, and solve in 2-D
        piv, best = 0, abs(a0)
        if abs(a1) > best:
            piv, best = 1, abs(a1)
        if abs(a2) > best:
            piv, best = 2, abs(a2)
        if best <= 1e-300:
            return INFEASIBLE, None, ()
        k, l = _KEEP[piv]
        ap = row[piv]
        q0 = b / ap
        s0, s1 = -row[k] / ap, -row[l] / ap
        sub = [(r[k] + r[piv] * s0, r[l] + r[piv] * s1, r[3] - r[piv] * q0, r[4]) for r in done]
        sub.append((s0, s1, box - q0, ("box", piv, 1)))
        sub.append((-s0, -s1, box + q0, ("box", piv, -1)))
        st, y, sb = _lp2(sub, (c[k] + c[piv] * s0, c[l] + c[piv] * s1), box)
        if st != OPTIMAL:
            return INFEASIBLE, None, ()
        x = [q0 + s0 * y[0] + s1 * y[1]] * 3
        x[k], x[l] = y
        x0, x1, x2 = x
        basis = (rid,) + sb
        done.append(row)
    return OPTIMAL, (x0, x1, x2), basis


def small_lp(constraints, objective, *, maximize: bool = True) -> LpResult:
    """Solve max (or min) of objective . x subject to a_i . x <= b_i.

    `constraints` is a sequence of (a, b) pairs; dimension is taken from
    the objective length and must be 1, 2 or 3.
    """
    d = len(objective)
    if d not in (1, 2, 3):
        raise ValueError("small_lp supports dimensions 1..3 only")
    c_orig = tuple(float(v) for v in objective)
    c = c_orig if maximize else tuple(-v for v in c_orig)

    rows = [(*map(float, a), float(b), i) for i, (a, b) in enumerate(constraints)]
    box = _BOX_FACTOR * max([1.0] + [abs(r[d]) for r in rows])
    order = list(range(len(rows)))
    random.Random(0).shuffle(order)
    rows = [rows[i] for i in order]
    kernel = (_lp1, _lp2, _lp3)[d - 1]
    st, x, basis_raw = kernel(rows, c, box)
    if st != OPTIMAL:
        return LpResult(INFEASIBLE)
    if any(abs(v) >= 0.99 * box for v in x):
        # The optimum touches the artificial box.  That is only a real
        # unboundedness when enlarging the box improves the objective;
        # a slack direction the objective ignores is harmless.
        st2, x2, _ = kernel(rows, c, box * 101.0)
        if st2 != OPTIMAL:
            return LpResult(INFEASIBLE)
        v1 = v2 = 0.0
        for ck, xk, xk2 in zip(c, x, x2):
            v1 += ck * xk
            v2 += ck * xk2
        if abs(v2 - v1) > slack(max(abs(v1), abs(v2), 1.0)) * 10.0:
            return LpResult(UNBOUNDED)

    value = 0.0
    for ck, xk in zip(c_orig, x):
        value += ck * xk
    basis = tuple(sorted(r for r in basis_raw if isinstance(r, int)))
    return LpResult(OPTIMAL, tuple(x), value, basis)
