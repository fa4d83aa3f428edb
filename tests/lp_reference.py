"""Seidel's LP recursion for any dimension, as `parcut.lp` ran it before
the recursion was written out per dimension.

`reference_lp` takes `small_lp`'s arguments and runs the generic
recursion `_lp_rec` on tuple rows (a, b, rid), with the arithmetic in
the order the per-dimension kernels keep, so the two must return equal
LpResults bit for bit.  It also takes what `small_lp` no longer does: a
shuffle `seed` other than 0, and `equalities`, rows (a, b) held tight,
which it eliminates exactly before solving, so that it is the direct LP
that the hierarchy's section queries are checked against.  It is a test
reference only.
"""

from __future__ import annotations

import random

from parcut.lp import _BOX_FACTOR, INFEASIBLE, OPTIMAL, UNBOUNDED, LpResult
from parcut.tolerance import slack


def _dot(a, x) -> float:
    s = 0.0
    for i in range(len(a)):
        s += a[i] * x[i]
    return s


def _lp1(rows, order, c, box):
    """1-D base case: intersect half-lines, pick the end favored by c."""
    lo, hi = -box, box
    lo_id, hi_id = ("box", 0, -1), ("box", 0, 1)
    for idx in order:
        a, b, rid = rows[idx]
        av = a[0]
        if av > 1e-300:
            cand = b / av
            if cand < hi:
                hi, hi_id = cand, rid
        elif av < -1e-300:
            cand = b / av
            if cand > lo:
                lo, lo_id = cand, rid
        elif b < -slack(b):
            return INFEASIBLE, None, ()
    scale = max(abs(lo), abs(hi), 1.0)
    if lo > hi + slack(scale):
        return INFEASIBLE, None, ()
    if c[0] >= 0.0:
        return OPTIMAL, (hi,), (hi_id,)
    return OPTIMAL, (lo,), (lo_id,)


def _lp_rec(d, rows, order, c, box):
    """Seidel recursion: maximize c over rows, each (a, b, rid)."""
    if d == 1:
        return _lp1(rows, order, c, box)

    x = []
    basis = []
    for k in range(d):
        if c[k] >= 0.0:
            x.append(box)
            basis.append(("box", k, 1))
        else:
            x.append(-box)
            basis.append(("box", k, -1))
    x = tuple(x)
    basis = tuple(basis)

    done: list[int] = []
    for idx in order:
        a, b, rid = rows[idx]
        val = _dot(a, x)
        scale = abs(b)
        for k in range(d):
            scale += abs(a[k] * x[k])
        if val <= b + slack(scale):
            done.append(idx)
            continue

        # Optimum moves onto the hyperplane a.y = b; eliminate the variable
        # with the largest coefficient and recurse in dimension d-1.
        piv = 0
        best = abs(a[0])
        for k in range(1, d):
            if abs(a[k]) > best:
                best = abs(a[k])
                piv = k
        if best <= 1e-300:
            return INFEASIBLE, None, ()
        q0 = b / a[piv]
        keep = [k for k in range(d) if k != piv]
        sub = [-a[k] / a[piv] for k in keep]  # x_piv = q0 + sub . x_keep

        sub_rows = []
        for j in done:
            aj, bj, ridj = rows[j]
            ak = aj[piv]
            na = tuple(aj[k] + ak * sub[t] for t, k in enumerate(keep))
            sub_rows.append((na, bj - ak * q0, ridj))
        # Box planes of the eliminated variable become ordinary rows.
        sub_rows.append((tuple(sub), box - q0, ("box", piv, 1)))
        sub_rows.append((tuple(-s for s in sub), box + q0, ("box", piv, -1)))

        sub_c = tuple(c[k] + c[piv] * sub[t] for t, k in enumerate(keep))
        st, sx, sb = _lp_rec(
            d - 1, sub_rows, range(len(sub_rows)), sub_c, box
        )
        if st != OPTIMAL:
            return INFEASIBLE, None, ()
        xp = q0
        for t in range(d - 1):
            xp += sub[t] * sx[t]
        full = [0.0] * d
        for t, k in enumerate(keep):
            full[k] = sx[t]
        full[piv] = xp
        x = tuple(full)
        basis = (rid,) + sb
        done.append(idx)
    return OPTIMAL, x, basis


def _reduce_equality(rows, eqs, c, eq):
    """Eliminate one variable using equality eq = (a, b); returns the
    reduced (rows, eqs, c) plus lift info (piv, keep, q0, sub).  An
    equality with no variable left, once earlier ones fixed them all, is
    trivial: dropped when b is zero to `slack`, else infeasible (None)."""
    a, b = eq
    d = len(a)
    piv = 0
    best = abs(a[0]) if d else 0.0
    for k in range(1, d):
        if abs(a[k]) > best:
            best = abs(a[k])
            piv = k
    if best <= 1e-300:
        if abs(b) > slack(b):
            return None
        return rows, eqs, c, None  # trivial equality, drop
    q0 = b / a[piv]
    keep = [k for k in range(d) if k != piv]
    sub = [-a[k] / a[piv] for k in keep]

    def red_row(ar, br):
        ak = ar[piv]
        na = tuple(ar[k] + ak * sub[t] for t, k in enumerate(keep))
        return na, br - ak * q0

    nrows = []
    for ar, br, rid in rows:
        na, nb = red_row(ar, br)
        nrows.append((na, nb, rid))
    neqs = [red_row(ar, br) for ar, br in eqs]
    nc = tuple(c[k] + c[piv] * sub[t] for t, k in enumerate(keep))
    return nrows, neqs, nc, (piv, keep, q0, sub)


def reference_lp(
    constraints,
    objective,
    *,
    maximize: bool = True,
    seed: int = 0,
    equalities=(),
) -> LpResult:
    """`small_lp` as the generic recursion computes it: at seed 0 and
    with no `equalities`, an LpResult that must equal `small_lp`'s bit
    for bit."""
    d = len(objective)
    if d not in (1, 2, 3):
        raise ValueError("small_lp supports dimensions 1..3 only")
    c_orig = tuple(float(v) for v in objective)
    c = c_orig if maximize else tuple(-v for v in c_orig)

    rows = [
        (tuple(float(v) for v in a), float(b), i)
        for i, (a, b) in enumerate(constraints)
    ]

    scale = 1.0
    for a, b, _ in rows:
        scale = max(scale, abs(b))
    box = _BOX_FACTOR * scale

    # Substitute away equality constraints (each one reduces the rest too).
    lifts = []
    eqs = [(tuple(float(v) for v in a), float(b)) for a, b in equalities]
    while eqs:
        eq = eqs.pop(0)
        red = _reduce_equality(rows, eqs, c, eq)
        if red is None:
            return LpResult(INFEASIBLE)
        rows, eqs, c, lift = red
        if lift is not None:
            lifts.append(lift)

    dim = d - len(lifts)
    if dim == 0:
        x = ()
    else:
        order = list(range(len(rows)))
        random.Random(seed).shuffle(order)
        st, x, basis_raw = _lp_rec(dim, rows, order, c, box)
        if st != OPTIMAL:
            return LpResult(INFEASIBLE)
        if any(abs(v) >= 0.99 * box for v in x):
            # The optimum touches the artificial box.  That is only a real
            # unboundedness when enlarging the box improves the objective;
            # a slack direction the objective ignores is harmless.
            st2, x2, _ = _lp_rec(dim, rows, order, c, box * 101.0)
            if st2 != OPTIMAL:
                return LpResult(INFEASIBLE)
            v1 = _dot(c, x)
            v2 = _dot(c, x2)
            if abs(v2 - v1) > slack(max(abs(v1), abs(v2), 1.0)) * 10.0:
                return LpResult(UNBOUNDED)

    # Lift back through the equality substitutions, innermost last.
    for piv, keep, q0, sub in reversed(lifts):
        xp = q0
        for t in range(len(keep)):
            xp += sub[t] * x[t]
        full = [0.0] * (len(keep) + 1)
        for t, k in enumerate(keep):
            full[k] = x[t]
        full[piv] = xp
        x = tuple(full)

    if dim == 0:
        # Point fully determined; check feasibility of every row.
        for a, b, _rid in [
            (tuple(float(v) for v in a), float(b), i)
            for i, (a, b) in enumerate(constraints)
        ]:
            val = _dot(a, x)
            sc = abs(b) + sum(abs(a[k] * x[k]) for k in range(d))
            if val > b + slack(sc):
                return LpResult(INFEASIBLE)
        basis: tuple[int, ...] = ()
    else:
        basis = tuple(sorted(r for r in basis_raw if isinstance(r, int)))

    value = _dot(c_orig, x)
    return LpResult(OPTIMAL, tuple(x), value, basis)
