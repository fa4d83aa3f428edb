"""Exhaustive checks of a built hierarchy, for the tests and CI.

`check_hierarchy(H)` asserts geometric fidelity (every vertex of a level
lies inside every facet of that level) and kill uniqueness (a vertex
born at level l lies beyond the facet recorded as its killer and beyond
no other facet deleted at l).  It reads every vertex against every facet
of its level, so it costs O(m^2) on level 0: use it on small domes.
"""

from parcut.dome import _coincidence_tol
from parcut.tolerance import slack


def check_hierarchy(H) -> None:
    allow = slack(H.scale) * 1e3
    # a kill can lie just above the deleted plane, so its test is the
    # noise floor, not the comparison slack
    vtol = _coincidence_tol(H.scale)
    for l, lv in enumerate(H.levels):
        ids = sorted(lv.index_set)
        for v in lv.verts:
            p = H.store.pts[v]
            for lab in ids:
                n, off = H.rows[lab]
                val = n[0] * p[0] + n[1] * p[1] + n[2] * p[2]
                assert val <= off + allow, f"level {l}: vertex {v} violates facet {lab} by {val - off:g}"
        if l == 0:
            continue
        removed = sorted(H.levels[l - 1].index_set - lv.index_set)
        for v in lv.verts:
            if H.store.birth_level[v] != l:
                continue
            p = H.store.pts[v]
            killer = H.store.birth_killer[v]
            for lab in removed:
                n, off = H.rows[lab]
                excess = n[0] * p[0] + n[1] * p[1] + n[2] * p[2] - off
                if lab == killer:
                    assert excess >= -vtol, f"level {l}: vertex {v} does not violate its killer {killer}"
                else:
                    assert excess <= vtol, f"level {l}: vertex {v} violates {lab} besides killer {killer}"
