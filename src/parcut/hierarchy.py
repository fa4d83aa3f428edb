"""Facet-peeling hierarchy over the dome (Dobkin-Kirkpatrick style).

Level 0 is the dome itself.  Each round six-colors the facet adjacency
graph, picks the color class hitting the most removable facets, and
deletes that class (never touching the bounded core).  Deleting an
independent set keeps every hole local: the lattice over each hole is
recomputed with the same collapse sweep used to build the dome, and each
vertex born this way records the deleted facet as its killer.  Because
at least a sixth of the removable facets go per round, the depth is
O(log m) and total storage stays linear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .dome import (
    BoundedCore,
    Dome,
    FaceLattice,
    Level,
    VertexStore,
    _coincidence_tol,
    collapse_sweep,
    face_lattice,
)
from .errors import GeometryError, NonIndependentRemovalError, NotPlanarError
from .tolerance import DEFAULT_TOL, Tol


def six_color(adjacency: dict[int, set[int]]) -> dict[int, int]:
    """Proper coloring with at most 6 colors by minimum-degree peeling.

    Works on any planar graph: every subgraph has a vertex of degree <= 5,
    so peeling succeeds and the greedy unwind always finds a free color.
    """
    deg = {v: len(s) for v, s in adjacency.items()}
    removed: set[int] = set()
    cand = [v for v in adjacency if deg[v] <= 5]
    stack: list[int] = []
    while cand:
        v = cand.pop()
        if v in removed:
            continue
        removed.add(v)
        stack.append(v)
        for u in adjacency[v]:
            if u not in removed:
                deg[u] -= 1
                if deg[u] == 5:
                    cand.append(u)
    if len(stack) != len(adjacency):
        raise NotPlanarError("no vertex of degree <= 5; adjacency not planar")

    colors: dict[int, int] = {}
    for v in reversed(stack):
        used = {colors[u] for u in adjacency[v] if u in colors}
        for c in range(1, 7):
            if c not in used:
                colors[v] = c
                break
        else:
            raise NotPlanarError("greedy unwind needed a 7th color")
    return colors


def _augment_independent(
    adjacency: dict[int, set[int]],
    chosen: list[int],
    index_set: frozenset[int],
    core: frozenset[int],
) -> list[int]:
    """Grow a removal set to a maximal independent set outside the core.

    The color class already guarantees the one-sixth progress bound; any
    independent superset only removes more per round, so this is a pure
    depth optimization with every invariant intact.
    """
    blocked: set[int] = set(chosen)
    for f in chosen:
        blocked |= adjacency[f]
    out = list(chosen)
    for f in sorted(index_set - core):
        if f not in blocked:
            out.append(f)
            blocked.add(f)
            blocked |= adjacency[f]
    out.sort()
    return out


def pick_color(
    coloring: dict[int, int], index_set: frozenset[int], core: frozenset[int]
) -> list[int]:
    """Choose the color class with the most removable facets.

    Returns the class minus the core, sorted; pigeonhole guarantees at
    least a sixth of the removable facets.  Ties go to the smallest color.
    """
    removable = index_set - core
    if not removable:
        return []
    counts: dict[int, int] = {}
    members: dict[int, list[int]] = {}
    for f, c in coloring.items():
        if f in removable:
            counts[c] = counts.get(c, 0) + 1
            members.setdefault(c, []).append(f)
    best = max(counts, key=lambda c: (counts[c], -c))
    out = sorted(members[best])
    assert len(out) >= -(-len(removable) // 6), "pigeonhole violated"
    return out


def peel_level(
    level: Level,
    removal: list[int],
    store: VertexStore,
    rows,
    new_level_index: int,
    ctol: float,
    adjacency: dict[int, set[int]] | None = None,
    check_independent: bool = True,
):
    """Delete an independent facet set; rebuild the lattice over each hole.

    Returns the next Level plus the kill records {new vid: deleted facet}.
    Raises NonIndependentRemovalError when two deleted facets share an
    edge (their holes would interact and the local sweep would be wrong);
    internal callers that construct the set independent by construction
    skip the check.
    """
    if check_independent:
        if adjacency is None:
            adjacency = level.adjacency()
        removal_set = set(removal)
        for f in removal:
            if adjacency[f] & removal_set:
                raise NonIndependentRemovalError(
                    f"facet {f} and a neighbour are both being removed"
                )
    removal_set = set(removal)

    import itertools

    import numpy as np

    tris = store.tris
    pts = store.pts
    kills: dict[int, int] = {}
    fresh_all: list[int] = []
    cycles = dict(level.cycles)
    # per neighbour: dying corner -> (partner corner, directed cap path)
    patches: dict[int, dict[int, tuple[int, list[int]]]] = {}

    # Edge neighbours of every removed facet in one vectorized pass: the
    # facet shared by consecutive cycle vertices is the duplicate entry of
    # their concatenated sorted triples that is not the facet itself.
    cycs = [level.cycles[f] for f in removal]
    lens = [len(c) for c in cycs]
    total = sum(lens)
    flat = np.fromiter(itertools.chain.from_iterable(cycs), np.int64, total)
    nxt_flat = np.fromiter(
        itertools.chain.from_iterable(c[1:] + c[:1] for c in cycs), np.int64, total
    )
    tna = store.tri_array()
    cat = np.sort(np.concatenate([tna[flat], tna[nxt_flat]], axis=1), axis=1)
    dup = cat[:, 1:] == cat[:, :-1]
    fvals = np.repeat(np.asarray(removal, dtype=np.int64), lens)
    shared = np.where(dup, cat[:, :-1], -1)
    shared = np.where(shared == fvals[:, None], -1, shared)
    lab_flat = shared.max(axis=1)
    if (lab_flat < 0).any() or dup.sum(axis=1).max() > 2:
        raise GeometryError("a removed facet edge has no unique neighbour")
    corners_flat = store.pts_array()[flat]

    offset = 0
    for fi, f in enumerate(removal):
        cyc = cycles.pop(f)
        k = lens[fi]
        labels = lab_flat[offset : offset + k].tolist()
        corners = corners_flat[offset : offset + k].tolist()
        offset += k
        nf, _of = rows[f]
        events = collapse_sweep(labels, corners, rows, nf, ctol, strict=False)

        # chains per neighbour, in sweep order (see face_lattice)
        left: dict[int, list[int]] = {}
        right: dict[int, list[int]] = {}
        top: dict[int, int] = {}
        for pt, (lp, le, lq), _h in events[:-1]:
            vid = store.alloc(pt, (lp, le, lq), new_level_index, f)
            kills[vid] = f
            fresh_all.append(vid)
            right.setdefault(lp, []).append(vid)
            top[le] = vid
            left.setdefault(lq, []).append(vid)
        fpt, ftri, _fh = events[-1]
        fvid = store.alloc(fpt, ftri, new_level_index, f)
        kills[fvid] = f
        fresh_all.append(fvid)
        for lab in ftri:
            if lab in top:
                raise GeometryError(f"cap of facet {f}: neighbour died twice")
            top[lab] = fvid

        for j in range(k):
            g = labels[j]
            va = cyc[j]
            vb = cyc[(j + 1) % k]
            middle = left.get(g, []) + [top[g]] + right.get(g, [])[::-1]
            entry = patches.setdefault(g, {})
            entry[va] = (vb, middle)
            entry[vb] = (va, middle[::-1])

    # one linear pass per affected neighbour applies all of its patches
    for g, entry in patches.items():
        cycles[g] = _apply_patches(cycles[g], entry, g)

    old_verts = level.vertex_ids()
    old_arr = np.asarray(old_verts, dtype=np.int64)
    keep = old_arr[~np.isin(old_arr, flat, assume_unique=False)]
    verts = keep.tolist() + fresh_all
    return Level(level.index_set - removal_set, cycles, verts), kills


def _apply_patches(old: list[int], entry: dict[int, tuple[int, list[int]]], g: int) -> list[int]:
    """Replace every dying corner pair in one cycle by its cap path.

    The dying pairs of distinct removed facets are disjoint (independence),
    so a single pass after rotating to a pair boundary rewrites the cycle.
    """
    D = len(old)
    s = -1
    for i, w in enumerate(old):
        if w not in entry:
            s = i
            break
    if s < 0:
        for i in range(D):
            if entry[old[i]][0] == old[(i + 1) % D]:
                s = i
                break
        if s < 0:
            raise GeometryError(f"facet {g}: dying corners do not pair up")
    seq = old[s:] + old[:s]
    out: list[int] = []
    i = 0
    while i < D:
        w = seq[i]
        hit = entry.get(w)
        if hit is None:
            out.append(w)
            i += 1
            continue
        partner, middle = hit
        if i + 1 >= D or seq[i + 1] != partner:
            raise GeometryError(f"facet {g}: dying corners not adjacent in cycle")
        out.extend(middle)
        i += 2
    return out


@dataclass
class Hierarchy:
    """Nested facet-deletion levels over a (perturbed) dome.

    Queries run against the perturbed rows; `orig_rows` keeps the exact
    input coefficients so callers can re-solve a combinatorial answer on
    unperturbed data.
    """

    dome: Dome
    original: Dome
    store: VertexStore
    levels: list[Level]
    core: BoundedCore
    rows: list[tuple]
    orig_rows: list[tuple]
    scale: float
    core_vertices: list[int] = field(default_factory=list)
    core_edges: list[tuple[int, int]] = field(default_factory=list)

    @property
    def m(self) -> int:
        return self.dome.m

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def total_vertices(self) -> int:
        return sum(len(lv.vertex_ids()) for lv in self.levels)

    def dump(self) -> str:
        """Structured text of every level for golden-file style tests."""
        out = []
        for l, lv in enumerate(self.levels):
            ids = sorted(lv.index_set)
            V = len(lv.vertex_ids())
            E = len(lv.edge_map())
            F = len(lv.cycles)
            out.append(f"level {l}: facets={ids} V={V} E={E} F={F}")
            if l > 0:
                rec = sorted(
                    (v, self.store.birth_killer[v])
                    for v in lv.vertex_ids()
                    if self.store.birth_level[v] == l
                )
                line = " ".join(f"{v}<-{f}" for v, f in rec)
                out.append(f"  killed: {line if line else '(none)'}")
        return "\n".join(out) + "\n"


def build_hierarchy(
    D: Dome,
    core: BoundedCore,
    original: Dome | None = None,
    lattice: FaceLattice | None = None,
    tol: Tol = DEFAULT_TOL,
    debug: bool = False,
) -> Hierarchy:
    """Stratify the dome down to the bounded core.

    D should be generic (perturb first); `original` carries the exact
    unperturbed rows for later re-solves and defaults to D itself.
    """
    if lattice is None:
        lattice = face_lattice(D, tol=tol, strict=False)
    if original is None:
        original = D
    store = lattice.store
    levels = [lattice.level]
    rows = D.row_list()
    orig_rows = [original.row(i) for i in range(original.m + 1)]
    core_set = frozenset(core.labels)
    ctol = _coincidence_tol(D.scale)

    while levels[-1].index_set != core_set:
        cur = levels[-1]
        adj = cur.adjacency(store.tris)
        coloring = six_color(adj)
        removal = pick_color(coloring, cur.index_set, core_set)
        if not removal:
            raise GeometryError("no removable facets left but core not reached")
        removal = _augment_independent(adj, removal, cur.index_set, core_set)
        nxt, _kills = peel_level(
            cur, removal, store, rows, len(levels), ctol,
            adjacency=adj, check_independent=False,
        )
        levels.append(nxt)

    m = D.m
    max_depth = math.log(max(m, 2)) / math.log(6.0 / 5.0) + 2.0
    if len(levels) - 1 > max_depth:
        raise GeometryError("hierarchy deeper than the 6-coloring bound allows")

    top = levels[-1]
    core_vertices = sorted(top.vertex_ids())
    core_edges = sorted(top.edge_map().keys())

    H = Hierarchy(
        dome=D,
        original=original,
        store=store,
        levels=levels,
        core=core,
        rows=rows,
        orig_rows=orig_rows,
        scale=D.scale,
        core_vertices=core_vertices,
        core_edges=core_edges,
    )
    if debug:
        _debug_validate(H, tol)
    return H


def _debug_validate(H: Hierarchy, tol: Tol) -> None:
    """Exhaustive build-time checks: geometric fidelity and kill uniqueness."""
    slack = tol.slack(H.scale) * 1e3
    for l, lv in enumerate(H.levels):
        ids = sorted(lv.index_set)
        for v in lv.vertex_ids():
            p = H.store.pts[v]
            for lab in ids:
                n, off = H.rows[lab]
                val = n[0] * p[0] + n[1] * p[1] + n[2] * p[2]
                if val > off + slack:
                    raise GeometryError(
                        f"level {l}: vertex {v} violates facet {lab} by {val - off:g}"
                    )
        if l == 0:
            continue
        # Kill records: a new vertex sits beyond its killer and beyond no
        # other removed facet.  Violations can be arbitrarily small (just
        # above the deleted plane) so the test threshold is the noise
        # floor, not the user tolerance.
        vtol = _coincidence_tol(H.scale)
        removed = sorted(H.levels[l - 1].index_set - lv.index_set)
        for v in lv.vertex_ids():
            if H.store.birth_level[v] != l:
                continue
            p = H.store.pts[v]
            killer = H.store.birth_killer[v]
            for lab in removed:
                n, off = H.rows[lab]
                excess = n[0] * p[0] + n[1] * p[1] + n[2] * p[2] - off
                if lab == killer:
                    if excess < -vtol:
                        raise GeometryError(
                            f"level {l}: vertex {v} does not violate its killer {killer}"
                        )
                elif excess > vtol:
                    raise GeometryError(
                        f"level {l}: vertex {v} violates {lab} besides killer {killer}"
                    )
