"""Facet-peeling hierarchy over the dome (Dobkin-Kirkpatrick style).

The hierarchy needs a simple polytope: exactly three facets at every
vertex.  A dome with four facet planes through one point (the apex of
a square or any other regular polygon of more than three edges) is not
simple, so the hierarchy runs on a
`perturb`ed dome, whose lifted offsets shrink by a random hair, and
keeps the unperturbed rows beside it so that queries can re-solve their
answers on exact data (`parcut.queries`).  `solve` never builds it.

Level 0 is the dome's face lattice, built by one collapse sweep
(`face_lattice`): every death in the sweep is a lattice vertex, and each
facet's vertex cycle is read off the chains of deaths beside it.  Each
round six-colors the facet adjacency graph, picks the color class
hitting the most removable facets, and deletes that class (never
touching the bounded core, a few facets that bound a polytope alone).
Deleting an independent set keeps every hole local: the lattice over
each hole is recomputed with the same collapse sweep used to build the
dome, and each vertex born this way records the deleted facet as its
killer.  Because at least a sixth of the removable facets go per round,
the depth is O(log m) and total storage stays linear.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dome import Dome, _coincidence_tol, _dome_sweep, collapse_sweep
from .errors import (
    DegenerateVertexError,
    GeometryError,
    NonIndependentRemovalError,
    NotPlanarError,
)
from .lp import OPTIMAL, UNBOUNDED, small_lp
from .tolerance import DEFAULT_TOL, Tol


def perturb(D: Dome, seed: int = 0) -> Dome:
    """Shrink each lifted offset by a random hair to break plane ties.

    The floor is never moved, and determinism follows from the seed.  The
    nominal magnitude is 1e-7 times the polygon diameter, but it is
    capped by the smallest redundancy slack of any row (distance from the
    row's line to the crossing of its two neighbours) so that fine-grained
    polygons keep every floor edge.
    """
    m = D.m
    rng = np.random.default_rng(seed)
    N = D.normals[:m, :2]
    off = D.offsets[:m]
    a1 = np.roll(N, 1, axis=0)  # row j-1
    a2 = np.roll(N, -1, axis=0)  # row j+1
    o1 = np.roll(off, 1)
    o2 = np.roll(off, -1)
    det = a1[:, 0] * a2[:, 1] - a1[:, 1] * a2[:, 0]
    crossing = np.abs(det) >= 1e-12  # parallel neighbours never squeeze a row out
    with np.errstate(divide="ignore", invalid="ignore"):
        zx = (o1 * a2[:, 1] - o2 * a1[:, 1]) / det
        zy = (a1[:, 0] * o2 - a2[:, 0] * o1) / det
    slack = np.abs(N[:, 0] * zx + N[:, 1] * zy - off)[crossing]
    min_slack = float(slack.min()) if len(slack) else math.inf
    delta = min(1e-7 * D.scale, 0.25 * min_slack)
    offsets = D.offsets.copy()
    offsets[:m] -= delta * rng.random(m)

    # corner j = crossing of rows j-1 and j under the new offsets
    po = offsets[:m]
    pp = np.roll(po, 1)
    det = a1[:, 0] * N[:, 1] - a1[:, 1] * N[:, 0]
    corners = np.stack(
        [(pp * N[:, 1] - po * a1[:, 1]) / det, (a1[:, 0] * po - N[:, 0] * pp) / det],
        axis=1,
    )
    # A perturbed row must still carry a positive-length floor edge.
    min_len = 10.0 * _coincidence_tol(D.scale)
    nxt = np.roll(corners, -1, axis=0)
    length = (nxt[:, 0] - corners[:, 0]) * -N[:, 1] + (nxt[:, 1] - corners[:, 1]) * N[:, 0]
    short = np.nonzero(length < min_len)[0]
    if len(short):
        raise DegenerateVertexError(
            f"perturbation collapsed floor edge {int(short[0])}; input nearly redundant"
        )
    return Dome(D.polygon, D.normals, offsets, corners, D.scale)


# ---------------------------------------------------------------------------
# vertex store and per-level lattice data


class VertexStore:
    """Append-only store of lattice vertices shared by all hierarchy levels."""

    __slots__ = (
        "pts",
        "tris",
        "birth_level",
        "birth_killer",
        "by_triple",
        "_tris_buf",
        "_pts_buf",
    )

    def __init__(self):
        self.pts: list[tuple[float, float, float]] = []
        self.tris: list[tuple[int, int, int]] = []
        self.birth_level: list[int] = []
        self.birth_killer: list[int] = []
        self.by_triple: dict[tuple[int, int, int], int] = {}
        self._tris_buf = None
        self._pts_buf = None

    def tri_array(self):
        """Triples as a growing numpy array covering every current vertex.

        Extends incrementally, so repeated calls during the hierarchy
        build convert each new vertex exactly once."""
        n = len(self.tris)
        buf = self._tris_buf
        if buf is None:
            self._tris_buf = np.asarray(self.tris, dtype=np.int64).reshape(n, 3)
        elif len(buf) < n:
            extra = np.asarray(self.tris[len(buf):], dtype=np.int64).reshape(-1, 3)
            self._tris_buf = np.concatenate([buf, extra])
        return self._tris_buf

    def pts_array(self):
        n = len(self.pts)
        buf = self._pts_buf
        if buf is None:
            self._pts_buf = np.asarray(self.pts, dtype=float).reshape(n, 3)
        elif len(buf) < n:
            extra = np.asarray(self.pts[len(buf):], dtype=float).reshape(-1, 3)
            self._pts_buf = np.concatenate([buf, extra])
        return self._pts_buf

    def alloc(self, point, triple, level: int, killer: int) -> int:
        vid = len(self.pts)
        a, b, c = triple
        if a > b:
            a, b = b, a
        if b > c:
            b, c = c, b
            if a > b:
                a, b = b, a
        tri = (a, b, c)
        self.pts.append((float(point[0]), float(point[1]), float(point[2])))
        self.tris.append(tri)
        self.birth_level.append(level)
        self.birth_killer.append(killer)
        self.by_triple[tri] = vid
        return vid

    def __len__(self) -> int:
        return len(self.pts)


@dataclass
class Level:
    """One hierarchy level: which facets are present and their vertex cycles."""

    index_set: frozenset[int]
    cycles: dict[int, list[int]]
    verts: list[int]  # ids of the vertices on some cycle

    def edge_map(self) -> dict[tuple[int, int], list[int]]:
        """Undirected vertex pair -> the (two) facets sharing that edge."""
        out: dict[tuple[int, int], list[int]] = {}
        for f, cyc in self.cycles.items():
            k = len(cyc)
            for i in range(k):
                u, v = cyc[i], cyc[(i + 1) % k]
                key = (u, v) if u < v else (v, u)
                out.setdefault(key, []).append(f)
        return out

    def adjacency(self, tris) -> dict[int, set[int]]:
        """Facet adjacency from the vertex-triple table `tris`: the three
        facets at any vertex are pairwise adjacent, and every adjacency
        shows up at some vertex."""
        adj: dict[int, set[int]] = {f: set() for f in self.cycles}
        for v in self.verts:
            a, b, c = tris[v]
            adj[a].add(b)
            adj[a].add(c)
            adj[b].add(a)
            adj[b].add(c)
            adj[c].add(a)
            adj[c].add(b)
        return adj


@dataclass
class FaceLattice:
    """Complete face lattice of a dome (level-0 view plus vertex store)."""

    dome: Dome
    store: VertexStore
    level: Level

    @property
    def n_facets(self) -> int:
        return len(self.level.cycles)

    @property
    def n_vertices(self) -> int:
        return len(self.level.verts)

    @property
    def n_edges(self) -> int:
        return len(self.level.edge_map())

    def edges(self) -> dict[tuple[int, int], list[int]]:
        return self.level.edge_map()

    def facets(self) -> dict[int, list[int]]:
        return self.level.cycles

    def adjacency(self) -> dict[int, set[int]]:
        return self.level.adjacency(self.store.tris)


@dataclass(frozen=True)
class BoundedCore:
    """A few facet labels whose half-spaces alone already bound a polytope."""

    labels: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.labels)


def face_lattice(D: Dome, strict: bool = True) -> FaceLattice:
    """Full face lattice of the dome in O(m log m).

    Requires a generic dome (no four facet planes through a point); in
    strict mode a violation raises DegenerateVertexError, which signals
    that `perturb` should be applied first.  Pipelines that have already
    perturbed pass strict=False and accept resolution-floor coincidences.
    """
    m = D.m
    floor = D.floor
    store = VertexStore()

    corner_vid = []
    for j in range(m):
        p = (float(D.corners[j, 0]), float(D.corners[j, 1]), 0.0)
        corner_vid.append(store.alloc(p, ((j - 1) % m, j, floor), 0, -1))

    events = _dome_sweep(D, strict)

    # Assemble each facet cycle from the event chains: going CCW, a lifted
    # facet runs along its floor edge, climbs the side it shares with its
    # successor (events where it was the left neighbour), crosses its top
    # vertex and descends the other side.
    left: dict[int, list[int]] = {i: [] for i in range(m)}
    right: dict[int, list[int]] = {i: [] for i in range(m)}
    top: dict[int, int] = {}
    for pt, (lp, le, lq), _h in events[:-1]:
        vid = store.alloc(pt, (lp, le, lq), 0, -1)
        right[lp].append(vid)
        top[le] = vid
        left[lq].append(vid)
    fpt, ftri, _fh = events[-1]
    fvid = store.alloc(fpt, ftri, 0, -1)
    for lab in ftri:
        if lab in top:
            raise GeometryError(f"facet {lab} died twice in the sweep")
        top[lab] = fvid

    cycles: dict[int, list[int]] = {floor: corner_vid}
    for i in range(m):
        cycles[i] = (
            [corner_vid[i], corner_vid[(i + 1) % m]]
            + right[i]
            + [top[i]]
            + left[i][::-1]
        )

    level = Level(frozenset(range(m + 1)), cycles, list(range(len(store))))
    return FaceLattice(D, store, level)


def bounded_core(D: Dome, tol: Tol = DEFAULT_TOL) -> BoundedCore:
    """Find <= 6 facets that bound a polytope on their own.

    Start from the floor facet and chase the face maximizing t: if that
    face is a vertex its three facets plus the floor suffice; if it is an
    edge, add the facets binding the edge's two endpoints.
    """
    rows = D.row_list()
    res = small_lp(rows, (0.0, 0.0, 1.0), tol=tol)
    if res.status != OPTIMAL:
        raise GeometryError("dome has no apex; invalid input")
    basis = [i for i in res.basis if i != D.floor]

    lam = _cone_coefficients(D, basis)
    support = [i for i, l in zip(basis, lam) if l > 1e-7 * max(lam)]

    labels = {D.floor}
    if len(support) == 3:
        labels.update(support)
    elif len(support) == 2:
        a, b = support
        labels.update((a, b))
        na, nb = D.normals[a], D.normals[b]
        u = np.cross(na, nb)
        u /= np.linalg.norm(u)
        eqs = [((na[0], na[1], na[2]), float(D.offsets[a])),
               ((nb[0], nb[1], nb[2]), float(D.offsets[b]))]
        for sgn in (1.0, -1.0):
            end = small_lp(rows, tuple(sgn * u), tol=tol, equalities=eqs)
            if end.status != OPTIMAL:
                raise GeometryError("apex ridge endpoint LP failed")
            labels.update(i for i in end.basis if i not in (a, b))
    else:
        raise GeometryError("unexpected apex support; dome rows degenerate")

    if len(labels) > 6:
        raise GeometryError("bounded core exceeded 6 facets")

    core_rows = [D.row(i) for i in sorted(labels)]
    for k in range(3):
        obj = [0.0, 0.0, 0.0]
        for sgn in (1.0, -1.0):
            obj[k] = sgn
            chk = small_lp(core_rows, tuple(obj), tol=tol)
            if chk.status == UNBOUNDED:
                raise GeometryError("core candidate is unbounded")
    return BoundedCore(frozenset(labels))


def _cone_coefficients(D: Dome, basis) -> list[float]:
    """Write (0,0,1) as a nonnegative combination of the basis normals."""
    N = np.array([D.normals[i] for i in basis], float)
    target = np.array([0.0, 0.0, 1.0])
    lam, *_ = np.linalg.lstsq(N.T, target, rcond=None)
    resid = N.T @ lam - target
    if np.linalg.norm(resid) > 1e-6:
        raise GeometryError("apex KKT system inconsistent")
    return [max(float(v), 0.0) for v in lam]


# ---------------------------------------------------------------------------
# the hierarchy


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
):
    """Delete an independent facet set; rebuild the lattice over each hole.

    Returns the next Level plus the kill records {new vid: deleted facet}.
    Raises NonIndependentRemovalError when two deleted facets share an
    edge (their holes would interact and the local sweep would be wrong),
    checked against `adjacency`, the level's facet adjacency, which is
    built when not given.
    """
    if adjacency is None:
        adjacency = level.adjacency(store.tris)
    removal_set = set(removal)
    for f in removal:
        if adjacency[f] & removal_set:
            raise NonIndependentRemovalError(
                f"facet {f} and a neighbour are both being removed"
            )

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

    old_arr = np.asarray(level.verts, dtype=np.int64)
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
        return sum(len(lv.verts) for lv in self.levels)

    def dump(self) -> str:
        """Structured text of every level for golden-file style tests."""
        out = []
        for l, lv in enumerate(self.levels):
            ids = sorted(lv.index_set)
            V = len(lv.verts)
            E = len(lv.edge_map())
            F = len(lv.cycles)
            out.append(f"level {l}: facets={ids} V={V} E={E} F={F}")
            if l > 0:
                rec = sorted(
                    (v, self.store.birth_killer[v])
                    for v in lv.verts
                    if self.store.birth_level[v] == l
                )
                line = " ".join(f"{v}<-{f}" for v, f in rec)
                out.append(f"  killed: {line if line else '(none)'}")
        return "\n".join(out) + "\n"


def build_hierarchy(
    D: Dome,
    core: BoundedCore,
    original: Dome | None = None,
    tol: Tol = DEFAULT_TOL,
    debug: bool = False,
) -> Hierarchy:
    """Stratify the dome down to the bounded core.

    D should be generic (perturb first); `original` carries the exact
    unperturbed rows for later re-solves and defaults to D itself.
    """
    lattice = face_lattice(D, strict=False)
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
        nxt, _kills = peel_level(cur, removal, store, rows, len(levels), ctol, adjacency=adj)
        levels.append(nxt)

    m = D.m
    max_depth = math.log(max(m, 2)) / math.log(6.0 / 5.0) + 2.0
    if len(levels) - 1 > max_depth:
        raise GeometryError("hierarchy deeper than the 6-coloring bound allows")

    top = levels[-1]
    core_vertices = sorted(top.verts)
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
        for v in lv.verts:
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
        for v in lv.verts:
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
