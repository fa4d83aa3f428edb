"""Facet-peeling hierarchy over the dome (Dobkin-Kirkpatrick style).

The hierarchy is built on `build_dome(P)` itself, degenerate or not.
Where four or more facet planes pass through one point (the apex of a
square or of any other regular polygon of more than three edges), the
collapse sweep pops their deaths one after another at the same height,
so the point becomes a chain of vertices joined by zero-length edges,
each vertex on exactly three facets: the tie is broken by the order of
the events, in the spirit of Edelsbrunner and Muecke's Simulation of
Simplicity, and the lattice stays simple.  `solve` never builds it.

Level 0 is the dome's face lattice (`face_lattice`, which returns the
vertex store and level 0).  Every sweep of the build is one
`parcut.dome.collapse_sweep`.  Run once over the whole dome, as
`parcut.dome.facet_lifetimes`, its events are level 0's vertices with
their three planes, stored as they come, and each facet's vertex cycle
is the path of deaths across its face (`_sweep_paths`).  Run in a
deleted facet's plane, the same sweep caps the hole that facet leaves;
a sweep that stalls raises GeometryError, so a build either returns a
consistent hierarchy or fails.

`build_hierarchy(D)` reads both level 0 and the bounded core off that
one sweep (`bounded_core`: the floor and 3 or 4 lifted facets that bound
a polytope alone and are never deleted, found with no LP).  Each round
deletes the facets that `removal_set` picks: a maximal independent set,
taken greedily fewest vertices first, of the facets with at most
`MAX_PEEL_VERTICES` = 11 vertices outside the core.  This is
Kirkpatrick's low-degree rule, read on facets.  Deleting an independent
set keeps every hole local: `peel_level` caps each hole with the same
collapse sweep, run in the deleted facet's plane over its own cycle, and
each vertex born this way records the deleted facet as its killer.
More than half of a level's F facets have at most 11 vertices and each
deleted one rules out at most 12 of them, so a round deletes at least
(F/2 - 6)/12 facets: the depth is O(log m) and total storage stays
linear.  Every facet a query reinstates has at most 11 vertices, so
each query step is one short scan (`parcut.queries`).

Each fact is stored once.  The `VertexStore`, shared by all levels,
holds every vertex's point, its three facets, and the level and facet
of its birth, in lists that only grow.  A `Level` holds only its facet
cycles and the vertices on them; its facet set is read off the cycles.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .dome import Dome, Lifetimes, _coincidence_tol, collapse_sweep, facet_lifetimes
from .errors import (
    DegenerateVertexError,
    GeometryError,
    NonIndependentRemovalError,
)
from .geometry import _corners, _meet, _turns


def perturb(D: Dome, seed: int = 0) -> Dome:
    """Shrink each lifted offset by a random hair to break plane ties.

    Nothing in this package calls it: the hierarchy and the sweeps run on
    the dome as it is.  It stays for callers that want a generic dome.
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
    # crossing of rows j-1 and j+1
    Z, det = _meet(a1, np.roll(off, 1), np.roll(N, -1, axis=0), np.roll(off, -1))
    crossing = np.abs(det) >= 1e-12  # parallel neighbours never squeeze a row out
    margin = np.abs(N[:, 0] * Z[:, 0] + N[:, 1] * Z[:, 1] - off)[crossing]
    min_slack = float(margin.min()) if len(margin) else math.inf
    delta = min(1e-7 * D.scale, 0.25 * min_slack)
    offsets = D.offsets.copy()
    offsets[:m] -= delta * rng.random(m)

    # corner j = crossing of rows j-1 and j under the new offsets
    corners = _corners(a1, np.roll(offsets[:m], 1))[0]
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


def _sorted_triple(a, b, c):
    if a > b:
        a, b = b, a
    if b > c:
        b, c = c, b
        if a > b:
            a, b = b, a
    return (a, b, c)


class VertexStore:
    """Append-only store of lattice vertices shared by all hierarchy levels."""

    __slots__ = ("pts", "tris", "birth_level", "birth_killer", "by_triple")

    def __init__(self):
        self.pts: list[tuple[float, float, float]] = []
        self.tris: list[tuple[int, int, int]] = []
        self.birth_level: list[int] = []
        self.birth_killer: list[int] = []
        self.by_triple: dict[tuple[int, int, int], int] = {}

    def alloc(self, point, triple, level: int, killer: int) -> int:
        vid = len(self.pts)
        tri = _sorted_triple(*triple)
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

    cycles: dict[int, list[int]]
    verts: list[int]  # ids of the vertices on some cycle

    @property
    def index_set(self) -> frozenset[int]:
        """Labels of the facets present at this level."""
        return frozenset(self.cycles)

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


def _sweep_paths(events, store: VertexStore, level: int, killer: int) -> dict[int, list[int]]:
    """Store every event of a collapse sweep as a vertex born at `level`
    with `killer`, and return each plane's path of new vertices.

    A plane's path runs across its face from the start corner of its
    bottom edge to the end corner: the deaths of its predecessors, in
    sweep order, then its own death, then the deaths of its successors,
    in reverse sweep order.
    """
    near_start: dict[int, list[int]] = {}  # deaths of the plane's predecessors
    near_end: dict[int, list[int]] = {}  # deaths of its successors
    top: dict[int, int] = {}
    for pt, tri in events[:-1]:
        lp, le, lq = tri
        vid = store.alloc(pt, tri, level, killer)
        near_end.setdefault(lp, []).append(vid)
        top[le] = vid
        near_start.setdefault(lq, []).append(vid)
    fpt, ftri = events[-1]
    fvid = store.alloc(fpt, ftri, level, killer)
    for lab in ftri:
        if lab in top:
            raise GeometryError(f"facet {lab} died twice in the sweep")
        top[lab] = fvid
    return {g: near_start.get(g, []) + [v] + near_end.get(g, [])[::-1] for g, v in top.items()}


def face_lattice(D: Dome, life: Lifetimes) -> tuple[VertexStore, Level]:
    """Full face lattice of the dome in O(m log m): the vertex store and
    level 0, from the events of its sweep `life = facet_lifetimes(D)`.

    Each event is a vertex with its three planes.  Four facet planes
    through one point come out as vertices joined by zero-length edges,
    so every vertex lies on exactly three facets.
    """
    m = D.m
    store = VertexStore()
    corner_vid = [
        store.alloc((x, y, 0.0), ((j - 1) % m, j, D.floor), 0, -1)
        for j, (x, y) in enumerate(D.corners.tolist())
    ]
    paths = _sweep_paths(life.sweep, store, 0, -1)
    # going CCW, a lifted facet runs along its floor edge and returns over
    # its path of deaths
    cycles: dict[int, list[int]] = {D.floor: corner_vid}
    for i in range(m):
        cycles[i] = [corner_vid[i], corner_vid[(i + 1) % m]] + paths[i][::-1]
    return store, Level(cycles, list(range(len(store))))


def _bounds(A: np.ndarray) -> bool:
    """Whether lifted rows of normals A, in CCW order, bound a polytope with
    the floor: each normal turns left from the last, beyond `_turns`' rounding."""
    B = np.roll(A, -1, axis=0)
    cross, cut = _turns(0.0, 0.0, A[:, 0], A[:, 1], B[:, 0], B[:, 1])
    return bool(np.all(cross > cut))


def _spread(th: np.ndarray, k: int) -> np.ndarray:
    """Positions of k of the ascending angles th whose widest cyclic gap is
    least, by bisection on that gap g: from each start, k - 1 jumps to the
    farthest angle within g must leave a closing gap of at most g."""
    s = len(th)
    th2 = np.concatenate([th, th + 2 * math.pi])
    first = np.arange(s)

    def jumps(g):
        pick = [first]
        for left in range(k - 1, 0, -1):  # leave room for the picks to come
            far = np.searchsorted(th2, th2[pick[-1]] + g, "right") - 1
            pick.append(np.minimum(far, first + s - left))
        return np.array(pick), th2[first + s] - th2[pick[-1]] <= g

    lo, hi = 0.0, 2 * math.pi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if jumps(mid)[1].any():
            hi = mid
        else:
            lo = mid
    pick, ok = jumps(hi)
    return np.sort(pick[:, np.argmax(ok)] % s)


def bounded_core(D: Dome, life: Lifetimes) -> frozenset[int]:
    """The floor and 3 lifted facets, or 4 where no 3 do, that bound a
    polytope on their own, read off the sweep: at most five facets.

    S holds the rows alive at the latest point of the death order where they
    bound (`_bounds`): the last three, and the latest deaths before them
    as far back as it takes; adding rows only narrows the widest gap
    between normals, so a binary search finds S.  Of S the core keeps the
    3 or 4 rows with the smallest widest gap (`_spread`): picked by their
    turn alone, the regular 64-gon's come out nearly antiparallel and its
    build meets a singular plane triple.
    """
    m = D.m
    N = D.normals[:m, :2]
    rank = np.full(m, m)  # when each row dies; the three at the apex never do
    rank[[tri[1] for _pt, tri in life.sweep[:-1]]] = np.arange(m - 3)
    back = bisect.bisect_left(range(m - 2), True, key=lambda j: _bounds(N[rank >= m - 3 - j]))
    S = np.nonzero(rank >= m - 3 - back)[0]
    th = (np.arctan2(N[S, 1], N[S, 0]) - math.atan2(N[S[0], 1], N[S[0], 0])) % (2 * math.pi)
    for k in (3, 4):
        rows = S[_spread(th, k)] if len(S) >= k else S
        if _bounds(N[rows]):
            return frozenset(rows.tolist()) | {D.floor}
    raise GeometryError("no 3 or 4 lifted facets bound the dome; invalid input")


# ---------------------------------------------------------------------------
# the hierarchy


# The most vertices a deleted facet may have.  Every vertex of a level
# lies on exactly three facets, so with F facets the cycle lengths sum to
# 2E = 6F - 12 (Euler) and fewer than half of the facets have 12 or more
# vertices; a taken facet of at most 11 vertices borders at most 11 others,
# so it blocks at most 12 of the qualifying facets.  This is Kirkpatrick's
# low-degree rule (1983), read on the facets of the dome.
MAX_PEEL_VERTICES = 11


def removal_set(
    level: Level, adjacency: dict[int, set[int]], core: frozenset[int]
) -> list[int]:
    """Greedy maximal independent set of the facets outside the core with
    at most `MAX_PEEL_VERTICES` vertices, taken in (cycle length, index)
    order; returned sorted.

    Fewest vertices first: on `random_polygon(1024, seed=1,
    model="ellipse")` the levels then hold 5.45 m vertices in all, against
    5.99 m when taken in index order.  The order is deterministic, and so
    is `Hierarchy.dump`.
    """
    cycles = level.cycles
    cand = sorted(
        (len(cyc), f)
        for f, cyc in cycles.items()
        if f not in core and len(cyc) <= MAX_PEEL_VERTICES
    )
    blocked: set[int] = set()
    out = []
    for _k, f in cand:
        if f not in blocked:
            out.append(f)
            blocked.add(f)
            blocked |= adjacency[f]
    out.sort()
    return out


def peel_level(
    level: Level,
    removal: list[int],
    store: VertexStore,
    rows,
    new_level_index: int,
    ctol: float,
    adjacency: dict[int, set[int]],
) -> Level:
    """Delete an independent facet set; rebuild the lattice over each hole.

    Returns the next Level; each new vertex goes into `store` born at
    `new_level_index` with the deleted facet over it as its killer.
    Raises NonIndependentRemovalError when two deleted facets share an
    edge (their holes would interact and the local sweep would be wrong),
    checked against `adjacency`, the level's facet adjacency, and
    GeometryError when a cap sweep stalls (`collapse_sweep`).

    Each hole is capped by one collapse sweep in the deleted facet's
    plane, whose bottom cycle is the facet's own: the plane of edge j is
    the one facet other than f on both of the edge's end vertices.
    """
    removed = set(removal)
    for f in removal:
        if adjacency[f] & removed:
            raise NonIndependentRemovalError(
                f"facet {f} and a neighbour are both being removed"
            )

    tris = store.tris
    pts = store.pts
    first_new = len(store)
    dead: set[int] = set()
    cycles = dict(level.cycles)
    # per neighbour: dying corner -> (partner corner, directed cap path)
    patches: dict[int, dict[int, tuple[int, list[int]]]] = {}
    for f in removal:
        cyc = cycles.pop(f)
        dead.update(cyc)
        labels = []
        for u, v in zip(cyc, cyc[1:] + cyc[:1]):
            shared = [g for g in tris[u] if g != f and g in tris[v]]
            if len(shared) != 1:
                raise GeometryError("a removed facet edge has no unique neighbour")
            labels.append(shared[0])
        nf, _of = rows[f]
        events = collapse_sweep(labels, pts[cyc[0]], rows, nf, ctol)
        paths = _sweep_paths(events, store, new_level_index, f)
        k = len(cyc)
        for j, g in enumerate(labels):
            va = cyc[j]
            vb = cyc[(j + 1) % k]
            entry = patches.setdefault(g, {})
            entry[va] = (vb, paths[g])
            entry[vb] = (va, paths[g][::-1])

    # one linear pass per affected neighbour applies all of its patches
    for g, entry in patches.items():
        cycles[g] = _apply_patches(cycles[g], entry, g)

    verts = [v for v in level.verts if v not in dead]
    verts.extend(range(first_new, len(store)))
    return Level(cycles, verts)


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
    """Nested facet-deletion levels over a dome; queries run on its rows."""

    dome: Dome
    store: VertexStore
    levels: list[Level]
    core: frozenset[int]
    rows: list[tuple]

    @property
    def m(self) -> int:
        return self.dome.m

    @property
    def scale(self) -> float:
        return self.dome.scale

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


def build_hierarchy(D: Dome) -> Hierarchy:
    """Stratify the dome down to its `bounded_core`, one `removal_set` per
    round, each deleted by `peel_level`.  The dome is swept once: the
    events of its `facet_lifetimes` are level 0's vertices, and their
    death order gives the core.

    The proven rate, (F/2 - 6)/12 of a level's F facets per round, bounds
    the depth by about log(m)/log(24/23).  The build checks the depth
    against log(m)/log(6/5) + 2 instead, the bound criterion 6c tests;
    measured depths sit well below it: 15 for the regular 3000- and
    4096-gons and 20 for the regular 65536-gon (bound 62.8).
    """
    life = facet_lifetimes(D)
    store, level = face_lattice(D, life)
    levels = [level]
    rows = D.row_list()
    core = bounded_core(D, life)
    ctol = _coincidence_tol(D.scale)

    while levels[-1].index_set != core:
        cur = levels[-1]
        adj = cur.adjacency(store.tris)
        removal = removal_set(cur, adj, core)
        if not removal:
            raise GeometryError("no removable facets left but core not reached")
        levels.append(peel_level(cur, removal, store, rows, len(levels), ctol, adj))

    m = D.m
    max_depth = math.log(max(m, 2)) / math.log(6.0 / 5.0) + 2.0
    if len(levels) - 1 > max_depth:
        raise GeometryError("hierarchy deeper than log(m)/log(6/5) + 2")
    return Hierarchy(dome=D, store=store, levels=levels, core=core, rows=rows)
