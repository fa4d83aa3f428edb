import importlib.util
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lp_reference import reference_lp

import parcut
import parcut.geometry as geometry
from parcut.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, small_lp

SQUARE = [((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0), ((-1.0, 0.0), 0.0), ((0.0, -1.0), 0.0)]


def test_max_xy_over_unit_square():
    res = small_lp(SQUARE, (1.0, 1.0))
    assert res.status == OPTIMAL
    assert res.point == pytest.approx((1.0, 1.0), abs=1e-9)
    assert res.value == pytest.approx(2.0, abs=1e-9)


def test_square_incenter_via_lifted_lp():
    # maximize t s.t. A x <= b - t, t >= 0: the Chebyshev problem.
    rows = [((a[0], a[1], 1.0), b) for a, b in SQUARE] + [((0.0, 0.0, -1.0), 0.0)]
    res = small_lp(rows, (0.0, 0.0, 1.0))
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(0.5, abs=1e-9)
    assert res.point[:2] == pytest.approx((0.5, 0.5), abs=1e-9)


def test_infeasible_slab():
    rows = [((1.0,), 0.0), ((-1.0,), -1.0)]
    assert small_lp(rows, (1.0,)).status == INFEASIBLE
    rows2 = [((1.0, 0.0), 0.0), ((-1.0, 0.0), -1.0)]
    assert small_lp(rows2, (1.0, 0.0)).status == INFEASIBLE


def test_unbounded():
    rows = [((-1.0, 0.0), 0.0), ((0.0, -1.0), 0.0)]
    assert small_lp(rows, (1.0, 1.0)).status == UNBOUNDED


def test_minimize():
    res = small_lp(SQUARE, (1.0, 0.0), maximize=False)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(0.0, abs=1e-9)


def test_equality_reduction():
    # the section LPs that the hierarchy's queries are checked against
    # hold their plane as an equality, which only the reference eliminates:
    # max x + y on unit square restricted to x = 0.25
    res = reference_lp(SQUARE, (1.0, 1.0), equalities=[((1.0, 0.0), 0.25)])
    assert res.status == OPTIMAL
    assert res.point == pytest.approx((0.25, 1.0), abs=1e-9)


def test_equality_after_every_variable_is_fixed():
    # x = 0.25 and y = 0.5 fix the point; a third equality is then trivial
    fixed = [((1.0, 0.0), 0.25), ((0.0, 1.0), 0.5)]
    res = reference_lp(SQUARE, (1.0, 1.0), equalities=fixed + [((1.0, 1.0), 0.75)])
    assert res.status == OPTIMAL
    assert res.point == (0.25, 0.5)
    res = reference_lp(SQUARE, (1.0, 1.0), equalities=fixed + [((1.0, 1.0), 0.8)])
    assert res.status == INFEASIBLE


def test_determinism():
    a = small_lp(SQUARE, (0.3, 0.7))
    b = small_lp(SQUARE, (0.3, 0.7))
    assert a == b


def _shuffled(rows, seed):
    """rows in a random order drawn from seed: small_lp always shuffles
    with seed 0, so its tests vary the order of its rows instead."""
    return [rows[i] for i in np.random.default_rng(seed).permutation(len(rows))]


def _brute_force_max_2d(rows, c, tol=1e-9):
    """Enumerate all constraint-pair vertices; independent oracle."""
    best = None
    for (a1, b1), (a2, b2) in itertools.combinations(rows, 2):
        det = a1[0] * a2[1] - a1[1] * a2[0]
        if abs(det) < 1e-12:
            continue
        x = (b1 * a2[1] - b2 * a1[1]) / det
        y = (a1[0] * b2 - a2[0] * b1) / det
        if all(a[0] * x + a[1] * y <= b + tol * (1 + abs(b)) for a, b in rows):
            v = c[0] * x + c[1] * y
            if best is None or v > best:
                best = v
    return best


def _brute_force_max_3d(rows, c, tol=1e-9):
    best = None
    for trio in itertools.combinations(rows, 3):
        A = np.array([t[0] for t in trio])
        b = np.array([t[1] for t in trio])
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        x = np.linalg.solve(A, b)
        if all(np.dot(a, x) <= bb + tol * (1 + abs(bb)) for a, bb in rows):
            v = float(np.dot(c, x))
            if best is None or v > best:
                best = v
    return best


def _random_bounded_2d(rng, m):
    """Random polygon constraints guaranteed bounded: normals spread around."""
    angles = np.sort(rng.uniform(0, 2 * math.pi, size=m))
    # force coverage so no half-circle gap
    angles = np.concatenate([angles, [0.1, 2.2, 4.3]])
    rows = []
    for t in angles:
        n = (math.cos(t), math.sin(t))
        rows.append((n, rng.uniform(0.5, 2.0)))
    return rows


def test_against_vertex_enumeration_2d():
    rng = np.random.default_rng(42)
    for trial in range(250):
        rows = _random_bounded_2d(rng, rng.integers(3, 10))
        c = tuple(rng.normal(size=2))
        res = small_lp(_shuffled(rows, trial), c)
        ref = _brute_force_max_2d(rows, c)
        assert res.status == OPTIMAL
        assert ref is not None
        assert res.value == pytest.approx(ref, rel=1e-9, abs=1e-9)


# six decimals: no subnormal or tiny coordinate trips the oracle's determinants
_UNIT = st.integers(-10**6, 10**6).map(lambda k: k / 10**6)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    normals=st.lists(st.tuples(_UNIT, _UNIT, _UNIT).filter(lambda v: np.linalg.norm(v) > 1e-3),
                     min_size=4, max_size=11),
    offsets=st.lists(st.floats(0.5, 2.0), min_size=11, max_size=11),
    c=st.tuples(_UNIT, _UNIT, _UNIT),
    seed=st.integers(0, 2**16),
)
def test_against_vertex_enumeration_3d(normals, offsets, c, seed):
    rows = [(tuple(np.divide(v, np.linalg.norm(v))), off) for v, off in zip(normals, offsets)]
    # cube walls guarantee boundedness
    for k in range(3):
        for s in (1.0, -1.0):
            n = [0.0, 0.0, 0.0]
            n[k] = s
            rows.append((tuple(n), 3.0))
    res = small_lp(_shuffled(rows, seed), c)
    ref = _brute_force_max_3d(rows, c)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_basis_is_active():
    rng = np.random.default_rng(3)
    for trial in range(50):
        rows = _shuffled(_random_bounded_2d(rng, 8), trial)
        c = tuple(rng.normal(size=2))
        res = small_lp(rows, c)
        assert res.status == OPTIMAL
        assert 1 <= len(res.basis) <= 2
        for idx in res.basis:
            a, b = rows[idx]
            assert a[0] * res.point[0] + a[1] * res.point[1] == pytest.approx(b, abs=1e-7)


# ---------------------------------------------------------------------------
# the per-dimension kernels against the generic recursion (tests/lp_reference.py)


def _same(rows, c, **kwargs):
    got, ref = small_lp(rows, c, **kwargs), reference_lp(rows, c, **kwargs)
    assert repr(got) == repr(ref), (rows, c, kwargs)  # repr: -0.0 and nan too
    return got


def _random_rows(rng, d, m):
    """m random rows in d variables: unit-ish normals, some all-zero rows
    and near-parallel copies, offsets of mixed sign."""
    rows = []
    for _ in range(m):
        kind = rng.integers(10)
        if kind == 0:
            a = np.zeros(d)
        elif kind == 1 and rows:
            a = np.asarray(rows[rng.integers(len(rows))][0]) * (1 + 1e-12 * rng.normal(size=d))
        else:
            a = rng.normal(size=d)
        rows.append((tuple(a.tolist()), float(rng.uniform(-0.5, 2.0))))
    return rows


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernel_matches_reference(d):
    rng = np.random.default_rng(100 + d)
    statuses = set()
    for trial in range(300):
        rows = _random_rows(rng, d, int(rng.integers(0, 30)))
        c = tuple(rng.normal(size=d).tolist())
        res = _same(_shuffled(rows, trial), c, maximize=bool(trial % 2))
        statuses.add(res.status)
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def test_kernel_matches_reference_on_box_resolves():
    # optima on the artificial box: the box * 101 re-solve tells a direction
    # the objective ignores (optimal) from a real escape (unbounded)
    half_planes = [((1.0, 0.0, 0.0), 1.0), ((-1.0, 0.0, 0.0), 1.0), ((0.0, 1.0, 0.0), 1.0)]
    for c, status in (((0.0, 0.0, 1.0), UNBOUNDED), ((1.0, 0.0, 0.0), OPTIMAL),
                      ((0.0, -1.0, 0.0), UNBOUNDED), ((1.0, 1.0, 0.0), OPTIMAL)):
        assert _same(half_planes, c).status == status
    for d in (1, 2, 3):
        rows = [(tuple(-1.0 * (k == j) for k in range(d)), 0.0) for j in range(d)]
        assert _same(rows, (1.0,) * d).status == UNBOUNDED
        assert _same(rows, (1.0,) * d, maximize=False).status == OPTIMAL


def test_kernel_matches_reference_on_degenerate_rows():
    zero = ((0.0, 0.0, 0.0), 0.0)
    cube = [(tuple(s * (k == j) for k in range(3)), 1.0) for j in range(3) for s in (1.0, -1.0)]
    assert _same(cube + [zero], (1.0, 2.0, 3.0)).status == OPTIMAL
    assert _same(cube + [((0.0, 0.0, 0.0), -1.0)], (1.0, 2.0, 3.0)).status == INFEASIBLE
    # near-parallel and exactly parallel planes through one edge of the cube
    tilted = [((1.0, 1e-13 * k, 0.0), 1.0 + 1e-15 * k) for k in range(8)]
    for seed in range(20):
        assert _same(_shuffled(cube + tilted, seed), (1.0, 0.5, -0.25)).status == OPTIMAL
    assert _same([((0.0,), -1.0)], (1.0,)).status == INFEASIBLE
    assert _same([((1e-301, 0.0), 1.0), ((0.0, 1e-301), 1.0)], (1.0, 1.0)).status == UNBOUNDED


def test_kernel_matches_reference_on_the_solver_lps(monkeypatch):
    # every LP that solve and a from-scratch verify make on the
    # many_pieces inputs of seed 1 (bench/workloads.py, loaded by path)
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_workloads", workloads)  # for its dataclass
    spec.loader.exec_module(workloads)
    calls = []

    def capture(*args, **kwargs):
        calls.append((args, kwargs))
        return small_lp(*args, **kwargs)

    monkeypatch.setattr(geometry, "small_lp", capture)
    for case in workloads.build("many_pieces", 1):
        s = parcut.solve(case.vertices, case.n)
        P = parcut.canonicalize(case.vertices)
        assert parcut.verify_solution(P, case.n, s.rho, s.direction, s.cuts).ok
    assert len(calls) > 9 * 4
    for args, kwargs in calls:
        assert repr(small_lp(*args, **kwargs)) == repr(reference_lp(*args, **kwargs))
