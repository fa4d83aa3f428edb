"""Tests of the benchmark itself: its checks reject tampered claims, it
imports parcut only from this checkout, and its inputs follow the seed.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
import parcut  # noqa: E402


def claim(vertices, n):
    sol = parcut.solve(vertices, n)
    return sol.rho, sol.direction, [(c.normal, c.offset) for c in sol.cuts]


def rejects(P, n, rho, direction, cuts, regular_m=None):
    with pytest.raises(reference.CheckFailed):
        reference.check_solution(P, n, rho, direction, cuts, regular_m)


def rotated_rectangle(w, h, angle):
    c, s = math.cos(angle), math.sin(angle)
    pts = np.array([(0, 0), (w, 0), (w, h), (0, h)], float)
    return pts @ np.array([[c, s], [-s, c]])


@pytest.fixture(scope="module")
def cases():
    """An asymmetric random polygon, the regular 1024-gon and the
    workloads' small batch at n = 1..8, each with parcut's answer."""
    rng = np.random.default_rng(7)
    out = [(workloads.draw(300, "smoothed", rng, False), 5, None),
           (workloads.regular(1024), 3, 1024)]
    out += [(c.vertices, c.n, None) for c in workloads.small_batch(rng)[:8]]
    return [(reference.Polygon(V), n, m, claim(V, n)) for V, n, m in out]


def test_unit_square_closed_form():
    P = reference.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    cuts = [((1.0, 0.0), x) for x in (0.25, 0.5, 0.75)]
    radii = reference.check_solution(P, 4, 0.125, (1.0, 0.0), cuts)
    assert np.allclose(radii, 0.125, rtol=1e-12, atol=0)


def test_accepts_parcut_answers(cases):
    for P, n, m, (rho, d, cuts) in cases:
        radii = reference.check_solution(P, n, rho, d, cuts, m)
        assert len(radii) == n


def test_rejects_scaled_rho(cases):
    for P, n, m, (rho, d, cuts) in cases:
        for scale in (1 + 1e-6, 1 - 1e-6):
            with pytest.raises(reference.CheckFailed):
                reference.check_rho(P, n, rho * scale, m)
            rejects(P, n, rho * scale, d, cuts, m)


def test_rejects_moved_cut(cases):
    for P, n, m, (rho, d, cuts) in cases:
        step = 1e-6 * P.diameter
        for k in range(n - 1):
            moved = list(cuts)
            moved[k] = (moved[k][0], moved[k][1] + step)
            if n > 2:  # a gap is off by step
                with pytest.raises(reference.CheckFailed):
                    reference.check_cuts(P, n, rho, d, moved)
            else:  # one cut: a piece grows past rho
                off = reference.check_cuts(P, n, rho, d, moved)
                with pytest.raises(reference.CheckFailed):
                    reference.check_pieces(P, rho, d, off)
            rejects(P, n, rho, d, moved, m)
        if n > 1:  # every cut moved together keeps the gaps; an end piece grows
            shifted = [(c, off - step) for c, off in cuts]
            off = reference.check_cuts(P, n, rho, d, shifted)
            with pytest.raises(reference.CheckFailed):
                reference.check_pieces(P, rho, d, off)
            rejects(P, n, rho, d, shifted, m)


def test_rejects_wrong_cut_count(cases):
    P, n, m, (rho, d, cuts) = cases[0]
    with pytest.raises(reference.CheckFailed):
        reference.check_cuts(P, n, rho, d, cuts[:-1])
    rejects(P, n, rho, d, cuts[:-1], m)


def test_rejects_non_minimal_direction():
    V = rotated_rectangle(3.0, 1.0, 0.3)
    P = reference.Polygon(V)
    rho, d, cuts = claim(V, 2)
    long_axis = (math.cos(0.3), math.sin(0.3))  # normal of the short edges
    assert abs(long_axis[0] * d[1] - long_axis[1] * d[0]) > 0.5
    with pytest.raises(reference.CheckFailed):
        reference.check_direction(P, 2, rho, long_axis)
    rejects(P, 2, rho, long_axis, [(long_axis, o) for _, o in cuts])


def test_rejects_non_minimal_direction_on_random_polygon(cases):
    P, n, m, (rho, d, cuts) = cases[0]
    w = reference.widths(reference.inner_vertices(P, rho), P.A)
    worst = P.A[int(np.argmax(w))]
    with pytest.raises(reference.CheckFailed):
        reference.check_direction(P, n, rho, tuple(worst))


def test_widths_against_brute_force():
    V = workloads.draw(200, "ellipse", np.random.default_rng(3), False)
    a = np.linspace(0, 2 * math.pi, 97)
    dirs = np.stack([np.cos(a), np.sin(a)], axis=1)
    proj = V @ dirs.T
    assert np.allclose(reference.widths(V, dirs), proj.max(0) - proj.min(0), rtol=0, atol=1e-14)


def test_piece_inradii_against_one_lp_per_piece(cases):
    P, n, m, (rho, d, cuts) = cases[0]
    off = np.array([o for _, o in cuts])
    got = reference.piece_inradii(P, d, off)
    dv = np.asarray(d)
    for k in range(n):
        A, b = [P.A], [P.b]
        if k > 0:
            A.append(-dv[None]), b.append([-off[k - 1]])
        if k < n - 1:
            A.append(dv[None]), b.append([off[k]])
        r, _ = reference._inradius(np.vstack(A), np.concatenate(b))
        assert abs(got[k] - r) <= 1e-11


def test_seed_draws_the_inputs():
    a = workloads.build("small_batch", 1)
    b = workloads.build("small_batch", 1)
    c = workloads.build("small_batch", 2)
    assert all(np.array_equal(x.vertices, y.vertices) for x, y in zip(a, b))
    assert not any(np.array_equal(x.vertices, y.vertices) for x, y in zip(a, c))
    assert [(x.label, x.n) for x in a] == [(y.label, y.n) for y in c]


def test_seed_is_required():
    r = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "small_batch",
                        "--seconds", "1"], cwd=ROOT, capture_output=True, text=True)
    assert r.returncode != 0 and "--seed" in r.stderr


def test_refuses_another_parcut(tmp_path):
    fake = tmp_path / "parcut"
    fake.mkdir()
    (fake / "__init__.py").write_text("")
    code = (
        f"import sys, runpy; sys.path[:0] = [{str(tmp_path)!r}, {str(HERE)!r}]; import parcut; "
        f"sys.argv = ['run.py', '--workload', 'small_batch', '--seed', '1', '--seconds', '1']; "
        f"runpy.run_path({str(HERE / 'run.py')!r}, run_name='__main__')"
    )
    r = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True)
    assert r.returncode != 0 and "not from" in r.stderr and '"correct"' not in r.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("traces", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    r = subprocess.run(cmd + ["--workload", "small_batch", "--seed", "1", "--seconds", "1",
                              "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert r.returncode != 0 and '"correct"' not in r.stdout
