"""Benchmark inputs, drawn from the workload seed with numpy alone.

Every input is a convex polygon given as a CCW vertex array, the way
`parcut.solve` and `parcut solve` receive it, plus a piece count n.  The
sizes, models and piece counts of a workload are fixed; the seed draws
only the shapes (of many_pieces and small_batch), so every seed runs the
same operations at the same sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MODELS = ("circle", "ellipse", "smoothed")


@dataclass
class Case:
    label: str
    vertices: np.ndarray
    n: int
    regular_m: int | None = None  # the regular m-gon with circumradius 1
    P: object = None  # parcut's canonical polygon, for verify; set by run.py


def regular(m: int) -> np.ndarray:
    a = 2.0 * math.pi * np.arange(m) / m
    return np.stack([np.cos(a), np.sin(a)], axis=1)


def draw(m: int, model: str, rng: np.random.Generator, stratified: bool) -> np.ndarray:
    """m points, in angle order, on a random convex curve of the model.

    The curves are those of `parcut.oracle.random_polygon`: the unit circle,
    an ellipse with semi-axes (1 + U(0.2, 2), 1), and the convex curve
    r = 1 + 0.08 sin(3 a + U(0, 2 pi)).  Uniform angles, as there, leave
    some corners too flat to survive at 2^14 vertices and more, so large
    polygons take one angle per slot of 2 pi / m instead, at U(0.1, 0.9)
    within the slot.
    """
    if stratified:
        a = 2.0 * math.pi * (np.arange(m) + rng.uniform(0.1, 0.9, m)) / m
    else:
        a = np.sort(rng.uniform(0.0, 2.0 * math.pi, m))
    r = np.ones(m)
    ax = 1.0
    if model == "ellipse":
        ax = 1.0 + rng.uniform(0.2, 2.0)
    elif model == "smoothed":
        r = 1.0 + 0.08 * np.sin(3.0 * a + rng.uniform(0.0, 2.0 * math.pi))
    return np.stack([ax * r * np.cos(a), r * np.sin(a)], axis=1)


def large_polygon(rng):
    # 2^14..2^16 edges at n = 2: canonicalize, the dome sweep and lifetimes
    # for solve, and inner_body for verify.  The random polygons come from a
    # fixed draw, not from the seed: verify spends most of its time on them
    # in one randomized LP over all m rows, whose cost varies up to 3x from
    # draw to draw, which spread verify_ms too far from run to run
    fixed = np.random.default_rng(0)
    cases = [Case("regular-65536", regular(65536), 2, regular_m=65536)]
    for model in MODELS:
        cases.append(Case(f"{model}-16384", draw(16384, model, fixed, True), 2))
    return cases


def many_pieces(rng):
    # 10^3 edges cut into 64 to 96 pieces: the per-piece inradius LPs and
    # the clip chain dominate.  Nine shapes a pass, so that no one draw sets
    # verify_ms: its cost moves by about 12% from draw to draw
    return [
        Case(f"{MODELS[k % 3]}-1000-n{n}", draw(1000, MODELS[k % 3], rng, True), n)
        for k, n in enumerate((64,) * 3 + (80,) * 3 + (96,) * 3)
    ]


def small_batch(rng):
    # criterion 2's mix: m from 8 to 256, three models, n from 1 to 8;
    # diagnostics are on, so the hierarchy and the per-edge queries run
    m_list = (8, 16, 32, 64, 128, 256)
    cases = []
    for k in range(40):
        m, model, n = m_list[k % 6], MODELS[k % 3], 1 + k % 8
        cases.append(Case(f"{model}-{m}-n{n}", draw(m, model, rng, False), n))
    return cases


# pace units (bench/pace.py) timed before each solve and each verify: about
# a tenth to a third of the call's own time
PACE_UNITS = {"large_polygon": 30, "many_pieces": 30, "small_batch": 1}

WORKLOADS = {"large_polygon": large_polygon, "many_pieces": many_pieces, "small_batch": small_batch}


def build(workload: str, seed: int) -> list[Case]:
    index = list(WORKLOADS).index(workload)
    return WORKLOADS[workload](np.random.default_rng([index, seed]))
