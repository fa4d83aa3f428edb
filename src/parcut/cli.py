"""Command-line front end: solve, oracle and verify subcommands.

Input documents carry either a vertex list or a half-plane list plus the
piece count; solve emits a schema-stable JSON result (numbers with 17
significant digits) and optionally an SVG drawing of the cuts.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import GeometryError, VerificationFailedError
from .geometry import _expand_ranges, canonicalize, clip_halfplane, inner_body, inradius_incenter
from .oracle import oracle_solve
from .solver import Cut, Solution, solve, verify_solution


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _to_json(obj, indent: int = 0) -> str:
    """Tiny serializer so floats always carry 17 significant digits."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = ",\n".join(
            f'{pad}  "{k}": {_to_json(v, indent + 2).lstrip()}' for k, v in obj.items()
        )
        return f"{pad}{{\n{items}\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat:
            return pad + "[" + ", ".join(_to_json(v).lstrip() for v in obj) + "]"
        items = ",\n".join(_to_json(v, indent + 2) for v in obj)
        return f"{pad}[\n{items}\n{pad}]"
    if isinstance(obj, bool):
        return pad + ("true" if obj else "false")
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return pad + _fmt_float(obj)
    if obj is None:
        return pad + "null"
    return pad + json.dumps(obj)


def load_polygon(doc: dict):
    """Parse an input document into (polygon, n)."""
    if not isinstance(doc, dict):
        raise ValueError("input document must be a JSON object")
    keys = [k for k in ("vertices", "halfplanes") if k in doc]
    if len(keys) != 1:
        raise ValueError("provide exactly one of 'vertices' or 'halfplanes'")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("'n' must be an integer >= 1")
    if keys[0] == "vertices":
        verts = np.asarray(doc["vertices"], dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
            raise ValueError("'vertices' must be a list of [x, y] pairs")
        P = canonicalize(verts)
    else:
        rows = doc["halfplanes"]
        if not isinstance(rows, list) or not rows:
            raise ValueError("'halfplanes' must be a non-empty list")
        A = np.asarray([r["normal"] for r in rows], dtype=float)
        b = np.asarray([r["offset"] for r in rows], dtype=float)
        P = canonicalize((A, b))
    return P, n


def solution_document(sol: Solution) -> dict:
    ver = sol.verification
    return {
        "rho": sol.rho,
        "direction": list(sol.direction),
        "winner_facet": sol.winner,
        "n": sol.n,
        "cuts": [{"normal": list(c.normal), "offset": c.offset} for c in sol.cuts],
        "verification": {
            "width_check": ver.width_residual,
            "piece_inradii": ver.piece_inradii,
            "max_piece_inradius": ver.max_piece_inradius,
        },
        "stats": {
            "m": sol.stats["m"],
            "lp_queries": sol.stats["lp_queries"],
            "vertex_inspections": sol.stats["vertex_inspections"],
        },
    }


def _chords(verts: np.ndarray, v: np.ndarray, tang: np.ndarray, offsets: np.ndarray):
    """Ends of each cut line {v . x = offset} inside the polygon, lowest
    along `tang` first; a cut that misses the polygon has none.

    Edge k, from vertex k-1 to vertex k, meets the cuts whose offsets lie
    in its span along v: two binary searches on the sorted offsets, so
    each cut gathers its two crossings (more where it passes through a
    vertex or along an edge) in O((m + n) log m) overall.
    """
    proj = verts @ v
    prev = np.roll(proj, 1)
    first = np.searchsorted(offsets, np.minimum(prev, proj), side="left")
    last = np.searchsorted(offsets, np.maximum(prev, proj), side="right")
    edge, cut = _expand_ranges(first, last)
    a, b, pa, pb = verts[edge - 1], verts[edge], prev[edge], proj[edge]
    span = pb - pa
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(span != 0, (offsets[cut] - pa) / span, 0.0)
    pts = a + lam[:, None] * (b - a)
    order = np.lexsort((pts @ tang, cut))
    pts, cut = pts[order], cut[order]
    bounds = np.searchsorted(cut, np.arange(len(offsets) + 1))
    return [(pts[i], pts[k - 1]) for i, k in zip(bounds[:-1], bounds[1:]) if k > i]


def emit_svg(P, sol: Solution, path: str) -> None:
    """Draw the polygon, the inner body at rho (dashed), the cuts, and two
    inscribed disks of radius rho; deterministic byte output."""
    verts = P.vertices
    xmin, ymin = verts.min(axis=0)
    xmax, ymax = verts.max(axis=0)
    span = max(xmax - xmin, ymax - ymin)
    margin = 0.04 * span
    xmin -= margin
    ymin -= margin
    xmax += margin
    ymax += margin
    W = 720.0
    scale = W / (xmax - xmin)
    Hgt = (ymax - ymin) * scale

    def XY(p):
        return (
            f"{(p[0] - xmin) * scale:.3f}",
            f"{(ymax - p[1]) * scale:.3f}",  # y-up world, y-down viewport
        )

    sw = max(1.2, 0.004 * span * scale)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W:.0f}" '
        f'height="{Hgt:.3f}" viewBox="0 0 {W:.0f} {Hgt:.3f}">'
    ]
    pts = " ".join(",".join(XY(p)) for p in verts)
    out.append(
        f'<polygon points="{pts}" fill="#f3f6fa" stroke="#1f3044" stroke-width="{sw:.3f}"/>'
    )
    inner = inner_body(P, sol.rho)
    if inner is not None:
        ipts = " ".join(",".join(XY(p)) for p in inner.vertices)
        out.append(
            f'<polygon points="{ipts}" fill="none" stroke="#4a7dab" '
            f'stroke-width="{sw * 0.75:.3f}" stroke-dasharray="6,4"/>'
        )
    vv = np.asarray(sol.direction)
    tang = np.array([-vv[1], vv[0]])
    for lo, hi in _chords(verts, vv, tang, np.array([cut.offset for cut in sol.cuts])):
        (x1, y1), (x2, y2) = XY(lo), XY(hi)
        out.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="#b3372b" stroke-width="{sw:.3f}"/>'
        )
    # inscribed disks in the two outermost pieces
    if sol.cuts:
        show = [clip_halfplane(verts, vv, sol.cuts[0].offset),
                clip_halfplane(verts, -vv, -sol.cuts[-1].offset)]
    else:
        show = [verts]
    for piece in show:
        if len(piece) < 3:
            continue
        Q = canonicalize(piece)
        r, cen = inradius_incenter(Q)
        cx, cy = XY(cen)
        out.append(
            f'<circle cx="{cx}" cy="{cy}" r="{r * scale:.3f}" fill="none" '
            f'stroke="#2c7a3f" stroke-width="{sw * 0.75:.3f}"/>'
        )
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def _cmd_solve(args) -> int:
    with open(args.input) as fh:
        doc = json.load(fh)
    P, n = load_polygon(doc)
    sol = solve(P, n)
    print(_to_json(solution_document(sol)))
    if args.svg:
        emit_svg(P, sol, args.svg)
    return 0


def _cmd_oracle(args) -> int:
    with open(args.input) as fh:
        doc = json.load(fh)
    P, n = load_polygon(doc)
    rho, direction = oracle_solve(P, n)
    print(_to_json({"rho": rho, "direction": list(direction)}))
    return 0


def _cmd_verify(args) -> int:
    with open(args.input) as fh:
        doc = json.load(fh)
    with open(args.output) as fh:
        out = json.load(fh)
    P, n = load_polygon(doc)
    rho = float(out["rho"])
    direction = tuple(out["direction"])
    cuts = [Cut(tuple(c["normal"]), float(c["offset"])) for c in out.get("cuts", [])]
    try:
        verify_solution(P, n, rho, direction, cuts)
    except VerificationFailedError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    print("ok")
    return 0


def run(argv) -> int:
    """Entry point used by tests; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="parcut",
        description="Optimal equal-spaced parallel cuts of convex polygons",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_solve = sub.add_parser("solve", help="solve an input document")
    p_solve.add_argument("input")
    p_solve.add_argument("--svg", default=None)
    p_solve.set_defaults(func=_cmd_solve)

    p_oracle = sub.add_parser("oracle", help="brute-force reference solve")
    p_oracle.add_argument("input")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_verify = sub.add_parser("verify", help="check a claimed solution")
    p_verify.add_argument("input")
    p_verify.add_argument("output")
    p_verify.set_defaults(func=_cmd_verify)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0

    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except VerificationFailedError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except GeometryError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal faults
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
