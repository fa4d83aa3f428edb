import json
import math

import numpy as np
import pytest

from parcut.cli import _chords, emit_svg, load_polygon, run, solution_document, _to_json
from parcut.geometry import canonicalize, clip_halfplane, regular_polygon
from parcut.oracle import random_polygon
from parcut.solver import solve


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


SQUARE_DOC = {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]], "n": 2}


class TestSolveCommand:
    def test_square(self, tmp_path, capsys):
        path = write(tmp_path, "sq.json", SQUARE_DOC)
        assert run(["solve", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rho"] == pytest.approx(0.25, rel=1e-12)
        assert len(out["cuts"]) == 1
        assert out["stats"]["m"] == 4

    def test_halfplane_input_matches_vertices(self, tmp_path, capsys):
        p1 = write(tmp_path, "v.json", SQUARE_DOC)
        hp = {
            "halfplanes": [
                {"normal": [1, 0], "offset": 1},
                {"normal": [0, 1], "offset": 1},
                {"normal": [-1, 0], "offset": 0},
                {"normal": [0, -1], "offset": 0},
            ],
            "n": 2,
        }
        p2 = write(tmp_path, "h.json", hp)
        assert run(["solve", p1]) == 0
        rho1 = json.loads(capsys.readouterr().out)["rho"]
        assert run(["solve", p2]) == 0
        rho2 = json.loads(capsys.readouterr().out)["rho"]
        assert rho1 == pytest.approx(rho2, rel=1e-10)

    def test_malformed_input(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", {"vertices": [[0, 0]], "n": 2})
        assert run(["solve", path]) == 2
        path2 = write(tmp_path, "bad2.json", {"n": 2})
        assert run(["solve", path2]) == 2
        path3 = write(
            tmp_path, "bad3.json", {"vertices": SQUARE_DOC["vertices"], "n": 0}
        )
        assert run(["solve", path3]) == 2
        capsys.readouterr()

    def test_non_finite_input(self, tmp_path, capsys):
        verts = [[0, 0], [1, 0], [float("nan"), 1], [0, 1]]
        path = write(tmp_path, "nan.json", {"vertices": verts, "n": 2})
        hp = [{"normal": [1, 0], "offset": float("inf")}, {"normal": [0, 1], "offset": 1},
              {"normal": [-1, 0], "offset": 0}, {"normal": [0, -1], "offset": 0}]
        path2 = write(tmp_path, "inf.json", {"halfplanes": hp, "n": 2})
        for p in (path, path2):
            assert run(["solve", p]) == 2
            assert "NaN or infinite" in capsys.readouterr().err

    def test_both_keys_rejected(self, tmp_path, capsys):
        doc = dict(SQUARE_DOC)
        doc["halfplanes"] = [{"normal": [1, 0], "offset": 1}]
        path = write(tmp_path, "both.json", doc)
        assert run(["solve", path]) == 2
        capsys.readouterr()

    def test_seventeen_digit_floats(self):
        s = _to_json({"x": 1.0 / 3.0})
        assert "0.33333333333333331" in s


class TestOracleCommand:
    def test_square(self, tmp_path, capsys):
        path = write(tmp_path, "sq.json", SQUARE_DOC)
        assert run(["oracle", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rho"] == pytest.approx(0.25, abs=1e-9)


class TestVerifyCommand:
    def test_round_trip(self, tmp_path, capsys):
        path = write(tmp_path, "sq.json", SQUARE_DOC)
        assert run(["solve", path]) == 0
        out = capsys.readouterr().out
        outp = tmp_path / "out.json"
        outp.write_text(out)
        assert run(["verify", path, str(outp)]) == 0
        capsys.readouterr()

    def test_round_trip_tiny_square(self, tmp_path, capsys):
        # the unit square scaled by 1e-9, where verify rebuilds I_rho from scratch
        doc = {"vertices": [[1e-9 * x, 1e-9 * y] for x, y in SQUARE_DOC["vertices"]], "n": 3}
        path = write(tmp_path, "tiny.json", doc)
        assert run(["solve", path]) == 0
        outp = tmp_path / "out.json"
        outp.write_text(capsys.readouterr().out)
        assert run(["verify", path, str(outp)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_tampered_rho(self, tmp_path, capsys):
        path = write(tmp_path, "sq.json", SQUARE_DOC)
        assert run(["solve", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        doc["rho"] = 0.3
        outp = tmp_path / "tampered.json"
        outp.write_text(json.dumps(doc))
        assert run(["verify", path, str(outp)]) == 3
        capsys.readouterr()

    def test_tampered_normals(self, tmp_path, capsys):
        path = write(tmp_path, "sq.json", SQUARE_DOC)
        assert run(["solve", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cuts"]
        for cut in doc["cuts"]:
            cut["normal"] = [0.6, 0.8]
        outp = tmp_path / "tampered.json"
        outp.write_text(json.dumps(doc))
        assert run(["verify", path, str(outp)]) == 3
        assert "cuts" in capsys.readouterr().err


class TestSvg:
    def test_deterministic_bytes(self, tmp_path):
        P = canonicalize(SQUARE_DOC["vertices"])
        sol = solve(P, 2)
        p1 = tmp_path / "a.svg"
        p2 = tmp_path / "b.svg"
        emit_svg(P, sol, str(p1))
        emit_svg(P, sol, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text()
        assert text.startswith("<svg")
        assert text.count("<line") == 1  # one cut
        assert text.count("<circle") == 2

    def test_n1_no_cut_elements(self, tmp_path):
        P = canonicalize(SQUARE_DOC["vertices"])
        sol = solve(P, 1)
        p = tmp_path / "c.svg"
        emit_svg(P, sol, str(p))
        assert "<line" not in p.read_text()

    def test_triangle_two_cuts(self, tmp_path):
        P = canonicalize([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
        sol = solve(P, 3)
        p = tmp_path / "t.svg"
        emit_svg(P, sol, str(p))
        assert p.read_text().count("<line") == 2

    def test_chords_match_clipping_against_every_row(self):
        # reference: a long segment along each line clipped by all m rows
        def clipped(P, v, tang, offsets):
            out = []
            for off in offsets:
                seg = np.array([v * off + 4 * tang, v * off - 4 * tang])
                for a, b in zip(P.A, P.b):
                    seg = clip_halfplane(seg, a, b + 1e-12)
                if len(seg) >= 2:
                    out.append((seg[np.argmin(seg @ tang)], seg[np.argmax(seg @ tang)]))
            return out

        square = canonicalize(SQUARE_DOC["vertices"])
        cases = [(regular_polygon(6), 2), (regular_polygon(64), 9), (square, 4)]
        cases += [(random_polygon(m, seed=m, model="ellipse"), n) for m, n in ((30, 5), (500, 40))]
        for P, n in cases:
            sol = solve(P, n)
            v = np.asarray(sol.direction)
            tang = np.array([-v[1], v[0]])
            # the cuts, and a line that misses P
            offsets = np.array([c.offset for c in sol.cuts] + [(P.vertices @ v).max() + 1.0])
            got = _chords(P.vertices, v, tang, offsets)
            assert len(got) == n - 1
            assert np.allclose(got, clipped(P, v, tang, offsets), rtol=0, atol=1e-9)  # the 1e-12 slack
        # lines along the square's edges and through its middle
        v, tang, offsets = np.array([0.0, 1.0]), np.array([-1.0, 0.0]), np.array([0.0, 0.5, 1.0])
        got = _chords(square.vertices, v, tang, offsets)
        assert np.allclose(got, clipped(square, v, tang, offsets), rtol=0, atol=1e-9)
        assert np.array_equal(got[0], [[1.0, 0.0], [0.0, 0.0]])

    def test_solve_with_svg_flag(self, tmp_path, capsys):
        path = write(tmp_path, "sq.json", SQUARE_DOC)
        svg = tmp_path / "out.svg"
        assert run(["solve", path, "--svg", str(svg)]) == 0
        assert svg.exists()
        capsys.readouterr()


def test_load_polygon_validation():
    with pytest.raises(ValueError):
        load_polygon({"vertices": [[0, 0], [1, 0], [1, 1]], "n": "two"})
    with pytest.raises(ValueError):
        load_polygon([1, 2, 3])


def test_solution_document_schema():
    P = canonicalize(SQUARE_DOC["vertices"])
    doc = solution_document(solve(P, 3))
    assert set(doc) == {
        "rho",
        "direction",
        "winner_facet",
        "n",
        "cuts",
        "verification",
        "stats",
    }
    assert set(doc["verification"]) == {
        "width_check",
        "piece_inradii",
        "max_piece_inradius",
    }
    assert doc["stats"]["fallbacks"] == {"sweep_readmits": 0, "inner_body": 0, "singular_gap": 0, "inner_every_row": 0, "piece_hint": 0, "piece_every_row": 0}
