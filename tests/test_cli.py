import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from pentamod import charts, cli, moduli
from pentamod.charts import ChartPoint

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_point_forms():
    assert cli.parse_point("-0.17-0.17i") == complex(-0.17, -0.17)
    assert cli.parse_point("0") == 0j
    assert cli.parse_point("1i") == 1j
    assert cli.parse_point("0.5@90") == pytest.approx(0.5j, abs=1e-12)
    with pytest.raises(ValueError):
        cli.parse_point("bogus")


def test_check_inside_point(capsys):
    code, out = run_cli(capsys, "check", "--solid", "3", "--chart", "M",
                        "--point", "-0.17-0.17i")
    data = json.loads(out)
    assert code == 0
    assert data["schema"] == 1
    assert data["in_moduli_analytic"] and data["in_moduli_oracle"]
    assert data["region"] == 1
    assert data["simplicity_violations"] == []


def test_check_vertex_point(capsys):
    code, out = run_cli(capsys, "check", "--solid", "3", "--chart", "M",
                        "--point", "0")
    data = json.loads(out)
    assert code == 0
    assert not data["in_moduli_analytic"] and not data["in_moduli_oracle"]
    assert data["region"]["vertex"] == "M"


def test_check_reports_every_region_around_b(capsys):
    # the n circles through B cut 2n regions around it
    code, out = run_cli(capsys, "check", "--solid", "5", "--chart", "B", "--point", "0")
    assert code == 0
    assert json.loads(out)["region"] == {"boundary": "vertex", "vertex": "B",
                                         "regions": [1, 2, 7, 8, 13, 14, 19, 20, 25, 26]}


def test_check_far_point(capsys):
    code, out = run_cli(capsys, "check", "--solid", "5", "--chart", "M",
                        "--point", "0.9+0.9i")
    data = json.loads(out)
    assert code == 0
    assert not data["in_moduli_analytic"] and not data["in_moduli_oracle"]
    assert data["simplicity_violations"]


def test_check_bad_point_exit_2(capsys):
    code, _ = run_cli(capsys, "check", "--solid", "3", "--point", "zzz")
    assert code == 2


def test_curve_unknown_chart_combo_exit_2(capsys):
    code, _ = run_cli(capsys, "curve", "a=b", "--solid", "3", "--chart", "A")
    assert code == 2


def test_curve_gamma_a_first_row(capsys):
    code, out = run_cli(capsys, "curve", "gammaA", "--solid", "3", "--samples", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta,r,x,y,xi1,xi2,xi3"
    first = [float(v) for v in lines[1].split(",")]
    assert first[1] == pytest.approx(0.7071067812, abs=1e-9)


def test_curve_csv_round_trip(capsys):
    # parsed rows reproduce the curve residuals within 1e-9
    code, out = run_cli(capsys, "curve", "gammaB", "--solid", "5", "--samples", "40")
    assert code == 0
    spec = moduli.curve_spec("gamma_B", 5)
    for line in out.strip().splitlines()[1:]:
        theta, r, x, y, x1, x2, x3 = (float(v) for v in line.split(","))
        assert abs(moduli.gamma_cartesian_residual(spec, complex(x, y))) < 1e-9
        p = charts.to_sphere(ChartPoint(complex(x, y), "B", 5))
        assert np.linalg.norm(p - np.array([x1, x2, x3])) < 1e-9
        assert abs(moduli.gamma_residual(spec, np.array([x1, x2, x3]))) < 1e-9


def test_curve_gamma_c_m_chart_cubic(capsys):
    code, out = run_cli(capsys, "curve", "gammaC", "--solid", "4", "--samples", "64")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        vals = [float(v) for v in line.split(",")]
        z = complex(vals[2], vals[3])
        assert abs(moduli.m_chart_cartesian_residual("gamma_C", 4, z)) < 1e-9


def test_curve_ab_diagonal(capsys):
    code, out = run_cli(capsys, "curve", "a=b", "--solid", "3", "--samples", "32")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert rows
    for line in rows:
        vals = [float(v) for v in line.split(",")]
        assert abs(vals[2] - vals[3]) < 1e-9     # x = y


def test_area_json(capsys):
    code, out = run_cli(capsys, "area", "--solid", "3")
    data = json.loads(out)
    assert code == 0
    assert data["total_over_pi"] == pytest.approx(0.8600517493, abs=1e-8)
    assert data["residuals"]["A2_A4_A8_consistency"] < 1e-9
    code, out = run_cli(capsys, "area", "--solid", "5")
    data = json.loads(out)
    assert data["fraction_of_sphere"] == pytest.approx(0.0489, abs=1e-4)


def test_area_with_mc(capsys):
    code, out = run_cli(capsys, "area", "--solid", "4", "--mc", "50000", "42")
    data = json.loads(out)
    assert code == 0
    assert data["monte_carlo"]["sigma_from_analytic"] < 3.0


def test_verify_agrees(capsys):
    code, out = run_cli(capsys, "verify", "--solid", "3", "--samples", "4000",
                        "--seed", "7")
    data = json.loads(out)
    assert code == 0
    assert data["agree"] is True
    assert data["checked"] + data["skipped"] == 4000


def test_render_deterministic(tmp_path, capsys):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    for path in (a, b):
        code, _ = run_cli(capsys, "render", "--solid", "4", "--out", str(path),
                          "--include", "moduli-boundary", "reduction-curves")
    assert a.read_bytes() == b.read_bytes()
    # three reduction path elements on top of the boundary layers
    text = a.read_text()
    assert text.count('id="red-') == 3


def test_render_resolution_unwritable_exit_4(capsys):
    code, _ = run_cli(capsys, "render", "--solid", "3",
                      "--out", "/nonexistent-dir/x.svg")
    assert code == 4


def _path_endpoints(svg_text, ident):
    m = re.search(rf'<path id="{ident}"[^>]*d="([^"]+)"', svg_text)
    assert m, ident
    coords = re.findall(r"(-?\d+\.?\d*(?:e-?\d+)?) (-?\d+\.?\d*(?:e-?\d+)?)", m.group(1))
    first = tuple(float(v) for v in coords[0])
    last = tuple(float(v) for v in coords[-1])
    return first, last


def test_render_boundary_endpoints(tmp_path, capsys):
    for n in (3, 4, 5):
        out = tmp_path / f"m{n}.svg"
        code, _ = run_cli(capsys, "render", "--solid", str(n), "--out", str(out))
        assert code == 0
        text = out.read_text()
        c = charts.solid_constants(n)
        key = {"A": (-c.d_am, 0.0), "B": (0.0, -c.d_bm),
               "A'": (c.d_am, 0.0), "B'": (0.0, c.d_bm)}
        for ident, ends in (("gammaA", ("B'", "A")), ("gammaB", ("B", "A'")),
                            ("gammaC", ("A", "B"))):
            first, last = _path_endpoints(text, ident)
            for got, name in zip((first, last), ends):
                want = key[name]
                assert math.hypot(got[0] - want[0], got[1] - want[1]) < 1e-6


def test_render_golden_files(tmp_path, capsys):
    for n in (3, 4, 5):
        out = tmp_path / f"moduli{n}.svg"
        code, _ = run_cli(capsys, "render", "--solid", str(n), "--out", str(out),
                          "--include", "moduli-boundary", "core-triangles",
                          "reduction-curves")
        assert code == 0
        want = (GOLDEN / f"moduli{n}.svg").read_bytes()
        assert out.read_bytes() == want


def test_curve_json_format(capsys):
    code, out = run_cli(capsys, "curve", "gammaA", "--solid", "3",
                        "--samples", "3", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["schema"] == 1 and len(data["rows"]) == 3
    assert data["rows"][0]["r"] == pytest.approx(0.7071067812, abs=1e-9)


def test_render_face_subdivision(tmp_path, capsys):
    out = tmp_path / "face.svg"
    code, _ = run_cli(capsys, "render", "--solid", "3", "--out", str(out),
                      "--include", "face-subdivision", "--chart", "A")
    assert code == 0
    text = out.read_text()
    # three pentagons, six arcs each
    assert text.count('id="pent') == 18


def test_verify_output_deterministic(capsys):
    _, out1 = run_cli(capsys, "verify", "--solid", "4", "--samples", "2000",
                      "--seed", "11")
    _, out2 = run_cli(capsys, "verify", "--solid", "4", "--samples", "2000",
                      "--seed", "11")
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("elapsed"), d2.pop("elapsed")
    assert d1 == d2


def test_curve_gamma_c_all_charts(capsys):
    for chart in ("A", "B", "M"):
        code, out = run_cli(capsys, "curve", "gammaC", "--solid", "5",
                            "--chart", chart, "--samples", "16")
        assert code == 0
        assert len(out.strip().splitlines()) == 17


def test_render_options_validation():
    from pentamod.render import RenderOptions
    with pytest.raises(ValueError):
        RenderOptions(n=3, samples_per_curve=8)
    with pytest.raises(ValueError):
        RenderOptions(n=3, width_px=32)
    with pytest.raises(ValueError):
        RenderOptions(n=3, include=("bogus-layer",))


def test_verify_band_zero_runs(capsys):
    code, out = run_cli(capsys, "verify", "--solid", "3", "--samples", "1500",
                        "--seed", "2", "--band", "0")
    data = json.loads(out)
    assert code == 0 and data["skipped"] == 0
