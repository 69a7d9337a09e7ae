import cmath
import hashlib
import json
import math
import os
import re
import threading
from pathlib import Path

import numpy as np
import pytest

from pentamod import charts, cli, moduli, pentagon, sphere
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


# check queries in the three charts: inside and far points, chart origins
# (a construction failure at A, B and M), and points whose reports carry
# crossing, endpoint-degenerate and overlap violations
_CHECK_POINTS = (
    ("M", "-0.17-0.17i"), ("M", "0"), ("M", "0.05@0"), ("M", "0.05@30"), ("M", "0.2@0"),
    ("M", "0.6@0"), ("M", "0.9+0.9i"), ("M", "0.31@-97.5"), ("M", "1.4@200"),
    ("A", "0"), ("A", "0.05@150"), ("A", "0.05@180"), ("A", "0.2@300"), ("A", "0.4@60"),
    ("A", "0.6@120"), ("A", "0.8@120"), ("A", "0.33@17"),
    ("B", "0"), ("B", "0.05@0"), ("B", "0.05@30"), ("B", "0.6@90"), ("B", "0.6@240"),
    ("B", "0.8@60"), ("B", "3@90"), ("B", "0.27@-41"),
)

# sha256 of the exit codes and check JSON over _CHECK_POINTS, by solid
_CHECK_SHA256 = {
    3: "cc79d8ed5c5870c602345939ddb917c465a3daedcfa10ff98ee544614d8da2b0",
    4: "b20443e2e82180370c53a62cca8dbea4f823dca20d56f2b14581664b74930e17",
    5: "c421473e9fa2141d966ca36b577e9a9ddc785e36e43f0bd0cff283d52c414c02",
}


@pytest.mark.parametrize("n", sorted(_CHECK_SHA256))
def test_check_output_pinned(capsys, n):
    # the violation lists, witnesses included, end to end through the CLI
    h = hashlib.sha256()
    for chart, point in _CHECK_POINTS:
        code, out = run_cli(capsys, "check", "--solid", str(n), "--chart", chart,
                            "--point", point)
        h.update(f"{code}\n{out}".encode())
    assert h.hexdigest() == _CHECK_SHA256[n]


def test_check_bad_point_exit_2(capsys):
    code, _ = run_cli(capsys, "check", "--solid", "3", "--point", "zzz")
    assert code == 2


@pytest.mark.parametrize("n", [3, 4, 5])
def test_check_at_the_sec_singular_fan_end(capsys, n):
    # B-chart angle 270 deg is the r -> 0 end of a fan curve, where cos rounds
    # to a tiny negative: the curve radius is its limit 0, with no warning
    for point in ("0.4@269.9", "0.4@270", "0.4@270.1"):
        code, out = run_cli(capsys, "check", "--solid", str(n), "--chart", "B",
                            "--point", point)
        data = json.loads(out)
        assert code == 0, point
        assert not data["in_moduli_analytic"] and not data["in_moduli_oracle"], point


def test_check_large_chart_point(capsys):
    # |z|^2 overflows a float: the point is still the unit vector near the
    # chart origin's antipode
    for z in (1e155, 1e308 + 1e308j, -3e200j):
        xi = charts.to_sphere(ChartPoint(z, "M", 3))
        assert abs(np.linalg.norm(xi) - 1.0) < 1e-15 and xi[2] > 1.0 - 1e-15
    code, out = run_cli(capsys, "check", "--solid", "3", "--point", "1e155+0i")
    assert code == 0
    assert not json.loads(out)["in_moduli_oracle"]


@pytest.mark.parametrize("point", ["1e400+0i", "1e400@0", "nan", "inf+1i"])
def test_check_non_finite_point_exit_2(capsys, point):
    code = cli.main(["check", "--solid", "3", "--point", point])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert "cannot parse point" in captured.err


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


@pytest.mark.parametrize("n", (3, 4, 5))
def test_curve_ab_spans_the_disk(capsys, n):
    # the whole in-disk half of the a=b circle, from one disk-edge end to
    # the other, in exactly the rows asked for
    samples = 64
    code, out = run_cli(capsys, "curve", "a=b", "--solid", str(n), "--samples", str(samples))
    assert code == 0
    rows = [[float(v) for v in line.split(",")] for line in out.strip().splitlines()[1:]]
    assert len(rows) == samples
    assert rows[0][1] > 0.99 and rows[-1][1] > 0.99
    for theta, r in cli._curve_rows("a=b", n, "M", samples):
        xi = charts.to_sphere(ChartPoint(cmath.rect(r, theta), "M", n))
        assert abs(moduli.reduction_residual("a=b", n, xi)) < 1e-12, (n, theta, r)


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
    mc = data["monte_carlo"]
    assert mc["sigma_from_analytic"] < 3.0
    # the cap and the rows under it, the ones membership tested
    top = moduli.top_z(4)
    assert mc["top_z"] == top
    assert mc["evaluated"] == np.count_nonzero(sphere.sample_sphere(50000, 42)[:, 2] <= top)
    assert list(mc) == ["samples", "seed", "hits", "estimate", "stderr", "sigma_from_analytic",
                        "top_z", "evaluated"]


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
    # every command reports an unwritable --out alike: one line, exit 4
    for argv in (("check", "--solid", "3", "--point", "-0.17-0.17i"),
                 ("curve", "gammaA", "--solid", "3", "--samples", "8"),
                 ("area", "--solid", "3"),
                 ("render", "--solid", "3"),
                 ("verify", "--solid", "3", "--samples", "64")):
        code = cli.main([*argv, "--out", "/nonexistent-dir/x.out"])
        captured = capsys.readouterr()
        assert code == 4, argv
        assert captured.err.startswith("error: cannot write /nonexistent-dir/x.out"), argv
        assert captured.out == "", argv


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


# sha256 of the verify JSON without "elapsed" (json.dumps, sorted keys) at
# 20000 samples, by (solid, seed, band)
_VERIFY_SHA256 = {
    (3, 0, "1e-06"): "88bac6240abae67595eb147a24f41916146c4bc25578326e51e3b55788e71b78",
    (3, 0, "0"): "aa7f10f519638c87560ef40147bbc735c9bc4646a6ce880188a7fd4b8e51c470",
    (3, 7, "1e-06"): "d2c09e349b174fb625f157ce5ef73adabdfbeae357805ff4f327d108c93519f9",
    (3, 7, "0"): "8521879e7c59856fcf60e77c872053e9f7f0ce985601e64cb7ff31909ea54ce4",
    (4, 0, "1e-06"): "6a7b3d2380f5fa8e3b13975d5f11bb30afeca1b143f096058fd2f5640777bad0",
    (4, 0, "0"): "ec3a28ad20ef41fb8f8b576d1ab3fb2c93c0345f89ce03ebecac5a1fe707e7a1",
    (4, 7, "1e-06"): "1a260f3a6090162b7973f3ce409e3328d54b64881d523201cd60b3d780049a38",
    (4, 7, "0"): "8f8b44f76a1ea77b75905274c63859540261b5736fb2c11bbd7bcfd704ea1618",
    (5, 0, "1e-06"): "1c868e187da2eced8a414188b85fe703baa0fc04e5ecbad251eb3b12f249bcb2",
    (5, 0, "0"): "da81ffd2a8b899ba005d185dd8f142e23f5f4f2faa840eb59ee90d495c7d69e9",
    (5, 7, "1e-06"): "b98ee7079733d940660e44847b95648cbba6077f8f0dcead2213525f18b427b8",
    (5, 7, "0"): "a77fe71d2118714fdda91ffd05a8f67b7835c858bffe46a5b96874661ca28bef",
}


@pytest.mark.parametrize("n, seed, band", sorted(_VERIFY_SHA256))
def test_verify_output_pinned(capsys, n, seed, band):
    assert _verify_digest(capsys, n, seed, band) == _VERIFY_SHA256[n, seed, band]


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


@pytest.mark.parametrize("argv", [
    ("verify", "--solid", "3", "--samples", "0"),
    ("verify", "--solid", "3", "--samples", "1500", "--band", "nan"),
    ("area", "--solid", "3", "--mc", "10", "42"),
    ("render", "--solid", "3", "--out", os.devnull, "--samples", "4"),
    ("curve", "a=b", "--solid", "3", "--samples", "-3"),
    ("curve", "gammaA", "--solid", "3", "--samples", "0"),
    ("curve", "b=c", "--solid", "5", "--samples", "0"),
])
def test_rejected_arguments_exit_2(capsys, argv):
    # usage errors print one line, not a traceback, and write nothing
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _verify_digest(capsys, n, seed, band):
    _, out = run_cli(capsys, "verify", "--solid", str(n), "--samples", "20000",
                     "--seed", str(seed), "--band", band)
    data = json.loads(out)
    data.pop("elapsed")
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("chunk", [997, 4096, 7001, 20_000])
@pytest.mark.parametrize("cores", [1, 2])
def test_verify_does_not_depend_on_pieces_or_workers(capsys, monkeypatch, chunk, cores):
    monkeypatch.setattr(sphere, "_CHUNK", chunk)
    monkeypatch.setattr(sphere, "_cores", lambda: cores)
    for n in (3, 4, 5):
        assert _verify_digest(capsys, n, 7, "1e-06") == _VERIFY_SHA256[n, 7, "1e-06"]


def test_verify_streams_bounded_pieces(capsys, monkeypatch):
    seen = {}

    def recorded(module, name):
        f = getattr(module, name)

        def call(n, pts, *rest):
            seen.setdefault(name, []).append(len(pts))
            return f(n, pts, *rest)
        monkeypatch.setattr(module, name, call)

    for module, name in ((moduli, "boundary_band_mask"), (moduli, "analytic_in_moduli_batch"),
                         (pentagon, "oracle_in_moduli_batch")):
        recorded(module, name)
    samples = 3 * sphere._CHUNK + 5
    code, out = run_cli(capsys, "verify", "--solid", "4", "--samples", str(samples))
    assert code == 0 and json.loads(out)["agree"]
    assert sorted(seen) == ["analytic_in_moduli_batch", "boundary_band_mask",
                            "oracle_in_moduli_batch"]
    for name, rows in seen.items():
        assert max(rows) <= sphere._CHUNK, name
    # four near-equal pieces after one zero-row call that fills the caches
    assert sorted(seen["boundary_band_mask"]) == [0] + [samples // 4] * 3 + [samples // 4 + 1]


def test_one_piece_verify_starts_no_thread(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("a one-piece call started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    code, out = run_cli(capsys, "verify", "--solid", "5", "--samples", str(sphere._CHUNK))
    assert code == 0 and json.loads(out)["samples"] == sphere._CHUNK


def test_verify_merges_disagreements_in_row_order(capsys, monkeypatch):
    # an oracle that flips its answer on a cap of points makes disagreements
    # in every piece; the merged report is that of the whole sample
    oracle = pentagon.oracle_in_moduli_batch
    monkeypatch.setattr(pentagon, "oracle_in_moduli_batch",
                        lambda n, pts: oracle(n, pts) ^ (pts[:, 0] > 0.9))
    monkeypatch.setattr(sphere, "_CHUNK", 997)
    pts = sphere.sample_sphere(20_000, 3)
    kept = pts[~moduli.boundary_band_mask(4, pts, 1e-6)]
    flipped = kept[kept[:, 0] > 0.9]
    code, out = run_cli(capsys, "verify", "--solid", "4", "--samples", "20000", "--seed", "3")
    data = json.loads(out)
    assert code == 5 and not data["agree"] and len(flipped) > 50
    assert [d["point"] for d in data["disagreements"]] == flipped[:50].tolist()
    assert all(d["oracle"] != d["analytic"] for d in data["disagreements"])


@pytest.mark.parametrize("which", ["a=c", "b=c"])
def test_curve_reduction_rows_lie_on_the_locus(capsys, which):
    # one row per angle whose ray meets the locus, each row on the locus
    thetas = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    for n in (3, 4, 5):
        code, out = run_cli(capsys, "curve", which, "--solid", str(n), "--samples", "64",
                            "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == np.count_nonzero(~np.isnan(moduli.reduction_radii(which, n, thetas)))
        for row in rows:
            xi = np.array([row["xi1"], row["xi2"], row["xi3"]])
            assert abs(moduli.reduction_residual(which, n, xi)) <= 1e-9


def test_render_region_arcs(tmp_path, capsys):
    # one path per dividing circle
    for n in (3, 4, 5):
        out = tmp_path / f"regions{n}.svg"
        code, _ = run_cli(capsys, "render", "--solid", str(n), "--out", str(out),
                          "--include", "region-arcs")
        assert code == 0
        ids = re.findall(r'id="(circle-[^"]*)"', out.read_text())
        assert len(ids) == n + 2
        assert ids == [f"circle-{name}" for name in moduli.division(n).circle_names]
