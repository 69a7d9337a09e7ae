import cmath
import math
import warnings

import numpy as np
import pytest

from pentamod import areas, charts, moduli, pentagon, render, sphere
from pentamod.charts import SQ2, SQ3, SQ5, ChartPoint
from pentamod.errors import AntipodeOfOrigin, UnsupportedSolid

SOLIDS = (3, 4, 5)

# Table values carried as exact radicals
TABLE_D = {
    3: (1 / SQ2, (SQ3 - 1) / SQ2, (SQ3 - 1) / SQ2),
    4: ((SQ3 - 1) / SQ2, SQ3 - SQ2, SQ2 - 1),
    5: ((math.sqrt(30 + 6 * SQ5) - SQ5 - 3) / 4,
        (math.sqrt(15.0) - SQ5 + SQ3 - 3) / 2,
        (math.sqrt(10 + 2 * SQ5) - SQ5 - 1) / 2),
}
TABLE_LAMBDA = {
    3: (1 / (4 * SQ2), 1 / (4 * SQ2), 1 / (2 * SQ2)),
    4: (1 / (2 * SQ2), 0.5, 1 / SQ2),
    5: ((SQ5 + 3) / 8, (SQ5 + 2) / 4, (SQ5 + 3) / 4),
}


def test_solid_constants_tables():
    for n in SOLIDS:
        c = charts.solid_constants(n)
        for got, want in zip((c.d_ab, c.d_am, c.d_bm), TABLE_D[n]):
            assert abs(got - want) < 1e-12
        for got, want in zip((c.lambda_a, c.lambda_b, c.lambda_c), TABLE_LAMBDA[n]):
            assert abs(got - want) < 1e-12
    assert charts.solid_constants(3).d_ab == pytest.approx(0.7071067812, abs=1e-10)
    assert charts.solid_constants(4).lambda_b == 0.5
    assert charts.solid_constants(5).lambda_c == pytest.approx(1.3090169944, abs=1e-10)


def test_solid_constants_tan_equation_and_closed_form():
    for n in SOLIDS:
        d = charts.solid_constants(n).d_ab
        assert abs((1 / d - d) * math.tan(math.pi / 3)
                   - (1 / d + d) * math.tan((0.5 - 1 / n) * math.pi)) < 1e-12
        root = math.sqrt((SQ3 * math.tan(math.pi / n) - 1) / (SQ3 * math.tan(math.pi / n) + 1))
        assert abs(d - root) < 1e-12


def test_unsupported_solid():
    with pytest.raises(UnsupportedSolid):
        charts.solid_constants(6)


_P = sphere.unit([0.2, -0.3, -0.9])

# every public entry point that takes the family n, called with n
_N_ENTRY_POINTS = {
    "charts.solid_constants": lambda n: charts.solid_constants(n),
    "charts.geometry": lambda n: charts.geometry(n),
    "charts.to_sphere": lambda n: charts.to_sphere(ChartPoint(0.1 + 0.2j, "M", n)),
    "charts.to_chart": lambda n: charts.to_chart(_P, "M", n),
    "charts.mobius_m_to_a": lambda n: charts.mobius_m_to_a(n),
    "charts.mobius_m_to_b": lambda n: charts.mobius_m_to_b(n),
    "moduli.division": lambda n: moduli.division(n),
    "moduli.region_pair": lambda n: moduli.region_pair(n, 1),
    "moduli.region_of": lambda n: moduli.region_of(n, _P),
    "moduli.curve_spec": lambda n: moduli.curve_spec("gamma_A", n),
    "moduli.gamma_m_chart": lambda n: moduli.gamma_m_chart("gamma_A", n, 2.0),
    "moduli.m_chart_cartesian_residual": lambda n: moduli.m_chart_cartesian_residual("gamma_A", n, 0.1j),
    "moduli.part_regions": lambda n: moduli.part_regions(n),
    "moduli.fan_parts": lambda n: moduli.fan_parts(n),
    "moduli.analytic_in_moduli": lambda n: moduli.analytic_in_moduli(n, _P),
    "moduli.analytic_in_moduli_batch": lambda n: moduli.analytic_in_moduli_batch(n, _P[None]),
    # a zero band returns before any table is read
    "moduli.boundary_band_mask": lambda n: moduli.boundary_band_mask(n, _P[None], 0.0),
    "moduli.ab_plane": lambda n: moduli.ab_plane(n),
    "moduli.ab_circle": lambda n: moduli.ab_circle(n),
    "moduli.reduction_residual": lambda n: moduli.reduction_residual("a=c", n, _P),
    "moduli.reduction_radii": lambda n: moduli.reduction_radii("a=c", n, [2.0]),
    "moduli.reduction_point": lambda n: moduli.reduction_point("b=c", n, 2.0),
    "moduli.check_bc_below_gammaA": lambda n: moduli.check_bc_below_gammaA(n),
    "moduli.top_z": lambda n: moduli.top_z(n),
    "moduli.sector_caps": lambda n: moduli.sector_caps(n),
    "pentagon.anchor_pentagon": lambda n: pentagon.anchor_pentagon(n, _P),
    "pentagon.oracle_in_moduli": lambda n: pentagon.oracle_in_moduli(n, _P),
    "pentagon.oracle_in_moduli_batch": lambda n: pentagon.oracle_in_moduli_batch(n, _P[None]),
    "pentagon.face_pentagons": lambda n: pentagon.face_pentagons(n, _P),
    "areas.part_areas": lambda n: areas.part_areas(n),
    "areas.part_areas_quadrature": lambda n: areas.part_areas_quadrature(n),
    "areas.consistency_A2A4A8": lambda n: areas.consistency_A2A4A8(n),
    "areas.monte_carlo_area": lambda n: areas.monte_carlo_area(n, 1000, 1),
    "render.RenderOptions": lambda n: render.RenderOptions(n=n),
}


@pytest.mark.parametrize("name", sorted(_N_ENTRY_POINTS))
def test_every_entry_point_takes_only_an_integral_family(name):
    # n = 4 first fills the caches, which an equal float or bool must not
    # find; numpy integers are integers
    call = _N_ENTRY_POINTS[name]
    call(4)
    call(np.int64(4))
    for bad in (4.0, np.float64(4.0), 4.5, True, np.bool_(True), "4", None, 6):
        with pytest.raises(UnsupportedSolid):
            call(bad)


def test_chart_conventions():
    for n in SOLIDS:
        c = charts.solid_constants(n)
        geo = charts.geometry(n)
        zBA = charts.to_chart(geo.B, "A", n).z
        assert abs(zBA - c.d_ab) < 1e-12                      # B on positive real axis
        zMA = charts.to_chart(geo.M, "A", n).z
        assert abs(zMA - cmath.rect(c.d_am, math.pi / 3)) < 1e-12
        zAB = charts.to_chart(geo.A, "B", n).z
        assert abs(zAB + c.d_ab) < 1e-12                      # A on negative real axis
        zMB = charts.to_chart(geo.M, "B", n).z
        assert abs(zMB - cmath.rect(c.d_bm, (1 - 1 / n) * math.pi)) < 1e-12
        zBM = charts.to_chart(geo.B, "M", n).z
        assert abs(zBM - complex(0, -c.d_bm)) < 1e-12         # B_M = -d_bm i
        zAM = charts.to_chart(geo.A, "M", n).z
        assert abs(zAM + c.d_am) < 1e-12                      # A_M = -d_am
        # B'_M = d_bm i and A'_M = d_am: the Figure-10 key points
        assert abs(charts.to_chart(geo.B_prime, "M", n).z - complex(0, c.d_bm)) < 1e-12
        assert abs(charts.to_chart(geo.A_prime, "M", n).z - c.d_am) < 1e-12


def test_frame_rejects_an_unknown_chart():
    with pytest.raises(ValueError, match="unknown chart 'X'"):
        charts.geometry(3).frame("X")


def test_circle_points_about_the_z_axis():
    # a normal along +-z, where the first helper axis would be parallel to it
    for z in (1.0, -1.0):
        nrm = np.array([0.0, 0.0, z])
        pts = render.circle_points(nrm, 17)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=0.0, atol=1e-15)
        assert np.abs(pts @ nrm).max() < 1e-15


def test_chart_origin_and_equator():
    p = charts.to_sphere(ChartPoint(0j, "M", 3))
    assert np.allclose(p, charts.geometry(3).M, atol=1e-15)
    q = charts.to_sphere(ChartPoint(cmath.rect(1.0, 0.3), "A", 4))
    xi = charts.geometry(4).frame_a @ q
    assert abs(xi[2]) < 1e-15                                 # |z|=1 is the equator


def test_round_trip_and_antipode_relation():
    rng = np.random.default_rng(5)
    for n in SOLIDS:
        for chart in charts.CHARTS:
            for _ in range(40):
                z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                if abs(z) > 10:
                    continue
                p = charts.to_sphere(ChartPoint(z, chart, n))
                z2 = charts.to_chart(p, chart, n).z
                assert abs(z - z2) < 1e-11 * max(1.0, abs(z) ** 2)
                # antipode: z* conj(z) = -1
                zstar = charts.to_chart(-p, chart, n).z
                assert abs(zstar * z.conjugate() + 1) < 1e-9


def test_to_chart_antipode_of_origin():
    geo = charts.geometry(3)
    with pytest.raises(AntipodeOfOrigin):
        charts.to_chart(-geo.A, "A", 3)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_to_sphere_point_at_infinity(n):
    # INFINITY is the image of the chart origin's antipode, the frame's e3,
    # and maps back to it without a warning; a NaN z has no point
    geo = charts.geometry(n)
    for chart in charts.CHARTS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xi = charts.to_sphere(ChartPoint(charts.INFINITY, chart, n))
            assert np.array_equal(charts.to_sphere(ChartPoint(complex(-math.inf, 1.0), chart, n)),
                                  xi)
        assert np.array_equal(xi, geo.frame(chart)[2])
        with pytest.raises(AntipodeOfOrigin):
            charts.to_chart(xi, chart, n)
        for z in (complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, math.nan)):
            with pytest.raises(ValueError):
                charts.to_sphere(ChartPoint(z, chart, n))


def test_chord_distance_symmetry():
    for n in SOLIDS:
        geo = charts.geometry(n)
        pts = {"A": geo.A, "B": geo.B, "M": geo.M}
        for x in pts:
            for y in pts:
                if x == y:
                    continue
                d1 = abs(charts.to_chart(pts[y], x, n).z)
                d2 = abs(charts.to_chart(pts[x], y, n).z)
                assert abs(d1 - d2) < 1e-11


def test_tan_half_distance():
    rng = np.random.default_rng(9)
    for n in SOLIDS:
        geo = charts.geometry(n)
        origin = {"A": geo.A, "B": geo.B, "M": geo.M}
        for chart in charts.CHARTS:
            for _ in range(20):
                v = rng.normal(size=3)
                p = v / np.linalg.norm(v)
                delta = sphere.angular_distance(origin[chart], p)
                if delta > 3.0:
                    continue
                assert abs(math.tan(0.5 * delta) - abs(charts.to_chart(p, chart, n).z)) < 1e-11


def test_mobius_m_to_a_mapping_points():
    for n in SOLIDS:
        c = charts.solid_constants(n)
        m2a = charts.mobius_m_to_a(n)
        assert abs(charts.apply_mobius(m2a, complex(-c.d_am, 0))) < 1e-14
        want = cmath.rect(c.d_am, math.pi / 3)                 # M_A
        assert abs(charts.apply_mobius(m2a, 0j) - want) < 1e-14
        assert charts.apply_mobius(m2a, complex(1.0 / c.d_am, 0)) == charts.INFINITY


def test_mobius_m_to_b_mapping_points():
    for n in SOLIDS:
        c = charts.solid_constants(n)
        m2b = charts.mobius_m_to_b(n)
        assert abs(charts.apply_mobius(m2b, complex(0, -c.d_bm))) < 1e-14
        want = cmath.rect(c.d_bm, (1 - 1 / n) * math.pi)       # M_B
        assert abs(charts.apply_mobius(m2b, 0j) - want) < 1e-14
        # |A_B| from the map equals the Table-1 chord distance
        a_b = charts.apply_mobius(m2b, complex(-c.d_am, 0))
        assert abs(abs(a_b) - c.d_ab) < 1e-12


def test_mobius_agrees_with_frame_change():
    rng = np.random.default_rng(23)
    for n in SOLIDS:
        m2a = charts.mobius_m_to_a(n)
        m2b = charts.mobius_m_to_b(n)
        for _ in range(60):
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            p = charts.to_sphere(ChartPoint(z, "M", n))
            try:
                za = charts.to_chart(p, "A", n).z
                zb = charts.to_chart(p, "B", n).z
            except AntipodeOfOrigin:
                continue
            assert abs(za - charts.apply_mobius(m2a, z)) < 1e-10
            assert abs(zb - charts.apply_mobius(m2b, z)) < 1e-10


def test_mobius_rejects_a_nan_point():
    # as to_sphere does: NaN fails both the infinity and the vanishing
    # denominator tests, and num / den would pass it on as nan+nanj
    for n in SOLIDS:
        for m in (charts.mobius_m_to_a(n), charts.mobius_m_to_b(n)):
            for z in (complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, math.nan)):
                with pytest.raises(ValueError):
                    charts.apply_mobius(m, z)


def test_identity_and_singular_mobius():
    ident = charts.MobiusMap(1, 0, 0, 1)
    assert charts.apply_mobius(ident, 0.3 + 0.1j) == 0.3 + 0.1j
    with pytest.raises(ValueError):
        charts.MobiusMap(1, 2, 2, 4)


@pytest.mark.parametrize("n", SOLIDS)
def test_mobius_at_infinity(n):
    # INFINITY is the M-chart origin's antipode: each map sends it to that
    # point's A- or B-chart coordinate, each inverse to -d/c (the point the
    # forward map sends to INFINITY), and the identity keeps it
    antipode = charts.to_sphere(ChartPoint(charts.INFINITY, "M", n))
    for m, chart in ((charts.mobius_m_to_a(n), "A"), (charts.mobius_m_to_b(n), "B")):
        want = charts.to_chart(antipode, chart, n).z
        assert abs(charts.apply_mobius(m, charts.INFINITY) - want) < 1e-14, (n, chart)
        pole = -m.d / m.c
        assert abs(charts.apply_mobius(m.inverse(), charts.INFINITY) - pole) <= 1e-15 * abs(pole)
        assert charts.apply_mobius(m, pole) == charts.INFINITY
    assert charts.apply_mobius(charts.MobiusMap(1, 0, 0, 1), charts.INFINITY) == charts.INFINITY


def test_chart_rotation_vs_world_rotation():
    # multiplying by e^(i*beta) in a chart is the world rotation about the
    # chart origin's axis by -beta (the origin sits at frame coordinates
    # (0,0,-1), flipping the handedness seen from outside)
    for n in SOLIDS:
        geo = charts.geometry(n)
        via_chart = geo.chart_rotation("A", 2 * math.pi / 3) @ geo.B
        # Rodrigues' matrix of the rotation by a about the unit axis k
        k, a = geo.A, -2 * math.pi / 3
        kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
        via_world = (np.eye(3) + math.sin(a) * kx + (1.0 - math.cos(a)) * (kx @ kx)) @ geo.B
        assert np.allclose(via_chart, via_world, atol=1e-12)
        assert np.allclose(via_chart, geo.B_prime, atol=1e-12)


def test_a_b_m_counterclockwise_in_every_chart():
    # the triangle A -> B -> M must wind positively in all three charts
    for n in SOLIDS:
        geo = charts.geometry(n)
        for chart in charts.CHARTS:
            pts = []
            for p in (geo.A, geo.B, geo.M):
                xi = geo.frame(chart) @ p
                pts.append((xi[0] / (1 - xi[2]), xi[1] / (1 - xi[2])))
            (ax, ay), (bx, by), (mx, my) = pts
            cross = (bx - ax) * (my - by) - (by - ay) * (mx - bx)
            assert cross > 0.0, (n, chart)
