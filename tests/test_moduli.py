import cmath
import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pentamod import charts, moduli, pentagon, sphere
from pentamod.charts import SQ2, SQ3, ChartPoint
from pentamod.errors import NoRootInDisk, OutOfRange
from pentamod.render import circle_points

from figure_labels import FIGURE_LABELS

SOLIDS = (3, 4, 5)
CURVES = moduli.CURVE_NAMES


# ---------------------------------------------------------------------------
# regions


def _classify(n, pts):
    """moduli._classify on arrays that outlive its scratch frame."""
    with sphere.scratch(len(pts)) as s:
        circle, region, _ = moduli._classify(n, pts, s)
        return circle.copy(), region.copy()


def test_every_figure_label_classifies_to_its_region():
    for (n, chart), (scale, entries) in FIGURE_LABELS.items():
        for m, x, y in entries:
            z = complex(x, y) / scale
            p = charts.to_sphere(ChartPoint(z, chart, n))
            got = moduli.region_of(n, p)
            assert got == m, (n, chart, m, z, got)


def test_region_pair_round_trip():
    for n in SOLIDS:
        seen = set()
        for m in range(1, 6 * n + 1):
            pair = moduli.region_pair(n, m)
            assert pair not in seen
            seen.add(pair)
            assert moduli._sector_region(n, *pair) == m


def test_region_of_division_vertex_m():
    b = moduli.region_of(3, charts.geometry(3).M)
    assert isinstance(b, moduli.Boundary)
    assert b.kind == "vertex" and b.vertex == "M"
    assert {1, 3, 7} <= set(b.regions)


@pytest.mark.parametrize("n", SOLIDS)
def test_region_of_vertex_regions_are_those_around_it(n):
    # at every division vertex and its antipode, the regions region_of
    # reports are those _classify finds on a ring 1e-6 rad around it
    ang = 2.0 * math.pi * np.arange(3600) / 3600.0
    for name, v in moduli.division(n).vertices.items():
        for w in (v, -v):
            e1 = np.cross(w, (0.3, 0.5, 0.7))
            e1 /= np.linalg.norm(e1)
            e2 = np.cross(w, e1)
            ring = (math.cos(1e-6) * w
                    + math.sin(1e-6) * (np.cos(ang)[:, None] * e1 + np.sin(ang)[:, None] * e2))
            _, region = _classify(n, ring)
            want = tuple(sorted(set(region[region != 0].tolist())))
            assert moduli.region_of(n, w).regions == want, (n, name, w @ v)


@pytest.mark.parametrize("n", SOLIDS)
def test_region_of_names_the_vertex_along_one_circle(n):
    # 5e-8 rad from a vertex along one circle through it: within
    # VERTEX_SLACK of the vertex but within tol of that circle alone, the
    # point still reports every region around the vertex
    div = moduli.division(n)
    for name, v in div.vertices.items():
        nrm = div.normals[np.flatnonzero(np.abs(div.normals @ v) < 1e-12)[0]]
        d = np.cross(nrm, v)
        p = math.cos(5e-8) * v + math.sin(5e-8) * d / np.linalg.norm(d)
        assert np.count_nonzero(np.abs(div.normals @ p) <= 1e-9) == 1, (n, name)
        assert moduli.region_of(n, p) == moduli.region_of(n, v), (n, name)


@pytest.mark.parametrize("n", SOLIDS)
def test_region_of_names_the_vertex_between_circles(n):
    # 5e-8 rad from a division vertex, halfway between two circles through
    # it: within tol of no circle, but within VERTEX_SLACK of the vertex, so
    # the point is that vertex.  Its antipode is no named vertex, and there
    # the point gets the region of its sector.
    div = moduli.division(n)
    for name, v in div.vertices.items():
        for w in (v, -v):
            e1 = np.cross(w, (0.3, 0.5, 0.7))
            e1 /= np.linalg.norm(e1)
            e2 = np.cross(w, e1)
            # each circle through w leaves it along the angle of its tangent
            # (mod pi); the bisectors between consecutive ones, both ways
            t = np.cross(div.normals[np.abs(div.normals @ w) < 1e-12], w)
            ang = np.sort(np.arctan2(t @ e2, t @ e1) % math.pi)
            mid = 0.5 * (ang + np.append(ang[1:], ang[0] + math.pi))
            for phi in np.concatenate([mid, mid + math.pi]):
                d = math.cos(phi) * e1 + math.sin(phi) * e2
                p = math.cos(5e-8) * w + math.sin(5e-8) * d
                assert np.abs(div.normals @ p).min() > 1e-9, (n, name)
                got = moduli.region_of(n, p)
                if w is v:
                    assert got == moduli.region_of(n, v), (n, name, got)
                    assert got.vertex == name
                else:
                    far = math.cos(1e-3) * w + math.sin(1e-3) * d
                    assert type(got) is int and got == moduli.region_of(n, far), (n, name, got)


def test_region_of_boundary_arc():
    # midpoint of arc AB separates Omega_1 from Omega_2
    geo = charts.geometry(4)
    mid = sphere.minor_arc(geo.A, geo.B).point_at(0.5)
    b = moduli.region_of(4, mid)
    assert isinstance(b, moduli.Boundary)
    assert b.kind == "arc" and set(b.regions) == {1, 2}


def test_spec_label_examples():
    p = charts.to_sphere(ChartPoint(cmath.rect(0.5, math.radians(25)), "A", 3))
    assert moduli.region_of(3, p) == 1
    p = charts.to_sphere(ChartPoint(cmath.rect(1.5, math.radians(90)), "A", 3))
    assert moduli.region_of(3, p) == 9


def _chart_regions(n, pts):
    """Reference for the sign reading: the sector pair from each point's A-
    and B-chart polar angles, floor(theta / (pi/m)) in a fan of m circles.
    The angle is the argument of charts.to_chart's z, taken from the frame
    coordinates so that it exists at the chart origin's antipode too."""
    geo = charts.geometry(n)
    sectors = []
    for chart, m in (("A", 3), ("B", n)):
        xi = pts @ geo.frame(chart).T
        theta = np.arctan2(xi[:, 1], xi[:, 0]) % (2.0 * math.pi)
        sectors.append(np.floor(theta / (math.pi / m)).astype(int) % (2 * m))
    return moduli._sector_region(n, *sectors)


def _full_chord_screen(n, pts, radius):
    """The index into Division.vertices of the first division vertex within
    `radius` radians of each point (chord |p - v| <= 2 sin(radius/2)), -1
    if none."""
    div = moduli.division(n)
    chord = 2.0 * math.sin(0.5 * radius)
    near = np.column_stack([np.linalg.norm(pts - v, axis=1) <= chord for v in div.vertex_points])
    return np.where(near.any(axis=1), near.argmax(axis=1), -1)


def _check_sign_regions(n, pts):
    """_classify gives every interior point (clear of every division vertex
    and every circle) the region its chart sectors name, and no other point
    a region; returns how many points were interior."""
    tol = sphere.DEFAULT_TOL
    interior = ((_full_chord_screen(n, pts, tol) < 0)
                & (np.abs(moduli._circle_sines(n, pts)) > math.sin(tol) + 1e-15).all(axis=1))
    circle, region = _classify(n, pts)
    assert (region[interior] != 0).all()
    assert (region[~interior] == 0).all()
    assert np.array_equal(region[interior], _chart_regions(n, pts[interior]))
    assert (circle[interior] == -1).all()
    return int(np.count_nonzero(interior))


def _near_division(n, rng):
    """Points 1.0000001e-9 ... 1e-5 rad off every dividing circle, and as far
    from A, B, -A, -B and every division vertex in random directions."""
    div = moduli.division(n)
    geo = charts.geometry(n)
    offsets = (1.0000001e-9, 1.01e-9, 1e-8, 1e-7, 1e-6, 1e-5)
    pts = []
    for nrm in div.normals:
        ring = np.cross(nrm, rng.normal(size=(200, 3)))
        ring /= np.linalg.norm(ring, axis=1, keepdims=True)
        for d in offsets:
            side = rng.choice((-1.0, 1.0), size=(len(ring), 1))
            pts.append(math.cos(d) * ring + side * math.sin(d) * nrm)
    for v in np.vstack([div.vertex_points, -geo.A, -geo.B]):
        dirs = np.cross(v, rng.normal(size=(200, 3)))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        for d in offsets:
            pts.append(math.cos(d) * v + math.sin(d) * dirs)
    return np.vstack(pts)


@pytest.mark.parametrize("n", SOLIDS)
def test_sign_regions_match_chart_sectors(n):
    rng = np.random.default_rng(60 + n)
    assert _check_sign_regions(n, sphere.sample_sphere(20000, n)) > 19000
    near = _near_division(n, rng)
    assert _check_sign_regions(n, near) > len(near) // 2


_UNIT = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: 1e-3 < sum(x * x for x in v))


@settings(max_examples=300, deadline=None)
@given(_UNIT, st.sampled_from(SOLIDS))
def test_sign_regions_match_chart_sectors_hypothesis(v, n):
    p = np.array(v) / np.linalg.norm(v)
    _check_sign_regions(n, p[None])


def _check_region_of_matches_classify(n, pts):
    """region_of at the default tolerance is the int region _classify gives
    a point wherever it gives one, except within VERTEX_SLACK of a named
    division vertex, and a Boundary everywhere else (naming the vertex when
    there is one)."""
    _, region = _classify(n, pts)
    div = moduli.division(n)
    slack_chord = 2.0 * math.sin(0.5 * sphere.VERTEX_SLACK)
    for p, m in zip(pts, region.tolist()):
        got = moduli.region_of(n, p)
        at_vertex = (np.linalg.norm(p - div.vertex_points, axis=1) <= slack_chord).any()
        if m and not at_vertex:
            assert type(got) is int and got == m, (n, p, m, got)
        else:
            assert isinstance(got, moduli.Boundary), (n, p, got)
            assert (got.vertex is not None) == at_vertex, (n, p, got)


@pytest.mark.parametrize("n", SOLIDS)
def test_region_of_matches_classify_near_the_division(n):
    _check_region_of_matches_classify(n, _near_division(n, np.random.default_rng(70 + n)))


@settings(max_examples=300, deadline=None)
@given(_UNIT, st.sampled_from(SOLIDS))
def test_region_of_matches_classify_hypothesis(v, n):
    _check_region_of_matches_classify(n, (np.array(v) / np.linalg.norm(v))[None])


# ---------------------------------------------------------------------------
# curves in their home charts


def test_gamma_a_endpoint_values():
    for n in SOLIDS:
        c = charts.solid_constants(n)
        spec = moduli.curve_spec("gamma_A", n)
        assert moduli.curve_radius(spec, 2 * math.pi / 3) == pytest.approx(c.d_ab, abs=1e-12)
        assert moduli.curve_radius(spec, 5 * math.pi / 6) == 0.0
    assert moduli.curve_radius(moduli.curve_spec("gamma_A", 3), 2 * math.pi / 3) == \
        pytest.approx(0.7071067812, abs=1e-10)


def test_gamma_point_out_of_range():
    spec = moduli.curve_spec("gamma_A", 3)
    with pytest.raises(OutOfRange):
        moduli.gamma_point(spec, 0.5)
    with pytest.raises(OutOfRange):
        moduli.gamma_m_chart("gamma_B", 4, 0.2)
    with pytest.raises(OutOfRange):
        moduli.gamma_point(spec, math.nan)
    with pytest.raises(OutOfRange):
        moduli.curve_radius(spec, math.nan)
    with pytest.raises(OutOfRange):
        moduli.gamma_m_chart("gamma_B", 4, math.nan)
    # a name that is no curve is rejected alike by every curve entry point
    for call in (lambda: moduli.gamma_m_chart("gamma_X", 3, 1.0),
                 lambda: moduli.curve_spec("gamma_X", 3),
                 lambda: moduli.m_chart_cartesian_residual("gamma_X", 3, 0.5j)):
        with pytest.raises(ValueError, match="unknown curve 'gamma_X'"):
            call()


def test_gamma_b_n4_dual_route():
    # eqD radius at theta = 3pi/8 must satisfy the cartesian cubic
    spec = moduli.curve_spec("gamma_B", 4)
    theta = 3 * math.pi / 8
    r = moduli.curve_radius(spec, theta)
    z = cmath.rect(r, theta)
    x, y = z.real, z.imag
    cn, sn = math.cos(math.pi / 4), math.sin(math.pi / 4)
    cart = 2 * 0.5 * (x * x + y * y) - (x * cn - y * sn) * (x * x + y * y - 1)
    assert abs(cart) < 1e-12
    assert r == pytest.approx(0.3387658111396961, abs=1e-12)   # frozen eqD value


def test_four_form_consistency():
    for n in SOLIDS:
        for which in CURVES:
            spec = moduli.curve_spec(which, n)
            lo = spec.theta_lo + (1e-7 if spec.singular_end == "lo" else 0.0)
            hi = spec.theta_hi - (1e-7 if spec.singular_end == "hi" else 0.0)
            for theta in np.linspace(lo, hi, 64):
                s = moduli.gamma_point(spec, theta)
                assert abs(moduli.gamma_residual(spec, s.xi)) < 1e-10
                assert abs(moduli.gamma_cartesian_residual(spec, s.z.z)) < 1e-10
                assert abs(moduli.gamma_complex_residual(spec, s.z.z)) < 1e-10


def test_gamma_residual_special_points():
    for n in SOLIDS:
        geo = charts.geometry(n)
        # A is the chart origin of the A-chart: xi1 = xi2 = 0
        assert abs(moduli.gamma_residual(moduli.curve_spec("gamma_C_A", n), geo.A)) < 1e-15
        # B' is the regular endpoint of gamma_A
        assert abs(moduli.gamma_residual(moduli.curve_spec("gamma_A", n), geo.B_prime)) < 1e-12


@pytest.mark.parametrize("n", SOLIDS)
def test_curve_quadrics_are_the_oracle_triple_products(n):
    # each curve's world form S is a positive multiple of the symmetric part
    # of the oracle's triple product that vanishes on it, and gamma_C_A and
    # gamma_C_B are one quadric, which lets boundary_band_mask take it once
    geo = charts.geometry(n)
    to_w, to_e = pentagon._rotations(n)
    quadric = moduli._tables(n).quadric
    assert np.abs(quadric["gamma_C_A"] - quadric["gamma_C_B"]).max() <= 1e-15
    triple = {"gamma_A": lambda u, v: np.cross(geo.B, u) @ (to_w @ v),
              "gamma_B": lambda u, v: np.cross(u, geo.A) @ (to_e @ v),
              "gamma_C_A": lambda u, v: np.cross(to_w @ u, geo.C) @ v}
    for which, form in triple.items():
        T = np.array([[form(u, v) for v in np.eye(3)] for u in np.eye(3)])
        T = 0.5 * (T + T.T)
        S = quadric[which]
        k = (S * T).sum() / (T * T).sum()
        assert k > 0.0, which
        assert np.abs(S - k * T).max() <= 1e-15, which


def test_curve_endpoint_incidence():
    for n in SOLIDS:
        geo = charts.geometry(n)
        pairs = [
            ("gamma_A", "lo", geo.B_prime), ("gamma_A", "hi", geo.A),
            ("gamma_B", "lo", geo.B), ("gamma_B", "hi", geo.A_prime),
            ("gamma_C_A", "lo", geo.A), ("gamma_C_A", "hi", geo.B),
            ("gamma_C_B", "lo", geo.A), ("gamma_C_B", "hi", geo.B),
        ]
        for which, end, want in pairs:
            spec = moduli.curve_spec(which, n)
            theta = spec.theta_lo if end == "lo" else spec.theta_hi
            s = moduli.gamma_point(spec, theta)
            assert sphere.angular_distance(s.xi, want) < 1e-9, (n, which, end)
        # gamma_C passes through C at the sector boundary angle
        sC = moduli.gamma_point(moduli.curve_spec("gamma_C_A", n), -math.pi / 3)
        assert sphere.angular_distance(sC.xi, geo.C) < 1e-9
        sC = moduli.gamma_point(moduli.curve_spec("gamma_C_B", n), -(1 - 1 / n) * math.pi)
        assert sphere.angular_distance(sC.xi, geo.C) < 1e-9


def test_gamma_c_mirror_symmetry():
    # A-chart and B-chart gamma_C sample sets coincide under (x,y) -> (-x,y)
    for n in SOLIDS:
        sa = moduli.curve_spec("gamma_C_A", n)
        sb = moduli.curve_spec("gamma_C_B", n)
        for theta in np.linspace(sa.theta_lo + 1e-7, sa.theta_hi, 48):
            za = cmath.rect(moduli.curve_radius(sa, theta), theta)
            zb = complex(-za.real, za.imag)
            tb = cmath.phase(zb)
            if tb > 0:
                tb -= 2 * math.pi
            rb = moduli.curve_radius(sb, tb)
            assert abs(rb - abs(zb)) < 1e-10


# ---------------------------------------------------------------------------
# M-chart forms


def test_gamma_m_chart_octahedron_right_angle():
    # K=0 and L=4 at theta=pi/2 give R=2, r=sqrt2-1
    s = moduli.gamma_m_chart("gamma_A", 4, math.pi / 2)
    assert s.r == pytest.approx(SQ2 - 1.0, abs=1e-12)


def test_gamma_m_chart_against_cartesian():
    for n in SOLIDS:
        for which in ("gamma_A", "gamma_B", "gamma_C"):
            lo, hi = moduli.M_THETA_RANGE[which]
            for theta in np.linspace(lo, hi, 64):
                s = moduli.gamma_m_chart(which, n, theta)
                assert abs(moduli.m_chart_cartesian_residual(which, n, s.z.z)) < 1e-9


def test_gamma_m_chart_against_transport():
    # Mobius images of home-chart samples reproduce the M-chart polar forms
    for n in SOLIDS:
        m2a = charts.mobius_m_to_a(n).inverse()
        m2b = charts.mobius_m_to_b(n).inverse()
        for which, mname, inv in (("gamma_A", "gamma_A", m2a),
                                  ("gamma_B", "gamma_B", m2b),
                                  ("gamma_C_A", "gamma_C", m2a),
                                  ("gamma_C_B", "gamma_C", m2b)):
            spec = moduli.curve_spec(which, n)
            lo = spec.theta_lo + (1e-6 if spec.singular_end == "lo" else 0.0)
            hi = spec.theta_hi - (1e-6 if spec.singular_end == "hi" else 0.0)
            for theta in np.linspace(lo, hi, 40):
                z = cmath.rect(moduli.curve_radius(spec, theta), theta)
                zm = charts.apply_mobius(inv, z)
                tm = cmath.phase(zm) % (2 * math.pi)
                s = moduli.gamma_m_chart(mname, n, tm)
                assert abs(s.r - abs(zm)) < 1e-9, (n, which, theta)


def test_gamma_c_n3_pole_angle_is_regular():
    s = moduli.gamma_m_chart("gamma_C", 3, 1.25 * math.pi)
    assert math.isfinite(s.r) and 0 < s.r <= 1.0


# ---------------------------------------------------------------------------
# membership


def test_membership_core_and_curves():
    # Omega_3 interior
    p = charts.to_sphere(ChartPoint(cmath.rect(0.35, math.radians(90)), "A", 3))
    assert moduli.region_of(3, p) == 3
    assert moduli.analytic_in_moduli(3, p)
    # on gamma_B -> excluded
    spec = moduli.curve_spec("gamma_B", 4)
    s = moduli.gamma_point(spec, 0.5 * (spec.theta_lo + spec.theta_hi))
    assert not moduli.analytic_in_moduli(4, s.xi)
    # Omega_5 between the curve and the arc, confirmed by the oracle
    spec = moduli.curve_spec("gamma_A", 3)
    theta = 0.75 * math.pi
    r = 0.95 * moduli.curve_radius(spec, theta)
    q = charts.to_sphere(ChartPoint(cmath.rect(r, theta), "A", 3))
    assert moduli.region_of(3, q) == 5
    assert moduli.analytic_in_moduli(3, q)
    assert pentagon.oracle_in_moduli(3, q)


def test_membership_included_and_excluded_arcs():
    for n in SOLIDS:
        geo = charts.geometry(n)
        included = [(geo.A, geo.B), (geo.A, geo.M), (geo.B, geo.M),
                    (geo.A, geo.B_prime), (geo.B, geo.A_prime),
                    (geo.A, geo.C), (geo.C, geo.B)]
        for u, v in included:
            mid = sphere.minor_arc(u, v).point_at(0.5)
            assert moduli.analytic_in_moduli(n, mid), (n, "included arc")
            assert pentagon.oracle_in_moduli(n, mid), (n, "included arc oracle")
        excluded = [(geo.M, geo.B_prime), (geo.M, geo.A_prime)]
        for u, v in excluded:
            mid = sphere.minor_arc(u, v).point_at(0.5)
            assert not moduli.analytic_in_moduli(n, mid), (n, "excluded arc")
            assert not pentagon.oracle_in_moduli(n, mid), (n, "excluded arc oracle")
        for v in moduli.division(n).vertices.values():
            assert not moduli.analytic_in_moduli(n, v)


def test_membership_n5_internal_fan_rays():
    # the dividing rays inside the two split fans stay in the moduli up to
    # the curve; the oracle fixed this convention
    for which, beta in (("gamma_B", 2 * math.pi / 5), ("gamma_C_B", -3 * math.pi / 5)):
        limit = moduli.curve_radius(moduli.curve_spec(which, 5), beta)
        for frac, want in ((0.5, True), (1.3, False)):
            r = frac * limit
            p = charts.to_sphere(ChartPoint(cmath.rect(r, beta), "B", 5))
            assert moduli.analytic_in_moduli(5, p) == want
            assert pentagon.oracle_in_moduli(5, p) == want


def _membership_pins(n):
    """Points on and 5e-10 rad to either side of every dividing circle, on
    the end rays of every fan's chart-angle interval (fan_parts) and 1e-15
    to either side, and 20000 uniform points."""
    rings = []
    for nrm in moduli.division(n).normals:
        ring = circle_points(nrm, 65)[:-1]
        for d in (0.0, 5e-10, -5e-10):
            pts = ring + d * nrm
            rings.append(pts / np.linalg.norm(pts, axis=1)[:, None])
    rays = [charts.to_sphere(ChartPoint(cmath.rect(r, theta + d), spec.chart, n))
            for spec, lo, hi in moduli.fan_parts(n).values() for theta in (lo, hi)
            for d in (0.0, 1e-15, -1e-15) for r in np.linspace(0.0, 1.0, 65)[1:]]
    return np.vstack(rings + [np.array(rays), sphere.sample_sphere(20000, 7)])


# sha256 prefixes of analytic_in_moduli_batch's packed answers on
# _membership_pins(n), pinned from the table of front and back radii per
# dividing circle and chart-angle interval per fan that the inside rule
# replaced
MEMBERSHIP_DIGESTS = {3: "5db955fddc183999", 4: "cc685f38af2b96d4", 5: "216664592fbea2d7"}


@pytest.mark.parametrize("n", SOLIDS)
def test_membership_bits_are_pinned(n):
    inside = moduli.analytic_in_moduli_batch(n, _membership_pins(n))
    assert hashlib.sha256(np.packbits(inside).tobytes()).hexdigest()[:16] == MEMBERSHIP_DIGESTS[n]


def _nudged(p, nrm, d):
    q = p + d * nrm
    return q / np.linalg.norm(q)


_ON_CIRCLE = st.sampled_from(SOLIDS).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n + 1), st.floats(0.0, 2.0 * math.pi)))


@settings(max_examples=400, deadline=None)
@given(_ON_CIRCLE)
def test_on_circle_membership_is_that_of_both_sides(case):
    # a point on one dividing circle is in exactly when the points just off
    # it on both sides are, away from the crossings of two circles and from
    # the curves (where the nudges by 2e-9 and 1e-6 disagree)
    n, k, phi = case
    div = moduli.division(n)
    nrm = div.normals[k]
    e1 = np.cross(nrm, [0.3, 0.5, 0.8])
    e1 /= np.linalg.norm(e1)
    p = math.cos(phi) * e1 + math.sin(phi) * np.cross(nrm, e1)
    assert abs(nrm @ p) <= sphere.ON_CIRCLE
    for i in range(n + 2):
        for j in range(i):
            x = np.cross(div.normals[i], div.normals[j])
            x /= np.linalg.norm(x)
            assume(min(np.linalg.norm(p - x), np.linalg.norm(p + x)) > 1e-6)
    near, far = ([moduli.analytic_in_moduli(n, _nudged(p, nrm, s * d)) for s in (1.0, -1.0)]
                 for d in (2e-9, 1e-6))
    assume(near == far)
    assert moduli.analytic_in_moduli(n, p) == (near[0] and near[1])


# ---------------------------------------------------------------------------
# reduction loci


def test_reduction_residual_a_eq_b_diagonal():
    p = charts.to_sphere(ChartPoint(complex(0.1, 0.1), "M", 3))
    assert abs(moduli.reduction_residual("a=b", 3, p)) < 1e-15


def test_reduction_plane_matches_printed_forms():
    # printed plane coefficients for n=3 and n=4; n=5 first two coefficients
    l3 = moduli.ab_plane(3)
    assert np.allclose(l3, [1.0, -1.0, 0.0], atol=1e-12)
    l4 = moduli.ab_plane(4)
    assert np.allclose(l4, [SQ2, -SQ3, 2.0 - SQ3], atol=1e-12)
    l5 = moduli.ab_plane(5)
    assert l5[0] == pytest.approx(2.0 * 5 ** 0.25, abs=1e-12)
    assert l5[1] == pytest.approx(-math.sqrt(6.0) * math.sqrt(math.sqrt(5.0) + 1.0), abs=1e-12)


def test_ab_circle_against_printed_center_radius():
    c4, r4 = moduli.ab_circle(4)
    assert abs(c4 - complex(-(2 + SQ3) * SQ2, (2 + SQ3) * SQ3)) < 1e-11
    assert r4 == pytest.approx(2 * math.sqrt(9 + 5 * SQ3), abs=1e-11)
    mu = math.sqrt(195 - 6 * math.sqrt(5)) / 58
    c5, r5 = moduli.ab_circle(5)
    assert abs(c5 - complex((math.sqrt(5) - 11) * mu - math.sqrt(5),
                            (5 * math.sqrt(5) + 3) * mu + 3)) < 1e-11
    assert r5 == pytest.approx(math.sqrt(4 * (13 * math.sqrt(5) + 2) * mu + 30), abs=1e-11)


def test_reduction_point_consistency():
    for n in SOLIDS:
        for kind in ("a=c", "b=c"):
            for theta in np.linspace(0.0, 2 * math.pi, 37, endpoint=False):
                s = moduli.reduction_point(kind, n, theta)
                assert abs(moduli.reduction_residual(kind, n, s.xi)) < 1e-10


def test_reduction_point_frozen_and_bracket():
    # a=c at theta=3pi/2 for n=3: root of r^4 - 3sqrt3(sqrt3-1)r^2 + 2 - sqrt3
    s = moduli.reduction_point("a=c", 3, 1.5 * math.pi)
    assert s.r == pytest.approx(0.2679491924311073, abs=1e-11)
    # and at theta=pi/3 either a root in (0,1) exists or the error is raised
    try:
        s = moduli.reduction_point("a=c", 3, math.pi / 3)
        assert abs(moduli.reduction_residual("a=c", 3, s.xi)) < 1e-10
    except NoRootInDisk:
        pass


def test_bc_is_diagonal_mirror_of_ac_n3():
    for theta in (1.2 * math.pi, 1.4 * math.pi):
        s = moduli.reduction_point("a=c", 3, theta)
        z = s.z.z
        mirrored = charts.to_sphere(ChartPoint(complex(z.imag, z.real), "M", 3))
        assert abs(moduli.reduction_residual("b=c", 3, mirrored)) < 1e-10


def test_ab_line_locus_n3():
    s = moduli.reduction_point("a=b", 3, 1.25 * math.pi)
    assert s.line_locus
    assert abs(s.z.z.real - s.z.z.imag) < 1e-12
    assert moduli.analytic_in_moduli(3, s.xi)
    with pytest.raises(NoRootInDisk):
        moduli.reduction_point("a=b", 3, 1.1 * math.pi)


def test_reduction_length_equalities_on_locus():
    # pentagons anchored on each locus satisfy the corresponding edge-length
    # equality; c = 2*c1 so a=c and b=c mean a = 2 MV and b = 2 MV
    geo = {n: charts.geometry(n) for n in SOLIDS}
    cases = []
    for n in SOLIDS:
        cases.append(("a=b", n, moduli.reduction_point("a=b", n, 1.25 * math.pi).xi))
        for kind in ("a=c", "b=c"):
            for theta in (1.2 * math.pi, 1.35 * math.pi):
                s = moduli.reduction_point(kind, n, theta)
                if moduli.analytic_in_moduli(n, s.xi):
                    cases.append((kind, n, s.xi))
    assert len(cases) >= 9
    for kind, n, V in cases:
        pent = pentagon.anchor_pentagon(n, V)
        a = pent.a1.length
        b = pent.b1.length
        c = 2.0 * pent.c1.length
        gap = {"a=b": a - b, "a=c": a - c, "b=c": b - c}[kind]
        assert abs(gap) < 1e-9, (kind, n)


def test_bc_gap_report_tangency_n3_n4():
    for n in (3, 4):
        rep = moduli.check_bc_below_gammaA(n)
        assert rep.min_gap < 1e-6
        assert rep.min_gap > -1e-9
        assert rep.tangency_theta == pytest.approx(math.pi / 2, abs=1e-3)


def test_bc_gap_report_n5_structure():
    # the full spec-level assertion for n=5 lives in the acceptance suite;
    # here only the report plumbing is exercised
    rep = moduli.check_bc_below_gammaA(5)
    assert rep.n == 5 and rep.samples == 1024
    assert math.pi / 2 <= rep.tangency_theta <= math.pi
    assert rep.max_gap > rep.min_gap


# sha256 prefixes of the a=c and b=c radii over 4097 angles in [0, 2 pi]
# (misses as NaN), pinned from the scalar scan-and-bisect root finder that
# reduction_radii replaced
REDUCTION_DIGESTS = {
    (3, "a=c"): "b831abfde17821b1", (3, "b=c"): "c73e15ec45652083",
    (4, "a=c"): "46ead918875d40a4", (4, "b=c"): "66b4e701e1b4cf32",
    (5, "a=c"): "accd90cfe0cc94d5", (5, "b=c"): "038b00260031ee78",
}


@pytest.mark.parametrize("kind", ("a=c", "b=c"))
@pytest.mark.parametrize("n", SOLIDS)
def test_reduction_radii_bits_are_pinned(n, kind):
    radii = moduli.reduction_radii(kind, n, np.linspace(0.0, 2.0 * math.pi, 4097))
    assert hashlib.sha256(radii.tobytes()).hexdigest()[:16] == REDUCTION_DIGESTS[n, kind]


@pytest.mark.parametrize("kind", ("a=c", "b=c"))
@pytest.mark.parametrize("n", SOLIDS)
def test_reduction_quartic_brackets_every_ray(n, kind):
    # r^4 + c2 r^2 + c0 + c1 r (r^2 + 1) trig(theta) is c0 > 0 at r = 0 and
    # at most 1 + c2 + c0 + 2|c1| < 0 at r = 1, so every ray meets the locus
    # and reduction_radii has no miss to report
    c1, c2, c0 = moduli._reduction_quartic(kind, n)
    assert 0.034 <= c0 <= 0.268
    assert -1.331 <= 1.0 + c2 + c0 + 2.0 * abs(c1) <= -0.465


@pytest.mark.parametrize("kind", ("a=c", "b=c"))
def test_reduction_point_radius_is_its_reduction_radii_row(kind):
    # every real ray meets both loci (test_reduction_quartic_brackets_every_ray),
    # so no row is NaN; a NaN angle is no ray, and
    # test_curve_api_rejects_non_finite_angles rejects it
    assert moduli.reduction_radii(kind, 4, np.array([])).shape == (0,)
    thetas = np.array([0.0, 1.2 * math.pi, 5.0, -7.5])
    for n in SOLIDS:
        radii = moduli.reduction_radii(kind, n, thetas)
        for t, r in zip(thetas, radii):
            assert moduli.reduction_point(kind, n, t).r == r
        assert not np.isnan(radii).any()


@pytest.mark.parametrize("call", [
    lambda: moduli.reduction_radii("a=c", 3, [math.nan]),
    lambda: moduli.reduction_radii("b=c", 4, np.array([0.5, math.inf])),
    lambda: moduli.reduction_radii("a=c", 5, [-math.inf]),
    lambda: moduli.reduction_radii("a=c", 3, [[0.5, 1.0]]),
    lambda: moduli.reduction_radii("b=c", 3, 0.5),
    lambda: moduli.reduction_point("a=b", 3, math.nan),
    lambda: moduli.reduction_point("a=c", 3, math.nan),
    lambda: moduli.reduction_point("a=b", 4, math.nan),
    lambda: moduli.reduction_point("b=c", 5, math.inf),
], ids=["radii-nan", "radii-inf", "radii-minus-inf", "radii-2d", "radii-scalar",
        "point-ab-n3-nan", "point-ac-n3-nan", "point-ab-n4-nan", "point-bc-n5-inf"])
def test_curve_api_rejects_non_finite_angles(call):
    # a NaN radius means a ray that misses the locus; an angle that is no
    # ray, or angles not in a 1-D array, are rejected
    with pytest.raises(OutOfRange):
        call()


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.nan),
                               complex(math.inf, 0.0), complex(0.3, -math.inf)])
def test_curve_residuals_reject_non_finite_chart_points(z):
    for n in SOLIDS:
        for which in CURVES:
            spec = moduli.curve_spec(which, n)
            with pytest.raises(ValueError):
                moduli.gamma_cartesian_residual(spec, z)
            with pytest.raises(ValueError):
                moduli.gamma_complex_residual(spec, z)
        for which in moduli.M_THETA_RANGE:
            with pytest.raises(ValueError):
                moduli.m_chart_cartesian_residual(which, n, z)


def test_reduction_radii_reject_the_ab_circle():
    with pytest.raises(ValueError):
        moduli.reduction_radii("a=b", 3, np.array([1.25 * math.pi]))


def test_bc_gap_reports_are_pinned():
    # the reports of the scalar root finder, bit for bit (the n = 5 gap is
    # criterion 5's known red value)
    pinned = {3: (2.0761170560490427e-14, 0.2496888977739341, 1.570796326794898),
              4: (-2.4424906541753444e-15, 0.09532197908335094, 1.5710185289047045),
              5: (-0.030271598285112167, 0.026098647813711406, 2.174716148554535)}
    for n, report in pinned.items():
        assert moduli.check_bc_below_gammaA(n) == moduli.BcGapReport(n, *report, samples=1024)


def test_boundary_band_mask():
    for n in SOLIDS:
        spec = moduli.curve_spec("gamma_A", n)
        s = moduli.gamma_point(spec, 0.78 * math.pi)
        geo = charts.geometry(n)
        pts = np.vstack([s.xi, sphere.minor_arc(geo.A, geo.B).point_at(0.4),
                         charts.to_sphere(ChartPoint(complex(-0.1, -0.1), "M", n))])
        mask = moduli.boundary_band_mask(n, pts, 1e-6)
        assert mask[0] and mask[1] and not mask[2]


def test_boundary_band_mask_rejects_a_non_finite_band():
    # a NaN band fails every comparison and would silently skip nothing
    pts = sphere.sample_sphere(10, 3)
    for band in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            moduli.boundary_band_mask(3, pts, band)
    assert not moduli.boundary_band_mask(3, pts, -1.0).any()


def test_every_division_vertex_lies_on_two_circles():
    # so a point within `band` of a vertex is within `band` of a circle
    # through it, and boundary_band_mask needs no vertex term
    for n in SOLIDS:
        div = moduli.division(n)
        dots = np.sort(np.abs(div.vertex_points @ div.normals.T), axis=1)
        assert (dots[:, 1] < 1e-15).all(), (n, dots[:, 1])


def test_band_mask_covers_every_vertex_disc():
    # points exactly `band` from each vertex, in random directions
    rng = np.random.default_rng(23)
    for n in SOLIDS:
        for v in moduli.division(n).vertex_points:
            dirs = np.cross(v, rng.normal(size=(16, 3)))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            for band in (1e-9, 1e-6, 1e-3, 0.05):
                pts = math.cos(band) * v + math.sin(band) * dirs
                assert moduli.boundary_band_mask(n, pts, band).all(), (n, v, band)


def _around_vertices(n, radius, rng):
    """Points just inside, at and just outside `radius` from every division
    vertex, along each dividing circle through it and in random directions,
    scaled off the unit sphere by nearly the slack that as_points allows."""
    div = moduli.division(n)
    pts = []
    for v in div.vertex_points:
        dirs = [np.cross(v, nrm) for nrm in div.normals if abs(nrm @ v) < 1e-12]
        dirs += [np.cross(v, rng.normal(size=3)) for _ in range(3)]
        for d in dirs:
            d = d / np.linalg.norm(d)
            for a in radius * (1.0 + np.array([-1e-6, -1e-9, 0.0, 1e-9, 1e-6])):
                pts.append(math.cos(a) * v + math.sin(a) * d)
    return np.array(pts) * rng.choice([1.0 - 4.9e-10, 1.0, 1.0 + 4.9e-10], size=(len(pts), 1))


def test_points_near_a_vertex_are_on_two_circles():
    # so _classify needs no vertex screen: a point within DEFAULT_TOL of a
    # division vertex, even off the unit sphere by nearly the slack that
    # as_points allows, is within ON_CIRCLE of two circles through it
    rng = np.random.default_rng(17)
    for n in SOLIDS:
        pts = _around_vertices(n, sphere.DEFAULT_TOL, rng)
        near = _full_chord_screen(n, pts, sphere.DEFAULT_TOL) >= 0
        assert near.any(), n
        circle, region = _classify(n, pts[near])
        assert (circle == -1).all() and (region == 0).all(), n


def test_near_curve_agreement_outside_band():
    # points a few 1e-6 on either side of each boundary curve still agree
    # between the analytic predicate and the oracle
    for n in SOLIDS:
        for which, chart in (("gamma_A", "A"), ("gamma_B", "B"),
                             ("gamma_C_A", "A"), ("gamma_C_B", "B")):
            spec = moduli.curve_spec(which, n)
            lo = spec.theta_lo + 0.15 * (spec.theta_hi - spec.theta_lo)
            hi = spec.theta_hi - 0.15 * (spec.theta_hi - spec.theta_lo)
            for theta in np.linspace(lo, hi, 7):
                r = moduli.curve_radius(spec, theta)
                for off in (-8e-6, -2e-6, 2e-6, 8e-6):
                    p = charts.to_sphere(ChartPoint(cmath.rect(r + off, theta), chart, n))
                    assert (moduli.analytic_in_moduli(n, p)
                            == pentagon.oracle_in_moduli(n, p)), (n, which, theta, off)


def test_bc_quartic_decimal_sanity():
    # the published 4-digit decimal coefficients of the n=5 b=c quartic are a
    # rounding of the exact radicals: root positions agree to 1e-3
    c1, c2, c0 = moduli._reduction_quartic("b=c", 5)
    # the published decimals are truncated to 4 places past the leading two
    assert c1 == pytest.approx(0.568158, abs=1.1e-6)
    assert c2 == pytest.approx(-3.242102, abs=1.1e-6)
    assert c0 == pytest.approx(0.080701, abs=1.1e-6)

    def root(coefs, theta):
        d1, d2, d0 = coefs
        f = lambda r: r ** 4 + d2 * r * r + d0 + d1 * r * (r * r + 1) * math.sin(theta)
        lo, hi = 1e-9, 1.0
        rs = np.linspace(lo, hi, 800)
        vs = [f(r) for r in rs]
        for i in range(len(rs) - 1):
            if vs[i] * vs[i + 1] < 0:
                a, b = rs[i], rs[i + 1]
                for _ in range(60):
                    m = 0.5 * (a + b)
                    if f(a) * f(m) <= 0:
                        b = m
                    else:
                        a = m
                return 0.5 * (a + b)
        return None

    for theta in np.linspace(1.6, 4.6, 9):
        re_ = root((c1, c2, c0), theta)
        rd = root((0.568158, -3.242102, 0.080701), theta)
        assert re_ is not None and rd is not None
        assert abs(re_ - rd) < 1e-3
