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
    """(one, region) of each point from its pair code lo 6n + hi of
    moduli._codes: whether it is on exactly one dividing circle, and its
    region (0 on any circle)."""
    t = moduli._tables(n)
    with sphere.scratch(len(pts)) as s:
        lo, hi = np.divmod(moduli._codes(n, pts, s), 6 * n)
    return np.isin(hi - lo, t.sign_weights), np.where(lo == hi, t.sign_region[lo], 0)


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
    for m in (0, 6 * 3 + 1):
        with pytest.raises(ValueError, match="region index out of range"):
            moduli.region_pair(3, m)


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
    one, region = _classify(n, pts)
    assert (region[interior] != 0).all()
    assert (region[~interior] == 0).all()
    assert np.array_equal(region[interior], _chart_regions(n, pts[interior]))
    assert not one[interior].any()
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


@pytest.mark.parametrize("n", SOLIDS)
def test_one_circle_is_one_weight(n):
    # over every subset of the n + 2 dividing circles, the weight sum is
    # one circle's weight exactly when the subset is one circle, and below
    # 6n, the length of the region table
    t = moduli._tables(n)
    w = t.sign_weights
    assert len(w) == n + 2 and len(t.sign_region) == 6 * n
    for mask in range(1 << (n + 2)):
        members = [w[i] for i in range(n + 2) if mask >> i & 1]
        total = sum(members)
        assert total < 6 * n, (n, mask)
        assert (total in w) == (len(members) == 1), (n, mask, total)


def _circle_arc_midpoints(n, i):
    """One midpoint on each arc of dividing circle i: its crossings with
    every other circle, sorted along it (crossings that coincide, as at A
    and B, taken once), cut it into the arcs."""
    div = moduli.division(n)
    c = div.normals[i]
    x = np.cross(c, np.delete(div.normals, i, 0))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x = np.vstack([x, -x])
    e1, e2 = x[0], np.cross(c, x[0])
    ang = np.sort(np.arctan2(x @ e2, x @ e1) % (2.0 * math.pi))
    ang = ang[np.diff(ang, append=ang[0] + 2.0 * math.pi) > 1e-12]
    mid = 0.5 * (ang + np.append(ang[1:], ang[0] + 2.0 * math.pi))
    return np.cos(mid)[:, None] * e1 + np.sin(mid)[:, None] * e2


@pytest.mark.parametrize("n", SOLIDS)
def test_rule_on_every_arc_of_every_circle(n):
    # every arc of every dividing circle, enumerated exactly: its midpoint
    # is on that circle alone, the regions on its two sides are never fans
    # of two curves, and rule names the region whose inside rule is that of
    # both sides: none beside an outside region, the fan beside a core
    # region, and the lo side between two core regions or two fans of one
    # part (n = 5's 8|14 and 13|19 across B2)
    t = moduli._tables(n)
    fans = moduli.fan_parts(n)
    part_of = {m: part for part, regions in moduli.part_regions(n).items() for m in regions}
    fan_pairs = set()
    for i, w in enumerate(t.sign_weights):
        pts = _circle_arc_midpoints(n, i)
        with sphere.scratch(len(pts)) as s:
            code = moduli._codes(n, pts, s)
        for lo, hi in zip(*np.divmod(code, 6 * n)):
            assert hi - lo == w, (n, i, lo, hi)
            a, b = int(t.sign_region[lo]), int(t.sign_region[hi])
            pa, pb = part_of.get(a), part_of.get(b)
            if pa in fans and pb in fans:
                assert pa == pb, (n, i, a, b)
                fan_pairs.add(frozenset((a, b)))
            if pa is None or pb is None:
                want = 0
            else:
                want = b if pb in fans and pa not in fans else a
            assert t.rule[lo * 6 * n + hi] == want, (n, i, a, b)
    assert fan_pairs == ({frozenset((8, 14)), frozenset((13, 19))} if n == 5 else set())


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


def test_gamma_m_chart_takes_an_angle_one_turn_off():
    # an angle one turn above or below the curve's range is taken back into it
    for n in SOLIDS:
        want = moduli.gamma_m_chart("gamma_A", n, 0.75 * math.pi)
        for turn in (2.0 * math.pi, -2.0 * math.pi):
            got = moduli.gamma_m_chart("gamma_A", n, 0.75 * math.pi + turn)
            assert got.theta == pytest.approx(want.theta, abs=1e-15)
            assert got.r == pytest.approx(want.r, abs=1e-15)
            assert np.allclose(got.xi, want.xi, rtol=0.0, atol=1e-15)


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
    s = moduli.reduction_point("a=c", 3, math.pi / 3)
    assert abs(moduli.reduction_residual("a=c", 3, s.xi)) < 1e-10


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


@pytest.mark.parametrize("n", (4, 5))
def test_ab_point_is_the_one_crossing_in_the_disk(n):
    # the a=b circle's two crossings of a ray multiply to -1, so the ray
    # meets it at one positive radius, which lies in the unit disk on some
    # rays and outside it on others
    missed = 0
    for theta in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False):
        try:
            s = moduli.reduction_point("a=b", n, theta)
        except NoRootInDisk:
            missed += 1
            continue
        assert 0.0 < s.r < 1.0, (n, theta)
        assert abs(moduli.reduction_residual("a=b", n, s.xi)) < 1e-12, (n, theta)
    assert 0 < missed < 64, n


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
    # so _codes needs no vertex screen: a point within DEFAULT_TOL of a
    # division vertex, even off the unit sphere by nearly the slack that
    # as_points allows, is within ON_CIRCLE of two circles through it
    rng = np.random.default_rng(17)
    for n in SOLIDS:
        pts = _around_vertices(n, sphere.DEFAULT_TOL, rng)
        near = _full_chord_screen(n, pts, sphere.DEFAULT_TOL) >= 0
        assert near.any(), n
        one, region = _classify(n, pts[near])
        assert not one.any() and (region == 0).all(), n


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


def test_bc_leaves_gamma_a_at_one_certified_angle():
    # at M-chart angle 2.1747 for n = 5, interval arithmetic certifies that
    # the b=c locus lies beyond gamma_A (README "Known red test"): rebuilt
    # from the closed forms of moduli._m_chart_R and
    # moduli._reduction_quartic, the b=c quartic changes sign across
    # r_bc +- 1e-9 and is positive on [0, r_bc - 1e-9], so its smallest
    # root lies in that bracket, and gamma_A's radius is below it
    from mpmath import iv, mpf

    theta = 2.1747
    r_bc = float(moduli.reduction_radii("b=c", 5, np.array([theta]))[0])
    dps = iv.dps
    iv.dps = 30
    try:
        t = iv.mpf("2.1747")
        sq2, sq5 = iv.sqrt(2), iv.sqrt(5)
        q = iv.sqrt(sq5)   # 5^(1/4); iv.root fails in mpmath 1.3
        big_r = (1 - sq5) * iv.cos(t) + iv.sqrt(11 + sq5 + (5 - sq5) * iv.cos(2 * t))
        r_ga = (iv.sqrt(big_r * big_r + 4) - big_r) / 2
        p = (sq5 + 1) * iv.sqrt(sq5 + 1)
        c1 = sq2 * iv.sqrt(sq5 + 1) * q - sq5 - 1
        c2 = 3 * (p * q / sq2 - sq5 - 5)
        c0 = -p * q / sq2 + sq5 + 4
        sin = iv.sin(t)

        def quartic(r):
            return r ** 4 + c2 * r * r + c0 + c1 * r * (r * r + 1) * sin

        # the rebuilt forms are the code's, to its rounding
        for box, x in zip((c1, c2, c0, r_ga), moduli._reduction_quartic("b=c", 5)
                          + (moduli.gamma_m_chart("gamma_A", 5, theta).r,)):
            assert box.a - 1e-14 <= x <= box.b + 1e-14, (box, x)
        lo = (iv.mpf(r_bc) - iv.mpf("1e-9")).a
        hi = (iv.mpf(r_bc) + iv.mpf("1e-9")).b
        assert quartic(iv.mpf(lo)).a > 0 and quartic(iv.mpf(hi)).b < 0
        # positive on [0, lo], by bisection down to boxes the interval form
        # decides
        boxes = [(mpf(0), lo)]
        while boxes:
            a, b = boxes.pop()
            if quartic(iv.mpf([a, b])).a <= 0:
                assert b - a > 1e-20, (a, b)
                boxes += [(a, (a + b) / 2), ((a + b) / 2, b)]
        gap = r_ga - iv.mpf(lo)
        assert gap.b < -0.0302, gap
    finally:
        iv.dps = dps



# ---------------------------------------------------------------------------
# the height cap of the Monte Carlo sampler


class _Dual:
    """v + d e with e e = 0 over mpmath intervals: a function's enclosure
    and its derivative's, carried through the arithmetic of the M-chart
    forms."""

    def __init__(self, v, d=0):
        self.v, self.d = v, d

    def __add__(self, o):
        o = o if isinstance(o, _Dual) else _Dual(o)
        return _Dual(self.v + o.v, self.d + o.d)

    __radd__ = __add__

    def __neg__(self):
        return _Dual(-self.v, -self.d)

    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        o = o if isinstance(o, _Dual) else _Dual(o)
        return _Dual(self.v * o.v, self.d * o.v + self.v * o.d)

    __rmul__ = __mul__

    def __truediv__(self, o):
        return _Dual(self.v / o.v, (self.d * o.v - self.v * o.d) / (o.v * o.v))


def _m_chart_R_box(which, n, t):
    """moduli._m_chart_R rebuilt over a _Dual angle t of mpmath intervals."""
    from mpmath import iv

    def sqrt(x):
        r = iv.sqrt(x.v)
        return _Dual(r, x.d / (2 * r))

    c, s = _Dual(iv.cos(t.v), -iv.sin(t.v) * t.d), _Dual(iv.sin(t.v), iv.cos(t.v) * t.d)
    c2 = c * c - s * s
    sq2, sq5 = _Dual(iv.sqrt(2)), _Dual(iv.sqrt(5))
    if which == "gamma_A":
        return {3: lambda: sq2 * c + sqrt(5 + 3 * c2), 4: lambda: sqrt(6 + 2 * c2),
                5: lambda: (1 - sq5) * c + sqrt(11 + sq5 + (5 - sq5) * c2)}[n]()
    if which == "gamma_B":
        return {3: lambda: sq2 * s + sqrt(5 - 3 * c2), 4: lambda: 2 * s + 2 * sqrt(3 - c2),
                5: lambda: (1 + sq5) * s + sqrt(19 + 7 * sq5 - (5 + sq5) * c2)}[n]()
    return {3: lambda: sq2 * (2 * c * s - 1) / (c + s),
            4: lambda: 2 * (c * s - sq2) / (c + sq2 * s),
            5: lambda: 2 * (sq5 - 1) * (c * s - sq5 - 2) / (2 * c + (sq5 + 1) * s)}[n]()


@pytest.mark.parametrize("n", SOLIDS)
def test_top_z_bounds_every_curve_certified(n):
    # interval arithmetic certifies that no point of gamma_A, gamma_B or
    # gamma_C over M_THETA_RANGE (widened by 1e-15 for the rounding of its
    # ends) lies above top_z(n), so, by the argument of top_z's docstring,
    # no point of the moduli does.  Each box of angles X is bisected until
    # the mean value form R(m) + R'(X) (X - m), m its midpoint, puts R above
    # the R of top_z; the chart radius r = (sqrt(R^2 + 4) - R)/2 falls as R
    # rises.  The form is second order, so boxes near the peak stay wide
    from mpmath import iv, mpf

    dps = iv.dps
    iv.dps = 30
    try:
        z = iv.mpf(moduli.top_z(n))
        r_top = iv.sqrt((1 + z) / (1 - z)).a
        for which, (lo, hi) in moduli.M_THETA_RANGE.items():
            # the rebuilt forms are the code's, to its rounding
            for t in np.linspace(lo, hi, 9).tolist():
                box = _m_chart_R_box(which, n, _Dual(iv.mpf(t))).v
                assert box.a - 1e-14 <= moduli._m_chart_R(which, n, t) <= box.b + 1e-14
            boxes = [(mpf(lo) - mpf("1e-15"), mpf(hi) + mpf("1e-15"))]
            while boxes:
                a, b = boxes.pop()
                m = (a + b) / 2
                low = (_m_chart_R_box(which, n, _Dual(iv.mpf(m))).v
                       + _m_chart_R_box(which, n, _Dual(iv.mpf([a, b]), 1)).d
                       * iv.mpf([a - m, b - m]))
                low = iv.mpf(low.a)
                if ((iv.sqrt(low * low + 4) - low) / 2).b > r_top:
                    assert b - a > 1e-12, (which, a, b)
                    boxes += [(a, m), (m, b)]
    finally:
        iv.dps = dps


@pytest.mark.parametrize("n", SOLIDS)
def test_no_anchor_above_top_z_is_in(n):
    # on a seeded uniform draw and the near-locus anchor sets of
    # test_backends, neither predicate finds a point above the cap, and the
    # highest point either finds lies within 1e-4 below it: a loose bound
    # fails here, a low one in the certificate above
    from test_backends import _exact_path_anchors

    top = moduli.top_z(n)
    pts = np.vstack([sphere.sample_sphere(200_000, 150 + n), _exact_path_anchors(n)])
    above = pts[:, 2] > top
    assert 0.4 * len(pts) < np.count_nonzero(above)
    for inside in (moduli.analytic_in_moduli_batch(n, pts), pentagon.oracle_in_moduli_batch(n, pts)):
        assert not (inside & above).any()
        assert top - 1e-4 < pts[inside, 2].max() <= top


def test_top_z_values():
    # the highest points, each on gamma_C: z = 0 for n = 3 exactly (R = 0 at
    # theta = 5 pi/4), and the cap keeps 50%, 26% and 11% of the sphere
    for n, want in ((3, 0.0), (4, -0.470415), (5, -0.774730)):
        assert abs(moduli.top_z(n) - want) < 1e-6


def _sector_boxes(s, lo, hi):
    """The angles of sector s within 1e-13 rad (a row's azimuth misses its
    sector by a few ulps at most) that lie in [lo, hi] widened by 1e-15
    (for the rounding of its ends), as mpf end pairs; sector 0 reaches
    below 0, which is 2 pi."""
    from mpmath import mpf, mp

    width = 2 * mp.pi / sphere.SECTORS
    boxes = []
    for shift in (0, 2 * mp.pi):
        a = max(s * width - mpf("1e-13") + shift, mpf(lo) - mpf("1e-15"))
        b = min((s + 1) * width + mpf("1e-13") + shift, mpf(hi) + mpf("1e-15"))
        if a <= b:
            boxes.append((a, b))
    return boxes


def _R_holds(which, n, a, b, point, ok):
    """Whether ok holds of an interval holding _m_chart_R(which, n) over
    [a, b], bisecting the box until it does: where the derivative's
    enclosure excludes 0, R is monotone and lies between its values at the
    ends (point); elsewhere the mean value form R(m) + R'(X) (X - m) holds
    it, m the midpoint, tight where R is flat."""
    from mpmath import iv

    d = _m_chart_R_box(which, n, _Dual(iv.mpf([a, b]), 1)).d
    m = (a + b) / 2
    if d.a > 0 or d.b < 0:
        R = iv.mpf([min(point(a).a, point(b).a), max(point(a).b, point(b).b)])
    else:
        R = point(m) + d * iv.mpf([a - m, b - m])
    if ok(R):
        return True
    assert b - a > 1e-12, (which, a, b)
    return _R_holds(which, n, a, m, point, ok) and _R_holds(which, n, m, b, point, ok)


@pytest.mark.parametrize("n", SOLIDS)
def test_sector_caps_bound_every_curve_certified(n):
    # interval arithmetic certifies, sector by sector, that no point of
    # gamma_A, gamma_B or gamma_C over M_THETA_RANGE whose angle lies
    # within 1e-13 rad of the sector lies above outer[s], and, where
    # inner[s] is set, that none lies below inner[s] plus half its margin;
    # by the argument of sector_caps' docstring no point of the moduli in
    # the sector lies above outer[s], and every point of the sector under
    # inner[s] lies inside.  In R = _m_chart_R, z = -R/sqrt(R^2 + 4) falls
    # as R rises, and R = -2 z/sqrt(1 - z^2).  The inner caps are set on
    # exactly the sectors wholly inside (pi/2, 2 pi), so the rows beside
    # the radial arcs stay in the band, and no outer cap is above top_z
    from mpmath import iv, mp

    dps = iv.dps
    iv.dps = 30
    try:
        inner, outer = moduli.sector_caps(n)
        assert not (inner.flags.writeable or outer.flags.writeable)
        assert outer.max() <= moduli.top_z(n)
        width = 2 * math.pi / sphere.SECTORS
        inside = [s * width - 1e-13 > 0.5 * math.pi and (s + 1) * width + 1e-13 < 2 * math.pi
                  for s in range(sphere.SECTORS)]
        assert np.array_equal(np.isfinite(inner), inside) and (inner < outer).all()
        R_of = lambda z: -2 * z / iv.sqrt(1 - z * z)
        met = [False] * sphere.SECTORS
        for which, (lo, hi) in moduli.M_THETA_RANGE.items():
            cache = {}

            def point(t):
                if t not in cache:
                    cache[t] = _m_chart_R_box(which, n, _Dual(iv.mpf(t))).v
                return cache[t]

            for s in range(sphere.SECTORS):
                least = R_of(iv.mpf(outer[s])).b
                most = R_of(iv.mpf(inner[s]) + moduli._INNER_MARGIN / 2).a if inside[s] else mp.inf
                for a, b in _sector_boxes(s, lo, hi):
                    met[s] = True
                    assert _R_holds(which, n, a, b, point, lambda R: least <= R.a and R.b <= most)
        # a sector that meets no curve holds M alone of the closure
        assert all(outer[s] == -1.0 + moduli._TOP_MARGIN for s in range(sphere.SECTORS)
                   if not met[s])
        assert sum(met) == 194 and met[0] and met[63] and not met[62]
    finally:
        iv.dps = dps


@pytest.mark.parametrize("n", SOLIDS)
def test_sector_caps_leave_the_two_circle_rows_in_the_band(n):
    # membership puts a row on two dividing circles out, so none may be
    # counted under an inner cap.  Such a row p has |p.c| <= ON_CIRCLE for
    # both normals, so it lies within asin(2 ON_CIRCLE / sin phi) of a
    # crossing of the two circles, phi the angle between them, and its
    # height within as much of the crossing's.  Every crossing but M lies
    # above the inner caps of the sectors around it by more than that: the
    # crossings in the moduli's range of angles are vertices on its
    # boundary (A, B, C, A', B').  At M the two circles through it, A60
    # and B(n-1), cross at right angles, and every row counted under a cap
    # lies farther from M than their reach (z > -1 + POLE_GAP).  Those two
    # circles run from M at the angles of the radial arcs, pi/2 and 2 pi,
    # and on into the moduli: a row of an inner sector off their interior
    # half is farther from them than ON_CIRCLE, since |p.c| = sin d
    # |sin(theta - theta_c)| at distance d from M.
    inner, _ = moduli.sector_caps(n)
    div = moduli.division(n)
    M = charts.geometry(n).M
    width = 2 * math.pi / sphere.SECTORS
    far = math.acos(1.0 - sphere.POLE_GAP)
    through_m = []
    for i in range(len(div.normals)):
        for j in range(i + 1, len(div.normals)):
            x = np.cross(div.normals[i], div.normals[j])
            sin_phi = np.linalg.norm(x)
            reach = math.asin(2.0 * sphere.ON_CIRCLE / sin_phi) + 1e-15
            for X in (x / sin_phi, -x / sin_phi):
                if np.linalg.norm(X - M) < 1e-12:
                    through_m.append((div.circle_names[i], div.circle_names[j]))
                    assert reach < far
                    continue
                # the sectors of the azimuths within reach of X
                if abs(X[2]) > 0.99:
                    near = range(sphere.SECTORS)
                else:
                    az = math.atan2(X[1], X[0]) % (2 * math.pi)
                    spread = math.asin(math.sin(reach) / math.sqrt(1.0 - X[2] ** 2)) + 1e-13
                    near = {int((az + d) % (2 * math.pi) // width) for d in (-spread, spread)}
                assert all(X[2] - reach > inner[t] for t in near), (i, j, X)
    assert through_m == [("A60", f"B{n - 1}")]
    for name in through_m[0]:
        # c = (-sin t, cos t, 0): the circle leaves M at the angles t and t +
        # pi, the radial arc's, pi/2 or 2 pi, and one into the moduli, 3 pi/2
        # or pi, which puts a row beside it on one circle between two moduli
        # regions
        c = div.normals[div.circle_names.index(name)]
        t = math.atan2(c[0], -c[1]) % math.pi
        radial = 0.5 * math.pi if abs(t - 0.5 * math.pi) < 1e-12 else 2.0 * math.pi
        assert min(abs(t - 0.5 * math.pi), t, math.pi - t) < 1e-12
        for s in np.isfinite(inner).nonzero()[0]:
            a, b = s * width - 1e-13, (s + 1) * width + 1e-13
            if not a <= (radial + math.pi) % (2.0 * math.pi) <= b:
                # off a multiple of pi |sin| is least at an end
                sine = min(abs(math.sin(a - radial)), abs(math.sin(b - radial)))
                assert math.sin(far) * sine > sphere.ON_CIRCLE, (name, s)


@pytest.mark.parametrize("n", SOLIDS)
def test_no_anchor_outside_the_sector_caps_is_misjudged(n):
    # on a seeded uniform draw and the near-locus anchors of test_backends,
    # each row taken to the sector of its azimuth: no row above the outer
    # cap is in by either predicate, every row under the inner cap and off
    # M is in by membership, and the band between them is thin: loose caps
    # fail here, wrong ones in the certificates above
    from test_backends import _exact_path_anchors

    inner, outer = moduli.sector_caps(n)
    drawn = sphere.sample_sphere(200_000, 150 + n)
    pts = np.vstack([drawn, _exact_path_anchors(n)])
    az = np.arctan2(pts[:, 1], pts[:, 0]) % (2 * math.pi)
    sector = np.minimum(az // (2 * math.pi / sphere.SECTORS), sphere.SECTORS - 1).astype(int)
    z = pts[:, 2]
    over = z > outer[sector]
    under = (z < inner[sector]) & (z > -1.0 + sphere.POLE_GAP)
    assert 0.4 * len(pts) < np.count_nonzero(over)
    analytic = moduli.analytic_in_moduli_batch(n, pts)
    for inside in (analytic, pentagon.oracle_in_moduli_batch(n, pts)):
        assert not (inside & over).any()
    assert analytic[under].all()
    assert np.count_nonzero(under[:len(drawn)]) > 0.95 * np.count_nonzero(analytic[:len(drawn)])
    assert np.count_nonzero((~over & ~under)[:len(drawn)]) < 0.01 * len(drawn)


def _mirror_ab(n, pts):
    """The reflection of each row across the a=b plane, whose normal is A - B."""
    geo = charts.geometry(n)
    u = (geo.A - geo.B) / np.linalg.norm(geo.A - geo.B)
    return pts - 2.0 * (pts @ u)[:, None] * u


def _check_mirror_symmetry(pts):
    """For n = 3 the a=b plane is a mirror of the construction: outside
    the 1e-6 rad band both predicates answer alike at a point and its
    image.  Returns how many rows were outside the band."""
    img = _mirror_ab(3, pts)
    keep = ~(moduli.boundary_band_mask(3, pts, 1e-6) | moduli.boundary_band_mask(3, img, 1e-6))
    for predicate in (moduli.analytic_in_moduli_batch, pentagon.oracle_in_moduli_batch):
        assert np.array_equal(predicate(3, pts)[keep], predicate(3, img)[keep]), predicate
    return int(np.count_nonzero(keep))


def test_n3_mirror_symmetry():
    assert _check_mirror_symmetry(sphere.sample_sphere(20000, 29)) > 19900


@settings(max_examples=200, deadline=None)
@given(_UNIT)
def test_n3_mirror_symmetry_hypothesis(v):
    _check_mirror_symmetry((np.array(v) / np.linalg.norm(v))[None])


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
