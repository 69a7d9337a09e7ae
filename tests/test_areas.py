import math
import threading

import numpy as np
import pytest

from pentamod import areas, moduli, sphere
from pentamod.charts import solid_constants
from test_sphere import _azimuth_words, _split

SOLIDS = (3, 4, 5)

# totals published for the three families, as multiples of pi
TOTAL_OVER_PI = {3: 0.8600517493, 4: 0.4602931496, 5: 0.1954959087}


def simpson_F(t, lam, pieces=1 << 14):
    """Composite-Simpson oracle for the imaginary-modulus elliptic integral."""
    if t == 0.0:
        return 0.0
    u = np.linspace(0.0, t, 2 * pieces + 1)
    y = 1.0 / np.sqrt(1.0 + (np.sin(u) / lam) ** 2)
    h = t / (2 * pieces)
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def _quad(f, a, b):
    """scipy's adaptive quadrature: the independent reference for the closed
    form and the fixed rule (scipy is a test-only dependency)."""
    from scipy import integrate
    return integrate.quad(f, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0]


def test_elliptic_matches_scipy_quad():
    pytest.importorskip("scipy")
    amplitudes = {n: (0.3, math.pi / 6.0, (0.5 - 1.0 / n) * math.pi, 0.5 * math.pi)
                  for n in SOLIDS}
    cases = []
    for n in SOLIDS:
        c = solid_constants(n)
        cases += [(t, lam) for lam in (c.lambda_a, c.lambda_b, c.lambda_c) for t in amplitudes[n]]
    every_t = sorted({t for ts in amplitudes.values() for t in ts})
    cases += [(t, lam) for lam in (1e-3, 1e-2, 0.2, 3.0, 1e8) for t in every_t]
    for t, lam in cases:
        want = _quad(lambda u: 1.0 / math.sqrt(1.0 + (math.sin(u) / lam) ** 2), 0.0, t)
        assert abs(areas.elliptic_F_imag(t, lam) - want) < 1e-13, (t, lam)


def test_part_areas_match_scipy_quad(monkeypatch):
    # the same four fans, each integrated adaptively by scipy: the fixed
    # Gauss-Legendre rule and the elliptic formulas both agree with it
    pytest.importorskip("scipy")
    fixed = {n: areas.part_areas_quadrature(n) for n in SOLIDS}
    monkeypatch.setattr(areas, "fan_area_quadrature", lambda r, a, b: _quad(
        lambda t: 2.0 * r(t) ** 2 / (1.0 + r(t) ** 2), a, b))
    for n in SOLIDS:
        rep = areas.part_areas(n)
        for key, want in areas.part_areas_quadrature(n).items():
            assert abs(fixed[n][key] - want) < 1e-13, (n, key)
            assert abs(getattr(rep, key) - want) < 1e-13, (n, key)
        assert areas.consistency_A2A4A8(n) < 1e-13


def test_elliptic_trivial_cases():
    assert areas.elliptic_F_imag(0.0, 0.3) == 0.0
    # lambda -> infinity degenerates to F(t, 0) = t
    t = 1.1
    assert abs(areas.elliptic_F_imag(t, 1e8) - t) < 1e-7


def test_elliptic_against_simpson_oracle():
    lam = 1.0 / (4.0 * math.sqrt(2.0))
    got = areas.elliptic_F_imag(math.pi / 6.0, lam)
    assert abs(got - simpson_F(math.pi / 6.0, lam)) < 1e-12
    assert got == pytest.approx(0.321991385091131, abs=1e-12)   # frozen oracle value
    for n in SOLIDS:
        c = solid_constants(n)
        for lam in (c.lambda_a, c.lambda_b, c.lambda_c):
            for t in (0.3, math.pi / 6.0, 0.5 * math.pi):
                assert abs(areas.elliptic_F_imag(t, lam) - simpson_F(t, lam)) < 1e-12


def test_elliptic_monotonicity():
    lam = 0.7
    ts = np.linspace(0.05, 0.5 * math.pi, 12)
    vals = [areas.elliptic_F_imag(t, lam) for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    t = 0.9
    lams = (0.2, 0.5, 1.0, 3.0)
    vals = [areas.elliptic_F_imag(t, lam) for lam in lams]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_fan_area_trivial_cases():
    assert areas.fan_area_quadrature(lambda t: 0.0, 0.0, 1.0) == 0.0
    got = areas.fan_area_quadrature(lambda t: 1.0, 0.0, 0.5 * math.pi)
    assert got == pytest.approx(0.5 * math.pi, abs=1e-12)


def test_gamma_a_fan_equals_elliptic_formula():
    # A5 both ways for the tetrahedral family
    c = solid_constants(3)
    spec = moduli.curve_spec("gamma_A", 3)
    quad = areas.fan_area_quadrature(lambda t: moduli.curve_radius(spec, t),
                                     spec.theta_lo, spec.theta_hi)
    closed = math.pi / 6.0 - areas.elliptic_F_imag(math.pi / 6.0, c.lambda_a)
    assert abs(quad - closed) < 1e-9


def test_part_areas_totals():
    for n in SOLIDS:
        rep = areas.part_areas(n)
        assert abs(rep.total / math.pi - TOTAL_OVER_PI[n]) < 1e-8
        assert rep.A1 == rep.A2 == rep.A3 == rep.A7
        assert rep.A1 == pytest.approx(4.0 * math.pi / (6.0 * solid_constants(n).faces), abs=1e-15)
        parts = rep.A1 + rep.A2 + rep.A3 + rep.A7 + rep.A4 + rep.A5 + rep.A8 + rep.A13
        assert rep.total == pytest.approx(parts, abs=1e-15)


def test_part_areas_fractions_and_monotonicity():
    fr = {n: areas.part_areas(n).fraction_of_sphere for n in SOLIDS}
    assert fr[3] > fr[4] > fr[5]
    assert fr[3] == pytest.approx(0.215013, abs=1e-5)
    assert fr[4] == pytest.approx(0.115073, abs=1e-5)
    assert fr[5] == pytest.approx(0.048874, abs=1e-5)


def test_elliptic_vs_quadrature_all_parts():
    for n in SOLIDS:
        rep = areas.part_areas(n)
        quad = areas.part_areas_quadrature(n)
        for key, val in quad.items():
            assert abs(getattr(rep, key) - val) < 1e-9, (n, key)


def test_consistency_a2_a4_a8():
    for n in SOLIDS:
        assert areas.consistency_A2A4A8(n) < 1e-9


def test_monte_carlo_determinism_and_accuracy():
    est1 = areas.monte_carlo_area(4, 200_000, 42)
    est2 = areas.monte_carlo_area(4, 200_000, 42)
    assert est1.estimate == est2.estimate and est1.hits == est2.hits
    want = areas.part_areas(4).total
    assert abs(est1.estimate - want) < 3.0 * est1.stderr


def test_monte_carlo_rejects_tiny_sample():
    with pytest.raises(ValueError):
        areas.monte_carlo_area(3, 10, 1)


def test_elliptic_input_validation():
    with pytest.raises(ValueError):
        areas.elliptic_F_imag(-0.1, 1.0)
    with pytest.raises(ValueError):
        areas.elliptic_F_imag(2.0, 1.0)
    with pytest.raises(ValueError):
        areas.elliptic_F_imag(0.3, 0.0)
    for t, lam in ((math.nan, 1.0), (0.5, math.nan)):
        with pytest.raises(ValueError):
            areas.elliptic_F_imag(t, lam)


@pytest.mark.parametrize("chunk, cores", [(997, 1), (997, 2), (4096, 2), (7001, 1),
                                          (7001, 2), (20_000, 2)])
def test_monte_carlo_hits_do_not_depend_on_pieces_or_workers(monkeypatch, chunk, cores):
    monkeypatch.setattr(sphere, "_CHUNK", chunk)
    monkeypatch.setattr(sphere, "_cores", lambda: cores)
    pts = sphere.sample_sphere(20_000, 7)
    for n in SOLIDS:
        want = int(np.count_nonzero(moduli.analytic_in_moduli_batch(n, pts)))
        assert areas.monte_carlo_area(n, 20_000, 7).hits == want


def test_monte_carlo_streams_bounded_pieces(monkeypatch):
    # each piece draws a near-equal row range of the whole sample, counts
    # its rows under the inner caps of moduli.sector_caps and hands
    # membership its rows between the caps, the band, with their bits in
    # the whole sample; membership sees those rows and no others
    whole = sphere.sample_sphere(1_000_000, 42)
    over, under = _split(whole, _azimuth_words(1_000_000, 42), moduli.sector_caps(4))
    band = ~over & ~under
    drawn, kept, tested = [], {}, []
    sample_rows = sphere._sample_rows
    bounds = sphere._m_bounds(moduli.sector_caps(4))

    def sampler(samples, seed, start, stop, given):
        counted, rows = sample_rows(samples, seed, start, stop, given)
        assert all(np.array_equal(a, b) for a, b in zip(given, bounds))
        drawn.append((start, stop, counted))
        kept[start] = rows
        return counted, rows

    def membership(n, pts):
        tested.append(pts.tobytes())
        return moduli.analytic_in_moduli_batch(n, pts)

    monkeypatch.setattr(sphere, "_sample_rows", sampler)
    monkeypatch.setattr(areas, "analytic_in_moduli_batch", membership)
    # the pinned hits of the benchmark's baseline call
    est = areas.monte_carlo_area(4, 1_000_000, 42)
    assert est.hits == 114897
    drawn.sort()
    assert drawn[0][0] == 0 and drawn[-1][1] == 1_000_000
    assert all(b == c for (_, b, _), (c, _, _) in zip(drawn, drawn[1:]))
    # near-equal pieces: never a lone row cut from a larger batch
    assert all(sphere._CHUNK // 2 <= b - a <= sphere._CHUNK for a, b, _ in drawn)
    for a, b, counted in drawn:
        assert kept[a].tobytes() == whole[a:b][band[a:b]].tobytes(), (a, b)
        assert counted == np.count_nonzero(under[a:b]), (a, b)
    assert est.evaluated == np.count_nonzero(band) == sum(map(len, kept.values()))
    assert est.under_inner == np.count_nonzero(under)
    assert sorted(t for t in tested if t) == sorted(rows.tobytes() for rows in kept.values())
    # the hits are membership's on every row: none above the outer caps is
    # in, every one under the inner caps is
    inside = moduli.analytic_in_moduli_batch(4, whole)
    assert not (inside & over).any() and inside[under].all()
    assert est.hits == np.count_nonzero(inside)


@pytest.mark.parametrize("samples", [12_345, 3 * (1 << 14) + 77])
@pytest.mark.parametrize("cores", [1, 2])
def test_monte_carlo_hits_are_those_of_the_whole_sample(monkeypatch, samples, cores):
    # the rows outside the band are never tested, and the hits are still
    # those of membership on every row: one inline piece, and pieces that
    # do not divide the sample, on one worker or two.  The caps test fewer
    # rows than the one cap top_z did, and count most hits untested
    monkeypatch.setattr(sphere, "_cores", lambda: cores)
    pts = sphere.sample_sphere(samples, 9)
    words = _azimuth_words(samples, 9)
    for n in SOLIDS:
        est = areas.monte_carlo_area(n, samples, 9)
        assert est.hits == np.count_nonzero(moduli.analytic_in_moduli_batch(n, pts)), n
        over, under = _split(pts, words, moduli.sector_caps(n))
        assert est.evaluated == np.count_nonzero(~over & ~under) < samples
        assert est.under_inner == np.count_nonzero(under) > est.hits // 2
        assert est.evaluated + est.under_inner <= np.count_nonzero(pts[:, 2] <= moduli.top_z(n))


def test_one_piece_map_sample_rejects_an_empty_sample():
    for samples in (0, -1):
        with pytest.raises(ValueError):
            sphere.map_sample(samples, 1, len, moduli.sector_caps(3))


def test_one_piece_monte_carlo_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("a one-piece call started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert areas.monte_carlo_area(3, sphere._CHUNK, 5).samples == sphere._CHUNK
