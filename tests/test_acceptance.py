"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines on success.
"""

import cmath
import math
import time
from pathlib import Path

import numpy as np

from pentamod import areas, charts, cli, moduli, pentagon
from pentamod.sphere import sample_sphere
from pentamod.charts import SQ2, SQ3, SQ5, ChartPoint, solid_constants
from pentamod.errors import NoRootInDisk

SOLIDS = (3, 4, 5)
GOLDEN = Path(__file__).parent / "golden"

TOTAL_OVER_PI = {3: 0.8600517493, 4: 0.4602931496, 5: 0.1954959087}

TABLE_1 = {
    3: (1 / SQ2, (SQ3 - 1) / SQ2, (SQ3 - 1) / SQ2),
    4: ((SQ3 - 1) / SQ2, SQ3 - SQ2, SQ2 - 1),
    5: ((math.sqrt(30 + 6 * SQ5) - SQ5 - 3) / 4,
        (math.sqrt(15.0) - SQ5 + SQ3 - 3) / 2,
        (math.sqrt(10 + 2 * SQ5) - SQ5 - 1) / 2),
}
TABLE_2 = {
    3: (1 / (4 * SQ2), 1 / (4 * SQ2), 1 / (2 * SQ2)),
    4: (1 / (2 * SQ2), 0.5, 1 / SQ2),
    5: ((SQ5 + 3) / 8, (SQ5 + 2) / 4, (SQ5 + 3) / 4),
}


def _finish(num: int, desc: str, failures: list, elapsed: float | None = None):
    status = "PASS" if not failures else "FAIL"
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    line = f"[criterion {num}] {status}: {desc}{timing}"
    if failures:
        line += f" -- {failures[:4]}"
    print(line)
    assert not failures, line


def test_criterion_1_constants():
    failures = []
    for n in SOLIDS:
        c = solid_constants(n)
        for name, got, want in zip(("d_ab", "d_am", "d_bm"),
                                   (c.d_ab, c.d_am, c.d_bm), TABLE_1[n]):
            if abs(got - want) >= 1e-12:
                failures.append((n, name))
        for name, got, want in zip(("lambda_a", "lambda_b", "lambda_c"),
                                   (c.lambda_a, c.lambda_b, c.lambda_c), TABLE_2[n]):
            if abs(got - want) >= 1e-12:
                failures.append((n, name))
        taneq = abs((1 / c.d_ab - c.d_ab) * math.tan(math.pi / 3)
                    - (1 / c.d_ab + c.d_ab) * math.tan((0.5 - 1 / n) * math.pi))
        if taneq >= 1e-12:
            failures.append((n, "tan-equation", taneq))
    _finish(1, "Table 1 & 2 constants within 1e-12 of closed forms", failures)


def test_criterion_2_areas():
    t0 = time.perf_counter()
    failures = []
    for n in SOLIDS:
        rep = areas.part_areas(n)
        if abs(rep.total / math.pi - TOTAL_OVER_PI[n]) >= 1e-8:
            failures.append((n, "total", rep.total / math.pi))
        res = areas.consistency_A2A4A8(n)
        if res >= 1e-9:
            failures.append((n, "A2+A4+A8", res))
        quad = areas.part_areas_quadrature(n)
        for key, val in quad.items():
            gap = abs(getattr(rep, key) - val)
            if gap >= 1e-9:
                failures.append((n, key, gap))
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(("runtime", elapsed))
    _finish(2, "totals to 1e-8*pi, consistency and quadrature cross-checks to 1e-9",
            failures, elapsed)


def test_criterion_3_oracle_equivalence():
    # a tiny warmup call first so the cached per-family tables are not
    # billed as runtime
    warm = sample_sphere(8, 1)
    for n in SOLIDS:
        moduli.analytic_in_moduli_batch(n, warm)
        pentagon.oracle_in_moduli_batch(n, warm)
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for n in SOLIDS:
        pts = sample_sphere(20000, 1000 + n)
        keep = ~moduli.boundary_band_mask(n, pts, 1e-6)
        analytic = moduli.analytic_in_moduli_batch(n, pts[keep])
        oracle = pentagon.oracle_in_moduli_batch(n, pts[keep])
        checked += int(keep.sum())
        bad = int(np.count_nonzero(analytic != oracle))
        if bad:
            failures.append((n, "disagreements", bad))
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(("runtime", elapsed))
    _finish(3, f"analytic == oracle on {checked} points outside the 1e-6 band",
            failures, elapsed)


def test_criterion_4_curve_consistency():
    failures = []
    for n in SOLIDS:
        inv = {"A": charts.mobius_m_to_a(n).inverse(),
               "B": charts.mobius_m_to_b(n).inverse()}
        mname = {"gamma_A": "gamma_A", "gamma_B": "gamma_B",
                 "gamma_C_A": "gamma_C", "gamma_C_B": "gamma_C"}
        for which in moduli.CURVE_NAMES:
            spec = moduli.curve_spec(which, n)
            lo = spec.theta_lo + (1e-6 if spec.singular_end == "lo" else 0.0)
            hi = spec.theta_hi - (1e-6 if spec.singular_end == "hi" else 0.0)
            worst = {"polar": 0.0, "sph": 0.0, "cart": 0.0, "cx": 0.0,
                     "mchart": 0.0}
            for theta in np.linspace(lo, hi, 256):
                r = moduli.curve_radius(spec, theta)
                z = cmath.rect(r, theta)
                phi = spec.phi_const + spec.phi_sign * theta
                eqe = abs(1.0 / r - r - 2.0 * spec.lam / math.cos(phi - spec.alpha))
                worst["polar"] = max(worst["polar"], eqe)
                xi = charts.to_sphere(ChartPoint(z, spec.chart, n))
                worst["sph"] = max(worst["sph"], abs(moduli.gamma_residual(spec, xi)))
                worst["cart"] = max(worst["cart"], abs(moduli.gamma_cartesian_residual(spec, z)))
                worst["cx"] = max(worst["cx"], abs(moduli.gamma_complex_residual(spec, z)))
                zm = charts.apply_mobius(inv[spec.chart], z)
                worst["mchart"] = max(worst["mchart"], abs(
                    moduli.m_chart_cartesian_residual(mname[which], n, zm)))
            for form, err in worst.items():
                if err >= 1e-9:
                    failures.append((n, which, form, err))
        # gamma_C mirror symmetry between its two home charts
        sa = moduli.curve_spec("gamma_C_A", n)
        sb = moduli.curve_spec("gamma_C_B", n)
        for theta in np.linspace(sa.theta_lo + 1e-6, sa.theta_hi, 256):
            za = cmath.rect(moduli.curve_radius(sa, theta), theta)
            zb = complex(-za.real, za.imag)
            tb = cmath.phase(zb)
            if tb > 0:
                tb -= 2 * math.pi
            if abs(moduli.curve_radius(sb, tb) - abs(zb)) >= 1e-10:
                failures.append((n, "mirror", theta))
        # endpoint incidence
        geo = charts.geometry(n)
        from pentamod.sphere import angular_distance
        ends = [("gamma_A", "lo", geo.B_prime), ("gamma_A", "hi", geo.A),
                ("gamma_B", "lo", geo.B), ("gamma_B", "hi", geo.A_prime),
                ("gamma_C_A", "lo", geo.A), ("gamma_C_A", "hi", geo.B),
                ("gamma_C_B", "lo", geo.A), ("gamma_C_B", "hi", geo.B)]
        for which, end, want in ends:
            spec = moduli.curve_spec(which, n)
            theta = spec.theta_lo if end == "lo" else spec.theta_hi
            if angular_distance(moduli.gamma_point(spec, theta).xi, want) >= 1e-9:
                failures.append((n, which, "endpoint", end))
        for which, theta in (("gamma_C_A", -math.pi / 3),
                             ("gamma_C_B", -(1 - 1 / n) * math.pi)):
            s = moduli.gamma_point(moduli.curve_spec(which, n), theta)
            if angular_distance(s.xi, geo.C) >= 1e-9:
                failures.append((n, which, "through-C"))
    _finish(4, "four curve forms, M-chart transports, mirror symmetry, endpoints",
            failures)


def test_criterion_5_reduction_loci():
    failures = []
    for n in SOLIDS:
        # sampled loci satisfy the plane / cylinder forms
        worst = 0.0
        for theta in np.linspace(0.0, 2 * math.pi, 64, endpoint=False):
            for kind in ("a=c", "b=c"):
                try:
                    s = moduli.reduction_point(kind, n, theta)
                except NoRootInDisk:
                    continue
                worst = max(worst, abs(moduli.reduction_residual(kind, n, s.xi)))
        diag = 1.25 * math.pi
        for theta in np.linspace(0, 2 * math.pi, 16, endpoint=False):
            try:
                s = moduli.reduction_point("a=b", n, theta if n != 3 else diag)
            except NoRootInDisk:
                continue
            worst = max(worst, abs(moduli.reduction_residual("a=b", n, s.xi)))
        if worst >= 1e-10:
            failures.append((n, "locus residual", worst))
        # pentagons at on-locus anchors inside the moduli
        for kind in ("a=b", "a=c", "b=c"):
            found = 0
            for theta in np.linspace(math.pi, 1.5 * math.pi, 41):
                try:
                    s = moduli.reduction_point(kind, n, theta)
                except NoRootInDisk:
                    continue
                if not moduli.analytic_in_moduli(n, s.xi):
                    continue
                found += 1
                pent = pentagon.anchor_pentagon(n, s.xi)
                a, b = pent.a1.length, pent.b1.length
                c = 2.0 * pent.c1.length
                gap = {"a=b": a - b, "a=c": a - c, "b=c": b - c}[kind]
                if abs(gap) >= 1e-9:
                    failures.append((n, kind, "length", gap))
            if not found:
                failures.append((n, kind, "no in-moduli sample"))
        # b=c tangential to and below gamma_A
        rep = moduli.check_bc_below_gammaA(n)
        if not (rep.min_gap < 1e-6):
            failures.append((n, "tangency min_gap", rep.min_gap))
        if rep.min_gap < -1e-9:
            failures.append((n, "b=c crosses gamma_A", rep.min_gap,
                             "theta", rep.tangency_theta))
    _finish(5, "plane/cylinder residuals 1e-10, length equalities 1e-9, "
               "b=c tangent to and below gamma_A", failures)


def test_criterion_6_monte_carlo():
    failures = []
    for n in SOLIDS:
        est = areas.monte_carlo_area(n, 1_000_000, 42)
        est2 = areas.monte_carlo_area(n, 1_000_000, 42)
        if est.estimate != est2.estimate or est.hits != est2.hits:
            failures.append((n, "not deterministic"))
        want = areas.part_areas(n).total
        sigma = abs(est.estimate - want) / est.stderr
        if sigma >= 3.0:
            failures.append((n, "sigma", sigma))
    _finish(6, "1e6-sample Monte Carlo within 3 sigma, bit-identical reruns",
            failures)


def test_criterion_7_rendering(tmp_path):
    failures = []
    for n in SOLIDS:
        out = tmp_path / f"moduli{n}.svg"
        code = cli.main(["render", "--solid", str(n), "--out", str(out),
                         "--include", "moduli-boundary", "core-triangles",
                         "reduction-curves"])
        if code != 0:
            failures.append((n, "exit", code))
            continue
        if out.read_bytes() != (GOLDEN / f"moduli{n}.svg").read_bytes():
            failures.append((n, "golden mismatch"))
        import re
        text = out.read_text()
        c = solid_constants(n)
        key = {"A": (-c.d_am, 0.0), "B": (0.0, -c.d_bm),
               "A'": (c.d_am, 0.0), "B'": (0.0, c.d_bm)}
        for ident, endnames in (("gammaA", ("B'", "A")), ("gammaB", ("B", "A'")),
                                ("gammaC", ("A", "B"))):
            m = re.search(rf'<path id="{ident}"[^>]*d="([^"]+)"', text)
            coords = re.findall(r"(-?\d+\.?\d*(?:e-?\d+)?) (-?\d+\.?\d*(?:e-?\d+)?)",
                                m.group(1))
            for pos, name in zip((coords[0], coords[-1]), endnames):
                got = (float(pos[0]), float(pos[1]))
                want = key[name]
                if math.hypot(got[0] - want[0], got[1] - want[1]) >= 1e-6:
                    failures.append((n, ident, name))
    _finish(7, "byte-identical SVG against golden; path endpoints at A, B, A', B'",
            failures)
