"""Moduli areas: elliptic-integral formulas, fan quadrature, Monte Carlo.

The boundary-curve fans have area integral 2 r^2/(1+r^2) d(theta), which for
the generic curve reduces to (pi/2 - alpha) - F(pi/2 - alpha, i/lambda) with
F the incomplete elliptic integral of the first kind.  For imaginary modulus
F(t, i/lambda) = sin t R_F(cos^2 t, 1 + sin^2 t/lambda^2, 1) (DLMF 19.25.5),
with Carlson's R_F in closed form by the duplication algorithm (DLMF 19.36.1;
Carlson, Numer. Algorithms 10, 1995).  The independent route integrates each
fan with one fixed 32-node Gauss-Legendre rule; its integrand is smooth.

Monte Carlo counts its sample through sphere.map_sample, the one streaming
owner it shares with the `verify` command: near-equal pieces of bounded size,
each regenerated on its own from the counter-based sample and counted on
every available core.  So the hits depend on (seed, samples) alone, never on
the piece size or the worker count, and memory stays bounded.  No point of
the moduli lies above the height moduli.top_z(n), so the count asks
map_sample for the rows under it alone: the rows above (half the sphere or
more) cost their draws but no trigonometry and no membership test, and the
hits are those of the whole sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .charts import solid_constants
from .moduli import analytic_in_moduli_batch, curve_radius, fan_parts, top_z
from .sphere import map_sample


def _carlson_rf(x: float, y: float, z: float) -> float:
    """R_F(x, y, z): duplicate until the arguments agree to 2.5e-3, then the
    fifth-order series of DLMF 19.36.1 (truncation error ~ 2.5e-3^6)."""
    dx = dy = dz = 1.0
    while max(abs(dx), abs(dy), abs(dz)) >= 2.5e-3:
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        a = (x + y + z) / 3.0
        dx, dy, dz = 1.0 - x / a, 1.0 - y / a, 1.0 - z / a
    e2, e3 = dx * dy - dz * dz, dx * dy * dz
    return (1.0 + (e2 / 24.0 - 0.1 - 3.0 / 44.0 * e3) * e2 + e3 / 14.0) / math.sqrt(a)


def elliptic_F_imag(t: float, lam: float) -> float:
    """F(t, i/lambda): integral of du / sqrt(1 + sin(u)^2 / lambda^2) on [0, t]."""
    if not 0.0 <= t <= 0.5 * math.pi + 1e-12:
        raise ValueError("amplitude t must lie in [0, pi/2]")
    if not lam > 0.0:   # NaN fails it too, as it fails the test of t
        raise ValueError("lambda must be positive")
    s = math.sin(t)
    return s * _carlson_rf(math.cos(t) ** 2, 1.0 + s * s / (lam * lam), 1.0)


def fan_area_quadrature(r_of_theta, alpha: float, beta: float) -> float:
    """Spherical area of the chart fan 0 <= r <= r(theta), theta in [alpha, beta]."""
    nodes, weights = _gauss_legendre()
    half, mid = 0.5 * (beta - alpha), 0.5 * (beta + alpha)
    r2 = np.array([r_of_theta(mid + half * x) ** 2 for x in nodes])
    return float(half * (weights @ (2.0 * r2 / (1.0 + r2))))


@lru_cache(maxsize=None)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 32-node Gauss-Legendre rule on [-1, 1], built on first use so
    that importing the package does not load numpy.polynomial."""
    from numpy.polynomial.legendre import leggauss
    return leggauss(32)


@dataclass(frozen=True)
class AreaReport:
    """Part areas (steradians) of one family's moduli."""

    n: int
    A1: float
    A2: float
    A3: float
    A7: float
    A4: float
    A5: float
    A8: float
    A13: float
    total: float
    fraction_of_sphere: float


def part_areas(n: int) -> AreaReport:
    """Exact-formula areas of the eight moduli parts and their total.

    The four core triangles each cover 1/(6N) of the sphere.  A5 and A13 are
    the gamma_A / gamma_B fans, A4 and A8 the two gamma_C fans (A13 and A8
    absorb the extra regions of the icosahedral family).
    """
    c = solid_constants(n)
    tri = 4.0 * math.pi / (6.0 * c.faces)
    half_angle = (0.5 - 1.0 / n) * math.pi
    a5 = math.pi / 6.0 - elliptic_F_imag(math.pi / 6.0, c.lambda_a)
    a13 = half_angle - elliptic_F_imag(half_angle, c.lambda_b)
    a4 = math.pi / 6.0 - elliptic_F_imag(math.pi / 6.0, c.lambda_c)
    a8 = half_angle - elliptic_F_imag(half_angle, c.lambda_c)
    total = 4.0 * tri + a5 + a13 + a4 + a8
    return AreaReport(n=n, A1=tri, A2=tri, A3=tri, A7=tri,
                      A4=a4, A5=a5, A8=a8, A13=a13,
                      total=total, fraction_of_sphere=total / (4.0 * math.pi))


def part_areas_quadrature(n: int) -> dict:
    """The four curve-fan areas by direct quadrature of 2r^2/(1+r^2).

    Independent route against the elliptic formulas in part_areas: the
    integrand runs over the curve radius functions in their home charts.
    """
    return {part: fan_area_quadrature(partial(curve_radius, spec), lo, hi)
            for part, (spec, lo, hi) in fan_parts(n).items()}


def consistency_A2A4A8(n: int) -> float:
    """|A2 + A4 + A8 - (pi/2 - F(pi/2, i/lambda_C))|: the gamma_C fan closes
    over the whole quarter-turn because the curve has one equation on both
    sides of C."""
    rep = part_areas(n)
    lhs = rep.A2 + rep.A4 + rep.A8
    rhs = 0.5 * math.pi - elliptic_F_imag(0.5 * math.pi, solid_constants(n).lambda_c)
    return abs(lhs - rhs)


@dataclass(frozen=True)
class MonteCarloEstimate:
    n: int
    samples: int
    seed: int
    hits: int
    estimate: float
    stderr: float
    evaluated: int    # the sample's rows under moduli.top_z(n), the ones tested


def monte_carlo_area(n: int, samples: int, seed: int) -> MonteCarloEstimate:
    """Area estimate from uniform sphere sampling of the analytic predicate.

    The hits sum integer counts of the pieces map_sample streams, so they
    depend only on (seed, samples), not on scheduling.  Only the rows under
    top_z(n) are tested: the others cannot be in, so the hits are those of
    analytic_in_moduli_batch on the whole of sample_sphere(samples, seed).
    """
    if samples < 1000:
        raise ValueError("samples must be >= 1000")

    def count(pts: np.ndarray) -> tuple[int, int]:
        return len(pts), int(np.count_nonzero(analytic_in_moduli_batch(n, pts)))

    evaluated, total = map(sum, zip(*map_sample(samples, seed, count, top_z(n))))
    p = total / samples
    area = 4.0 * math.pi * p
    err = 4.0 * math.pi * math.sqrt(max(p * (1.0 - p), 0.0) / samples)
    return MonteCarloEstimate(n=n, samples=samples, seed=seed, hits=total,
                              estimate=area, stderr=err, evaluated=evaluated)
