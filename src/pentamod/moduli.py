"""Region division, boundary curves, analytic membership and reduction loci.

The sphere is cut into 6n regions by rotating the great circle AB about A in
multiples of pi/3 and about B in multiples of pi/n.  Region indices follow
the labelling of the source figures: going around A the inner band is
Omega_1..Omega_6, each further band of B-sectors adds 6, odd indices on the
M-side of circle AB and even indices mirrored.  A point's region is read
from the signs of its angles to the n + 2 dividing circles alone: they fix
its sector in the fan of circles through A and in the fan through B, and
circle AB, which belongs to both fans, is read once, so every point off the
circles lands in a realized region.

The moduli boundary consists of two straight arcs (in the M-chart) plus the
three curves gamma_A, gamma_B, gamma_C.  Every curve is carried in four
equivalent representations (polar, cartesian, complex, spherical quadratic)
in its home chart, plus closed polar forms in the M-chart.

Side of and nearness to the dividing circles, and with them nearness to
the division vertices, come from the sines of _circle_sines (never turned
into angles), the curve radius from _eqd_radius, the spherical quadratic
from _quadric and the a=c and b=c reduction loci from the array root
finder reduction_radii.  Public entry points validate their points once
(sphere.as_point/as_points) and hand them to private kernels that do not
check again.  The simplicity oracle that membership is checked against
lives in pentagon.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import charts
from .charts import SQ2, SQ3, SQ5, ChartPoint, geometry, solid_constants
from .errors import NoRootInDisk, OutOfRange
from .sphere import DEFAULT_TOL, ON_CIRCLE, VERTEX_SLACK, as_point, as_points

CORE_REGIONS = (1, 2, 3, 7)

# clamp width at the sec-singular curve endpoints (eqD blows up there; the
# limiting radius 0 is substituted inside this band)
_SINGULAR_CLAMP = 1e-9

# the open moduli excludes its bounding curves; comparisons against a curve
# radius leave this margin so an exactly-on-curve sample lands outside
# deterministically (the oracle's own transition sits a few 1e-10 inside)
CURVE_EXCLUSION = 1e-11


# ---------------------------------------------------------------------------
# division circles and vertices


@dataclass(frozen=True)
class Division:
    """Dividing great circles (unit normals) and the vertices on the moduli
    closure, in world coordinates."""

    n: int
    circle_names: tuple[str, ...]
    normals: np.ndarray          # (n+2, 3)
    vertices: dict               # name -> unit vector
    vertex_points: np.ndarray    # (6, 3), the vertices in the order of the dict


@lru_cache(maxsize=None)
def division(n: int) -> Division:
    geo = geometry(n)
    names = ["AB", "A60", "A120"]
    normals = [np.cross(geo.A, geo.B)]
    for k in (1, 2):
        q = charts.to_sphere(ChartPoint(cmath.rect(0.5, k * math.pi / 3.0), "A", n))
        normals.append(np.cross(geo.A, q))
    for k in range(1, n):
        q = charts.to_sphere(ChartPoint(cmath.rect(0.5, k * math.pi / n), "B", n))
        names.append(f"B{k}")
        normals.append(np.cross(geo.B, q))
    normals = np.array([v / np.linalg.norm(v) for v in normals])
    verts = {"A": geo.A, "B": geo.B, "M": geo.M, "C": geo.C,
             "B'": geo.B_prime, "A'": geo.A_prime}
    return Division(n=n, circle_names=tuple(names), normals=normals, vertices=verts,
                    vertex_points=np.array(list(verts.values())))


@dataclass(frozen=True)
class Boundary:
    """Returned by region_of for points within tolerance of the division."""

    kind: str                    # "arc" or "vertex"
    regions: tuple[int, ...]     # adjacent region indices
    vertex: str | None = None    # named construction vertex, when recognized


def _sector_region(n: int, jA, jB):
    """Region index for (A-sector, B-sector) pairs; 0 where unrealized.

    Takes integer scalars or arrays alike.
    """
    odd = 6 * (n - 1 - jB) + 2 * jA + 1
    even = 6 * (jB - n) + 2 * (5 - jA) + 2
    return np.where((jA <= 2) & (jB <= n - 1), odd,
                    np.where((jA >= 3) & (jB >= n), even, 0))


def region_pair(n: int, m: int) -> tuple[int, int]:
    """(A-sector, B-sector) pair of region m; inverse of the lookup."""
    if not 1 <= m <= 6 * n:
        raise ValueError(f"region index out of range: {m}")
    k, r = divmod(m - 1, 6)
    if r % 2 == 0:   # odd region index
        return r // 2, n - 1 - k
    return 5 - r // 2, n + k


def _polar(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chart polar coordinates (theta, r) of an (N, 3) array of chart-frame
    coordinates."""
    th = np.arctan2(xi[:, 1], xi[:, 0])
    denom = np.maximum(1.0 - xi[:, 2], 1e-15)
    r = np.sqrt(np.maximum((1.0 + xi[:, 2]) / denom, 0.0))
    return th, r


def _circle_sines(n: int, pts: np.ndarray) -> np.ndarray:
    """The sine of each point's signed angle to each dividing circle, p.c
    for the circle's unit normal c, (N, n+2)."""
    return pts @ division(n).normals.T


def _classify(n: int, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Place each point of an (N, 3) array of unit vectors in the division:
    (circle, region), each (N,).

    A point within DEFAULT_TOL (radians) of two or more dividing circles
    gets neither a circle (-1) nor a region (0).  So does every point within
    DEFAULT_TOL of a division vertex: the vertex lies within 1e-15 of two
    circles, so the point's sines to both are within ON_CIRCLE.  A point
    within DEFAULT_TOL of exactly one circle gets that circle's index into
    Division.circle_names.  Every other point gets its region 1..6n, read
    from the signs of its circle sines.  The points must already be
    validated by as_points.
    """
    sines = _circle_sines(n, pts)
    on = np.abs(sines) <= ON_CIRCLE
    # a float product sums the rows of a boolean matrix several times
    # faster than sum or argmax, so argmax runs on the rare rows it decides
    count = on @ np.ones(n + 2)
    circle = np.full(len(pts), -1)
    single = np.flatnonzero(count == 1.0)
    circle[single] = on[single].argmax(axis=1)
    region = np.where(count == 0.0, _sign_region(n, sines), 0)
    return circle, region


def _sign_region(n: int, sines: np.ndarray) -> np.ndarray:
    """The region of each point off every dividing circle, read from the
    signs of its (N, n+2) circle sines (see _tables)."""
    t = _tables(n)
    return t.sign_region[((sines < 0.0) @ t.sign_weights).astype(np.intp)]


def region_of(n: int, p: np.ndarray, tol: float = DEFAULT_TOL):
    """Classify a sphere point into its region, or a Boundary descriptor.

    A point within tol (radians) of no dividing circle gets its region.  Any
    other point is a Boundary: a vertex when it is within tol of two or more
    circles or within max(tol, VERTEX_SLACK) of a division vertex (the first
    of Division.vertices names it), an arc otherwise.  Its regions are those
    of every sign pattern on the circles within tol of it, and at a named
    vertex on every circle through the vertex, with its other signs kept.
    """
    solid_constants(n)
    div = division(n)
    p = as_point(p)
    sines = _circle_sines(n, p[None])[0]
    on = np.abs(sines) <= math.sin(tol) + 1e-15
    if not on.any():
        # every division vertex lies on two circles (within 1e-15), so for
        # tol >= 0 a point on no circle is no vertex either
        return int(_sign_region(n, sines[None])[0])
    chords = np.linalg.norm(p - div.vertex_points, axis=1)
    near = np.flatnonzero(chords <= 2.0 * math.sin(0.5 * max(tol, VERTEX_SLACK)))
    vertex_name = list(div.vertices)[near[0]] if near.size else None
    kind = "vertex" if (np.count_nonzero(on) >= 2 or vertex_name) else "arc"
    if near.size:
        on |= np.abs(div.normals @ div.vertex_points[near[0]]) <= ON_CIRCLE
    k = np.flatnonzero(on)
    flip = (np.arange(1 << k.size)[:, None] >> np.arange(k.size)) & 1
    patterns = np.tile(sines, (len(flip), 1))
    patterns[:, k] = 1.0 - 2.0 * flip
    neighbours = _sign_region(n, patterns)
    return Boundary(kind=kind, regions=tuple(sorted({int(m) for m in neighbours})),
                    vertex=vertex_name)


# ---------------------------------------------------------------------------
# boundary curves in their home charts

CURVE_NAMES = ("gamma_A", "gamma_B", "gamma_C_A", "gamma_C_B")


@dataclass(frozen=True)
class CurveSpec:
    """One boundary curve in its home chart.

    The generic curve equation is written in a rotated/reflected variable v;
    phi(theta) = phi_const + phi_sign * theta maps the chart polar angle to
    the angle of v.
    """

    which: str
    n: int
    lam: float
    alpha: float
    chart: str
    theta_lo: float
    theta_hi: float
    phi_const: float
    phi_sign: float
    singular_end: str   # "lo" or "hi": which endpoint has r -> 0


@dataclass(frozen=True)
class CurveSample:
    theta: float
    r: float
    z: ChartPoint
    xi: np.ndarray = field(repr=False)
    line_locus: bool = False


def curve_spec(which: str, n: int) -> CurveSpec:
    c = solid_constants(n)
    if which == "gamma_A":
        return CurveSpec(which, n, c.lambda_a, math.pi / 3.0, "A",
                         2.0 * math.pi / 3.0, 5.0 * math.pi / 6.0, 0.0, 1.0, "hi")
    if which == "gamma_B":
        return CurveSpec(which, n, c.lambda_b, math.pi / n, "B",
                         (0.5 - 1.0 / n) * math.pi, (1.0 - 2.0 / n) * math.pi,
                         math.pi, -1.0, "lo")
    if which == "gamma_C_A":
        return CurveSpec(which, n, c.lambda_c, math.pi / 3.0, "A",
                         -0.5 * math.pi, 0.0, math.pi / 3.0, -1.0, "lo")
    if which == "gamma_C_B":
        return CurveSpec(which, n, c.lambda_c, math.pi / n, "B",
                         -math.pi, -0.5 * math.pi, math.pi + math.pi / n, -1.0, "hi")
    raise ValueError(f"unknown curve {which!r}")


def _eqd_radius(lam, alpha, phi):
    # rationalized form of sqrt(1 + (lam*sec)^2) - lam*sec: no cancellation
    # as sec grows toward the r -> 0 endpoint (sec > 0 over every admissible
    # range); floats or arrays alike
    s = 1.0 / np.cos(phi - alpha)
    return 1.0 / (np.sqrt(1.0 + lam * lam * s * s) + lam * s)


def curve_radius(spec: CurveSpec, theta: float) -> float:
    """Polar radius of the curve at chart angle theta (the explicit solution
    of the quadratic in r), with the sec-singular endpoint clamped to 0."""
    if theta < spec.theta_lo - 1e-12 or theta > spec.theta_hi + 1e-12:
        raise OutOfRange(f"theta {theta} outside [{spec.theta_lo}, {spec.theta_hi}]")
    singular = spec.theta_lo if spec.singular_end == "lo" else spec.theta_hi
    if abs(theta - singular) < _SINGULAR_CLAMP:
        return 0.0
    return float(_eqd_radius(spec.lam, spec.alpha, spec.phi_const + spec.phi_sign * theta))


def gamma_point(spec: CurveSpec, theta: float) -> CurveSample:
    """Curve sample at chart angle theta."""
    return _sample(theta, curve_radius(spec, theta), spec.chart, spec.n)


def _sample(theta: float, r: float, chart: str, n: int, line_locus: bool = False) -> CurveSample:
    z = ChartPoint(cmath.rect(r, theta), chart, n)
    return CurveSample(theta=theta, r=r, z=z, xi=charts.to_sphere(z), line_locus=line_locus)


def _quadric(spec: CurveSpec, x1, x2, x3):
    """The curve's spherical quadratic Q = L (x1^2 + x2^2) + (c1 x1 + c2 x2) x3
    and grad Q at chart-frame (x1, x2, x3); floats or arrays alike."""
    if spec.which == "gamma_A":
        L, c1, c2 = 2.0 * spec.lam, 1.0, SQ3
    elif spec.which == "gamma_B":
        L, c1, c2 = spec.lam, -math.cos(math.pi / spec.n), math.sin(math.pi / spec.n)
    else:   # gamma_C_A, gamma_C_B
        L, c1, c2 = spec.lam, (1.0 if spec.which == "gamma_C_A" else -1.0), 0.0
    return (L * (x1 * x1 + x2 * x2) + (c1 * x1 + c2 * x2) * x3,
            (2.0 * L * x1 + c1 * x3, 2.0 * L * x2 + c2 * x3, c1 * x1 + c2 * x2))


def gamma_residual(spec: CurveSpec, p: np.ndarray) -> float:
    """Spherical quadratic of the curve, evaluated in its chart frame.

    Zero exactly on the curve's supporting quadric.
    """
    xi = geometry(spec.n).frame(spec.chart) @ np.asarray(p, dtype=float)
    return _quadric(spec, *xi.tolist())[0]


def gamma_cartesian_residual(spec: CurveSpec, z: complex) -> float:
    """Cartesian (cubic) form of the curve at chart coordinate z."""
    x, y = z.real, z.imag
    rr = x * x + y * y
    if spec.which == "gamma_A":
        return 4.0 * spec.lam * rr + (x + SQ3 * y) * (rr - 1.0)
    if spec.which == "gamma_B":
        cn, sn = math.cos(math.pi / spec.n), math.sin(math.pi / spec.n)
        return 2.0 * spec.lam * rr - (x * cn - y * sn) * (rr - 1.0)
    if spec.which == "gamma_C_A":
        return 2.0 * spec.lam * rr + x * (rr - 1.0)
    return 2.0 * spec.lam * rr - x * (rr - 1.0)


def gamma_complex_residual(spec: CurveSpec, z: complex) -> float:
    """Complex form of the curve at chart coordinate z; z e^(-ia) + conj both
    ways collapses to twice a real part, so the value is real."""
    rr = abs(z) ** 2
    if spec.which == "gamma_A":
        w = z * cmath.exp(-1j * math.pi / 3.0)
        return 4.0 * spec.lam * rr + 2.0 * w.real * (rr - 1.0)
    if spec.which == "gamma_B":
        w = z * cmath.exp(1j * math.pi / spec.n)
        return 4.0 * spec.lam * rr - 2.0 * w.real * (rr - 1.0)
    if spec.which == "gamma_C_A":
        return 4.0 * spec.lam * rr + 2.0 * z.real * (rr - 1.0)
    return 4.0 * spec.lam * rr - 2.0 * z.real * (rr - 1.0)


# ---------------------------------------------------------------------------
# M-chart closed polar forms and cartesian equations

M_THETA_RANGE = {
    "gamma_A": (0.5 * math.pi, math.pi),
    "gamma_B": (1.5 * math.pi, 2.0 * math.pi),
    "gamma_C": (math.pi, 1.5 * math.pi),
}


def _m_chart_R(which: str, n: int, t: float) -> float:
    if which == "gamma_A":
        if n == 3:
            return SQ2 * math.cos(t) + math.sqrt(5.0 + 3.0 * math.cos(2.0 * t))
        if n == 4:
            return math.sqrt(6.0 + 2.0 * math.cos(2.0 * t))
        return (1.0 - SQ5) * math.cos(t) + math.sqrt(11.0 + SQ5 + (5.0 - SQ5) * math.cos(2.0 * t))
    if which == "gamma_B":
        if n == 3:
            return SQ2 * math.sin(t) + math.sqrt(5.0 - 3.0 * math.cos(2.0 * t))
        if n == 4:
            return 2.0 * math.sin(t) + 2.0 * math.sqrt(3.0 - math.cos(2.0 * t))
        return (1.0 + SQ5) * math.sin(t) + math.sqrt(19.0 + 7.0 * SQ5 - (5.0 + SQ5) * math.cos(2.0 * t))
    if which == "gamma_C":
        c, s = math.cos(t), math.sin(t)
        if n == 3:
            return SQ2 * (2.0 * c * s - 1.0) / (c + s)
        if n == 4:
            # prose denominator sqrt2*cos+sin is a misprint; the figure code
            # and the Mobius transport both give cos+sqrt2*sin
            return 2.0 * (c * s - SQ2) / (c + SQ2 * s)
        return 2.0 * (SQ5 - 1.0) * (c * s - SQ5 - 2.0) / (2.0 * c + (SQ5 + 1.0) * s)
    raise ValueError(f"unknown curve {which!r}")


def gamma_m_chart(which: str, n: int, theta: float) -> CurveSample:
    """Curve sample in the M-chart from the closed polar forms."""
    solid_constants(n)
    lo, hi = M_THETA_RANGE[which]
    if theta < lo - 1e-12 and lo - 1e-12 <= theta + 2.0 * math.pi <= hi + 1e-12:
        theta += 2.0 * math.pi
    elif theta > hi + 1e-12 and lo - 1e-12 <= theta - 2.0 * math.pi <= hi + 1e-12:
        theta -= 2.0 * math.pi
    if theta < lo - 1e-12 or theta > hi + 1e-12:
        raise OutOfRange(f"theta {theta} outside [{lo}, {hi}]")
    R = _m_chart_R(which, n, theta)
    return _sample(theta, 0.5 * (math.sqrt(R * R + 4.0) - R), "M", n)


def m_chart_cartesian_residual(which: str, n: int, z: complex) -> float:
    """M-chart cartesian equation of the curve (quartic for gamma_A/B, cubic
    for gamma_C).  The n=3 linear terms are -2*sqrt2*x and -2*sqrt2*y; the
    source prints -x and -y, inconsistent with its own polar forms."""
    x, y = z.real, z.imag
    rr = x * x + y * y
    if which == "gamma_A":
        if n == 3:
            return rr * rr + 2.0 * SQ2 * rr * x - 8.0 * x * x - 4.0 * y * y - 2.0 * SQ2 * x + 1.0
        if n == 4:
            return rr * rr - 10.0 * x * x - 6.0 * y * y + 1.0
        return (rr * rr - 2.0 * (SQ5 - 1.0) * rr * x - 2.0 * (SQ5 + 6.0) * x * x
                - 2.0 * (SQ5 + 4.0) * y * y + 2.0 * (SQ5 - 1.0) * x + 1.0)
    if which == "gamma_B":
        if n == 3:
            return rr * rr + 2.0 * SQ2 * rr * y - 4.0 * x * x - 8.0 * y * y - 2.0 * SQ2 * y + 1.0
        if n == 4:
            return rr * rr + 4.0 * rr * y - 10.0 * x * x - 14.0 * y * y - 4.0 * y + 1.0
        return (rr * rr + 2.0 * (SQ5 + 1.0) * rr * y - 2.0 * (3.0 * SQ5 + 8.0) * x * x
                - 2.0 * (3.0 * SQ5 + 10.0) * y * y - 2.0 * (SQ5 + 1.0) * y + 1.0)
    if which == "gamma_C":
        if n == 3:
            return (rr - 1.0) * (x + y) - SQ2 * (x - y) ** 2
        if n == 4:
            return (rr - 1.0) * (x + SQ2 * y) - 2.0 * SQ2 * rr + 2.0 * x * y
        return ((rr - 1.0) * (2.0 * x + (SQ5 + 1.0) * y)
                - 2.0 * (SQ5 + 3.0) * rr + 2.0 * (SQ5 - 1.0) * x * y)
    raise ValueError(f"unknown curve {which!r}")


# ---------------------------------------------------------------------------
# analytic membership


@lru_cache(maxsize=None)
def _fan_ray_radii(n: int) -> tuple[float, float]:
    """For n=5: moduli extent along the internal rays Omega13^Omega19 and
    Omega8^Omega14 (B-chart angles 2pi/5 and -3pi/5)."""
    if n != 5:
        return (0.0, 0.0)
    rb = curve_radius(curve_spec("gamma_B", 5), 2.0 * math.pi / 5.0)
    rc = curve_radius(curve_spec("gamma_C_B", 5), -3.0 * math.pi / 5.0)
    return (rb, rc)


def fan_parts(n: int) -> dict[str, tuple[CurveSpec, float, float]]:
    """The moduli's four curve fans, by part name as in areas.AreaReport:
    each fan's curve and the chart-angle interval it spans.  gamma_C's
    interval is cut where the curve leaves the part's sector."""
    ga, gb, gca, gcb = (curve_spec(which, n) for which in CURVE_NAMES)
    return {"A5": (ga, ga.theta_lo, ga.theta_hi), "A13": (gb, gb.theta_lo, gb.theta_hi),
            "A4": (gca, gca.theta_lo, -math.pi / 3.0),
            "A8": (gcb, -(1.0 - 1.0 / n) * math.pi, gcb.theta_hi)}


@dataclass(frozen=True)
class _Tables:
    """One family's division and membership rules as tables.

    A point off the division circles has sign code (sines < 0) @
    sign_weights and lies in region sign_region[code].

    Division circle c is a pair of opposite rays from the origin of its
    chart (the A-chart, or the B-chart where circle_b[c]).  A point on the
    ray at chart angle angle[c] is in when its chart radius is below
    front[c]; a point on the opposite ray, below back[c].

    A point in region m is in when core[m].  In a fan region (fan[m]) it is
    in when its chart angle lies in the open interval (lo[m], hi[m]) and its
    radius is below that of the region's curve (parameters lam, alpha,
    phi_const, phi_sign as in CurveSpec; B-chart where fan_b[m]).
    """

    sign_weights: np.ndarray
    sign_region: np.ndarray
    circle_b: np.ndarray
    angle: np.ndarray
    front: np.ndarray
    back: np.ndarray
    core: np.ndarray
    fan: np.ndarray
    fan_b: np.ndarray
    lam: np.ndarray
    alpha: np.ndarray
    phi_const: np.ndarray
    phi_sign: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


@lru_cache(maxsize=None)
def _tables(n: int) -> _Tables:
    c = solid_constants(n)
    div = division(n)
    never = -math.inf   # a limit no radius is below: the whole ray is out
    circles = {
        "AB": ("A", 0.0, c.d_ab, never),                         # arc A-B
        "A60": ("A", math.pi / 3.0, c.d_am, never),              # arc A-M
        "A120": ("A", 2.0 * math.pi / 3.0, c.d_ab, c.d_am),      # arcs A-B', A-C
    }
    ray_b, ray_c = _fan_ray_radii(n)
    for k in range(1, n):
        front = {n - 1: c.d_bm, n - 2: c.d_ab}.get(k, never)     # arcs B-M, B-A'
        back = c.d_bm if k == 1 else never                       # arc B-C
        if n == 5 and k == 2:
            # the rays splitting the n=5 fans stay in up to the curves
            front, back = ray_b - CURVE_EXCLUSION, ray_c - CURVE_EXCLUSION
        circles[f"B{k}"] = ("B", k * math.pi / n, front, back)
    chart, angle, front, back = zip(*(circles[name] for name in div.circle_names))

    # fan region -> its part; the n=5 fans A13 and A8 span two regions each
    fan_part = {5: "A5", 13: "A13", 4: "A4", 8: "A8"}
    if n == 5:
        fan_part.update({19: "A13", 14: "A8"})
    parts = fan_parts(n)
    size = 6 * n + 1
    core = np.zeros(size, dtype=bool)
    core[list(CORE_REGIONS)] = True
    fan = np.zeros(size, dtype=bool)
    fan_b = np.zeros(size, dtype=bool)
    params = np.full((6, size), np.nan)
    for m, part in fan_part.items():
        spec, lo, hi = parts[part]
        fan[m] = True
        fan_b[m] = spec.chart == "B"
        params[:, m] = (spec.lam, spec.alpha, spec.phi_const, spec.phi_sign, lo, hi)
    # signs to regions.  Circle k of a fan of m circles through one center
    # lies at chart angle k pi/m, and a negative angle to it means
    # sin(theta - k pi/m) > 0.  Let s be 1 where the angle to circle AB
    # (circle 0 of both fans) is negative, a the number of negative angles
    # to A60 and A120, b to B1..B(n-1).  The point lies in A-sector a and
    # B-sector b if s = 1, in 5 - a and 2n - 1 - b if s = 0.  The code
    # 3n s + n a + b names each of the 6n regions once.
    sign_weights = np.array([3.0 * n, n, n] + [1.0] * (n - 1))
    s, a, b = np.meshgrid(np.arange(2), np.arange(3), np.arange(n), indexing="ij")
    sign_region = _sector_region(n, np.where(s, a, 5 - a), np.where(s, b, 2 * n - 1 - b)).ravel()
    return _Tables(sign_weights, sign_region, np.array(chart) == "B", np.array(angle),
                   np.array(front), np.array(back), core, fan, fan_b, *params)


def analytic_in_moduli_batch(n: int, pts: np.ndarray) -> np.ndarray:
    """Membership from the region division and the closed boundary curves,
    over an (N, 3) array of unit vectors.

    True on the open core triangles, on their included internal arcs, and on
    the open fan regions between the curves and the core; False on the
    curves, the excluded arcs and all division vertices.
    """
    return _membership(n, as_points(pts))


def _membership(n: int, pts: np.ndarray) -> np.ndarray:
    """analytic_in_moduli_batch for points already validated by as_points."""
    t = _tables(n)
    circle, region = _classify(n, pts)
    inside = t.core[region]
    on = np.flatnonzero(circle >= 0)
    fan = np.flatnonzero(t.fan[region])
    if not (on.size or fan.size):
        return inside
    # chart coordinates of all N rows, then of the rows needed: BLAS rounds
    # a product with fewer rows differently
    geo = geometry(n)
    xa, xb = pts @ geo.frame_a.T, pts @ geo.frame_b.T

    if on.size:
        c = circle[on]
        th, r = _polar(np.where(t.circle_b[c][:, None], xb.take(on, 0), xa.take(on, 0)))
        front = np.cos(th - t.angle[c]) > 0.0
        inside[on] = r < np.where(front, t.front[c], t.back[c])

    if fan.size:
        m = region[fan]
        th, r = _polar(np.where(t.fan_b[m][:, None], xb.take(fan, 0), xa.take(fan, 0)))
        sel = (th > t.lo[m]) & (th < t.hi[m])
        m, th = m[sel], th[sel]
        curve_r = _eqd_radius(t.lam[m], t.alpha[m], t.phi_const[m] + t.phi_sign[m] * th)
        inside[fan[sel]] = r[sel] < curve_r - CURVE_EXCLUSION
    return inside


def analytic_in_moduli(n: int, p: np.ndarray) -> bool:
    """analytic_in_moduli_batch for one unit vector of shape (3,)."""
    return bool(_membership(n, as_point(p)[None])[0])


def boundary_band_mask(n: int, pts: np.ndarray, band: float) -> np.ndarray:
    """True for points within `band` radians of any moduli-boundary locus.

    Covers the division circles, and with them the division vertices (each
    lies on two circles, so a point within `band` of a vertex is within
    `band` of one of them), and the supporting quadrics of the three curves;
    curve distance is the first-order estimate |Q| / |grad Q| (exact to
    O(band^2)).
    """
    pts = as_points(pts)
    if band <= 0.0:
        return np.zeros(pts.shape[0], dtype=bool)
    # no angle to a circle exceeds pi/2, so a wider band covers everything;
    # a float product counts each row's hits faster than any(axis=1)
    sines = np.abs(_circle_sines(n, pts))
    near = (sines <= math.sin(min(band, 0.5 * math.pi))) @ np.ones(n + 2) > 0.0
    geo = geometry(n)
    coords = {"A": pts @ geo.frame_a.T, "B": pts @ geo.frame_b.T}
    for which in CURVE_NAMES:
        spec = curve_spec(which, n)
        xi = coords[spec.chart]
        q, grad = _quadric(spec, xi[:, 0], xi[:, 1], xi[:, 2])
        g = np.column_stack(grad)
        g -= (np.einsum("ij,ij->i", g, xi))[:, None] * xi
        gn = np.linalg.norm(g, axis=1)
        near |= np.abs(q) <= band * np.maximum(gn, 1e-12)
    return near


# ---------------------------------------------------------------------------
# reduction loci (a=b, a=c, b=c)

@lru_cache(maxsize=None)
def ab_plane(n: int) -> np.ndarray:
    """Coefficients (l1, l2, l3) of the a=b plane l.xi = 0 in the M-frame.

    The locus of equal distance to A and B is the great circle with normal
    A - B.  The normal is rescaled to the coefficient pattern of the source
    (leading coefficients 1, sqrt2, 2*5^(1/4) for n = 3, 4, 5).
    """
    geo = geometry(n)
    nrm = geo.A - geo.B
    lead = {3: 1.0, 4: SQ2, 5: 2.0 * 5.0 ** 0.25}[n]
    return nrm * (lead / nrm[0])


def reduction_residual(kind: str, n: int, p: np.ndarray) -> float:
    """Plane form (a=b) or parabolic-cylinder form (a=c, b=c) at p.

    Coordinates are the M-chart frame (= world coordinates).  Zero exactly on
    the reduction locus.
    """
    solid_constants(n)
    xi = np.asarray(p, dtype=float)
    x1, x2, x3 = xi.tolist()
    if kind == "a=b":
        return float(ab_plane(n) @ xi)
    if kind == "a=c":
        if n == 3:
            return 2.0 * SQ3 * x3 * x3 + SQ2 * x1 + x3 - SQ3
        if n == 4:
            return 2.0 * SQ3 * x3 * x3 + x1 + SQ2 * x3 - SQ3
        return 4.0 * SQ3 * x3 * x3 + (SQ5 - 1.0) * x1 + (SQ5 + 1.0) * x3 - 2.0 * SQ3
    if kind == "b=c":
        if n == 3:
            return 2.0 * SQ3 * x3 * x3 + SQ2 * x2 + x3 - SQ3
        if n == 4:
            return 2.0 * SQ2 * x3 * x3 + x2 + x3 - SQ2
        q = 5.0 ** 0.25
        return 2.0 * SQ2 * q * x3 * x3 + math.sqrt(SQ5 - 1.0) * x2 + math.sqrt(SQ5 + 1.0) * x3 - SQ2 * q
    raise ValueError(f"unknown reduction kind {kind!r}")


def _reduction_quartic(kind: str, n: int) -> tuple[float, float, float]:
    """(c1, c2, c0) of r^4 + c2 r^2 + c0 + c1 r (r^2+1) trig(theta) = 0 in the
    M-chart, trig = cos for a=c and sin for b=c (one quartic for n = 3, where
    the two loci mirror each other)."""
    if kind not in ("a=c", "b=c"):
        raise ValueError(f"no radial quartic for {kind!r}")
    if n == 3:
        return (SQ2 * (SQ3 - 1.0), -3.0 * SQ3 * (SQ3 - 1.0), 2.0 - SQ3)
    if kind == "a=c":
        if n == 4:
            return (2.0 * (SQ3 - SQ2), -6.0 * SQ3 * (SQ3 - SQ2), 5.0 - 2.0 * math.sqrt(6.0))
        return ((SQ5 - SQ3) * (SQ3 - 1.0),
                3.0 * (2.0 * math.sqrt(15.0) - 3.0 * SQ5 + 4.0 * SQ3 - 9.0),
                -2.0 * math.sqrt(15.0) + 3.0 * SQ5 - 4.0 * SQ3 + 8.0)
    if n == 4:
        return (2.0 * (SQ2 - 1.0), -6.0 * SQ2 * (SQ2 - 1.0), 3.0 - 2.0 * SQ2)
    q = 5.0 ** 0.25
    c1 = SQ2 * math.sqrt(SQ5 + 1.0) * q - SQ5 - 1.0
    c2 = 3.0 * ((SQ5 + 1.0) ** 1.5 * q / SQ2 - SQ5 - 5.0)
    c0 = -((SQ5 + 1.0) ** 1.5) * q / SQ2 + SQ5 + 4.0
    return (c1, c2, c0)


# reduction_radii brackets roots on this grid of (0, 1), then bisects to _ROOT_TOL
_ROOT_GRID = np.linspace(1e-9, 1.0 - 1e-9, 65)
_ROOT_TOL = 1e-13


def reduction_radii(kind: str, n: int, thetas) -> np.ndarray:
    """M-chart radius of the a=c or b=c locus on the ray at each angle of a
    1-D array: the smallest root in (0, 1) of the radial quartic, from the
    first exact zero or sign change on _ROOT_GRID, bisected for all rows at
    once; NaN where the ray misses the locus."""
    solid_constants(n)
    c1, c2, c0 = _reduction_quartic(kind, n)
    trig = math.cos if kind == "a=c" else math.sin
    t = np.array([trig(x) for x in np.asarray(thetas, dtype=float).tolist()])

    def quartic(x, t):
        # float_power is libm's pow, as on floats; ** on arrays rounds apart
        return np.float_power(x, 4.0) + c2 * x * x + c0 + c1 * x * (x * x + 1.0) * t

    vals = quartic(_ROOT_GRID, t[:, None])
    zero = vals[:, :-1] == 0.0
    hit = zero | (vals[:, :-1] * vals[:, 1:] < 0.0)
    rows = np.flatnonzero(hit.any(axis=1))
    i = hit[rows].argmax(axis=1)
    # an exact zero is a bracket of width 0, whose midpoint is the zero
    a, fa, t = _ROOT_GRID[i], vals[rows, i], t[rows]
    b = np.where(zero[rows, i], a, _ROOT_GRID[i + 1])
    while np.count_nonzero(live := b - a > _ROOT_TOL):
        mid = 0.5 * (a + b)
        fm = quartic(mid, t)
        left = fa * fm <= 0.0
        np.copyto(b, mid, where=live & left)
        np.copyto(a, mid, where=live > left)
        np.copyto(fa, fm, where=live > left)
    radii = np.full(len(vals), np.nan)
    radii[rows] = 0.5 * (a + b)
    return radii


def reduction_point(kind: str, n: int, theta: float) -> CurveSample:
    """Radial sample of a reduction locus at M-chart angle theta: the a=c or
    b=c radius of reduction_radii, or where the ray meets the a=b circle.
    Raises NoRootInDisk when the ray misses the locus.  The degenerate n=3
    diagonal (a=b) returns the midpoint of the in-moduli segment, flagged
    line_locus."""
    if kind == "a=b":
        return _ab_point(n, theta)
    r = float(reduction_radii(kind, n, [theta])[0])
    if math.isnan(r):
        raise NoRootInDisk(f"{kind} locus does not meet the ray theta={theta}")
    return _sample(theta, r, "M", n)


def ab_circle(n: int) -> tuple[complex, float]:
    """M-chart center and radius of the a=b circle (radius inf for n=3)."""
    l1, l2, l3 = ab_plane(n)
    if abs(l3) < 1e-14:
        return complex(0.0, 0.0), math.inf
    # xi.l = 0 with xi = (2x, 2y, r^2-1)/(r^2+1) gives a chart circle
    cx, cy = -l1 / l3, -l2 / l3
    return complex(cx, cy), math.sqrt(cx * cx + cy * cy + 1.0)


def _ab_point(n: int, theta: float) -> CurveSample:
    center, radius = ab_circle(n)
    u = cmath.rect(1.0, theta)
    if math.isinf(radius):
        diag = math.atan2(-ab_plane(n)[0], ab_plane(n)[1])  # direction of the line
        if min(abs((theta - diag) % math.pi), math.pi - abs((theta - diag) % math.pi)) > 1e-9:
            raise NoRootInDisk("diagonal locus does not meet this ray")
        r = 0.5 * gamma_m_chart("gamma_C", n, theta).r if math.pi <= theta <= 1.5 * math.pi else 0.25
        return _sample(theta, r, "M", n, line_locus=True)
    b = (u.real * center.real + u.imag * center.imag)
    disc = b * b - (abs(center) ** 2 - radius * radius)
    if disc < 0.0:
        raise NoRootInDisk("ray misses the a=b circle")
    roots = [b - math.sqrt(disc), b + math.sqrt(disc)]
    roots = [r for r in roots if 1e-12 < r < 1.0]
    if not roots:
        raise NoRootInDisk("a=b circle crossing lies outside the unit disk")
    return _sample(theta, min(roots), "M", n)


@dataclass(frozen=True)
class BcGapReport:
    """Radial comparison of the b=c locus against gamma_A in the M-chart."""

    n: int
    min_gap: float
    max_gap: float
    tangency_theta: float
    samples: int


def check_bc_below_gammaA(n: int, samples: int = 1024) -> BcGapReport:
    """Sample gap(theta) = r_gammaA - r_bc over the gamma_A angular range.

    A nonnegative gap means the b=c locus is on the moduli side of gamma_A.
    The reported tangency angle is where the gap is smallest (refined by
    golden-section search around the grid minimum).
    """

    def gap(t: float) -> float:
        return gamma_m_chart("gamma_A", n, t).r - reduction_point("b=c", n, t).r

    lo, hi = M_THETA_RANGE["gamma_A"]
    thetas = np.linspace(lo, hi, samples)
    gaps = (np.array([gamma_m_chart("gamma_A", n, t).r for t in thetas])
            - reduction_radii("b=c", n, thetas))
    i = int(np.argmin(gaps))
    a, b = thetas[max(0, i - 1)], thetas[min(samples - 1, i + 1)]
    phi = 0.5 * (math.sqrt(5.0) - 1.0)
    x1, x2 = b - phi * (b - a), a + phi * (b - a)
    f1, f2 = gap(x1), gap(x2)
    for _ in range(80):
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = gap(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = gap(x2)
    t_star = 0.5 * (a + b)
    g_star = gap(t_star)
    return BcGapReport(n=n, min_gap=min(float(gaps.min()), g_star),
                       max_gap=float(gaps.max()), tangency_theta=float(t_star),
                       samples=samples)
