"""Region division, boundary curves, analytic membership and reduction loci.

The sphere is cut into 6n regions by rotating the great circle AB about A in
multiples of pi/3 and about B in multiples of pi/n.  Region indices follow
the labelling of the source figures: going around A the inner band is
Omega_1..Omega_6, each further band of B-sectors adds 6, odd indices on the
M-side of circle AB and even indices mirrored.  A point's region is read
from the signs of its angles to the n + 2 dividing circles alone: they fix
its sector in the fan of circles through A and in the fan through B, and
circle AB, which belongs to both fans, is read once, so every point off the
circles lands in a realized region.  One pair code of two sign codes lo
and hi (see _codes and _Tables) places every point: off the circles both
name its region, and on exactly one circle they name the regions on its two
sides.

The moduli boundary consists of two straight arcs (in the M-chart) plus the
three curves gamma_A, gamma_B, gamma_C.  Every curve is carried in three
equivalent representations (polar, cartesian, complex) in its home chart,
as one spherical quadratic Q = p.Sp in world coordinates, and in closed
polar forms in the M-chart.

The moduli is a union of regions, four core triangles and four curve
fans, and one inside rule decides membership (see _Tables): a point is in
a core region, and in a fan region when it lies on the near side of the
curve's singular end and inside the curve.  A point off the dividing
circles takes the rule of its own region; a point on exactly one circle is
in when the rule holds, at the point, for both regions across the circle,
so the included internal arcs are those glued between two moduli regions; a
point on two or more circles is out.  The table rule maps each pair code to
the one region whose rule gives that answer, so the rule runs once per
point.

Side of and nearness to the dividing circles, and with them nearness to
the division vertices, come from the sines of _circle_sines (never turned
into angles), the curve radius from _eqd_radius, the spherical quadratic
from its matrix S in _tables and the a=c and b=c reduction loci from the
array root finder reduction_radii.  boundary_band_mask is a filtered test
too: it takes the quadric of each of the three curves once (gamma_C_A and
gamma_C_B are one), and a row's quadric value, against a bound on its
gradient over the sphere, rules out most rows; the gradient rule runs on
the rest.  Public entry points validate their points once
(sphere.as_point/as_points) and hand them to private kernels that do not
check again; the batch entry points go through sphere.map_rows, in pieces
of at most sphere._CHUNK rows, and the kernels write their large
temporaries into sphere.scratch.  Their point products go through
sphere.rows_matmul: one-point calls are exact batch rows.  The simplicity
oracle that membership is checked against lives in pentagon.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import charts
from .charts import SQ2, SQ3, SQ5, ChartPoint, geometry, solid_constants
from .errors import NoRootInDisk, OutOfRange
from .sphere import (ON_CIRCLE, VERTEX_CHORD, VERTEX_SLACK, as_point, map_rows, rows_matmul,
                     scratch)

# clamp width at the sec-singular curve endpoints (eqD blows up there; the
# limiting radius 0 is substituted inside this band)
_SINGULAR_CLAMP = 1e-9

# the open moduli excludes its bounding curves; comparisons against a curve
# radius leave this margin so an exactly-on-curve sample lands outside
# deterministically (the oracle's own transition sits a few 1e-10 inside)
CURVE_EXCLUSION = 1e-11

# the sine of VERTEX_SLACK, with the margin of ON_CIRCLE
_SLACK_SINE = math.sin(VERTEX_SLACK) + 1e-15


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


@lru_cache(maxsize=None, typed=True)
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
    solid_constants(n)
    if not 1 <= m <= 6 * n:
        raise ValueError(f"region index out of range: {m}")
    k, r = divmod(m - 1, 6)
    if r % 2 == 0:   # odd region index
        return r // 2, n - 1 - k
    return 5 - r // 2, n + k


def _polar(n: int, pts: np.ndarray, in_b: np.ndarray, s) -> tuple[np.ndarray, np.ndarray]:
    """Chart polar coordinates (theta, r) of an (N, 3) array of unit vectors,
    in the B-chart on the rows where in_b and in the A-chart on the rest;
    arrays from the scratch frame s."""
    geo = geometry(n)
    k = len(pts)
    xi = rows_matmul(pts, geo.frame_b.T, s.out((k, 3)))
    np.copyto(xi, rows_matmul(pts, geo.frame_a.T, s.out((k, 3))), where=~in_b[:, None])
    th = np.arctan2(xi[:, 1], xi[:, 0], out=s.out(k))
    # max(1 - x3, 1e-15), then sqrt(max((1 + x3) / that, 0)), each on one buffer
    db, rb = s.out(k), s.out(k)
    denom = np.maximum(np.subtract(1.0, xi[:, 2], out=db), 1e-15, out=db)
    r = np.sqrt(np.maximum(np.divide(np.add(1.0, xi[:, 2], out=rb), denom, out=rb), 0.0, out=rb),
                out=rb)
    return th, r


def _circle_sines(n: int, pts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The sine of each point's signed angle to each dividing circle, p.c
    for the circle's unit normal c, (N, n+2), written into out when pts has
    two or more rows."""
    return rows_matmul(pts, division(n).normals.T, out)


def _codes(n: int, pts: np.ndarray, s) -> np.ndarray:
    """The pair code lo 6n + hi of each point of an (N, 3) array of unit
    vectors, as an intp array, with temporaries from the scratch frame s:
    lo and hi are the sums of sign_weights over the circles whose sine is
    below -ON_CIRCLE, and over those whose sine is at most ON_CIRCLE (see
    _Tables).  A point within DEFAULT_TOL of a division vertex is on two
    circles by these codes: the vertex lies within 1e-15 of two circles, so
    the point's sines to both are within ON_CIRCLE.  The points must
    already be validated by as_points.
    """
    k = len(pts)
    t = _tables(n)
    sines = _circle_sines(n, pts, s.out((k, n + 2)))
    # 1.0 (or True) on the flagged circles: a float product sums them
    # exactly (every code is below 36 n^2), several times faster than sum
    # or an integer product
    flags = s.out((k, n + 2))
    code = np.matmul(np.less(sines, -ON_CIRCLE, out=flags), t.lo_weights, out=s.out(k))
    code += np.matmul(np.less_equal(sines, ON_CIRCLE, out=flags), t.sign_weights, out=s.out(k))
    return code.astype(np.intp)


def region_of(n: int, p: np.ndarray):
    """Classify a sphere point into its region, or a Boundary descriptor.

    A point within DEFAULT_TOL (radians) of no dividing circle and within
    VERTEX_SLACK of no division vertex gets its region.  Any other point is a
    Boundary: a vertex when it is within DEFAULT_TOL of two or more circles
    or within VERTEX_SLACK of a division vertex (the first of
    Division.vertices names it), an arc otherwise.  Its regions are those of
    every sign pattern on the circles within DEFAULT_TOL of it, and at a
    named vertex on every circle through the vertex, its other signs kept.
    """
    solid_constants(n)
    div, t = division(n), _tables(n)
    p = as_point(p)
    sines = _circle_sines(n, p[None])[0]
    code = int((sines < 0.0) @ t.sign_weights)
    if not np.count_nonzero(np.abs(sines) <= _SLACK_SINE):
        # every division vertex lies on two circles (within 1e-15), so a
        # point within VERTEX_SLACK of no circle is within it of no vertex
        return int(t.sign_region[code])
    on = np.abs(sines) <= ON_CIRCLE
    chords = np.linalg.norm(p - div.vertex_points, axis=1)
    near = (chords <= VERTEX_CHORD).nonzero()[0]
    if not (near.size or on.any()):
        return int(t.sign_region[code])
    vertex_name = list(div.vertices)[near[0]] if near.size else None
    kind = "vertex" if (np.count_nonzero(on) >= 2 or vertex_name) else "arc"
    if near.size:
        on |= np.abs(div.normals @ div.vertex_points[near[0]]) <= ON_CIRCLE
    # the code with every circle in `on` positive, plus each subset sum of
    # their weights: the codes of every sign pattern on those circles
    w = t.sign_weights[on]
    flip = (np.arange(1 << w.size)[:, None] >> np.arange(w.size)) & 1
    codes = code - (sines[on] < 0.0) @ w + flip @ w
    neighbours = t.sign_region[codes.astype(np.intp)]
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


def _eqd_radius(lam, cos):
    # the curve radius where cos(phi - alpha) = cos, in the rationalized
    # form of sqrt(1 + (lam*sec)^2) - lam*sec: no cancellation as sec grows
    # toward the r -> 0 endpoint (sec > 0 over every admissible range, but
    # cos may round to a tiny negative at that end, where |sec| gives the
    # limit 0); floats or arrays alike
    s = 1.0 / np.abs(cos)
    return 1.0 / (np.sqrt(1.0 + lam * lam * s * s) + lam * s)


def curve_radius(spec: CurveSpec, theta: float) -> float:
    """Polar radius of the curve at chart angle theta (the explicit solution
    of the quadratic in r), with the sec-singular endpoint clamped to 0."""
    if not spec.theta_lo - 1e-12 <= theta <= spec.theta_hi + 1e-12:   # NaN fails it too
        raise OutOfRange(f"theta {theta} outside [{spec.theta_lo}, {spec.theta_hi}]")
    singular = spec.theta_lo if spec.singular_end == "lo" else spec.theta_hi
    if abs(theta - singular) < _SINGULAR_CLAMP:
        return 0.0
    phi = spec.phi_const + spec.phi_sign * theta
    return float(_eqd_radius(spec.lam, np.cos(phi - spec.alpha)))


def gamma_point(spec: CurveSpec, theta: float) -> CurveSample:
    """Curve sample at chart angle theta."""
    return _sample(theta, curve_radius(spec, theta), spec.chart, spec.n)


def _sample(theta: float, r: float, chart: str, n: int, line_locus: bool = False) -> CurveSample:
    z = ChartPoint(cmath.rect(r, theta), chart, n)
    return CurveSample(theta=theta, r=r, z=z, xi=charts.to_sphere(z), line_locus=line_locus)


def gamma_residual(spec: CurveSpec, p: np.ndarray) -> float:
    """The curve's spherical quadratic Q = p.Sp at the unit vector p, S its
    world-frame matrix (see _tables), with the bits boundary_band_mask
    takes for p's row (which takes gamma_C_B's quadric from gamma_C_A).
    Zero exactly on the curve's supporting quadric.
    """
    p = as_point(p)[None]
    return float(_quadric_rows(p, rows_matmul(p, _tables(spec.n).quadric[spec.which]))[0])


def _quadric_rows(pts: np.ndarray, sp: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """p.Sp of each row p of pts, from the rows sp = pts @ S of a symmetric
    S, summed (x (Sp)x + y (Sp)y) + z (Sp)z; written into out, with tmp for
    the products, when given."""
    q = np.multiply(pts[:, 0], sp[:, 0], out=out)
    q += np.multiply(pts[:, 1], sp[:, 1], out=tmp)
    q += np.multiply(pts[:, 2], sp[:, 2], out=tmp)
    return q


def _finite(z: complex) -> complex:
    """The chart coordinate z of a residual, which must be finite: ValueError
    for a NaN or infinite z, whose residual would be NaN or infinite."""
    if not cmath.isfinite(z):
        raise ValueError(f"chart point {z} is not finite")
    return z


def gamma_cartesian_residual(spec: CurveSpec, z: complex) -> float:
    """Cartesian (cubic) form of the curve at chart coordinate z."""
    z = _finite(z)
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
    z = _finite(z)
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
    if which not in M_THETA_RANGE:
        raise ValueError(f"unknown curve {which!r}")
    lo, hi = M_THETA_RANGE[which]
    if theta < lo - 1e-12 and lo - 1e-12 <= theta + 2.0 * math.pi <= hi + 1e-12:
        theta += 2.0 * math.pi
    elif theta > hi + 1e-12 and lo - 1e-12 <= theta - 2.0 * math.pi <= hi + 1e-12:
        theta -= 2.0 * math.pi
    if not lo - 1e-12 <= theta <= hi + 1e-12:   # NaN fails it too
        raise OutOfRange(f"theta {theta} outside [{lo}, {hi}]")
    R = _m_chart_R(which, n, theta)
    return _sample(theta, 0.5 * (math.sqrt(R * R + 4.0) - R), "M", n)


def m_chart_cartesian_residual(which: str, n: int, z: complex) -> float:
    """M-chart cartesian equation of the curve (quartic for gamma_A/B, cubic
    for gamma_C).  The n=3 linear terms are -2*sqrt2*x and -2*sqrt2*y; the
    source prints -x and -y, inconsistent with its own polar forms."""
    solid_constants(n)
    z = _finite(z)
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


# top_z's margin above the moduli's highest world z, ample for the search's
# 1e-12 rad tolerance and the double rounding of _m_chart_R
_TOP_MARGIN = 1e-9


@lru_cache(maxsize=None, typed=True)
def top_z(n: int) -> float:
    """The largest world z on the closure of the moduli, plus _TOP_MARGIN:
    no point of the moduli lies above the plane z = top_z(n), so a sampler
    may leave out the rows above it.  Computed on first call.

    Why the three curves hold the highest point.  On the sphere the height
    z has no critical point but the two poles, so on the compact closure of
    the moduli it peaks on the boundary, unless the north pole lies inside.
    It does not: the north pole is the M-chart's point at infinity, and the
    closure is bounded in the M-chart.  In the M-chart, centred at M = (0,
    0, -1), z = (r^2 - 1)/(r^2 + 1) rises with the chart radius r.  The
    boundary is gamma_A, gamma_B and gamma_C over M_THETA_RANGE and the
    radial arcs M-B' and M-A'; on a radial arc r, and so z, peaks at the far
    end, which is an endpoint of a curve.  On a curve r = (sqrt(R^2 + 4) -
    R)/2 for R = _m_chart_R, so z = -R/sqrt(R^2 + 4), which falls as R
    rises.  The top is therefore at the least R over the three closed
    curves: found on a grid of 1024 steps per curve and refined by golden
    section over the grid steps beside the least grid value, to 1e-12 rad.
    tests/test_moduli.py certifies the bound in interval arithmetic.
    """
    solid_constants(n)
    least = min(_least_m_chart_R(which, n) for which in M_THETA_RANGE)
    return -least / math.sqrt(least * least + 4.0) + _TOP_MARGIN


def _least_m_chart_R(which: str, n: int) -> float:
    """The least _m_chart_R(which, n, theta) over M_THETA_RANGE[which]."""
    R = partial(_m_chart_R, which, n)
    lo, hi = M_THETA_RANGE[which]
    steps = 1024
    grid = [lo + (hi - lo) * k / steps for k in range(steps + 1)]
    k = min(range(steps + 1), key=lambda k: R(grid[k]))
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, steps)]
    g = 0.5 * (SQ5 - 1.0)
    while b - a > 1e-12:
        c, d = b - g * (b - a), a + g * (b - a)
        if R(c) <= R(d):
            b = d
        else:
            a = c
    return min(R(a), R(b), R(grid[k]))


# ---------------------------------------------------------------------------
# analytic membership


def part_regions(n: int) -> dict[str, tuple[int, ...]]:
    """The regions of each moduli part (the n=5 fans A8 and A13 span two), by
    part name as in areas.AreaReport and in the order of the area JSON."""
    wide = solid_constants(n).n == 5
    return {"A1": (1,), "A2": (2,), "A3": (3,), "A7": (7,), "A4": (4,), "A5": (5,),
            "A8": (8, 14) if wide else (8,), "A13": (13, 19) if wide else (13,)}


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
    """One family's division and membership rule as tables.

    A point's sign codes are lo = (sines < -ON_CIRCLE) @ sign_weights and
    hi = (sines <= ON_CIRCLE) @ sign_weights, and _codes gives its pair
    code lo 6n + hi, with lo_weights = 6n sign_weights.  Off every circle
    lo == hi and the point lies in region sign_region[lo].  Otherwise hi -
    lo is the weight sum of the circles it is on, which is one circle's
    weight exactly when the point is on one circle: the weights 3n, n, n
    and n - 1 ones sum to no weight over two or more circles, and to at
    most 6n - 1 over all of them.  Then sign_region[lo] and sign_region[hi]
    are the regions on the circle's two sides.  (|sines| <= band) @ ones
    counts the circles a point is near.

    The inside rule: a point p counts as in region m when core[m], or, in a
    fan region (fan[m]), when cos(phi - alpha) > 0 and its chart radius is
    below that of the region's curve by CURVE_EXCLUSION, for phi =
    phi_const + phi_sign theta at its chart angle theta (parameters lam,
    alpha, phi_const, phi_sign as in CurveSpec; B-chart where fan_b[m]).
    cos(phi - alpha) = 0 at the curve's singular end, and the fan's other
    ends lie on dividing circles, which the region implies.

    A point is in when the rule holds for its region, or on one circle for
    the regions on both sides; rule[code] names one region whose rule says
    the same (0, in no region, for out), so membership runs the rule once.
    Off the circles that is the point's region.  On one circle it is 0
    beside an outside region, the fan beside a core region (always in),
    and either side between two core regions or two fans of one curve (n =
    5's 8|14 and 13|19 across B2, whose rules are one).  No arc separates
    fans of two curves, and a point on two or more circles has no entry,
    so it is out.

    Curve `which` (of CURVE_NAMES) lies on the quadric p.Sp = 0 of the
    symmetric matrix S = quadric[which], in world coordinates.
    """

    sign_weights: np.ndarray
    lo_weights: np.ndarray
    ones: np.ndarray
    sign_region: np.ndarray
    rule: np.ndarray
    core: np.ndarray
    fan: np.ndarray
    fan_b: np.ndarray
    lam: np.ndarray
    alpha: np.ndarray
    phi_const: np.ndarray
    phi_sign: np.ndarray
    quadric: dict


@lru_cache(maxsize=None, typed=True)
def _tables(n: int) -> _Tables:
    fans = fan_parts(n)
    size = 6 * n + 1
    core = np.zeros(size, dtype=bool)
    fan = np.zeros(size, dtype=bool)
    fan_b = np.zeros(size, dtype=bool)
    params = np.full((4, size), np.nan)
    for part, regions in part_regions(n).items():
        if part not in fans:
            core[list(regions)] = True
            continue
        spec = fans[part][0]
        for m in regions:
            fan[m] = True
            fan_b[m] = spec.chart == "B"
            params[:, m] = (spec.lam, spec.alpha, spec.phi_const, spec.phi_sign)
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
    # the deciding region of each pair code lo 6n + hi (see _Tables): off
    # the circles, then across one circle of weight w
    rule = np.zeros(36 * n * n, dtype=np.intp)
    rule[np.arange(6 * n) * (6 * n + 1)] = sign_region
    for w in (1, n, 3 * n):
        lo = np.arange(6 * n - w)
        r0, r1 = sign_region[lo], sign_region[lo + w]
        one_curve = (fan_b[r0] == fan_b[r1]) & (params[:, r0] == params[:, r1]).all(axis=0)
        keep = (core | fan)[r0] & (core | fan)[r1] & ~(fan[r0] & fan[r1] & ~one_curve)
        rule[lo * 6 * n + lo + w] = np.where(keep, np.where(fan[r1] > fan[r0], r1, r0), 0)
    # curve quadrics.  A curve is L (x1^2 + x2^2) + (c1 x1 + c2 x2) x3 = 0
    # in the coordinates x = F p of its chart frame F, that is x.Hx = 0, and
    # p.Sp = 0 for S = F^T H F, made exactly symmetric
    ladder = {"gamma_A": (2.0, 1.0, SQ3),
              "gamma_B": (1.0, -math.cos(math.pi / n), math.sin(math.pi / n)),
              "gamma_C_A": (1.0, 1.0, 0.0), "gamma_C_B": (1.0, -1.0, 0.0)}
    quadric = {}
    for which, (k, c1, c2) in ladder.items():
        spec = curve_spec(which, n)
        L, F = k * spec.lam, geometry(n).frame(spec.chart)
        S = F.T @ np.array([[L, 0.0, 0.5 * c1], [0.0, L, 0.5 * c2], [0.5 * c1, 0.5 * c2, 0.0]]) @ F
        quadric[which] = 0.5 * (S + S.T)
    return _Tables(sign_weights, 6 * n * sign_weights, np.ones(n + 2), sign_region, rule, core,
                   fan, fan_b, *params, quadric)


def analytic_in_moduli_batch(n: int, pts: np.ndarray) -> np.ndarray:
    """Membership from the region division and the closed boundary curves,
    over an (N, 3) array of unit vectors.

    One inside rule (see _Tables) decides every point.  A point off the
    dividing circles is in when it is in its region: in a core triangle, or
    in a fan region between the core and the curve.  A point on exactly one
    circle is in when the rule holds, at the point itself, for both regions
    across that circle, so the included internal arcs are those the regions
    on both sides share.  The curves and every point on two or more circles
    (the division vertices among them) are out.
    """
    return map_rows(partial(_membership, n), pts)


def _membership(n: int, pts: np.ndarray) -> np.ndarray:
    """analytic_in_moduli_batch for points already validated by as_points:
    the inside rule of _Tables, once per row, for the region rule names."""
    t = _tables(n)
    with scratch(len(pts)) as s:
        region = t.rule.take(_codes(n, pts, s))
        inside = t.core[region]
        fan = t.fan[region].nonzero()[0]
        if fan.size:
            m = region[fan]
            th, r = _polar(n, pts.take(fan, 0, s.out((fan.size, 3)), "clip"), t.fan_b[m], s)
            cos = np.cos(t.phi_const[m] + t.phi_sign[m] * th - t.alpha[m])
            inside[fan] = (cos > 0.0) & (r < _eqd_radius(t.lam[m], cos) - CURVE_EXCLUSION)
        return inside


def analytic_in_moduli(n: int, p: np.ndarray) -> bool:
    """analytic_in_moduli_batch for one unit vector of shape (3,)."""
    return bool(_membership(n, as_point(p)[None])[0])


def boundary_band_mask(n: int, pts: np.ndarray, band: float) -> np.ndarray:
    """True for points within `band` radians of any moduli-boundary locus.

    Covers the division circles, and with them the division vertices (each
    lies on two circles, so a point within `band` of a vertex is within
    `band` of one of them), and the supporting quadrics of the three curves
    gamma_A, gamma_B and gamma_C, each one world-frame form Q = p.Sp
    (gamma_C_A and gamma_C_B are one quadric, taken once).  Curve distance
    is the first-order estimate |Q| / |grad_t Q| (exact to O(band^2)), with
    grad_t Q = 2 (Sp - Q p) the gradient tangent to the sphere.  Q alone
    screens the rows: on the sphere |grad_t Q| <= |2 Sp| <= G, twice the
    Frobenius norm of S, so a row with |Q| > band G cannot be near the
    curve.  The gradient is formed only on the rows the screen keeps.
    """
    solid_constants(n)
    return map_rows(partial(_band_mask, n, band=band), pts)


def _band_mask(n: int, pts: np.ndarray, band: float) -> np.ndarray:
    """boundary_band_mask for points already validated by as_points."""
    if not math.isfinite(band):   # NaN would fail every test below, skipping nothing
        raise ValueError(f"band must be finite, got {band}")
    if band <= 0.0:
        return np.zeros(pts.shape[0], dtype=bool)
    k = len(pts)
    t = _tables(n)
    with scratch(k) as s:
        # no angle to a circle exceeds pi/2, so a wider band covers
        # everything; a float product counts each row's hits (1.0 each)
        # faster than any(axis=1)
        sb = s.out((k, n + 2))
        hits = np.less_equal(np.abs(_circle_sines(n, pts, sb), out=sb),
                             math.sin(min(band, 0.5 * math.pi)), out=sb)
        near = np.matmul(hits, t.ones, out=s.out(k)) > 0.0
        spb, qb, ub = s.out((k, 3)), s.out(k), s.out(k)
        for which in ("gamma_A", "gamma_B", "gamma_C_A"):
            S = t.quadric[which]
            sp = rows_matmul(pts, S, spb)   # S is symmetric: row i is S p_i
            q = _quadric_rows(pts, sp, qb, ub)
            # G >= 0.7 for every curve, above the rule's 1e-12 floor; the factor
            # 1 + 1e-6 covers |p| <= 1 + 5e-10 (as_points) and the rounding of gn
            G = 2.0 * math.sqrt(float((S * S).sum())) * (1.0 + 1e-6)
            rows = (np.abs(q, out=ub) <= band * G).nonzero()[0]
            if not rows.size:
                continue
            q = q.take(rows)
            g = sp.take(rows, 0)
            g -= q[:, None] * pts.take(rows, 0)
            gx, gy, gz = g.T
            gn = 2.0 * np.sqrt(gx * gx + gy * gy + gz * gz)
            near[rows] |= np.abs(q) <= band * np.maximum(gn, 1e-12)
    return near


# ---------------------------------------------------------------------------
# reduction loci (a=b, a=c, b=c)

@lru_cache(maxsize=None, typed=True)
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
    """Plane form (a=b) or parabolic-cylinder form (a=c, b=c) at the unit
    vector p.

    Coordinates are the M-chart frame (= world coordinates).  Zero exactly on
    the reduction locus.
    """
    solid_constants(n)
    xi = as_point(p)
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
# check_bc_below_gammaA samples the b=c gap on this many angles
_BC_GRID = 1024


def reduction_radii(kind: str, n: int, thetas) -> np.ndarray:
    """M-chart radius of the a=c or b=c locus on the ray at each angle of a
    1-D array: the smallest root in (0, 1) of the radial quartic, from the
    first exact zero or sign change on _ROOT_GRID, bisected for all rows at
    once.  Every ray meets the locus: the quartic is positive at r = 0 and
    negative at r = 1 whatever theta.  Raises OutOfRange unless the angles
    are finite and 1-D."""
    solid_constants(n)
    c1, c2, c0 = _reduction_quartic(kind, n)
    trig = math.cos if kind == "a=c" else math.sin
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 1 or not np.isfinite(thetas).all():
        raise OutOfRange(f"angles must be finite and 1-D, got {thetas!r}")
    t = np.array([trig(x) for x in thetas.tolist()])

    def quartic(x, t):
        # float_power is libm's pow, as on floats; ** on arrays rounds apart
        return np.float_power(x, 4.0) + c2 * x * x + c0 + c1 * x * (x * x + 1.0) * t

    vals = quartic(_ROOT_GRID, t[:, None])
    zero = vals[:, :-1] == 0.0
    hit = zero | (vals[:, :-1] * vals[:, 1:] < 0.0)
    i = hit.argmax(axis=1)
    first = (np.arange(len(t)), i)
    # an exact zero is a bracket of width 0, whose midpoint is the zero
    a, fa = _ROOT_GRID[i], vals[first]
    b = np.where(zero[first], a, _ROOT_GRID[i + 1])
    while np.count_nonzero(live := b - a > _ROOT_TOL):
        mid = 0.5 * (a + b)
        fm = quartic(mid, t)
        left = fa * fm <= 0.0
        np.copyto(b, mid, where=live & left)
        np.copyto(a, mid, where=live > left)
        np.copyto(fa, fm, where=live > left)
    return 0.5 * (a + b)


def reduction_point(kind: str, n: int, theta: float) -> CurveSample:
    """Radial sample of a reduction locus at M-chart angle theta: the a=c or
    b=c radius of reduction_radii, or where the ray meets the a=b circle.
    Raises NoRootInDisk when the ray misses the a=b locus, and OutOfRange
    for a theta that is not finite.  The degenerate n=3 diagonal (a=b)
    returns the midpoint of the in-moduli segment, flagged line_locus."""
    if not math.isfinite(theta):
        raise OutOfRange(f"theta {theta} is not finite")
    if kind == "a=b":
        return _ab_point(n, theta)
    return _sample(theta, float(reduction_radii(kind, n, [theta])[0]), "M", n)


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
    # radius^2 = |center|^2 + 1, so the ray's two crossings multiply to -1:
    # the one at positive r is b + sqrt(b^2 + 1)
    b = (u.real * center.real + u.imag * center.imag)
    r = b + math.sqrt(b * b - (abs(center) ** 2 - radius * radius))
    if r >= 1.0:
        raise NoRootInDisk("a=b circle crossing lies outside the unit disk")
    return _sample(theta, r, "M", n)


@dataclass(frozen=True)
class BcGapReport:
    """Radial comparison of the b=c locus against gamma_A in the M-chart."""

    n: int
    min_gap: float
    max_gap: float
    tangency_theta: float
    samples: int


def check_bc_below_gammaA(n: int) -> BcGapReport:
    """Sample gap(theta) = r_gammaA - r_bc over the gamma_A angular range.

    A nonnegative gap means the b=c locus is on the moduli side of gamma_A.
    The reported tangency angle is where the gap is smallest (refined by
    golden-section search around the grid minimum).
    """

    def gap(t: float) -> float:
        return gamma_m_chart("gamma_A", n, t).r - reduction_point("b=c", n, t).r

    lo, hi = M_THETA_RANGE["gamma_A"]
    thetas = np.linspace(lo, hi, _BC_GRID)
    gaps = (np.array([gamma_m_chart("gamma_A", n, t).r for t in thetas])
            - reduction_radii("b=c", n, thetas))
    i = int(np.argmin(gaps))
    a, b = thetas[max(0, i - 1)], thetas[min(_BC_GRID - 1, i + 1)]
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
                       samples=_BC_GRID)
