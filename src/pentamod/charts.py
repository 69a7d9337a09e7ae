"""Stereographic charts for the three platonic families.

Each chart is an orthonormal frame whose origin point X sits at frame
coordinates (0, 0, -1); the chart coordinate of a sphere point xi is
z = xi12 / (1 - xi3) in that frame, so the equator of the chart is |z| = 1
and tan(delta/2) = |z| for the spherical distance delta from X.

Chart conventions (one frame per solid, derived once):
  A-chart: B on the positive real axis.
  B-chart: A on the negative real axis.
  M-chart: A on the negative real axis, B on the negative imaginary axis.
A -> B -> M is counterclockwise in every chart.  World coordinates coincide
with the M-chart frame.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AntipodeOfOrigin, UnsupportedSolid
from .sphere import as_point

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)
SQ5 = math.sqrt(5.0)

CHARTS = ("A", "B", "M")

#: Point at infinity of a chart (image of the chart origin's antipode).
INFINITY = complex(math.inf, 0.0)

# Closed-form consistency of the constants is asserted to this tolerance
# when a SolidConstants is first built.
_SELF_CHECK_TOL = 1e-12


@dataclass(frozen=True)
class SolidConstants:
    """Per-family chart distances and boundary-curve coefficients."""

    n: int            # 3, 4, 5 for tetrahedron, octahedron, icosahedron
    faces: int        # 4, 8, 20
    d_ab: float       # chart chordal distance |B_A| = |A_B|
    d_am: float       # |M_A| = |A_M|
    d_bm: float       # |M_B| = |B_M|
    lambda_a: float
    lambda_b: float
    lambda_c: float


def _check_constants(c: SolidConstants) -> None:
    d = c.d_ab
    lhs = (1.0 / d - d) * math.tan(math.pi / 3.0)
    rhs = (1.0 / d + d) * math.tan((0.5 - 1.0 / c.n) * math.pi)
    assert abs(lhs - rhs) < _SELF_CHECK_TOL, "d_ab does not satisfy its defining equation"
    lam_a = 0.5 * (1.0 / d - d) * math.cos(math.pi / 3.0)
    lam_b = 0.5 * (1.0 / d - d) * math.cos(math.pi / c.n)
    lam_c = 0.5 * (1.0 / c.d_am - c.d_am) * math.cos(math.pi / 3.0)
    lam_c2 = 0.5 * (1.0 / c.d_bm - c.d_bm) * math.cos(math.pi / c.n)
    assert abs(lam_a - c.lambda_a) < _SELF_CHECK_TOL
    assert abs(lam_b - c.lambda_b) < _SELF_CHECK_TOL
    assert abs(lam_c - c.lambda_c) < _SELF_CHECK_TOL
    assert abs(lam_c2 - c.lambda_c) < _SELF_CHECK_TOL, "dual formula for lambda_c disagrees"


# Every cache keyed on the family n is typed, so that a float or a bool equal
# to 3, 4 or 5 never finds the entry of the int and reaches solid_constants.
@lru_cache(maxsize=None, typed=True)
def solid_constants(n: int) -> SolidConstants:
    """Closed-form constants for family n in {3, 4, 5}.

    n must be an integer (Python or numpy), not a bool: UnsupportedSolid
    otherwise, and for any other value.  Values are the exact radicals; the
    defining tangent equation and the dual formula for lambda_c are asserted
    on first construction.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise UnsupportedSolid(f"n must be the integer 3, 4 or 5, got {n!r}")
    if n == 3:
        c = SolidConstants(3, 4, 1.0 / SQ2, (SQ3 - 1.0) / SQ2, (SQ3 - 1.0) / SQ2,
                           1.0 / (4.0 * SQ2), 1.0 / (4.0 * SQ2), 1.0 / (2.0 * SQ2))
    elif n == 4:
        c = SolidConstants(4, 8, (SQ3 - 1.0) / SQ2, SQ3 - SQ2, SQ2 - 1.0,
                           1.0 / (2.0 * SQ2), 0.5, 1.0 / SQ2)
    elif n == 5:
        c = SolidConstants(5, 20,
                           (math.sqrt(30.0 + 6.0 * SQ5) - SQ5 - 3.0) / 4.0,
                           (math.sqrt(15.0) - SQ5 + SQ3 - 3.0) / 2.0,
                           (math.sqrt(10.0 + 2.0 * SQ5) - SQ5 - 1.0) / 2.0,
                           (SQ5 + 3.0) / 8.0, (SQ5 + 2.0) / 4.0, (SQ5 + 3.0) / 4.0)
    else:
        raise UnsupportedSolid(f"n must be 3, 4 or 5, got {n!r}")
    _check_constants(c)
    return c


def _sphere_from_z(z: complex) -> np.ndarray:
    try:
        r2 = abs(z) ** 2
    except OverflowError:
        # the same point from w = 1/z, whose |w|^2 cannot overflow
        w = 1.0 / z
        s = abs(w) ** 2
        return np.array([2.0 * w.real, -2.0 * w.imag, 1.0 - s]) / (1.0 + s)
    return np.array([2.0 * z.real, 2.0 * z.imag, r2 - 1.0]) / (r2 + 1.0)


def _z_from_sphere(xi: np.ndarray) -> complex:
    if 1.0 - xi[2] < 1e-12:
        raise AntipodeOfOrigin("point is the chart origin's antipode")
    return complex(xi[0], xi[1]) / (1.0 - xi[2])


@dataclass(frozen=True)
class SolidGeometry:
    """World positions of the base triangle and the three chart frames."""

    n: int
    constants: SolidConstants
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    M: np.ndarray
    B_prime: np.ndarray   # rotation of B about A by 2pi/3
    A_prime: np.ndarray   # rotation of A about B by -2pi/n
    frame_a: np.ndarray   # rows e1, e2, e3 of the A-chart frame
    frame_b: np.ndarray
    frame_m: np.ndarray

    def frame(self, chart: str) -> np.ndarray:
        if chart == "A":
            return self.frame_a
        if chart == "B":
            return self.frame_b
        if chart == "M":
            return self.frame_m
        raise ValueError(f"unknown chart {chart!r}")

    def chart_rotation(self, chart: str, angle: float) -> np.ndarray:
        """World matrix of multiplication by e^(i*angle) in the given chart."""
        return _chart_rotation(self.frame(chart), angle)


def _chart_rotation(frame: np.ndarray, angle: float) -> np.ndarray:
    """World matrix of multiplication by e^(i*angle) in the chart of frame."""
    ca, sa = math.cos(angle), math.sin(angle)
    rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    return frame.T @ rz @ frame


def _derive_frame(origin: np.ndarray, ref: np.ndarray, sign: float) -> np.ndarray:
    e3 = -origin
    e1 = ref - (ref @ e3) * e3
    e1 = sign * e1 / np.linalg.norm(e1)
    return np.vstack([e1, np.cross(e3, e1), e3])


@lru_cache(maxsize=None, typed=True)
def geometry(n: int) -> SolidGeometry:
    """Base triangle A, B, M (and C) with all chart frames, for family n."""
    c = solid_constants(n)
    A = _sphere_from_z(complex(-c.d_am, 0.0))
    B = _sphere_from_z(complex(0.0, -c.d_bm))
    frame_a = _derive_frame(A, B, +1.0)   # B on the positive real axis
    frame_b = _derive_frame(B, A, -1.0)   # A on the negative real axis
    return SolidGeometry(
        n=n, constants=c, A=A, B=B,
        C=frame_a.T @ _sphere_from_z(cmath.rect(c.d_am, -math.pi / 3.0)),
        M=np.array([0.0, 0.0, -1.0]),
        B_prime=_chart_rotation(frame_a, 2.0 * math.pi / 3.0) @ B,
        A_prime=_chart_rotation(frame_b, -2.0 * math.pi / n) @ A,
        frame_a=frame_a, frame_b=frame_b, frame_m=np.eye(3))


@dataclass(frozen=True)
class ChartPoint:
    """Complex coordinate z in a named chart of a given family."""

    z: complex
    chart: str
    solid: int


def to_sphere(p: ChartPoint) -> np.ndarray:
    """World unit vector of a chart point; an infinite z (INFINITY) is the
    chart origin's antipode, the frame's e3.  Raises ValueError for a NaN z."""
    frame = geometry(p.solid).frame(p.chart)
    if cmath.isfinite(p.z):
        return frame.T @ _sphere_from_z(p.z)
    if cmath.isnan(p.z):
        raise ValueError(f"chart point {p.z} is NaN")
    return frame[2].copy()


def to_chart(xi: np.ndarray, chart: str, solid: int) -> ChartPoint:
    """Chart coordinate of a world unit vector.

    Raises InvalidPoints for anything but a finite unit vector of shape (3,),
    and AntipodeOfOrigin for the chart origin's antipode (z would be
    infinite).
    """
    geo = geometry(solid)
    return ChartPoint(z=_z_from_sphere(geo.frame(chart) @ as_point(xi)),
                      chart=chart, solid=solid)


@dataclass(frozen=True)
class MobiusMap:
    """Fractional linear map z -> (a z + b) / (c z + d)."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        if abs(self.a * self.d - self.b * self.c) <= 1e-12:
            raise ValueError("Mobius map is singular (det ~ 0)")

    def inverse(self) -> "MobiusMap":
        return MobiusMap(self.d, -self.b, -self.c, self.a)


def apply_mobius(m: MobiusMap, z: complex) -> complex:
    """Evaluate the map; returns INFINITY when the denominator vanishes.
    Raises ValueError for a NaN z, which is no point of the chart."""
    if cmath.isnan(z):
        raise ValueError(f"chart point {z} is NaN")
    if z == INFINITY or cmath.isinf(z):
        if abs(m.c) < 1e-300:
            return INFINITY
        return m.a / m.c
    num = m.a * z + m.b
    den = m.c * z + m.d
    if abs(den) < 1e-14 * max(abs(num), 1.0):
        return INFINITY
    return num / den


def mobius_m_to_a(n: int) -> MobiusMap:
    """M-chart to A-chart: z_A = (z_M + d_AM) / (1 - d_AM z_M) * e^(i pi/3)."""
    d = solid_constants(n).d_am
    rot = cmath.exp(1j * math.pi / 3.0)
    return MobiusMap(rot, rot * d, -d, 1.0)


def mobius_m_to_b(n: int) -> MobiusMap:
    """M-chart to B-chart: z_B = (z_M + i d_BM) / (1 + i d_BM z_M) * e^(i(1/2-1/n)pi)."""
    d = solid_constants(n).d_bm
    rot = cmath.exp(1j * (0.5 - 1.0 / n) * math.pi)
    return MobiusMap(rot, rot * 1j * d, 1j * d, 1.0)
