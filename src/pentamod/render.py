"""Deterministic SVG rendering of the moduli and the face subdivision.

Every drawable is sampled as sphere points and projected into the requested
chart, so any chart works for any layer.  Numbers are written with 9
significant digits and no other formatting freedom: equal options give
byte-identical files.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import charts, moduli, pentagon, sphere
from .charts import ChartPoint, geometry

INCLUDE_CHOICES = ("moduli-boundary", "region-arcs", "reduction-curves",
                   "core-triangles", "face-subdivision")

# chart radius beyond which projected polylines are cut (off-viewBox anyway)
_CLIP_R = 2.4

# default subdivision anchor: A-chart polar (0.595 * d_ab, 36.8deg).  For the
# tetrahedral family this is the classic sample anchor; scaling by d_ab keeps
# it a valid tile anchor for the other families too.
_ANCHOR_SCALE = 0.595
_ANCHOR_ANGLE = math.radians(36.8)

_STYLE = {
    "boundary": 'stroke="#000000" stroke-width="0.008"',
    "arcs": 'stroke="#000000" stroke-width="0.008"',
    "regions": 'stroke="#cccccc" stroke-width="0.003"',
    "core": 'stroke="#999999" stroke-width="0.004"',
    "reduction": 'stroke="#2166ac" stroke-width="0.006"',
    "face": 'stroke="#b2182b" stroke-width="0.006"',
}


@dataclass(frozen=True)
class RenderOptions:
    n: int
    chart: str = "M"
    width_px: int = 640
    include: tuple = ("moduli-boundary",)
    samples_per_curve: int = 256
    anchor: complex | None = None     # A-chart anchor for face-subdivision

    def __post_init__(self):
        charts.solid_constants(self.n)
        if self.samples_per_curve < 16:
            raise ValueError("samples_per_curve must be >= 16")
        if self.width_px < 64:
            raise ValueError("width_px must be >= 64")
        for item in self.include:
            if item not in INCLUDE_CHOICES:
                raise ValueError(f"unknown include item {item!r}")


def _fmt(v: float) -> str:
    if v == 0.0:
        return "0"
    return f"{v:.9g}"


def _project(points: np.ndarray, chart: str, n: int,
             clip: float = _CLIP_R) -> list[list[tuple[float, float]]]:
    """Chart-project sphere points, splitting polylines at the clip radius."""
    geo = geometry(n)
    xi = points @ geo.frame(chart).T
    segs: list[list[tuple[float, float]]] = []
    cur: list[tuple[float, float]] = []
    for row in xi:
        denom = 1.0 - row[2]
        if denom < 1e-12:
            if len(cur) > 1:
                segs.append(cur)
            cur = []
            continue
        x, y = row[0] / denom, row[1] / denom
        if math.hypot(x, y) > clip:
            if len(cur) > 1:
                segs.append(cur)
            cur = []
            continue
        cur.append((x, y))
    if len(cur) > 1:
        segs.append(cur)
    return segs


def _path(segs, style_key: str, ident: str | None = None) -> str:
    parts = []
    for seg in segs:
        parts.append("M " + " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in seg))
    if not parts:
        return ""
    idattr = f' id="{ident}"' if ident else ""
    return f'<path{idattr} {_STYLE[style_key]} d="{" ".join(parts)}"/>'


def _arc_points(u: np.ndarray, v: np.ndarray, k: int) -> np.ndarray:
    ang = sphere.angular_distance(u, v)
    ts = np.linspace(0.0, 1.0, k)
    s = math.sin(ang)
    return np.array([(math.sin((1 - t) * ang) * u + math.sin(t * ang) * v) / s for t in ts])


def circle_points(normal: np.ndarray, k: int) -> np.ndarray:
    """k points around the great circle with the given normal, the last one
    repeating the first."""
    nh = normal / np.linalg.norm(normal)
    e1 = np.cross(nh, np.array([0.0, 0.0, 1.0]))
    if np.linalg.norm(e1) < 1e-9:
        e1 = np.cross(nh, np.array([1.0, 0.0, 0.0]))
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(nh, e1)
    ts = np.linspace(0.0, 2.0 * math.pi, k, endpoint=True)
    return np.array([math.cos(t) * e1 + math.sin(t) * e2 for t in ts])


def _boundary_layers(opts: RenderOptions) -> list[str]:
    n, k = opts.n, opts.samples_per_curve
    geo = geometry(n)
    out = []
    for which, ident in (("gamma_A", "gammaA"), ("gamma_B", "gammaB"), ("gamma_C", "gammaC")):
        lo, hi = moduli.M_THETA_RANGE[which]
        pts = np.array([moduli.gamma_m_chart(which, n, t).xi
                        for t in np.linspace(lo, hi, k)])
        out.append(_path(_project(pts, opts.chart, n), "boundary", ident))
    for ident, end in (("arcMBp", geo.B_prime), ("arcMAp", geo.A_prime)):
        pts = _arc_points(geo.M, end, max(k // 8, 16))
        out.append(_path(_project(pts, opts.chart, n), "arcs", ident))
    return out


def _region_layers(opts: RenderOptions) -> list[str]:
    div = moduli.division(opts.n)
    out = []
    for name, nrm in zip(div.circle_names, div.normals):
        pts = circle_points(nrm, 4 * opts.samples_per_curve)
        out.append(_path(_project(pts, opts.chart, opts.n), "regions", f"circle-{name}"))
    return out


def _core_layers(opts: RenderOptions) -> list[str]:
    geo = geometry(opts.n)
    k = max(opts.samples_per_curve // 4, 16)
    edges = (("AB", geo.A, geo.B), ("AM", geo.A, geo.M), ("BM", geo.B, geo.M),
             ("ABp", geo.A, geo.B_prime), ("MBp", geo.M, geo.B_prime),
             ("BAp", geo.B, geo.A_prime), ("MAp", geo.M, geo.A_prime),
             ("AC", geo.A, geo.C), ("CB", geo.C, geo.B))
    return [_path(_project(_arc_points(u, v, k), opts.chart, opts.n), "core", f"edge-{name}")
            for name, u, v in edges]


def _reduction_layers(opts: RenderOptions) -> list[str]:
    n, k = opts.n, opts.samples_per_curve
    out = []
    pts = circle_points(moduli.ab_plane(n), 4 * k)
    out.append(_path(_project(pts, opts.chart, n, clip=1.0), "reduction", "red-ab"))
    thetas = np.linspace(0.0, 2.0 * math.pi, 2 * k, endpoint=True)
    for kind, ident in (("a=c", "red-ac"), ("b=c", "red-bc")):
        pts = np.array([charts.to_sphere(ChartPoint(cmath.rect(r, t), "M", n))
                        for t, r in zip(thetas, moduli.reduction_radii(kind, n, thetas))])
        out.append(_path(_project(pts, opts.chart, n), "reduction", ident))
    return out


def _face_layers(opts: RenderOptions) -> list[str]:
    n, k = opts.n, max(opts.samples_per_curve // 8, 12)
    if opts.anchor is not None:
        z = opts.anchor
    else:
        z = cmath.rect(_ANCHOR_SCALE * geometry(n).constants.d_ab, _ANCHOR_ANGLE)
    anchor = charts.to_sphere(ChartPoint(z, "A", n))
    out = []
    for i, pent in enumerate(pentagon.face_pentagons(n, anchor)):
        for name, arc in zip(pentagon.EDGE_NAMES, pent.arcs):
            pts = _arc_points(arc.u, arc.v, k)
            out.append(_path(_project(pts, opts.chart, n), "face", f"pent{i}-{name}"))
    return out


def render_svg(opts: RenderOptions) -> str:
    """The figure as an SVG string (deterministic byte-for-byte)."""
    w = opts.width_px
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{w}" '
        f'viewBox="-1.1 -1.1 2.2 2.2">',
        '<g transform="scale(1,-1)" fill="none" stroke-linecap="round" '
        'stroke-linejoin="round">',
        '<circle cx="0" cy="0" r="1" stroke="#eeeeee" stroke-width="0.003"/>',
    ]
    if "region-arcs" in opts.include:
        lines += _region_layers(opts)
    if "core-triangles" in opts.include:
        lines += _core_layers(opts)
    if "reduction-curves" in opts.include:
        lines += _reduction_layers(opts)
    if "moduli-boundary" in opts.include:
        lines += _boundary_layers(opts)
    if "face-subdivision" in opts.include:
        lines += _face_layers(opts)
    lines += ["</g>", "</svg>", ""]
    return "\n".join(line for line in lines if line != "")
