"""Command-line surface: check, curve, area, render, verify.

Exit codes: 0 success, 2 usage error, 3 analytic/oracle disagreement in
`check`, 4 output IO failure, 5 verification failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
import time

import numpy as np

from . import areas, charts, moduli, pentagon, render
from .charts import ChartPoint
from .errors import DegenerateAnchor, AntipodalConstruction, PentamodError
from .sphere import map_sample

SCHEMA = 1

# CSV fields use 12 significant digits so a parse/re-evaluate round trip
# stays within 1e-9
_CSV_FMT = "{:.12g}"

# each curve's charts with a theta parameterization, default first:
# gammaA/gammaB default to their home charts, gammaC and the reductions to M
_CURVE_CHARTS = {"gammaA": ("A", "M"), "gammaB": ("B", "M"), "gammaC": ("M", "A", "B"),
                 "a=b": ("M",), "a=c": ("M",), "b=c": ("M",)}


def parse_point(text: str) -> complex:
    """Parse 'x+yi' or polar 'r@thetadeg' into a finite complex number."""
    s = text.strip().replace(" ", "")
    if "@" in s:
        r_str, th_str = s.split("@", 1)
        z = cmath.rect(float(r_str), math.radians(float(th_str)))
    else:
        z = complex(s.replace("i", "j"))
    if not cmath.isfinite(z):
        raise ValueError(f"point {text!r} is not finite")
    return z


def _emit(args, out) -> None:
    """Write a command's output, text or a JSON payload, to --out or else to
    stdout; main reports an OSError of the write as exit 4."""
    text = out if isinstance(out, str) else json.dumps(out, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_check(args) -> int:
    try:
        z = parse_point(args.point)
    except ValueError:
        print(f"error: cannot parse point {args.point!r}", file=sys.stderr)
        return 2
    n = args.solid
    p = charts.to_sphere(ChartPoint(z, args.chart, n))
    analytic = moduli.analytic_in_moduli(n, p)
    violations = []
    construction_error = None
    try:
        pent = pentagon.anchor_pentagon(n, p)
        report = pentagon.is_simple(pent)
        oracle = report.simple
        violations = [
            {"pair": list(v.pair), "kind": v.kind,
             "witness": [float(x) for x in v.witness]}
            for v in report.violations
        ]
    except (DegenerateAnchor, AntipodalConstruction) as exc:
        oracle = False
        construction_error = str(exc)
    region = moduli.region_of(n, p)
    if isinstance(region, moduli.Boundary):
        region_repr = {"boundary": region.kind, "regions": list(region.regions),
                       "vertex": region.vertex}
    else:
        region_repr = region
    payload = {
        "schema": SCHEMA,
        "solid": n,
        "chart": args.chart,
        "point": [z.real, z.imag],
        "in_moduli_analytic": bool(analytic),
        "in_moduli_oracle": bool(oracle),
        "region": region_repr,
        "simplicity_violations": violations,
    }
    if construction_error:
        payload["construction_error"] = construction_error
    _emit(args, payload)
    return 0 if analytic == oracle else 3


def _curve_rows(which: str, n: int, chart: str, samples: int):
    """(theta, r) pairs over the curve's admissible range in the chart."""
    if samples < 1:   # a negative count would slice rows off the end
        raise ValueError(f"samples must be >= 1, got {samples}")
    if which.startswith("gamma"):
        name = "gamma_" + which[-1]
        if chart == "M":
            lo, hi = moduli.M_THETA_RANGE[name]
            return [(t, moduli.gamma_m_chart(name, n, t).r)
                    for t in np.linspace(lo, hi, samples)]
        # gamma_C has one home-chart piece per chart, gamma_C_A and gamma_C_B
        spec = moduli.curve_spec(name if name in moduli.CURVE_NAMES else f"{name}_{chart}", n)
        return [(t, moduli.curve_radius(spec, t))
                for t in np.linspace(spec.theta_lo, spec.theta_hi, samples)]
    if which == "a=b":
        # the great circle's in-disk half (xi3 <= 0): circle_points starts on
        # the chart equator, so its first and second halves run from one
        # disk-edge end to the other
        pts = render.circle_points(moduli.ab_plane(n), 2 * samples - 1)
        half = pts[:samples] if pts[:samples, 2].sum() < 0.0 else pts[samples - 1:]
        zs = [complex(q[0], q[1]) / (1.0 - q[2]) for q in half]
        return [(math.atan2(z.imag, z.real), abs(z)) for z in zs]
    thetas = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    return list(zip(thetas, moduli.reduction_radii(which, n, thetas)))


def cmd_curve(args) -> int:
    which = args.which
    chart = args.chart or _CURVE_CHARTS[which][0]
    if chart not in _CURVE_CHARTS[which]:
        print(f"error: curve {which!r} has no {chart}-chart parameterization",
              file=sys.stderr)
        return 2
    n = args.solid
    rows = []
    for theta, r in _curve_rows(which, n, chart, args.samples):
        z = cmath.rect(r, theta)
        xi = charts.to_sphere(ChartPoint(z, chart, n))
        rows.append(tuple(v + 0.0 if v != 0.0 else 0.0 for v in
                          (theta, r, z.real, z.imag, xi[0], xi[1], xi[2])))
    if args.format == "json":
        fields = ("theta", "r", "x", "y", "xi1", "xi2", "xi3")
        _emit(args, {"schema": SCHEMA, "curve": which, "solid": n, "chart": chart,
                     "rows": [dict(zip(fields, row)) for row in rows]})
    else:
        lines = ["theta,r,x,y,xi1,xi2,xi3"]
        lines += [",".join(_CSV_FMT.format(v) for v in row) for row in rows]
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_area(args) -> int:
    n = args.solid
    rep = areas.part_areas(n)
    quad = areas.part_areas_quadrature(n)
    payload = {
        "schema": SCHEMA,
        "solid": n,
        "parts": {k: getattr(rep, k) for k in moduli.part_regions(n)},
        "total": rep.total,
        "total_over_pi": rep.total / math.pi,
        "fraction_of_sphere": rep.fraction_of_sphere,
        "residuals": {
            "elliptic_vs_quadrature": {k: abs(getattr(rep, k) - v)
                                       for k, v in quad.items()},
            "A2_A4_A8_consistency": areas.consistency_A2A4A8(n),
        },
    }
    if args.mc:
        samples, seed = int(args.mc[0]), int(args.mc[1])
        est = areas.monte_carlo_area(n, samples, seed)
        payload["monte_carlo"] = {
            "samples": est.samples, "seed": est.seed, "hits": est.hits,
            "estimate": est.estimate, "stderr": est.stderr,
            "sigma_from_analytic": abs(est.estimate - rep.total) / est.stderr,
            "top_z": moduli.top_z(n), "evaluated": est.evaluated,
            "under_inner": est.under_inner,
        }
    _emit(args, payload)
    return 0


def cmd_render(args) -> int:
    include = tuple(args.include) if args.include else ("moduli-boundary",)
    anchor = parse_point(args.point) if args.point else None
    opts = render.RenderOptions(n=args.solid, chart=args.chart,
                                width_px=args.width, include=include,
                                samples_per_curve=args.samples,
                                anchor=anchor)
    _emit(args, render.render_svg(opts))
    return 0


def cmd_verify(args) -> int:
    n = args.solid
    t0 = time.perf_counter()

    def check(pts):
        """(checked, bad, the first <= 50 disagreements) of one piece."""
        kept = pts[~moduli.boundary_band_mask(n, pts, args.band)]
        analytic = moduli.analytic_in_moduli_batch(n, kept)
        oracle = pentagon.oracle_in_moduli_batch(n, kept)
        bad = np.flatnonzero(analytic != oracle)
        return len(kept), len(bad), [{"point": kept[i].tolist(), "analytic": bool(analytic[i]),
                                      "oracle": bool(oracle[i])} for i in bad[:50]]

    checked, bad, found = zip(*(piece for _, piece in map_sample(args.samples, args.seed, check)))
    checked, bad = sum(checked), sum(bad)
    payload = {
        "schema": SCHEMA,
        "solid": n,
        "samples": args.samples,
        "seed": args.seed,
        "boundary_exclusion_band": args.band,
        "checked": checked,
        "skipped": args.samples - checked,
        "agree": not bad,
        "disagreements": [d for piece in found for d in piece][:50],
        "elapsed": time.perf_counter() - t0,
    }
    _emit(args, payload)
    return 0 if not bad else 5


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pentamod",
        description="Moduli of pentagonal subdivisions of the sphere")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_solid(p):
        p.add_argument("--solid", type=int, choices=(3, 4, 5), required=True,
                       help="3 tetrahedron, 4 octahedron, 5 icosahedron")

    p = sub.add_parser("check", help="membership of one anchor point")
    add_solid(p)
    p.add_argument("--chart", choices=charts.CHARTS, default="M")
    p.add_argument("--point", required=True,
                   help="complex 'x+yi' or polar 'r@thetadeg'")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("curve", help="CSV samples of a boundary or reduction curve")
    p.add_argument("which", choices=tuple(_CURVE_CHARTS))
    add_solid(p)
    p.add_argument("--chart", choices=charts.CHARTS, default=None)
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("area", help="part areas, totals and residuals")
    add_solid(p)
    p.add_argument("--mc", nargs=2, metavar=("SAMPLES", "SEED"),
                   help="append a Monte-Carlo cross-check")
    p.add_argument("--out")
    p.set_defaults(func=cmd_area)

    p = sub.add_parser("render", help="SVG figure")
    add_solid(p)
    p.add_argument("--chart", choices=charts.CHARTS, default="M")
    p.add_argument("--out", required=True)
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--include", nargs="*", choices=render.INCLUDE_CHOICES,
                   help="layers (default: moduli-boundary)")
    p.add_argument("--point", help="A-chart anchor for face-subdivision")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("verify", help="analytic vs oracle on random points")
    add_solid(p)
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--band", type=float, default=1e-6,
                   help="boundary exclusion band, radians")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)
    return ap


def _glue_point_flag(argv):
    """Rewrite '--point -0.2-0.3i' as '--point=-0.2-0.3i' so argparse does
    not read the value as an option."""
    out = []
    it = iter(argv)
    for a in it:
        if a == "--point":
            v = next(it, None)
            out.append(a if v is None else f"--point={v}")
        else:
            out.append(a)
    return out


def main(argv=None) -> int:
    argv = _glue_point_flag(sys.argv[1:] if argv is None else list(argv))
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PentamodError, ValueError) as exc:   # ValueError: a rejected argument
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:   # only _emit touches a file
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
