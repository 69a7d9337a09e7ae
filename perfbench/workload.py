"""One pentamod workload, run in its own process by perfbench/run.py.

Run from the root of a pentamod checkout:

    python3 perfbench/workload.py --workload batch --seed 1 --seconds 10 --trace 0

The package is imported from ./src, never from an installed copy.  The
process warms up, then runs closed-loop rounds of its workload (one caller,
no concurrency) until --seconds have passed, checks every output, and prints
one JSON object as its last line of standard output.  With --trace 1 the
rounds alternate between untraced and traced, and spans around every call
into a pentamod layer give the per-layer numbers.

Only public pentamod names are called, so the modules behind them may be
rewritten without editing this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import pentamod as pm  # noqa: E402
from pentamod import cli, moduli  # noqa: E402
from pentamod.errors import AntipodalConstruction, DegenerateAnchor, NoRootInDisk  # noqa: E402

if Path(pm.__file__).resolve().parent != (ROOT / "src" / "pentamod").resolve():
    sys.exit(f"pentamod imported from {pm.__file__}, not from ./src")

SOLIDS = (3, 4, 5)
TOTAL_OVER_PI = {3: 0.8600517493, 4: 0.4602931496, 5: 0.1954959087}

# monte_carlo_area(n, 1_000_000, 42): the pinned baseline hits
MC_SAMPLES = 1_000_000
MC_PINNED = {3: 214895, 4: 114897, 5: 48443}
MC_SIGMAS = 5.0

# the `verify` command's default sample count and exclusion band
VERIFY_SAMPLES = 20_000
VERIFY_BAND = 1e-6

# boundary set: on each locus and 1e-12 ... 1e-5 rad off it, both sides
BOUNDARY_OFFSETS = tuple(10.0 ** -k for k in range(12, 4, -1))
BOUNDARY_PER_CIRCLE = 40
BOUNDARY_PER_VERTEX = 16
BOUNDARY_PER_CURVE = 40

# the boundary set of seed 42: per n, the digest of the batch membership and
# batch oracle answers, and how many points the two disagree on.  Every run
# recomputes them; a change of answers at the edges fails the run.
BOUNDARY_PINNED_SEED = 42
BOUNDARY_PINNED = {3: ("e1b58c602a34b117", 262), 4: ("76f51d8307c8919c", 272),
                   5: ("0aa4d2dd996e73de", 247)}

# a point where oracle_in_moduli_batch and oracle_in_moduli disagree (n = 3);
# reported every batch run, not treated as a failure
KNOWN_ORACLE_DEFECTS = (
    (3, (0.5755406512314724, -9.999999038521016e-10, -0.8177731707387157)),
)

# the gated rate averages the fastest FASTEST_SHARE of the calls of each n,
# and at least FASTEST_MIN of them
FASTEST_SHARE = 0.05
FASTEST_MIN = 3

# interactive: check queries per round, then one figure job.  Only the
# queries are gated and figure jobs are timed apart, so this ratio sets only
# how many samples of each a run collects: with 64, the traced half of a
# 20 s run still holds over 1000 queries, ten beyond check.p99_ms, when the
# machine is slow.
CHECK_QUERIES = 64
CURVE_SAMPLES = 256
GOLDEN_INCLUDE = ("moduli-boundary", "core-triangles", "reduction-curves")


def derive_seed(*key: int) -> int:
    """Seed for one call, from the run seed and the call's position."""
    return int(np.random.SeedSequence(list(key)).generate_state(1, np.uint64)[0] >> 1)


def uniform_sphere(samples: int, seed: int) -> np.ndarray:
    """Uniform unit vectors from Philox(seed): z and azimuth streams, in the
    order pentamod's own Monte Carlo sampler draws them."""
    g = np.random.Generator(np.random.Philox(seed))
    z = g.uniform(-1.0, 1.0, samples)
    az = g.uniform(0.0, 2.0 * math.pi, samples)
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([s * np.cos(az), s * np.sin(az), z])


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a non-empty sequence."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans kept in memory: [name, start_ns, end_ns, parent, request, attrs].

    `call` wraps one call into a pentamod layer; `open`/`close` bracket the
    benchmark's own work (rounds, queries, figure jobs).  While `on` is
    false nothing is recorded.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.on = False
        self.spans: list[list] = []
        self.request = 0
        self._stack: list[int] = []

    def _parent(self) -> int:
        return self._stack[-1] if self._stack else -1

    def open(self, name: str, **attrs) -> int:
        if not self.on:
            return -1
        self.spans.append([name, time.perf_counter_ns(), 0, self._parent(), self.request, attrs])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        if idx >= 0:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter_ns()

    def call(self, name: str, fn, *args, **attrs):
        if not self.on:
            return fn(*args)
        t0 = time.perf_counter_ns()
        out = fn(*args)
        t1 = time.perf_counter_ns()
        self.spans.append([name, t0, t1, self._parent(), self.request, attrs])
        return out

    def annotate(self, **attrs) -> None:
        """Add attributes to the span recorded last."""
        if self.on:
            self.spans[-1][5].update(attrs)

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, req, attrs in self.spans:
                fh.write(json.dumps({"run": self.run_id, "name": name, "start_ns": t0,
                                     "end_ns": t1, "parent": parent, "request": req,
                                     **attrs}) + "\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Closed-loop rounds of one job mix.

    `run_round` times the calls that decide points and returns them as
    (part, n, points, seconds), where part names the kind of call.  Input
    generation and output checks are outside the timed region.
    """

    def __init__(self, seed: int, tracer: Tracer):
        self.seed = seed % (1 << 63)    # seed sequences take non-negative keys
        self.tr = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.info: dict = {}

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def warmup(self) -> None:
        """Make the once-per-run checks and fill lazy caches before timing."""
        raise NotImplementedError

    def run_round(self, r: int) -> list[tuple[str, int, int, float]]:
        raise NotImplementedError


def _tangent_basis(v: np.ndarray, rng) -> np.ndarray:
    """A random unit vector perpendicular to unit vector v."""
    t = rng.standard_normal(3)
    t -= (t @ v) * v
    return t / np.linalg.norm(t)


def _offsets_around(q: np.ndarray, d: np.ndarray) -> list[np.ndarray]:
    """q itself and q moved by each boundary offset to both sides along d."""
    out = [q]
    for delta in BOUNDARY_OFFSETS:
        for side in (1.0, -1.0):
            out.append(math.cos(delta) * q + side * math.sin(delta) * d)
    return out


def boundary_points(n: int, seed: int) -> np.ndarray:
    """Anchors on and just off every division circle, division vertex and
    gamma_A/gamma_B/gamma_C curve (including the curve endpoints)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3, n]))
    div = moduli.division(n)
    pts: list[np.ndarray] = []
    for nrm in div.normals:
        e1 = _tangent_basis(nrm, rng)
        e2 = np.cross(nrm, e1)
        for phi in rng.uniform(0.0, 2.0 * math.pi, BOUNDARY_PER_CIRCLE):
            pts += _offsets_around(math.cos(phi) * e1 + math.sin(phi) * e2, nrm)
    for v in div.vertices.values():
        pts.append(v)
        for _ in range(BOUNDARY_PER_VERTEX):
            pts += _offsets_around(v, _tangent_basis(v, rng))[1::2]
    for which, (lo, hi) in moduli.M_THETA_RANGE.items():
        h = 1e-6 * (hi - lo)
        thetas = np.concatenate([[lo, hi], rng.uniform(lo, hi, BOUNDARY_PER_CURVE)])
        for t in thetas:
            q = pm.gamma_m_chart(which, n, t).xi
            tangent = (pm.gamma_m_chart(which, n, min(t + h, hi)).xi
                       - pm.gamma_m_chart(which, n, max(t - h, lo)).xi)
            d = np.cross(q, tangent)
            pts += _offsets_around(q, d / np.linalg.norm(d))
    out = np.array(pts)
    return out / np.linalg.norm(out, axis=1)[:, None]


def _digest(vectors) -> str:
    h = hashlib.sha256()
    for v in vectors:
        h.update(np.packbits(np.asarray(v, dtype=bool)).tobytes())
    return h.hexdigest()[:16]


class Batch(Workload):
    """The batch jobs on the vectorized paths, for n = 3, 4, 5.

    For each n a round makes two calls, timed apart:

    - "mc": monte_carlo_area(n, 1e6, s), the area user's job.  The sampler
      and batch membership do the work and the oracle is idle.
    - "verify": the `verify` pipeline (band mask, both batch predicates,
      comparison) on VERIFY_SAMPLES uniform anchors, then both batch
      predicates, with no band skip, on the boundary set, timed as one call.
    """

    def __init__(self, seed, tracer):
        super().__init__(seed, tracer)
        self.expect = {n: pm.part_areas(n).total / (4.0 * math.pi) for n in SOLIDS}
        self.pts = {n: boundary_points(n, seed) for n in SOLIDS}
        self.ref: dict = {}

    def warmup(self):
        for n in SOLIDS:
            hits = pm.monte_carlo_area(n, MC_SAMPLES, 42).hits
            self.check(hits == MC_PINNED[n], f"n={n} pinned hits {hits} != {MC_PINNED[n]}")
        for n in SOLIDS:
            pts = self.pts[n]
            analytic = pm.analytic_in_moduli_batch(n, pts)
            oracle = pm.oracle_in_moduli_batch(n, pts)
            scalar = np.array([pm.analytic_in_moduli(n, p) for p in pts])
            mism = int(np.count_nonzero(scalar != analytic))
            self.check(mism == 0, f"n={n}: batch membership != scalar on {mism} boundary points")
            self.ref[n] = (analytic, oracle)
        for n, pinned in BOUNDARY_PINNED.items():
            pts = boundary_points(n, BOUNDARY_PINNED_SEED)
            analytic = pm.analytic_in_moduli_batch(n, pts)
            oracle = pm.oracle_in_moduli_batch(n, pts)
            got = (_digest([analytic, oracle]), int(np.count_nonzero(analytic != oracle)))
            self.check(got == pinned, f"n={n}: boundary set of seed {BOUNDARY_PINNED_SEED} "
                                      f"gives digest {got[0]} with {got[1]} disagreements, "
                                      f"pinned {pinned[0]} with {pinned[1]}")
        self.info["boundary_points"] = {n: len(self.pts[n]) for n in SOLIDS}
        self.info["boundary_digest"] = _digest(v for n in SOLIDS for v in self.ref[n])
        self.info["disagreements"] = sum(int(np.count_nonzero(a != o))
                                         for a, o in self.ref.values())
        defects = 0
        for n, v in KNOWN_ORACLE_DEFECTS:
            p = np.array(v)
            defects += bool(pm.oracle_in_moduli_batch(n, p[None])[0]) != pm.oracle_in_moduli(n, p)
        self.info["known_oracle_defects"] = defects
        for i, n in enumerate(SOLIDS):     # fills lazy caches of the verify path
            self.verify_call(0, i, n)

    def run_round(self, r):
        decided = []
        for i, n in enumerate(SOLIDS):
            decided.append(self.mc_call(r, i, n))
            decided.append(self.verify_call(r, i, n))
        return decided

    def mc_call(self, r, i, n):
        tr = self.tr
        seed = derive_seed(self.seed, 1, r, i)
        t0 = time.perf_counter()
        est = tr.call("areas.monte_carlo_area", pm.monte_carlo_area, n, MC_SAMPLES, seed,
                      n=n, points=MC_SAMPLES)
        decided = ("mc", n, MC_SAMPLES, time.perf_counter() - t0)
        p = self.expect[n]
        sigma = math.sqrt(MC_SAMPLES * p * (1.0 - p))
        self.check(abs(est.hits - MC_SAMPLES * p) <= MC_SIGMAS * sigma,
                   f"n={n} seed={seed} hits {est.hits} beyond {MC_SIGMAS} sigma")
        if tr.on:
            # membership alone on the identical points splits the call
            # into sampler and membership time
            pts = uniform_sphere(MC_SAMPLES, seed)
            inside = tr.call("moduli.analytic_in_moduli_batch", pm.analytic_in_moduli_batch,
                             n, pts, n=n, points=MC_SAMPLES, src="mc")
            hits = int(np.count_nonzero(inside))
            tr.annotate(hits=hits)
            self.check(hits == est.hits, f"n={n} seed={seed} replayed points give {hits} hits")
        return decided

    def verify_call(self, r, i, n):
        tr = self.tr
        pts = uniform_sphere(VERIFY_SAMPLES, derive_seed(self.seed, 2, r, i))
        bpts = self.pts[n]
        t0 = time.perf_counter()
        skip = tr.call("moduli.boundary_band_mask", pm.boundary_band_mask, n, pts,
                       VERIFY_BAND, n=n, points=len(pts))
        kept = pts[~skip]
        analytic = tr.call("moduli.analytic_in_moduli_batch", pm.analytic_in_moduli_batch,
                           n, kept, n=n, points=len(kept), src="uniform")
        oracle = tr.call("moduli.oracle_in_moduli_batch", pm.oracle_in_moduli_batch,
                         n, kept, n=n, points=len(kept), src="uniform")
        bad = int(np.count_nonzero(analytic != oracle))
        b_analytic = tr.call("moduli.analytic_in_moduli_batch", pm.analytic_in_moduli_batch,
                             n, bpts, n=n, points=len(bpts), src="boundary")
        b_oracle = tr.call("moduli.oracle_in_moduli_batch", pm.oracle_in_moduli_batch,
                           n, bpts, n=n, points=len(bpts), src="boundary")
        decided = ("verify", n, VERIFY_SAMPLES + len(bpts), time.perf_counter() - t0)
        if tr.on:   # spans[-5:-2] are the uniform calls above
            tr.spans[-5][5]["skipped"] = int(np.count_nonzero(skip))
            tr.spans[-4][5]["hits"] = int(np.count_nonzero(analytic))
            tr.spans[-3][5]["simple"] = int(np.count_nonzero(oracle))
        self.check(bad == 0, f"n={n} round={r}: {bad} disagreements outside the band")
        ra, ro = self.ref[n]
        self.check(np.array_equal(b_analytic, ra) and np.array_equal(b_oracle, ro),
                   f"n={n} round={r}: boundary answers changed between calls")
        return decided


def _curve_samples(which: str, n: int, thetas) -> list:
    return [pm.gamma_m_chart(which, n, t) for t in thetas]


def _radius_samples(spec, thetas) -> list:
    return [pm.curve_radius(spec, t) for t in thetas]


def _reduction_samples(kind: str, n: int, thetas) -> list:
    out = []
    for t in thetas:
        try:
            out.append(pm.reduction_point(kind, n, t))
        except NoRootInDisk:
            continue
    return out


class Interactive(Workload):
    """check-style single-point queries, with a figure job after every
    CHECK_QUERIES queries."""

    def __init__(self, seed, tracer):
        super().__init__(seed, tracer)
        self.golden = {n: (ROOT / "tests" / "golden" / f"moduli{n}.svg").read_text(encoding="utf-8")
                       for n in SOLIDS}
        self.render_opts = {n: pm.RenderOptions(n=n, include=GOLDEN_INCLUDE) for n in SOLIDS}

    def queries_for(self, r: int) -> list[str]:
        """M-chart points, uniform in the unit disk, written as `check` reads them."""
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 4, r]))
        rad = np.sqrt(rng.uniform(0.0, 1.0, CHECK_QUERIES))
        ang = rng.uniform(0.0, 2.0 * math.pi, CHECK_QUERIES)
        return [f"{x:.12g}{y:+.12g}i" for x, y in zip(rad * np.cos(ang), rad * np.sin(ang))]

    def query(self, n: int, text: str) -> tuple[np.ndarray, bool, bool]:
        tr = self.tr
        z = tr.call("cli.parse_point", cli.parse_point, text)
        p = tr.call("charts.to_sphere", pm.to_sphere, pm.ChartPoint(z, "M", n))
        analytic = tr.call("moduli.analytic_in_moduli", pm.analytic_in_moduli, n, p)
        try:
            pent = tr.call("pentagon.anchor_pentagon", pm.anchor_pentagon, n, p)
            report = tr.call("pentagon.is_simple", pm.is_simple, pent)
            tr.annotate(violations=len(report.violations))
            oracle = report.simple
        except (DegenerateAnchor, AntipodalConstruction):
            oracle = False
        tr.call("moduli.region_of", pm.region_of, n, p)
        return p, analytic, oracle

    def figure(self, n: int) -> tuple:
        tr = self.tr
        curves = {}
        for which, (lo, hi) in moduli.M_THETA_RANGE.items():
            curves[which] = tr.call("moduli.gamma_m_chart", _curve_samples, which, n,
                                    np.linspace(lo, hi, CURVE_SAMPLES), samples=CURVE_SAMPLES)
        radii = {}
        for which in moduli.CURVE_NAMES:
            spec = pm.curve_spec(which, n)
            thetas = np.linspace(spec.theta_lo, spec.theta_hi, CURVE_SAMPLES)
            radii[which] = (spec, thetas, tr.call("moduli.curve_radius", _radius_samples, spec,
                                                  thetas, samples=CURVE_SAMPLES))
        reductions = {}
        for kind in ("a=c", "b=c"):
            reductions[kind] = tr.call("moduli.reduction_point", _reduction_samples, kind, n,
                                       np.linspace(0.0, 2.0 * math.pi, CURVE_SAMPLES),
                                       samples=CURVE_SAMPLES)
        svg = tr.call("render.render_svg", pm.render_svg, self.render_opts[n])
        rep = tr.call("areas.part_areas", pm.part_areas, n)
        quad = tr.call("areas.part_areas_quadrature", pm.part_areas_quadrature, n)
        return curves, radii, reductions, svg, rep, quad

    def check_figure(self, n, curves, radii, reductions, svg, rep, quad) -> None:
        worst = max(abs(pm.m_chart_cartesian_residual(which, n, s.z.z))
                    for which, samples in curves.items() for s in samples)
        for spec, thetas, rs in radii.values():
            worst = max([worst] + [abs(pm.gamma_cartesian_residual(spec, r * complex(math.cos(t), math.sin(t))))
                                   for t, r in zip(thetas, rs)])
        for kind, samples in reductions.items():
            worst = max([worst] + [abs(pm.reduction_residual(kind, n, s.xi)) for s in samples])
        self.check(worst < 1e-9, f"n={n}: curve residual {worst:.3g}")
        self.check(svg == self.golden[n], f"n={n}: render_svg differs from tests/golden/moduli{n}.svg")
        self.check(abs(rep.total / math.pi - TOTAL_OVER_PI[n]) < 1e-9,
                   f"n={n}: total area {rep.total / math.pi!r} pi")
        gap = max(abs(getattr(rep, k) - v) for k, v in quad.items())
        self.check(gap < 1e-9, f"n={n}: quadrature differs from elliptic by {gap:.3g}")

    def run_round(self, r):
        """Check queries are the points decided; the figure job is timed
        only in traced rounds."""
        tr, decided = self.tr, []
        for q, text in enumerate(self.queries_for(r)):
            n = SOLIDS[(q + r) % len(SOLIDS)]
            tr.request += 1
            span = tr.open("check", n=n)
            t0 = time.perf_counter()
            p, analytic, oracle = self.query(n, text)
            decided.append(("check", n, 1, time.perf_counter() - t0))
            tr.close(span)
            if not pm.boundary_band_mask(n, p[None], VERIFY_BAND)[0]:
                self.check(analytic == oracle, f"n={n} {text}: analytic {analytic} oracle {oracle}")
        n = SOLIDS[r % len(SOLIDS)]
        tr.request += 1
        span = tr.open("figure", n=n)
        out = self.figure(n)
        tr.close(span)
        self.check_figure(n, *out)
        return decided

    def warmup(self):
        for r in range(len(SOLIDS)):
            self.run_round(r)


WORKLOADS = {"batch": Batch, "interactive": Interactive}


# ---------------------------------------------------------------------------
# measurement


def fastest_mean(values) -> float:
    """Mean of the fastest FASTEST_SHARE of the values, at least FASTEST_MIN
    of them (all of them when there are fewer)."""
    xs = sorted(values)
    xs = xs[:max(FASTEST_MIN, int(FASTEST_SHARE * len(xs)))]
    return sum(xs) / len(xs)


def end_to_end(rounds) -> dict:
    """Timing metrics from the rounds' lists of (part, n, points, seconds) calls.

    The rate of one part is that of an equal mix of the solids: the inverse
    of the mean over n of the seconds per point of the fastest calls of that
    n.  Every n counts alike, so a slowdown of one solid alone shows.
    `points_per_s` is the geometric mean of the rates of the parts, so a
    part counts alike however cheap its points are.  Where other tenants
    share the cores, contention only ever adds time, and the fastest few
    repeat from run to run better than the median or a decile does.
    """
    per_point: dict[str, dict[int, list[float]]] = {}
    for decided in rounds:
        for part, n, points, t in decided:
            per_point.setdefault(part, {}).setdefault(n, []).append(t / points)
    rates = {part: 1.0 / statistics.fmean(fastest_mean(v) for v in by_n.values())
             for part, by_n in per_point.items()}
    return {
        "points_per_s": statistics.geometric_mean(rates.values()),
        "part_points_per_s": rates,
        "calls": sum(len(v) for by_n in per_point.values() for v in by_n.values()),
        "rounds": len(rounds),
    }


def _span_sum(spans, name: str, **match) -> tuple[int, int, dict]:
    """(calls, busy ns, summed numeric attrs) of the spans called name."""
    calls, busy, sums = 0, 0, {}
    for s in spans:
        if s[0] != name or any(s[5].get(k) != v for k, v in match.items()):
            continue
        calls += 1
        busy += s[2] - s[1]
        for k, v in s[5].items():
            if isinstance(v, int) and not isinstance(v, bool) and k != "n":
                sums[k] = sums.get(k, 0) + v
    return calls, busy, sums


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


LAYERS = ("cli", "charts", "pentagon", "moduli", "areas", "render")

# every per-layer metric and its unit; a layer a workload never calls reads 0
PER_LAYER_UNITS = {
    **{f"membership_batch.ns_per_point.n{n}": "ns" for n in SOLIDS},
    "membership_batch.hit_ratio": "ratio",
    "mc.sampler_ns_per_point": "ns",
    "band_mask.ns_per_point": "ns",
    "band_mask.skip_ratio": "ratio",
    **{f"oracle_batch.ns_per_point.n{n}": "ns" for n in SOLIDS},
    "oracle_batch.simple_ratio": "ratio",
    "boundary.membership_ns_per_point": "ns",
    "boundary.oracle_ns_per_point": "ns",
    "boundary.disagreements": "count",
    "boundary.known_oracle_defects": "count",
    "charts.to_sphere.us": "us",
    "membership_scalar.us": "us",
    "pentagon.anchor.us": "us",
    "oracle_scalar.us": "us",
    "oracle_scalar.violations_per_query": "count",
    "region_of.us": "us",
    "curves.us_per_sample": "us",
    "render.ms": "ms",
    "areas.ms": "ms",
    "check.count": "count",
    "check.p50_ms": "ms",
    "check.p99_ms": "ms",
    "figure.count": "count",
    "figure.p50_ms": "ms",
    **{f"layer.{layer}.{what}": unit for layer in LAYERS
       for what, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))},
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.bench_overhead_s": "s",
    "trace.overhead_pct": "%",
    "setup.import_s": "s",          # measured by run.py
    "setup.scipy_import_s": "s",    # measured by run.py
}


def per_layer(w: Workload, spans, traced_wall_ns: int, untraced: dict, traced: dict) -> dict:
    m: dict = {}
    for n in SOLIDS:
        _, busy, s = _span_sum(spans, "moduli.analytic_in_moduli_batch", n=n, src="uniform")
        _, busy_mc, s_mc = _span_sum(spans, "moduli.analytic_in_moduli_batch", n=n, src="mc")
        m[f"membership_batch.ns_per_point.n{n}"] = _ratio(busy + busy_mc, s.get("points", 0) + s_mc.get("points", 0))
        _, busy, s = _span_sum(spans, "moduli.oracle_in_moduli_batch", n=n, src="uniform")
        m[f"oracle_batch.ns_per_point.n{n}"] = _ratio(busy, s.get("points", 0))
    _, _, s = _span_sum(spans, "moduli.analytic_in_moduli_batch", src="uniform")
    _, _, s_mc = _span_sum(spans, "moduli.analytic_in_moduli_batch", src="mc")
    m["membership_batch.hit_ratio"] = _ratio(s.get("hits", 0) + s_mc.get("hits", 0),
                                             s.get("points", 0) + s_mc.get("points", 0))
    _, busy_area, s_area = _span_sum(spans, "areas.monte_carlo_area")
    _, busy_mc, _ = _span_sum(spans, "moduli.analytic_in_moduli_batch", src="mc")
    m["mc.sampler_ns_per_point"] = _ratio(busy_area - busy_mc, s_area.get("points", 0))
    _, busy, s = _span_sum(spans, "moduli.boundary_band_mask")
    m["band_mask.ns_per_point"] = _ratio(busy, s.get("points", 0))
    m["band_mask.skip_ratio"] = _ratio(s.get("skipped", 0), s.get("points", 0))
    _, _, s = _span_sum(spans, "moduli.oracle_in_moduli_batch", src="uniform")
    m["oracle_batch.simple_ratio"] = _ratio(s.get("simple", 0), s.get("points", 0))
    _, busy, s = _span_sum(spans, "moduli.analytic_in_moduli_batch", src="boundary")
    m["boundary.membership_ns_per_point"] = _ratio(busy, s.get("points", 0))
    _, busy, s = _span_sum(spans, "moduli.oracle_in_moduli_batch", src="boundary")
    m["boundary.oracle_ns_per_point"] = _ratio(busy, s.get("points", 0))
    m["boundary.disagreements"] = w.info.get("disagreements", 0)
    m["boundary.known_oracle_defects"] = w.info.get("known_oracle_defects", 0)
    for key, name in (("charts.to_sphere.us", "charts.to_sphere"),
                      ("membership_scalar.us", "moduli.analytic_in_moduli"),
                      ("pentagon.anchor.us", "pentagon.anchor_pentagon"),
                      ("oracle_scalar.us", "pentagon.is_simple"),
                      ("region_of.us", "moduli.region_of")):
        calls, busy, _ = _span_sum(spans, name)
        m[key] = _ratio(busy / 1e3, calls)
    calls, _, s = _span_sum(spans, "pentagon.is_simple")
    m["oracle_scalar.violations_per_query"] = _ratio(s.get("violations", 0), calls)
    busy = samples = 0
    for name in ("moduli.gamma_m_chart", "moduli.curve_radius", "moduli.reduction_point"):
        _, b, s = _span_sum(spans, name)
        busy, samples = busy + b, samples + s.get("samples", 0)
    m["curves.us_per_sample"] = _ratio(busy / 1e3, samples)
    calls, busy, _ = _span_sum(spans, "render.render_svg")
    m["render.ms"] = _ratio(busy / 1e6, calls)
    _, busy_q, _ = _span_sum(spans, "areas.part_areas_quadrature")
    calls, busy_e, _ = _span_sum(spans, "areas.part_areas")
    m["areas.ms"] = _ratio((busy_q + busy_e) / 1e6, calls)
    checks = [1e-6 * (s[2] - s[1]) for s in spans if s[0] == "check"]
    figures = [1e-6 * (s[2] - s[1]) for s in spans if s[0] == "figure"]
    m["check.count"] = len(checks)
    m["check.p50_ms"] = quantile(checks, 0.5) if checks else 0.0
    m["check.p99_ms"] = quantile(checks, 0.99) if checks else 0.0
    m["figure.count"] = len(figures)
    m["figure.p50_ms"] = quantile(figures, 0.5) if figures else 0.0

    own = self_times(spans)
    layer_self = 0
    for layer in LAYERS:
        calls = busy = selft = 0
        for s, o in zip(spans, own):
            if s[0].split(".", 1)[0] == layer:
                calls += 1
                busy += s[2] - s[1]
                selft += o
        layer_self += selft
        m[f"layer.{layer}.calls"] = calls
        m[f"layer.{layer}.busy_s"] = busy / 1e9
        m[f"layer.{layer}.self_s"] = selft / 1e9
    m["trace.spans"] = len(spans)
    m["trace.wall_s"] = traced_wall_ns / 1e9
    m["trace.bench_overhead_s"] = (traced_wall_ns - layer_self) / 1e9
    m["trace.overhead_pct"] = 100.0 * _ratio(untraced["points_per_s"] - traced["points_per_s"],
                                             untraced["points_per_s"])
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write the traced spans here as JSON lines")
    args = ap.parse_args(argv)

    tracer = Tracer(f"{args.workload}-{args.seed}")
    w = WORKLOADS[args.workload](args.seed, tracer)
    w.warmup()

    # traced runs alternate untraced and traced rounds, so both halves see
    # the same machine conditions
    rounds: dict[bool, list] = {False: [], True: []}
    traced_wall = 0
    deadline = time.perf_counter() + args.seconds
    r = 0
    while True:
        tracer.on = bool(args.trace) and r % 2 == 1
        tracer.request += 1
        t0 = time.perf_counter_ns()
        span = tracer.open("round", r=r)
        rounds[tracer.on].append(w.run_round(r))
        tracer.close(span)
        if tracer.on:
            traced_wall += time.perf_counter_ns() - t0
        r += 1
        if time.perf_counter() >= deadline and r >= 1 + args.trace:
            break
    tracer.on = False

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": w.attempted,
        "failed": w.failed,
        "problems": w.problems,
        "info": w.info,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "end_to_end": end_to_end(rounds[False]),
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": sys.modules["scipy"].__version__ if "scipy" in sys.modules else None},
    }
    if args.trace:
        traced = end_to_end(rounds[True])
        result["traced_end_to_end"] = traced
        result["per_layer"] = per_layer(w, tracer.spans, traced_wall, result["end_to_end"], traced)
        result["per_layer_units"] = PER_LAYER_UNITS
        if args.spans:
            tracer.dump(Path(args.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
