"""The batch kernels and the scalar reference paths must agree."""

import cmath
import hashlib
import math
import sys
import threading
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentamod import (analytic_in_moduli, analytic_in_moduli_batch, anchor_pentagon,
                      boundary_band_mask, charts, moduli, oracle_in_moduli,
                      oracle_in_moduli_batch, pentagon, region_of, sphere)
from pentamod.charts import SQ3, ChartPoint
from pentamod.sphere import sample_sphere
from pentamod.errors import AntipodalConstruction, DegenerateAnchor, InvalidPoints
from pentamod.render import circle_points
from test_pentagon import _antipodal_edge_anchors, _exhaustive_report


@pytest.mark.parametrize("n", [3, 4, 5])
def test_backends_agree_on_random_points(n):
    # the scalar oracle is the independent reference for both batch predicates;
    # membership may differ from it only inside the 1e-6 boundary band
    pts = sample_sphere(200, 300 + n)
    scalar = np.array([oracle_in_moduli(n, p) for p in pts])
    assert np.array_equal(oracle_in_moduli_batch(n, pts), scalar)
    keep = ~boundary_band_mask(n, pts, 1e-6)
    assert np.array_equal(analytic_in_moduli_batch(n, pts)[keep], scalar[keep])


def test_backends_agree_on_boundary_points():
    # points sitting exactly on arcs and vertices take the special branches
    for n in (3, 4, 5):
        geo = charts.geometry(n)
        pts = np.vstack([
            sphere.minor_arc(geo.A, geo.B).point_at(0.5),
            sphere.minor_arc(geo.M, geo.B_prime).point_at(0.5),
            sphere.minor_arc(geo.B, geo.A_prime).point_at(0.3),
            geo.M, geo.C, -geo.A, -geo.B,
        ])
        expect = [True, False, True, False, False, False, False]
        assert list(analytic_in_moduli_batch(n, pts)) == expect
        assert [analytic_in_moduli(n, p) for p in pts] == expect
        assert list(oracle_in_moduli_batch(n, pts)) == [oracle_in_moduli(n, p) for p in pts]
        # points on every division circle, away from the vertices, check each
        # circle's inclusion rule against the scalar oracle
        div = moduli.division(n)
        ring = np.vstack([circle_points(nrm, 33)[:-1] for nrm in div.normals])
        verts = np.array(list(div.vertices.values()))
        ring = ring[np.linalg.norm(ring[:, None] - verts[None], axis=2).min(axis=1) > 1e-6]
        scalar = np.array([oracle_in_moduli(n, p) for p in ring])
        assert np.array_equal(analytic_in_moduli_batch(n, ring), scalar)
        assert np.array_equal(oracle_in_moduli_batch(n, ring), scalar)


def _oracle_mix(n, seed):
    """Uniform anchors, anchors on every division circle, anchors 1e-12 to
    1e-6 rad off those circles and off every division vertex, and anchors
    within the chord of A or B."""
    rng = np.random.default_rng(seed)
    geo = charts.geometry(n)
    div = moduli.division(n)
    on, off = [], []
    for nrm in div.normals:
        ring = circle_points(nrm, 17)[:-1]
        on.append(ring)
        for delta in (1e-12, 1e-9, 1e-6):
            side = rng.choice((-1.0, 1.0), size=(len(ring), 1))
            off.append(math.cos(delta) * ring + side * math.sin(delta) * nrm)
    for v in div.vertices.values():
        t = np.cross(v, rng.normal(size=(8, 3)))
        t /= np.linalg.norm(t, axis=1)[:, None]
        for delta in (1e-12, 1e-9, 1e-6):
            off.append(math.cos(delta) * v + math.sin(delta) * t)
    near_ab = []
    for c in (geo.A, geo.B):
        t = np.cross(c, rng.normal(size=3))
        t /= np.linalg.norm(t)
        near_ab += [c] + [math.cos(d) * c + math.sin(d) * t for d in (1e-12, 4e-10)]
    pts = np.vstack([sample_sphere(60, seed)] + on + off + [np.array(near_ab)])
    return pts / np.linalg.norm(pts, axis=1)[:, None]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_oracle_rows_are_independent(n):
    # each row's answer must not depend on which other rows share its batch:
    # the batch oracle drops rows as pairs rule them out
    pts = _oracle_mix(n, 40 + n)
    whole = oracle_in_moduli_batch(n, pts)
    rng = np.random.default_rng(n)
    for _ in range(4):
        perm = rng.permutation(len(pts))
        cuts = np.sort(rng.choice(np.arange(1, len(pts)), size=3, replace=False))
        parts = [oracle_in_moduli_batch(n, pts[idx]) for idx in np.split(perm, cuts)]
        assert np.array_equal(np.concatenate(parts), whole[perm])
    # known defect (ROADMAP.md, item 2): 1e-9 rad off a locus the scalar
    # oracle finds endpoint-degenerate touches that the batch oracle misses,
    # here c1-b2 at two anchors near the vertex M (n = 3) and c2-b1 at one
    # anchor off a circle (n = 4)
    scalar = np.array([oracle_in_moduli(n, p) for p in pts])
    assert np.count_nonzero(whole != scalar) == {3: 2, 4: 1, 5: 0}[n]


# n = 3: the batch oracle finds a2 and c1 meeting away from W; is_simple does not
_DEFECT_ANCHOR = np.array([0.5755406512314724, -9.999999038521016e-10, -0.8177731707387157])


@pytest.mark.xfail(strict=True, reason="batch and scalar oracle differ at this anchor "
                                       "(ROADMAP.md, item 2)")
def test_oracles_agree_at_known_defect():
    V = _DEFECT_ANCHOR
    assert oracle_in_moduli_batch(3, V[None])[0] == oracle_in_moduli(3, V)


def _off(q, d, offsets):
    """Unit vectors q (N, 3) moved by each offset (rad) both ways along the
    unit directions d, q itself included."""
    out = [q]
    for delta in offsets:
        for side in (1.0, -1.0):
            out.append(math.cos(delta) * q + side * math.sin(delta) * d)
    pts = np.vstack(out)
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def _m_chart_point(n, r, t):
    return charts.to_sphere(ChartPoint(cmath.rect(r, t), "M", n))


def _off_loci(n, offsets):
    """Anchors on 16 samples of each of gamma_A, gamma_B, gamma_C (M-chart
    forms) and of the a=c and b=c loci, and moved off them along the normal
    by each offset, on both sides."""
    def m_chart(r, t):
        return np.array([_m_chart_point(n, ri, ti) for ri, ti in zip(r, t)])

    loci = [lambda t, w=which: m_chart([moduli.gamma_m_chart(w, n, x).r for x in t], t)
            for which in moduli.M_THETA_RANGE]
    loci += [lambda t, k=kind: m_chart(moduli.reduction_radii(k, n, t), t)
             for kind in ("a=c", "b=c")]
    ranges = list(moduli.M_THETA_RANGE.values()) + [(-math.pi, math.pi)] * 2
    pts = []
    for locus, (lo, hi) in zip(loci, ranges):
        t = np.linspace(lo, hi, 18)[1:-1]
        h = 1e-6 * (hi - lo)
        q, ahead, behind = locus(t), locus(t + h), locus(t - h)
        keep = np.isfinite(np.hstack([q, ahead, behind])).all(axis=1)
        q = q[keep]
        d = np.cross(q, ahead[keep] - behind[keep])
        pts.append(_off(q, d / np.linalg.norm(d, axis=1)[:, None], offsets))
    return np.vstack(pts)


# 1e-9 rad off the vertex M (n = 3): V @ to_w.T rounded apart on a one-row
# batch, and the oracle answered True there but False in any larger batch
_ONE_ROW_ANCHOR = np.array([-9.998436862591224e-10, -1.7680583920492703e-11, -1.0])


def _off_division(n, offsets):
    """Anchors on 8 points of each division circle and moved off it along
    its normal, and on each division vertex and moved off it along 4 random
    tangents, by each offset on both sides."""
    div = moduli.division(n)
    rng = np.random.default_rng(70 + n)
    pts = []
    for nrm in div.normals:
        ring = circle_points(nrm, 9)[:-1]
        pts.append(_off(ring, np.broadcast_to(nrm, ring.shape), offsets))
    for v in div.vertices.values():
        t = np.cross(v, rng.normal(size=(4, 3)))
        pts.append(_off(np.broadcast_to(v, t.shape), t / np.linalg.norm(t, axis=1)[:, None],
                        offsets))
    return np.vstack(pts)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_one_point_calls_are_batch_rows(n):
    # a row's answer never depends on its batch, so a one-point call gives
    # the bits of that point's row in the whole batch
    offsets = tuple(10.0 ** -k for k in range(12, 4, -1))
    pts = np.vstack([_off_division(n, offsets), _off_loci(n, offsets), _ONE_ROW_ANCHOR])
    # one-point calls on every third anchor, the slow one-row oracle on every
    # twelfth, and all of them on the last
    for stride, name, f in (
            (3, "membership", analytic_in_moduli_batch),
            (3, "band 1e-9", lambda n, p: boundary_band_mask(n, p, 1e-9)),
            (3, "band 1e-6", lambda n, p: boundary_band_mask(n, p, 1e-6)),
            (12, "oracle", oracle_in_moduli_batch)):
        rows = np.r_[0:len(pts) - 1:stride, len(pts) - 1]
        ones = np.array([f(n, pts[i][None])[0] for i in rows])
        assert np.array_equal(ones, f(n, pts)[rows]), (name, pts[rows[ones != f(n, pts)[rows]]])


def _exact_oracle(n, pts):
    """oracle_in_moduli_batch with every pair on every live row decided by
    the exact path behind the sign filter, pentagon._pair_hits."""
    with sphere.scratch(len(pts)) as s:
        P, NH, CN, live = pentagon._arcs(n, sphere.as_points(pts), s)
        live = np.flatnonzero(live)
        for i, j, adj in pentagon._PAIRS:
            with sphere.scratch(live.size) as t:
                live = live[~pentagon._pair_hits(i, j, adj, P, NH, CN, live, t)]
    simple = np.zeros(len(pts), dtype=bool)
    simple[live] = True
    return simple


_FILTER_OFFSETS = (1e-12, 1e-10, 1e-9, 2e-9, 1e-8, 1e-7, 1e-6)


def _short_c(n, offsets):
    """Anchors near the two that send W or E to C, where the arcs c1 and c2
    are short and their normals least certain, moved along 16 random
    tangents by each offset."""
    geo = charts.geometry(n)
    to_w, to_e = pentagon._rotations(n)
    rng = np.random.default_rng(60 + n)
    out = []
    for c in (to_w.T @ geo.C, to_e.T @ geo.C):
        d = np.cross(c, rng.normal(size=(16, 3)))
        out.append(_off(c[None], d / np.linalg.norm(d, axis=1)[:, None], offsets))
    return np.vstack(out)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_oracle_filter_agrees_with_exact_path(n):
    # anchors near every locus, and near the anchors that make c1 or c2 short
    pts = np.vstack([_oracle_mix(n, 50 + n), _off_loci(n, _FILTER_OFFSETS),
                     _short_c(n, _FILTER_OFFSETS)])
    assert np.array_equal(oracle_in_moduli_batch(n, pts), _exact_oracle(n, pts))


def _tangent(q, phi):
    """The unit vector at angle phi in the plane normal to the unit q."""
    e1 = np.cross(q, (1.0, 0.0, 0.0) if abs(q[0]) < 0.9 else (0.0, 1.0, 0.0))
    e1 /= np.linalg.norm(e1)
    return math.cos(phi) * e1 + math.sin(phi) * np.cross(q, e1)


def _locus_anchor(n, locus, k, u, v, delta):
    """The point q of a locus of the oracle's answer moved delta rad along
    the unit tangent d:
    - "circle": q at angle 2 pi u on division circle k, d its normal;
    - "gamma", "reduction": q at fraction u of the M-chart angle range of
      gamma curve k, or of the a=c (k even) or b=c (k odd) locus, d across
      the curve;
    - "vertex", "short_c": q division vertex k, or the anchor that sends W
      (k even) or E (k odd) to C, d at angle 2 pi v."""
    div = moduli.division(n)
    if locus == "circle":
        nrm = div.normals[k % len(div.normals)]
        q, d = _tangent(nrm, 2.0 * math.pi * u), nrm
    elif locus in ("gamma", "reduction"):
        if locus == "gamma":
            which = list(moduli.M_THETA_RANGE)[k % 3]
            lo, hi = moduli.M_THETA_RANGE[which]

            def radius(t):
                return moduli.gamma_m_chart(which, n, t).r
        else:
            kind = ("a=c", "b=c")[k % 2]
            lo, hi = -math.pi, math.pi

            def radius(t):
                return moduli.reduction_point(kind, n, t).r
        t = lo + (hi - lo) * u
        t0, t1 = max(lo, t - 1e-6), min(hi, t + 1e-6)
        q = _m_chart_point(n, radius(t), t)
        d = np.cross(q, _m_chart_point(n, radius(t1), t1) - _m_chart_point(n, radius(t0), t0))
        d /= np.linalg.norm(d)
    else:
        if locus == "vertex":
            q = div.vertex_points[k % len(div.vertex_points)]
        else:
            to_w, to_e = pentagon._rotations(n)
            q = (to_w, to_e)[k % 2].T @ charts.geometry(n).C
        d = _tangent(q, 2.0 * math.pi * v)
    p = math.cos(delta) * q + math.sin(delta) * d
    return p / np.linalg.norm(p)


_LOCUS_OFFSETS = (0.0,) + tuple(s * d for d in (1e-12, 1e-10, 1e-9, 2e-9, 1e-8, 1e-6)
                               for s in (1.0, -1.0))
_LOCUS_ANCHOR = st.tuples(st.sampled_from(("circle", "vertex", "gamma", "reduction", "short_c")),
                          st.integers(0, 5), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                          st.sampled_from(_LOCUS_OFFSETS))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((3, 4, 5)), st.lists(_LOCUS_ANCHOR, min_size=1, max_size=16))
def test_one_pass_oracle_agrees_with_exact_path_near_every_locus(n, anchors):
    # the oracle sends each pair's undecided rows to the exact path as the
    # pass reaches it; every row must get the answer of the exact path on
    # every pair, in the batch and alone.  A counterexample is a defect in
    # the margin proof above pentagon._ROUND
    pts = np.array([_locus_anchor(n, *a) for a in anchors])
    whole = oracle_in_moduli_batch(n, pts)
    assert np.array_equal(whole, _exact_oracle(n, pts))
    assert [oracle_in_moduli_batch(n, p[None])[0] for p in pts] == whole.tolist()


# per n, the first 16 hex digits of the sha256 of each pair's _pair_hits
# answers, in _PAIRS order, on every live row of _exact_path_anchors(n)
_PAIR_HITS_SHA256 = {
    3: ("1337615ad1ed12c0", "a7a4e86670678bf6", "71a38dc712acde05", "cef65bde4a4cee05",
        "eac7882cc30d499d", "3419969aab2b50ef", "74faa2b0df1ad913", "42e93ac6745f309a",
        "3388f1c2eb7bb332", "c83ba8bb8039613d", "7e720d97d336cc60", "5ee9ea21cfcf643f"),
    4: ("0daa13955904d993", "187f64d3b065d75d", "5dda6f42e5a42b7b", "e59e98e3fc182a11",
        "130fe0c3855df1e4", "ac0967c377039e9d", "1fd9b6dc48ee53d0", "a07f33d4fb8986b3",
        "8c6a7e789dc6a882", "feab8ea747c91f08", "b21a7468bb2101c1", "7f64d9098cf4a32b"),
    5: ("b51852aaf42abe16", "c0c8c72cdc75bdd2", "06fd5637bda15827", "8591f635ae3e6813",
        "a1c45037aa65e005", "0aa611d6862341c6", "372eec7703117574", "7a8c8f0b2689d9cc",
        "69a4a18c5dde3df4", "4109a7f6a736d0eb", "71dcd00c1e4cf299", "ab1b134c590a40f2"),
}


def _exact_path_anchors(n):
    """The anchors of test_oracle_filter_agrees_with_exact_path and those
    near the division."""
    return np.vstack([_oracle_mix(n, 50 + n), _off_loci(n, _FILTER_OFFSETS),
                      _short_c(n, _FILTER_OFFSETS), _off_division(n, _FILTER_OFFSETS)])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_exact_path_answers_are_pinned(n):
    # every pair's exact path on every live row, bit for bit; the rows hit
    # and miss on both its transversal and its coplanar branch
    pts = _exact_path_anchors(n)
    branches = set()
    with sphere.scratch(len(pts)) as s:
        P, NH, CN, live = pentagon._arcs(n, sphere.as_points(pts), s)
        live = np.flatnonzero(live)
        got = []
        for i, j, adj in pentagon._PAIRS:
            with sphere.scratch(live.size) as t:
                hits = pentagon._pair_hits(i, j, adj, P, NH, CN, live, t)
            got.append(hashlib.sha256(hits.tobytes()).hexdigest()[:16])
            m = np.cross(NH[i].T[live], NH[j].T[live])
            coplanar = np.linalg.norm(m, axis=1) < sphere.DEFAULT_TOL
            branches |= set(zip(coplanar.tolist(), hits.tolist()))
    assert tuple(got) == _PAIR_HITS_SHA256[n]
    assert branches == {(False, False), (False, True), (True, False), (True, True)}


def _row_major_arcs(n, V):
    """pentagon._arcs in row-major (N, 3) arithmetic, in the order of its
    former _cross and _norm: component k of a x b is a[k+1] b[k+2] -
    a[k+2] b[k+1], and |a|^2 is a0 a0 + a1 a1 + a2 a2, left to right."""
    geo = charts.geometry(n)
    to_w, to_e = pentagon._rotations(n)

    def cross(a, b):
        return np.column_stack([a[:, (k + 1) % 3] * b[:, (k + 2) % 3]
                                - a[:, (k + 2) % 3] * b[:, (k + 1) % 3] for k in range(3)])

    def norm(a):
        return np.sqrt(a[:, 0] * a[:, 0] + a[:, 1] * a[:, 1] + a[:, 2] * a[:, 2])

    live = (norm(V - geo.A) > pentagon._TOL_CHORD) & (norm(V - geo.B) > pentagon._TOL_CHORD)
    k = len(V)
    P = [V, np.broadcast_to(geo.A, (k, 3)), sphere.rows_matmul(V, to_w.T),
         np.broadcast_to(geo.C, (k, 3)), sphere.rows_matmul(V, to_e.T),
         np.broadcast_to(geo.B, (k, 3))]
    NH, CN = [], []
    for a in range(6):
        u, v = P[a], P[(a + 1) % 6]
        cr = cross(u, v)
        cn = norm(cr)
        live &= (cn > sphere.DEGENERATE_EPS) & (norm(u + v) > sphere.ANTIPODAL_EPS)
        NH.append(cr / np.maximum(cn, pentagon._TINY)[:, None])
        CN.append(cn)
    return P, NH, CN, live


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_arc_stage_keeps_the_row_major_bits(n):
    # _arcs works on (3, k) component rows; every vertex, normal, chord and
    # live flag must have the bits of the row-major arithmetic, in a batch
    # and on one row
    pts = sphere.as_points(np.vstack([
        _oracle_mix(n, 30 + n), _off_loci(n, _FILTER_OFFSETS), _off_division(n, _FILTER_OFFSETS),
        _short_c(n, _FILTER_OFFSETS), _antipodal_edge_anchors(n)]))
    live = _row_major_arcs(n, pts)[3]
    geo = charts.geometry(n)
    near = np.linalg.norm(pts[:, None] - np.array([geo.A, geo.B]), axis=2).min(axis=1)
    near = near <= pentagon._TOL_CHORD
    # rows near A or B, and arcs too short or with antipodal ends, are in,
    # and none of them is live
    assert near.any() and not live[near].any()
    assert 0 < np.count_nonzero(live) < np.count_nonzero(~near)
    for batch in [pts] + [pts[i:i + 1] for i in range(0, len(pts), 97)]:
        with sphere.scratch(len(batch)) as s:
            got = pentagon._arcs(n, batch, s)
            P, NH, CN, live = _row_major_arcs(n, batch)
            assert all(_bits(p.T) == _bits(q) for p, q in zip(got[0], P))
            assert all(_bits(nh.T) == _bits(q) for nh, q in zip(got[1], NH))
            assert _bits(got[2]) == _bits(np.array(CN).reshape(6, -1))
            assert np.array_equal(got[3], live)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_is_simple_filter_keeps_every_report(n):
    # is_simple skips arc_intersect on the pairs its signs clear; every report
    # (answer, pairs, kinds, witness bits) must be the exhaustive loop's.
    # Every fourth anchor of the sets keeps the test near a second; it still
    # fails with the slop or the margins of the filter taken out.
    pts = np.vstack([_oracle_mix(n, 50 + n), _off_loci(n, _FILTER_OFFSETS),
                     _off_division(n, _FILTER_OFFSETS), _short_c(n, _FILTER_OFFSETS),
                     _antipodal_edge_anchors(n)])[::4]
    pts = np.vstack([pts, _ONE_ROW_ANCHOR, _DEFECT_ANCHOR])
    built = 0
    for V in pts:
        try:
            pent = anchor_pentagon(n, V)
        except (DegenerateAnchor, AntipodalConstruction):
            continue
        built += 1
        report = pentagon.is_simple(pent)
        got = [(v.pair, v.kind, v.witness.tobytes()) for v in report.violations]
        assert (report.simple, got) == _exhaustive_report(pent), V
    assert built > len(pts) // 2


def _undecided_pairs(p):
    """The pairs (i, j) of pentagon._PAIRS, in (i, j) order, that the sign
    filter leaves undecided on pentagon p."""
    dots = (p.normals @ p.vertices.T).ravel().tolist()
    margins = pentagon._margins(max(min(map(math.sin, p.lengths)), sphere.DEGENERATE_EPS))
    return [(i, j) for (i, j, _), (rule, slots) in sorted(zip(pentagon._PAIRS, pentagon._SLOTS))
            if not rule([dots[6 * a + k] for a, k in slots], margins)[0]]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_is_simple_runs_arc_intersect_only_on_undecided_pairs(n, monkeypatch):
    # a speed guard without timers: is_simple witnesses the crossings the
    # filter decides from the arc normals, so arc_intersect runs only on the
    # pairs the filter leaves undecided, and a pentagon with none, every
    # simple uniform anchor among them, never builds its GreatArcs
    calls = []

    def counting(s, t):
        calls.append((s, t))
        return sphere.arc_intersect(s, t)

    monkeypatch.setattr(pentagon, "arc_intersect", counting)
    pts = np.vstack([_oracle_mix(n, 50 + n), _off_loci(n, _FILTER_OFFSETS),
                     _off_division(n, _FILTER_OFFSETS), _short_c(n, _FILTER_OFFSETS),
                     _antipodal_edge_anchors(n)])[::4]
    pts = np.vstack([pts, _ONE_ROW_ANCHOR, _DEFECT_ANCHOR])
    decided, exact = {True: 0, False: 0}, 0
    for V in pts:
        try:
            pent = anchor_pentagon(n, V)
        except (DegenerateAnchor, AntipodalConstruction):
            continue
        calls.clear()
        report = pentagon.is_simple(pent)
        undecided = _undecided_pairs(pent)
        if not undecided:
            assert "arcs" not in vars(pent), V
            decided[report.simple] += 1
        arcs = pent.arcs
        got = [tuple(next(a for a, arc in enumerate(arcs) if arc is x) for x in call)
               for call in calls]
        assert got == undecided, V
        exact += len(got)
    for V in sample_sphere(200, 70 + n):
        pent = anchor_pentagon(n, V)
        if pentagon.is_simple(pent).simple:
            assert "arcs" not in vars(pent), V
    # simple and crossing anchors with every pair decided occur, and
    # undecided pairs too
    assert min(decided.values()) > 0 and exact > 0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_forms_stage_leaves_few_rows_to_the_pair_pass(n, monkeypatch):
    # a speed guard without timers: the batch oracle's forms stage answers
    # all but a few uniform rows from its sign table, and only the rows it
    # leaves build arcs; a one-row call it answers builds none
    rows = []
    arcs = pentagon._arcs

    def counting(n, V, s):
        rows.append(len(V))
        return arcs(n, V, s)

    monkeypatch.setattr(pentagon, "_arcs", counting)
    pts = sample_sphere(200_000, 120 + n)
    oracle_in_moduli_batch(n, pts)
    assert sum(rows) <= len(pts) // 1000, sum(rows)
    rows.clear()
    ones = [oracle_in_moduli_batch(n, p[None])[0] for p in pts[:200]]
    assert rows == []
    assert ones == oracle_in_moduli_batch(n, pts[:200]).tolist()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_forms_stage_keeps_the_oracle_scratch_footprint(n, monkeypatch):
    # the forms stage's frame (the forms and squared chords, the monomials,
    # the sign code) takes the largest array first, so that a 16384-row
    # piece takes no more of a fresh thread's scratch than the 6 MiB the
    # pair pass alone took, and the buffer is the least power of two that
    # holds that peak
    pts = sample_sphere(sphere._CHUNK, 130 + n)
    empty = sphere.Scratch.empty
    peak = []

    def recording(self, shape, dtype=float):
        a = empty(self, shape, dtype)
        peak.append(sphere._THREAD_SCRATCH.top)
        return a

    monkeypatch.setattr(sphere.Scratch, "empty", recording)
    monkeypatch.setattr(sphere.Scratch, "out", recording)

    def run():
        oracle_in_moduli_batch(n, pts)
        return sphere._THREAD_SCRATCH.buf.size

    size = _in_new_thread(run)
    assert max(peak) <= 6 << 20 and size == 1 << (max(peak) - 1).bit_length()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_filter_tests_bite_without_the_margins(n, monkeypatch):
    # the two filter tests above must catch a filter that decides rows only
    # the exact path can: with _CLEAR and _CLEAR_ADJ zero (the slop kept),
    # both oracles change answers on their anchors
    monkeypatch.setattr(pentagon, "_CLEAR", 0.0)
    monkeypatch.setattr(pentagon, "_CLEAR_ADJ", 0.0)
    pts = np.vstack([_oracle_mix(n, 50 + n), _off_loci(n, _FILTER_OFFSETS),
                     _short_c(n, _FILTER_OFFSETS)])
    assert not np.array_equal(oracle_in_moduli_batch(n, pts), _exact_oracle(n, pts))
    pts = np.vstack([pts, _off_division(n, _FILTER_OFFSETS), _antipodal_edge_anchors(n)])[::4]
    for V in pts:
        try:
            pent = anchor_pentagon(n, V)
        except (DegenerateAnchor, AntipodalConstruction):
            continue
        report = pentagon.is_simple(pent)
        got = [(v.pair, v.kind, v.witness.tobytes()) for v in report.violations]
        if (report.simple, got) != _exhaustive_report(pent):
            break
    else:
        pytest.fail("is_simple kept every report with zero margins")


def _band_mask_full_gradient(n, pts, band):
    """boundary_band_mask's rule with the tangential gradient of every curve
    quadric formed on every row.  Each curve is the world form Q = p.Sp,
    S = F^T H F for its chart frame F and its chart-frame quadric
    L (x1^2 + x2^2) + (c1 x1 + c2 x2) x3 = x.Hx; gamma_C_B is gamma_C_A's
    quadric.  The sums run in the mask's order, so that a row decides alike
    at the band's edge."""
    near = (np.abs(pts @ moduli.division(n).normals.T)
            <= math.sin(min(band, 0.5 * math.pi))).any(axis=1)
    geo = charts.geometry(n)
    for which in ("gamma_A", "gamma_B", "gamma_C_A"):
        spec = moduli.curve_spec(which, n)
        if which == "gamma_A":
            L, c1, c2 = 2.0 * spec.lam, 1.0, SQ3
        elif which == "gamma_B":
            L, c1, c2 = spec.lam, -math.cos(math.pi / n), math.sin(math.pi / n)
        else:
            L, c1, c2 = spec.lam, 1.0, 0.0
        F = geo.frame_a if spec.chart == "A" else geo.frame_b
        S = F.T @ np.array([[L, 0.0, 0.5 * c1], [0.0, L, 0.5 * c2], [0.5 * c1, 0.5 * c2, 0.0]]) @ F
        S = 0.5 * (S + S.T)
        sp = pts @ S
        q = pts[:, 0] * sp[:, 0] + pts[:, 1] * sp[:, 1] + pts[:, 2] * sp[:, 2]
        g = sp - q[:, None] * pts
        gn = 2.0 * np.sqrt(g[:, 0] * g[:, 0] + g[:, 1] * g[:, 1] + g[:, 2] * g[:, 2])
        near |= np.abs(q) <= band * np.maximum(gn, 1e-12)
    return near


@pytest.mark.parametrize("n", [3, 4, 5])
def test_band_mask_screen_keeps_the_full_gradient_rule(n):
    # the mask forms grad Q only where |Q| <= band G; no row it skips could
    # pass the rule on the whole gradient
    offsets = tuple(10.0 ** -k for k in range(12, 2, -1))
    pts = np.vstack([sample_sphere(3000, 20 + n), _off_loci(n, offsets)])
    for band in (1e-9, 1e-6, 1e-3, 0.05, 0.5 * math.pi, 4.0):
        want = _band_mask_full_gradient(n, pts, band)
        assert np.array_equal(boundary_band_mask(n, pts, band), want), band


def _band_mask(n, pts):
    return boundary_band_mask(n, pts, 1e-6)


_BATCH = {"membership_batch": analytic_in_moduli_batch, "oracle_batch": oracle_in_moduli_batch,
          "band_mask": _band_mask}
_SCALAR = {"membership": analytic_in_moduli, "oracle": oracle_in_moduli,
           "region_of": region_of, "anchor_pentagon": anchor_pentagon,
           "gamma_residual": lambda n, p: moduli.gamma_residual(moduli.curve_spec("gamma_A", n), p),
           "reduction_residual": lambda n, p: moduli.reduction_residual("a=c", n, p),
           "to_chart": lambda n, p: charts.to_chart(p, "A", n)}
# rows that are not finite unit vectors; a batch carries one beside a good row
_GOOD = np.array([0.6, 0.0, 0.8])
_NOT_UNIT = {"nan": np.array([np.nan, 0.0, 1.0]), "inf": np.array([np.inf, 0.0, 0.0]),
             "scaled": 1.001 * _GOOD}
_MALFORMED = (
    [pytest.param(f, np.array([1.0, 0.0, 0.0]), id=k) for k, f in _BATCH.items()]
    + [pytest.param(f, np.eye(3)[:2], id=k) for k, f in _SCALAR.items()]
    + [pytest.param(f, np.vstack([_GOOD, row]), id=f"{k}-{r}")
       for k, f in _BATCH.items() for r, row in _NOT_UNIT.items()]
    + [pytest.param(f, row, id=f"{k}-{r}")
       for k, f in _SCALAR.items() for r, row in _NOT_UNIT.items()]
)


@pytest.mark.parametrize("predicate, bad", _MALFORMED)
def test_predicates_reject_malformed_shapes(predicate, bad):
    with pytest.raises(InvalidPoints):
        predicate(3, bad)


def _accepts(predicate, p):
    try:
        predicate(p)
    except InvalidPoints:
        return False
    return True


def test_one_point_and_one_row_validate_alike():
    # points a few ulps either side of |p.p - 1| = UNIT_NORM_EPS: a point
    # and its one-row batch must be accepted or rejected alike
    rng = np.random.default_rng(9)
    q = rng.normal(size=(20000, 3))
    q /= np.linalg.norm(q, axis=1)[:, None]
    gap = sphere.UNIT_NORM_EPS * (1.0 + rng.uniform(-1e-6, 1e-6, len(q)))
    pts = q * np.sqrt(1.0 + rng.choice((-1.0, 1.0), len(q)) * gap)[:, None]
    one = [_accepts(sphere.as_point, p) for p in pts]
    assert 0 < sum(one) < len(pts)
    assert one == [_accepts(sphere.as_points, p[None]) for p in pts]
    for scalar, batch in ((analytic_in_moduli, analytic_in_moduli_batch),
                          (oracle_in_moduli, oracle_in_moduli_batch)):
        for p in pts[::40]:
            assert _accepts(partial(scalar, 3), p) == _accepts(partial(batch, 3), p[None]), p


def test_sample_sphere_deterministic_and_uniformish():
    a = sample_sphere(1000, 5)
    b = sample_sphere(1000, 5)
    assert np.array_equal(a, b)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
    assert abs(a[:, 2].mean()) < 0.1
    with pytest.raises(ValueError):
        sample_sphere(0, 1)


def _in_new_thread(fn):
    """fn() in a thread of its own, whose scratch starts empty."""
    out = []
    t = threading.Thread(target=lambda: out.append(fn()))
    t.start()
    t.join(timeout=120)
    assert not t.is_alive() and out
    return out[0]


def _every_batch_kernel(n, pts):
    # the sampler's count and rows, every row and between the sector caps
    return [analytic_in_moduli_batch(n, pts), oracle_in_moduli_batch(n, pts),
            boundary_band_mask(n, pts, 1e-6), boundary_band_mask(n, pts, 1e-9),
            *(part for caps in (sphere.NO_CAPS, moduli.sector_caps(n))
              for part in sphere._sample_rows(10 * len(pts), n, 3, 3 + len(pts),
                                              sphere._m_bounds(caps)))]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_reused_scratch_gives_fresh_answers(n):
    # N rows, then M < N, then N again on one thread's scratch, whose every
    # byte is set to 0x7F before each call (1.4e306 as a double, 9.2e18 as
    # an index): an array read before it is written, or an answer left from
    # a longer call, would show
    pts = np.vstack([_oracle_mix(n, 70 + n), _off_loci(n, _FILTER_OFFSETS),
                     sample_sphere(sphere._CHUNK, 80 + n)])[:sphere._CHUNK]
    m = 3 * sphere._SCRATCH_ROWS
    fresh = {rows: _in_new_thread(lambda: _every_batch_kernel(n, pts[:rows]))
             for rows in (len(pts), m)}
    for rows in (len(pts), m, len(pts)):
        sphere._THREAD_SCRATCH.buf[...] = 0x7F
        got = _every_batch_kernel(n, pts[:rows])
        assert all(np.array_equal(g, f) for g, f in zip(got, fresh[rows])), rows


def test_scratch_under_thread_stress():
    # more threads than cores, switching often, each on inputs of its own
    # size; a frame that handed out memory another call still held, in its
    # own thread or another, would change an answer
    threads = sphere._cores() + 3
    pts = np.vstack([_oracle_mix(4, 90), sample_sphere(20_000, 91)])
    inputs = [(3 + i % 3, pts[i * 977:i * 977 + 600 + 700 * i]) for i in range(threads)]
    want = [_every_batch_kernel(n, p) for n, p in inputs]
    rounds = [0] * threads
    wrong = []

    def work(i):
        n, p = inputs[i]
        while time.perf_counter() < deadline:
            if not all(np.array_equal(g, w) for g, w in zip(_every_batch_kernel(n, p), want[i])):
                wrong.append(i)
            rounds[i] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        deadline = time.perf_counter() + 2.0
        pool = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool)
    assert not wrong and min(rounds) >= 1, (wrong, rounds)


def _held_memory(fn):
    """The peak bytes fn() holds in a new thread: what tracemalloc sees, and
    the thread's scratch buffer, an anonymous mapping it does not see."""
    def run():
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] + sphere._THREAD_SCRATCH.buf.size
        finally:
            tracemalloc.stop()
    return _in_new_thread(run)


@pytest.mark.parametrize("chunk", [4096, 1 << 14])
@pytest.mark.parametrize("kernel", ["oracle", "membership", "band_mask"])
def test_batch_kernels_hold_memory_bounded_by_chunk(monkeypatch, kernel, chunk):
    # the kernels take a long input in pieces of at most _CHUNK rows, so
    # what they hold is set by _CHUNK, not by the input: 1 KB a row of one
    # piece, plus two bytes an input row for the answers, the pieces' and
    # the concatenated (4.8 MB of anchors here)
    monkeypatch.setattr(sphere, "_CHUNK", chunk)
    pts = sample_sphere(200_000, 3)
    fn = {"oracle": lambda: oracle_in_moduli_batch(4, pts),
          "membership": lambda: analytic_in_moduli_batch(4, pts),
          "band_mask": lambda: boundary_band_mask(4, pts, 1e-6)}[kernel]
    assert _held_memory(fn) <= 1024 * chunk + 2 * len(pts)
