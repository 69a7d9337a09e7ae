import cmath
import hashlib
import itertools
import math

import numpy as np
import pytest

from pentamod import charts, moduli, pentagon, sphere
from pentamod.charts import ChartPoint
from pentamod.errors import (AntipodalConstruction, AntipodalEndpoints, DegenerateAnchor,
                             DegenerateArc)
from pentamod.sphere import sample_sphere

SOLIDS = (3, 4, 5)


def anchor_from_chart(z, chart, n):
    return charts.to_sphere(ChartPoint(z, chart, n))


def sample_omega1(rng, n, k):
    """Random anchors in the open triangle Omega_1, by rejection."""
    out = []
    while len(out) < k:
        z = complex(rng.uniform(-0.9, 0.0), rng.uniform(-0.9, 0.0))
        p = anchor_from_chart(z, "M", n)
        if moduli.region_of(n, p) == 1:
            out.append(p)
    return out


def test_anchor_pentagon_omega1_edge_regions():
    # for V in Omega_1 the construction lands a2,c1 in Omega_4 and b2,c2 in
    # Omega_8 (n=3)
    V = anchor_from_chart(complex(-0.17, -0.17), "M", 3)
    assert moduli.region_of(3, V) == 1
    pent = pentagon.anchor_pentagon(3, V)
    for arc, want in ((pent.a2, 4), (pent.c1, 4), (pent.b2, 8), (pent.c2, 8)):
        for t in (0.25, 0.5, 0.75):
            r = moduli.region_of(3, arc.point_at(t))
            assert r == want, (arc, t, r)


def test_anchor_pentagon_degenerate():
    geo = charts.geometry(3)
    with pytest.raises(DegenerateAnchor):
        pentagon.anchor_pentagon(3, geo.A)
    with pytest.raises(DegenerateAnchor):
        pentagon.anchor_pentagon(4, charts.geometry(4).B)


def test_anchor_at_b_prime_edge_length():
    # V = B' makes a1 congruent to the arc AB
    for n in SOLIDS:
        geo = charts.geometry(n)
        pent = pentagon.anchor_pentagon(n, geo.B_prime)
        want = 2.0 * math.atan(geo.constants.d_ab)
        assert abs(pent.a1.length - want) < 1e-12


def test_pentagon_type_invariants():
    rng = np.random.default_rng(2)
    for n in SOLIDS:
        geo = charts.geometry(n)
        for _ in range(30):
            v = rng.normal(size=3)
            V = v / np.linalg.norm(v)
            try:
                pent = pentagon.anchor_pentagon(n, V)
            except Exception:
                continue
            assert abs(pent.a1.length - pent.a2.length) < 1e-11
            assert abs(pent.b1.length - pent.b2.length) < 1e-11
            assert abs(pent.c1.length - pent.c2.length) < 1e-11
            # c1 has the length of the arc MV (C is the rotated M)
            assert abs(pent.c1.length - sphere.angular_distance(geo.M, V)) < 1e-11
            # interior angles at A and B are fixed by the construction
            assert _corner_angle(pent.a1, pent.a2) == pytest.approx(2 * math.pi / 3, abs=1e-9)
            assert _corner_angle(pent.b2, pent.b1) == pytest.approx(2 * math.pi / n, abs=1e-9)


def _corner_angle(arc_in, arc_out):
    """Vertex angle between an incoming and an outgoing boundary arc."""
    q = arc_in.v
    t_in = -np.cross(arc_in.normal, q)   # back along the incoming arc
    t_out = np.cross(arc_out.normal, q)  # forward along the outgoing arc
    cosang = float(t_in @ t_out) / (np.linalg.norm(t_in) * np.linalg.norm(t_out))
    return math.acos(max(-1.0, min(1.0, cosang)))


def test_is_simple_core_and_vertex_cases():
    V = anchor_from_chart(complex(-0.17, -0.17), "M", 3)
    assert pentagon.is_simple(pentagon.anchor_pentagon(3, V)).simple
    # V = M degenerates (W = E = C), hence no tile
    assert not pentagon.oracle_in_moduli(3, charts.geometry(3).M)


def test_is_simple_omega9_crossing():
    # the Omega_9 label point of the tetrahedral A-projection figure
    V = anchor_from_chart(cmath.rect(1.5, math.pi / 2), "A", 3)
    assert moduli.region_of(3, V) == 9
    report = pentagon.is_simple(pentagon.anchor_pentagon(3, V))
    assert not report.simple
    assert any(set(v.pair) == {"a2", "b2"} for v in report.violations)


def test_oracle_region_cases():
    # Omega_2 interior -> simple
    V2 = anchor_from_chart(cmath.rect(0.3, math.radians(-25)), "A", 3)
    assert moduli.region_of(3, V2) == 2
    assert pentagon.oracle_in_moduli(3, V2)
    # Omega_17 interior (n=3) -> not simple
    V17 = anchor_from_chart(cmath.rect(2.2, math.radians(140)), "A", 3)
    assert moduli.region_of(3, V17) == 17
    assert not pentagon.oracle_in_moduli(3, V17)
    # on gamma_A (n=4, mid-curve) -> not simple (boundary is excluded)
    spec = moduli.curve_spec("gamma_A", 4)
    sample = moduli.gamma_point(spec, 0.5 * (spec.theta_lo + spec.theta_hi))
    assert not pentagon.oracle_in_moduli(4, sample.xi)


def test_oracle_mirror_symmetry_n3():
    # swapping the roles of A and B is a symmetry only for n=3; in the
    # M-chart it is reflection across the diagonal x=y
    rng = np.random.default_rng(31)
    for _ in range(150):
        z = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        p = anchor_from_chart(z, "M", 3)
        q = anchor_from_chart(complex(z.imag, z.real), "M", 3)
        assert pentagon.oracle_in_moduli(3, p) == pentagon.oracle_in_moduli(3, q)


def test_three_pentagons_tile_face():
    rng = np.random.default_rng(47)
    for n in SOLIDS:
        for V in sample_omega1(rng, n, 17 if n == 3 else 17):
            pents = pentagon.face_pentagons(n, V)
            assert all(pentagon.is_simple(p).simple for p in pents)
            for a in range(3):
                b = (a + 1) % 3
                for arc_i in pents[a].arcs:
                    for arc_j in pents[b].arcs:
                        res = sphere.arc_intersect(arc_i, arc_j)
                        if res.overlap and len(res.shared) == 2:
                            # only the shared a-edge may overlap
                            ends = {_key(arc_i.u), _key(arc_i.v)}
                            assert ends == {_key(pents[a].A), _key(pents[b].V)}
                            continue
                        for p in res.points:
                            assert min(np.linalg.norm(p - pents[b].V),
                                       np.linalg.norm(p - pents[a].A)) < 1e-7


def _key(p):
    return tuple(np.round(p, 9))


def test_arc_a1_length_matches_chart_modulus():
    # a1 is the arc from V to the chart origin A, so its length is
    # 2*atan(|z_A(V)|)
    V = anchor_from_chart(complex(-0.17, -0.17), "M", 3)
    pent = pentagon.anchor_pentagon(3, V)
    zA = charts.to_chart(V, "A", 3).z
    assert abs(pent.a1.length - 2.0 * math.atan(abs(zA))) < 1e-12


def test_touching_configuration_on_gamma_a():
    # anchors exactly on gamma_A are the first-touch configurations of a2
    # against b1: exactly one intersection point
    spec = moduli.curve_spec("gamma_A", 3)
    V = moduli.gamma_point(spec, 0.75 * math.pi).xi
    pent = pentagon.anchor_pentagon(3, V)
    res = sphere.arc_intersect(pent.a2, pent.b1)
    assert not res.overlap
    assert len(res.points) == 1
    assert np.linalg.norm(res.points[0] - pent.W) < 1e-6


def test_c_is_shared_endpoint_of_c_arcs():
    V = anchor_from_chart(complex(-0.2, -0.12), "M", 4)
    pent = pentagon.anchor_pentagon(4, V)
    geo = charts.geometry(4)
    assert sphere.point_on_arc(geo.C, pent.c1)
    assert sphere.point_on_arc(geo.C, pent.c2)


def test_overlap_violation_on_omega3_omega9_arc():
    # anchors on the arc between Omega_3 and Omega_9 make b2 and c2 overlap
    for n in (3, 4, 5):
        geo = charts.geometry(n)
        V = sphere.minor_arc(geo.M, geo.B_prime).point_at(0.5)
        report = pentagon.is_simple(pentagon.anchor_pentagon(n, V))
        assert not report.simple
        kinds = {(frozenset(v.pair)): v.kind for v in report.violations}
        assert kinds.get(frozenset({"c2", "b2"})) == "overlap"
        # and on Omega_7/Omega_9 it is a2 with c1
        W = sphere.minor_arc(geo.M, geo.A_prime).point_at(0.5)
        report = pentagon.is_simple(pentagon.anchor_pentagon(n, W))
        kinds = {(frozenset(v.pair)): v.kind for v in report.violations}
        assert kinds.get(frozenset({"a2", "c1"})) == "overlap"


def test_antipodal_construction_rejected():
    # choose V so that the rotated end W coincides with the antipode of C,
    # making arc c1 undefined
    from pentamod.errors import AntipodalConstruction
    geo = charts.geometry(4)
    V = geo.chart_rotation("A", 2 * math.pi / 3) @ (-geo.C)
    with pytest.raises(AntipodalConstruction):
        pentagon.anchor_pentagon(4, V)
    assert not pentagon.oracle_in_moduli(4, V)


# sha256 prefixes of anchor_pentagon's arcs and is_simple's reports over
# _digest_anchors(n); any change of rounding in the arc geometry moves them
PENTAGON_DIGESTS = {3: "27de1fdcebc31c92", 4: "c79b36afb4603d4f", 5: "65b25d5d626416cd"}


def _perpendicular(v, rng):
    t = rng.standard_normal(3)
    t -= (t @ v) * v
    return t / np.linalg.norm(t)


def _digest_anchors(n):
    """Uniform anchors, anchors on and 1e-12 ... 1e-6 rad off every dividing
    circle, and anchors 1e-12 ... 1e-6 rad from every division vertex."""
    rng = np.random.default_rng([n, 6])
    div = moduli.division(n)
    pts = list(sphere.sample_sphere(150, 60 + n))
    offsets = (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6)
    for nrm in div.normals:
        e1 = _perpendicular(nrm, rng)
        e2 = np.cross(nrm, e1)
        for phi in rng.uniform(0.0, 2.0 * math.pi, 6):
            q = math.cos(phi) * e1 + math.sin(phi) * e2
            pts += [math.cos(d) * q + math.sin(d) * nrm for d in offsets]
    for v in div.vertex_points:
        for _ in range(3):
            d = _perpendicular(v, rng)
            pts += [math.cos(a) * v + math.sin(a) * d for a in (1e-12, 1e-9, 1e-6)]
    return pts


def _pentagon_digest(n):
    h = hashlib.sha256()
    for V in _digest_anchors(n):
        try:
            pent = pentagon.anchor_pentagon(n, V)
        except (DegenerateAnchor, AntipodalConstruction) as exc:
            h.update(type(exc).__name__.encode())
            continue
        for arc in pent.arcs:
            h.update(np.hstack([arc.u, arc.v, arc.normal, arc.length]).tobytes())
        report = pentagon.is_simple(pent)
        h.update(bytes([report.simple]))
        for v in report.violations:
            h.update(f"{v.pair}{v.kind}".encode() + v.witness.tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("n", SOLIDS)
def test_pentagon_and_report_bits_are_pinned(n):
    # the arcs and reports are bit-identical to the numpy cross/norm
    # formulation they were pinned with
    assert _pentagon_digest(n) == PENTAGON_DIGESTS[n]


@pytest.mark.parametrize("n", SOLIDS)
def test_c_arcs_are_half_turn_images_about_c(n):
    # E = to_e V and W = to_w V, so E is the half-turn of W about C: the arcs
    # C->W and C->E leave C in opposite directions and meet only at C, which
    # is why the batch oracle skips the c1/c2 pair
    geo = charts.geometry(n)
    to_w = geo.chart_rotation("A", -2.0 * math.pi / 3.0)
    to_e = geo.chart_rotation("B", 2.0 * math.pi / n)
    half_turn = 2.0 * np.outer(geo.C, geo.C) - np.eye(3)
    assert np.abs(to_e @ to_w.T - half_turn).max() < 1e-15


def _antipodal_edge_anchors(n):
    """Anchors within 1e-12 ... 1e-5 rad of -A and -B (arcs a1/a2 or b2/b1
    nearly of length pi) and of the anchors that send W or E to -C (c1 or c2
    nearly of length pi), on both sides of the 1e-9 antipodal tolerance."""
    rng = np.random.default_rng([n, 11])
    geo = charts.geometry(n)
    to_w = geo.chart_rotation("A", -2.0 * math.pi / 3.0)
    to_e = geo.chart_rotation("B", 2.0 * math.pi / n)
    centres = (-geo.A, -geo.B, to_w.T @ -geo.C, to_e.T @ -geo.C)
    pts = []
    for c in centres:
        for _ in range(8):
            d = _perpendicular(c, rng)
            for a in (1e-12, 5e-10, 1e-9 - 1e-12, 1e-9 + 1e-12, 2e-9, 1e-7, 1e-5):
                pts.append(math.cos(a) * c + math.sin(a) * d)
    return np.array(pts)


@pytest.mark.parametrize("n", SOLIDS)
def test_minor_arc_is_each_arc_of_anchor_pentagon(n):
    # anchor_pentagon builds its six arcs in one pass over the vertex stack,
    # and minor_arc is the one-arc case of the same rule: on each arc's ends
    # it gives the same bits, and where the construction fails, the first
    # arc minor_arc cannot build fails the same way
    geo = charts.geometry(n)
    to_w, to_e = pentagon._rotations(n)
    failures = {}
    for V in list(_digest_anchors(n)) + list(_antipodal_edge_anchors(n)):
        try:
            pent = pentagon.anchor_pentagon(n, V)
        except (DegenerateAnchor, AntipodalConstruction) as exc:
            P = (V, geo.A, to_w @ V, geo.C, to_e @ V, geo.B)
            want = None
            if min(sphere.norm3(V - geo.A), sphere.norm3(V - geo.B)) <= pentagon._TOL_CHORD:
                want = DegenerateAnchor
            for a in range(6):
                if want is not None:
                    break
                try:
                    sphere.minor_arc(P[a], P[(a + 1) % 6])
                except AntipodalEndpoints:
                    want = AntipodalConstruction
                except DegenerateArc:
                    want = DegenerateAnchor
            assert type(exc) is want, V
            failures[want] = failures.get(want, 0) + 1
            continue
        for arc in pent.arcs:
            ref = sphere.minor_arc(arc.u, arc.v)
            assert (ref.normal.tobytes(), ref.length) == (arc.normal.tobytes(), arc.length), V
    assert failures.keys() == {DegenerateAnchor, AntipodalConstruction}


# the vertex that consecutive boundary arcs a1, a2, c1, c2, b2, b1 share
_SHARED_VERTEX = {
    (0, 1): "A", (1, 2): "W", (2, 3): "C", (3, 4): "E", (4, 5): "B", (0, 5): "V",
}


def _exhaustive_report(p):
    """The reference is_simple: arc_intersect on all 15 pairs, no sign filter.
    Returns (simple, [(pair, kind, witness bytes), ...])."""
    arcs = p.arcs
    out = []
    for i in range(6):
        for j in range(i + 1, 6):
            shared = _SHARED_VERTEX.get((i, j))
            pair = (pentagon.EDGE_NAMES[i], pentagon.EDGE_NAMES[j])
            res = sphere.arc_intersect(arcs[i], arcs[j])
            if res.overlap:
                if res.shared and len(res.shared) == 2:
                    out.append((pair, "overlap", res.shared[0].tobytes()))
                elif res.points and shared is None:
                    out.append((pair, "crossing", res.points[0].tobytes()))
                continue
            for q in res.points:
                if shared is not None and pentagon._near(q, getattr(p, shared)):
                    continue
                kind = "crossing"
                for a in (arcs[i], arcs[j]):
                    if pentagon._near(q, a.u) or pentagon._near(q, a.v):
                        kind = "endpoint-degenerate"
                out.append((pair, kind, q.tobytes()))
    return not out, out


@pytest.mark.parametrize("n", SOLIDS)
def test_skipped_adjacent_pairs_never_fail_at_the_antipodal_edge(n):
    # both oracles leave out a1/a2, c1/c2 and b2/b1: the 15-pair reference
    # never reports a violation on them, is_simple's report is the
    # reference's, and the batch oracle agrees with it
    pts = _antipodal_edge_anchors(n)
    skipped = {("a1", "a2"), ("c1", "c2"), ("b2", "b1")}
    built = 0
    for V in pts:
        try:
            pent = pentagon.anchor_pentagon(n, V)
        except (DegenerateAnchor, AntipodalConstruction):
            continue
        built += 1
        simple, ref = _exhaustive_report(pent)
        assert not {pair for pair, _, _ in ref} & skipped, V
        report = pentagon.is_simple(pent)
        assert (report.simple, [(v.pair, v.kind, v.witness.tobytes())
                                for v in report.violations]) == (simple, ref), V
    assert 0 < built < len(pts)
    want = [pentagon.oracle_in_moduli(n, V) for V in pts]
    assert pentagon.oracle_in_moduli_batch(n, pts).tolist() == want


# The sign filter's table, slot by slot: per pair of pentagon._PAIRS, each
# (arc, vertex) slot it reads and the triple product it is, up to the
# normalisation of the arc's normal: with N_a = P_a x P_a+1 unnormalised,
# N_a.P_k = sign det(triple), each triple naming its vertices in the order
# V, A, W, C, E, B (every sign is +1).  The table is the same for n = 3, 4
# and 5.  ACE also stands for AWC, WCB for
# CEB and VCE for VWC: E is the half-turn of W about C, so det(C, E, X) =
# det(X, W, C).
_SLOT_TRIPLES = (
    (("a1", "c2"), ((("a1", "C"), "VAC", 1), (("a1", "E"), "VAE", 1),
                    (("c2", "V"), "VCE", 1), (("c2", "A"), "ACE", 1))),
    (("c1", "b1"), ((("c1", "B"), "WCB", 1), (("c1", "V"), "VCE", 1),
                    (("b1", "W"), "VWB", 1), (("b1", "C"), "VCB", 1))),
    (("c2", "b1"), ((("c2", "B"), "WCB", 1), (("c2", "V"), "VCE", 1),
                    (("b1", "C"), "VCB", 1), (("b1", "E"), "VEB", 1))),
    (("a1", "b2"), ((("a1", "E"), "VAE", 1), (("a1", "B"), "VAB", 1),
                    (("b2", "V"), "VEB", 1), (("b2", "A"), "AEB", 1))),
    (("a2", "b2"), ((("a2", "E"), "AWE", 1), (("a2", "B"), "AWB", 1),
                    (("b2", "A"), "AEB", 1), (("b2", "W"), "WEB", 1))),
    (("a2", "b1"), ((("a2", "B"), "AWB", 1), (("a2", "V"), "VAW", 1),
                    (("b1", "A"), "VAB", 1), (("b1", "W"), "VWB", 1))),
    (("a1", "c1"), ((("a1", "W"), "VAW", 1), (("a1", "C"), "VAC", 1),
                    (("c1", "V"), "VCE", 1), (("c1", "A"), "ACE", 1))),
    (("a2", "c2"), ((("a2", "C"), "ACE", 1), (("a2", "E"), "AWE", 1),
                    (("c2", "A"), "ACE", 1), (("c2", "W"), "WCE", 1))),
    (("c1", "b2"), ((("c1", "E"), "WCE", 1), (("c1", "B"), "WCB", 1),
                    (("b2", "W"), "WEB", 1), (("b2", "C"), "WCB", 1))),
    (("a1", "b1"), ((("a1", "B"), "VAB", 1), (("b1", "A"), "VAB", 1))),
    (("a2", "c1"), ((("a2", "C"), "ACE", 1), (("c1", "A"), "ACE", 1))),
    (("c2", "b2"), ((("c2", "B"), "WCB", 1), (("b2", "C"), "WCB", 1))),
)

_VERTEX_NAMES = "VAWCEB"


def _filter_slots():
    """pentagon._SLOTS as ((arc, arc), ((arc, vertex), ...)) by name, in
    _PAIRS order, once it is checked to be the table _SLOT_TRIPLES pins."""
    edge, vert = pentagon.EDGE_NAMES, _VERTEX_NAMES
    got = tuple(((edge[i], edge[j]), tuple((edge[a], vert[k]) for a, k in slots))
                for (i, j, _), (_, slots) in zip(pentagon._PAIRS, pentagon._SLOTS))
    assert got == tuple((pair, tuple(s for s, _, _ in row)) for pair, row in _SLOT_TRIPLES)
    return got


def _vertices(n, V):
    """The vertices V, A, W, C, E, B of each anchor row of V, by name, as
    (N, 3) arrays."""
    geo = charts.geometry(n)
    to_w, to_e = pentagon._rotations(n)
    return dict(zip(_VERTEX_NAMES, (V, np.broadcast_to(geo.A, V.shape), V @ to_w.T,
                                    np.broadcast_to(geo.C, V.shape), V @ to_e.T,
                                    np.broadcast_to(geo.B, V.shape))))


def _det(P, names):
    return np.einsum("ij,ij->i", np.cross(P[names[0]], P[names[1]]), P[names[2]])


@pytest.mark.parametrize("n", SOLIDS)
def test_filter_slots_are_15_triple_products(n):
    # the 42 slots of the sign filter read 24 distinct products n_a.P_k,
    # none at an end of its own arc, and these are 15 distinct triple
    # products up to sign, as _SLOT_TRIPLES pins them
    _filter_slots()
    for (i, j, adj), (rule, slots) in zip(pentagon._PAIRS, pentagon._SLOTS):
        assert rule is (pentagon._pair_rule if adj < 0 else pentagon._adjacent_rule)
        assert len(slots) == (4 if adj < 0 else 2)
    slots = [s for _, row in _SLOT_TRIPLES for s in row]
    assert len(slots) == 42
    assert len({s for s, _, _ in slots}) == 24
    assert len({t for _, t, _ in slots}) == 15
    edge = pentagon.EDGE_NAMES
    for (arc, v), _, _ in slots:
        a = edge.index(arc)
        assert _VERTEX_NAMES.index(v) not in (a, (a + 1) % 6), (arc, v)
    P = _vertices(n, sample_sphere(64, 40 + n))
    triples = {t: _det(P, t) for _, t, _ in slots}
    for (arc, v), t, sign in slots:
        a = edge.index(arc)
        got = _det(P, (_VERTEX_NAMES[a], _VERTEX_NAMES[(a + 1) % 6], v))
        assert np.abs(got - sign * triples[t]).max() <= 1e-15, (arc, v, t)
    # no two of the 15 are one form up to sign
    for t, u in itertools.combinations(sorted(triples), 2):
        assert min(np.abs(triples[t] - triples[u]).max(),
                   np.abs(triples[t] + triples[u]).max()) > 1e-3, (t, u)


# the uniform draw of test_moduli_is_a_union_of_sign_cells, per n
_SIGN_CELL_SEEDS = {3: 2029, 4: 2030, 5: 2031}


@pytest.mark.parametrize("n", SOLIDS)
def test_moduli_is_a_union_of_sign_cells(n):
    # the moduli as sign cells of the oracle's own forms.  Over the slots of
    # the nine non-adjacent pairs, with unnormalised normals, no margins and
    # no exact path, a pair crosses where each arc straddles the other's
    # circle (s1 s2 < 0, t1 t2 < 0) and the two crossing points agree
    # (sign s1 != sign t1).  Outside the 1e-6 band this rule is both
    # oracle_in_moduli_batch and analytic_in_moduli_batch, and each sign
    # vector of the slots holds only inside or only outside rows of each
    geo = charts.geometry(n)
    to_w, to_e = pentagon._rotations(n)
    # WCE is zero: E = to_e to_w^T W = 2 (C.W) C - W, the half-turn of W
    # about C, so C x E = -C x W and det(W, C, E) = 0
    assert np.abs(to_e @ to_w.T - (2.0 * np.outer(geo.C, geo.C) - np.eye(3))).max() <= 1e-15
    V = sample_sphere(200_000, _SIGN_CELL_SEEDS[n])
    P = _vertices(n, V)
    triple = {s: t for _, row in _SLOT_TRIPLES for s, t, _ in row}
    edge = pentagon.EDGE_NAMES
    pairs =[slots for (_, _, adj), (_, slots) in zip(pentagon._PAIRS, _filter_slots())
             if adj < 0]
    assert len(pairs) == 9
    value = {}
    for arc, v in {s for slots in pairs for s in slots}:
        a = edge.index(arc)
        value[arc, v] = (np.zeros(len(V)) if triple[arc, v] == "WCE" else
                         _det(P, (_VERTEX_NAMES[a], _VERTEX_NAMES[(a + 1) % 6], v)))
    crosses = np.zeros(len(V), dtype=bool)
    for slots in pairs:
        s1, s2, t1, t2 = (value[s] for s in slots)
        crosses |= (s1 * s2 < 0.0) & (t1 * t2 < 0.0) & ((s1 > 0.0) != (t1 > 0.0))
    keep = ~moduli.boundary_band_mask(n, V, 1e-6)
    rule = ~crosses[keep]
    # each row's sign vector as the bits of its positive slots; no other
    # slot is zero on these rows
    live = sorted(s for s in value if triple[s] != "WCE")
    assert len(value) - len(live) == 2
    assert all(np.count_nonzero(value[s][keep]) == len(rule) for s in live)
    code = sum((value[s][keep] > 0.0).astype(np.int64) << b for b, s in enumerate(live))
    cell = np.unique(code, return_inverse=True)[1].ravel()
    size = np.bincount(cell)
    for predicate in (pentagon.oracle_in_moduli_batch, moduli.analytic_in_moduli_batch):
        inside = predicate(n, V)[keep]
        assert np.array_equal(rule, inside), predicate.__name__
        hits = np.bincount(cell, weights=inside)
        assert ((hits == 0) | (hits == size)).all(), predicate.__name__


@pytest.mark.parametrize("n", SOLIDS)
def test_forms_are_the_slot_triple_products_and_squared_chords(n):
    # the batch oracle's forms stage reads every row from one product,
    # coef @ (x^2, y^2, z^2, xy, xz, yz, x, y, z): its first 14 rows are the
    # 14 non-zero triple products of _SLOT_TRIPLES (every slot sign +1), the
    # last of them the three an adjacent pair reads, and its last six rows
    # the squared chords CN[a]^2 of _arcs, all within the bound written above
    # pentagon._ROUND.  Its table answers each sign code as the pair rules do
    # on the slots' signs, det(W, C, E) zero by the half-turn identity
    geo = charts.geometry(n)
    to_w, to_e = pentagon._rotations(n)
    assert np.abs(to_e @ to_w.T - (2.0 * np.outer(geo.C, geo.C) - np.eye(3))).max() <= 1e-15
    _filter_slots()
    coef, adj, table = pentagon._forms(n)
    V = sample_sphere(4096, 60 + n)
    x, y, z = V.T
    F = coef @ np.array([x * x, y * y, z * z, x * y, x * z, y * z, x, y, z])
    P = _vertices(n, V)
    slots = [s for _, row in _SLOT_TRIPLES for s in row]
    det = {t: _det(P, t) for _, t, _ in slots if t != "WCE"}
    assert coef.shape == (20, 9) and len(det) == 14
    bound = pentagon._FORM_ROUND
    form = [next(t for t in det if np.abs(F[r] - det[t]).max() <= bound) for r in range(14)]
    assert sorted(form) == sorted(det)
    assert set(form[adj:]) == {t for _, row in _SLOT_TRIPLES if len(row) == 2 for _, t, _ in row}
    with sphere.scratch(len(V)) as s:
        CN = pentagon._arcs(n, V, s)[2]
        assert np.abs(F[14:] - CN * CN).max() <= bound
    codes = np.arange(1 << 14)
    sign = {t: np.where(codes >> form.index(t) & 1, 1.0, -1.0) for t in form}
    sign["WCE"] = np.zeros(len(codes))
    crosses, decided = np.zeros(len(codes), bool), np.ones(len(codes), bool)
    for (_, row), (rule, _) in zip(_SLOT_TRIPLES, pentagon._SLOTS):
        d, c = rule([sign[t] for _, t, _ in row], (0.5, 0.5))
        crosses |= c
        decided &= d
    want = np.where(crosses, pentagon._OUT, np.where(decided, pentagon._IN, pentagon._UNDECIDED))
    assert np.array_equal(table, want)


# per n, each dividing circle of moduli.division and the slots of the sign
# filter whose product is linear in V (one of its three vertices is V, W or
# E) and vanishes on that circle; n = 5's B2 has none
_CIRCLE_SLOTS = {
    3: {"AB": {("a1", "B"), ("b1", "A")}, "A60": {("a2", "C"), ("c1", "A"), ("c2", "A")},
        "A120": {("a1", "C"), ("a2", "B")}, "B1": {("b2", "A"), ("b1", "C")},
        "B2": {("c1", "B"), ("c2", "B"), ("b2", "C")}},
    4: {"AB": {("a1", "B"), ("b1", "A")}, "A60": {("a2", "C"), ("c1", "A"), ("c2", "A")},
        "A120": {("a1", "C"), ("a2", "B")}, "B1": {("b1", "C")}, "B2": {("b2", "A")},
        "B3": {("c1", "B"), ("c2", "B"), ("b2", "C")}},
    5: {"AB": {("a1", "B"), ("b1", "A")}, "A60": {("a2", "C"), ("c1", "A"), ("c2", "A")},
        "A120": {("a1", "C"), ("a2", "B")}, "B1": {("b1", "C")}, "B2": set(),
        "B3": {("b2", "A")}, "B4": {("c1", "B"), ("c2", "B"), ("b2", "C")}},
}


@pytest.mark.parametrize("n", SOLIDS)
def test_dividing_circles_are_linear_slot_products(n):
    # a linear product det(P_a, P_a+1, P_k) = g.V: its zero set is the great
    # circle of normal g, which must be a dividing circle's
    div = moduli.division(n)
    edge = pentagon.EDGE_NAMES
    got = {name: set() for name in div.circle_names}
    V = sample_sphere(16, 50 + n)
    for arc, v in {s for _, slots in _filter_slots() for s in slots}:
        a = edge.index(arc)
        names = (_VERTEX_NAMES[a], _VERTEX_NAMES[(a + 1) % 6], v)
        if sum(x in "VWE" for x in names) != 1:
            continue
        g = _det(_vertices(n, np.eye(3)), names)
        assert np.abs(_det(_vertices(n, V), names) - V @ g).max() <= 1e-15, (arc, v)
        on = np.flatnonzero(np.abs(div.normals @ g) >= (1.0 - 1e-12) * np.linalg.norm(g))
        assert len(on) == 1, (arc, v)
        got[div.circle_names[on[0]]].add((arc, v))
    assert got == _CIRCLE_SLOTS[n]
