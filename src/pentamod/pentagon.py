"""Subdivision pentagon from an anchor point, and the simplicity oracle.

The anchor V determines the tile: a1 joins V to the face center A, a2 is a1
rotated about A (chart angle -2pi/3), c1 joins the rotated end W to the edge
midpoint C, and symmetrically b1 joins B to V with b2 its rotation about B
(chart angle +2pi/n) ending at E, c2 joining C to E.  The tile is admissible
iff the six-arc boundary V-A-W-C-E-B-V is a simple closed curve.

The oracle has two forms: is_simple (behind oracle_in_moduli), the reference
that reports every violation, and its vectorized form oracle_in_moduli_batch.
Both test the 12 arc pairs of _PAIRS, leaving out the three adjacent pairs
that cannot fail, and filter each pair by the same sign rules (_pair_rule,
_adjacent_rule): is_simple runs sphere.arc_intersect only on the pairs the
signs cannot clear of a violation, so its report is the one the exhaustive
15-pair loop gives.  The batch form compacts its live rows: it keeps the
indices of the anchors that are constructible and not yet ruled out,
evaluates each arc pair on those rows only, and drops the rows the pair
rules out.  An anchor's answer is the AND over the pairs and each row is
computed on its own, so neither the compaction nor the order of the pairs
changes an answer.  Its products go through sphere.rows_matmul, so one
anchor gets the answer of its row in any batch, and sphere.map_rows takes a
long input in pieces; the arcs and each pair's operands live on the thread's
sphere.scratch.

Each pair is a filtered predicate: the signs of the four products of one
arc's normal with the other arc's endpoints decide it on every row where
each product clears a margin (see _CLEAR): one that covers the DEFAULT_TOL
windows of the exact path and the rounding of both.  On such a row the
exact path, _pair_hits in the batch and arc_intersect in is_simple, would
give the same answer.  The rows inside a margin (near-touches, coplanar
arcs, short arcs, the shared vertex of adjacent arcs) go through the exact
path; _pair_hits forms the arc tangents and lengths on those rows only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import charts
from .errors import AntipodalConstruction, AntipodalEndpoints, DegenerateAnchor, DegenerateArc
from .sphere import (ANTIPODAL_EPS, DEFAULT_TOL, DEGENERATE_EPS, VERTEX_CHORD, GreatArc,
                     arc_intersect, as_point, map_rows, minor_arc, norm3, rows_matmul, scratch)

EDGE_NAMES = ("a1", "a2", "c1", "c2", "b2", "b1")

_TINY = 1e-300

# chord of DEFAULT_TOL: an anchor within it of A or B counts as that point
_TOL_CHORD = 2.0 * math.sin(0.5 * DEFAULT_TOL)


@dataclass(frozen=True)
class Pentagon:
    """The five-vertex subdivision tile, with C splitting the c-edge."""

    n: int
    V: np.ndarray
    A: np.ndarray
    W: np.ndarray
    C: np.ndarray
    E: np.ndarray
    B: np.ndarray
    a1: GreatArc
    a2: GreatArc
    c1: GreatArc
    c2: GreatArc
    b2: GreatArc
    b1: GreatArc

    @property
    def arcs(self) -> tuple[GreatArc, ...]:
        """Boundary arcs in traversal order a1, a2, c1, c2, b2, b1."""
        return (self.a1, self.a2, self.c1, self.c2, self.b2, self.b1)


@dataclass(frozen=True)
class Violation:
    pair: tuple[str, str]
    kind: str              # crossing | overlap | endpoint-degenerate
    witness: np.ndarray | None


@dataclass(frozen=True)
class SimplicityReport:
    simple: bool
    violations: tuple[Violation, ...]


@lru_cache(maxsize=None)
def _rotations(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The rotations taking V to W (about A, chart angle -2pi/3) and to E
    (about B, chart angle +2pi/n)."""
    geo = charts.geometry(n)
    return (geo.chart_rotation("A", -2.0 * math.pi / 3.0),
            geo.chart_rotation("B", 2.0 * math.pi / n))


def anchor_pentagon(n: int, V: np.ndarray) -> Pentagon:
    """Construct the subdivision pentagon anchored at V.

    Raises DegenerateAnchor when V (or a derived vertex) coincides with a
    construction point, and AntipodalConstruction when a connecting arc has
    antipodal endpoints.
    """
    geo = charts.geometry(n)
    V = as_point(V)
    A, B, C = geo.A, geo.B, geo.C
    if norm3(V - A) <= _TOL_CHORD or norm3(V - B) <= _TOL_CHORD:
        raise DegenerateAnchor("anchor coincides with A or B")
    to_w, to_e = _rotations(n)
    W = to_w @ V
    E = to_e @ V
    try:
        a1 = minor_arc(V, A)
        a2 = minor_arc(A, W)
        c1 = minor_arc(W, C)
        c2 = minor_arc(C, E)
        b2 = minor_arc(E, B)
        b1 = minor_arc(B, V)
    except AntipodalEndpoints as exc:
        raise AntipodalConstruction(str(exc)) from exc
    except DegenerateArc as exc:
        raise DegenerateAnchor(str(exc)) from exc
    return Pentagon(n=n, V=V, A=A, W=W, C=C, E=E, B=B,
                    a1=a1, a2=a2, c1=c1, c2=c2, b2=b2, b1=b1)


def _near(p: np.ndarray, q: np.ndarray) -> bool:
    """p within VERTEX_SLACK of q."""
    return norm3(p - q) <= VERTEX_CHORD + 1e-15


def is_simple(p: Pentagon) -> SimplicityReport:
    """Test the 12 arc pairs of _PAIRS, in (i, j) order; those the signs
    clear skip arc_intersect.

    Adjacent arcs may meet only at their shared vertex; non-adjacent arcs may
    not meet at all; coplanar overlaps of positive length are violations.  No
    early exit, so the violation list is complete.  A pair whose products
    clear the margins of the sign filter (see _CLEAR) meets nowhere it would
    be reported, and is skipped; every other pair, the ones the signs decide
    as crossing included, goes through arc_intersect for its kind and
    witness.  The three adjacent pairs _PAIRS leaves out never report one.
    """
    arcs = p.arcs
    P = (p.V, p.A, p.W, p.C, p.E, p.B)
    # dots[a][k] = n_a.P_k for the arc normals and the vertices
    dots = (np.array([a.normal for a in arcs]) @ np.array(P).T).tolist()
    # sin(length) is the chord |u x v| of _arcs
    slop = _ROUND / max(min(math.sin(a.length) for a in arcs), DEGENERATE_EPS)
    clear, clear_adj = _CLEAR + slop, _CLEAR_ADJ + (4.0 / VERTEX_CHORD) * slop
    violations: list[Violation] = []
    # _near's VERTEX_SLACK is wider than DEFAULT_TOL, so a transversal
    # crossing within DEFAULT_TOL of the shared vertex is not re-reported
    for i, j, adj in _REPORT_PAIRS:
        di, dj = dots[i], dots[j]
        if adj < 0:
            decided, crosses = _pair_rule(di[j], di[(j + 1) % 6], dj[i], dj[i + 1], clear)
            if decided and not crosses:
                continue
        else:
            fi, fj = _far_ends(i, j, adj)
            if _adjacent_rule(di[fj], dj[fi], clear_adj):
                continue
        pair = (EDGE_NAMES[i], EDGE_NAMES[j])
        res = arc_intersect(arcs[i], arcs[j])
        if res.overlap:
            if res.shared and len(res.shared) == 2:
                violations.append(Violation(pair, "overlap", res.shared[0]))
            elif res.points and adj < 0:
                violations.append(Violation(pair, "crossing", res.points[0]))
            continue
        for q in res.points:
            if adj >= 0 and _near(q, P[adj]):
                continue
            kind = "crossing"
            for a in (arcs[i], arcs[j]):
                if _near(q, a.u) or _near(q, a.v):
                    kind = "endpoint-degenerate"
            violations.append(Violation(pair, kind, q))
    return SimplicityReport(simple=not violations, violations=tuple(violations))


def oracle_in_moduli(n: int, V: np.ndarray) -> bool:
    """Ground-truth membership: the anchor yields a simple pentagon.

    Construction failures (degenerate or antipodal anchors) count as not in
    the moduli: such anchors cannot produce a tile.
    """
    try:
        pent = anchor_pentagon(n, V)
    except (DegenerateAnchor, AntipodalConstruction):
        return False
    return is_simple(pent).simple


def _rowdot(a, b, out=None):
    return np.einsum("ij,ij->i", a, b, out=out)


# The helpers below take the arrays they return from a scratch frame s (see
# sphere.scratch) and their own temporaries from an inner frame.


def _cross(a, b, s):
    """Row-wise a x b of (N, 3) arrays; the products and differences of
    np.cross without its copies of both operands."""
    out = s.empty(a.shape)
    with scratch(len(a)) as t:
        tb = t.out(len(a))
        for k in range(3):
            k1, k2 = (k + 1) % 3, (k + 2) % 3
            np.multiply(a[:, k1], b[:, k2], out=out[:, k])
            out[:, k] -= np.multiply(a[:, k2], b[:, k1], out=tb)
    return out


def _take(a, idx, s):
    """Rows idx of an array, idx sorted and distinct, as every row index
    here is: the array itself when idx holds every row, and a view of the
    right length of a constant point broadcast to (N, 3), since take would
    copy either for nothing."""
    if idx.size == len(a):
        return a
    if a.strides[0] == 0:
        return a[:idx.size]
    return a.take(idx, 0, s.out((idx.size,) + a.shape[1:]), "clip")


def _norm(a, s):
    """Row-wise |a| of an (N, 3) array, summed in the order of np.linalg.norm."""
    out = np.multiply(a[:, 0], a[:, 0], out=s.out(len(a)))
    with scratch(len(a)) as t:
        tb = t.out(len(a))
        out += np.multiply(a[:, 1], a[:, 1], out=tb)
        out += np.multiply(a[:, 2], a[:, 2], out=tb)
    return np.sqrt(out, out=out)


# the arc pairs (i, j), i < j, with the index in V, A, W, C, E, B of the
# vertex that adjacent arcs share (-1 for non-adjacent arcs).  In the batch,
# pairs that rule out the most uniform anchors come first and the adjacent
# pairs, which the filter never rules a row out on, last; the order does not
# change any answer.  is_simple reports in (i, j) order.  Three adjacent pairs
# never fail, and both oracles leave them out.  c1/c2: E is the half-turn of W
# about C (to_e to_w^T = 2 C C^T - I), so the arcs leave C in opposite
# directions along one circle.  a1/a2 and b2/b1 leave A and B in different
# directions, so they could meet again only at -A or -B, which no minor arc
# reaches.
_PAIRS = tuple((i, j, j if j == i + 1 else (0 if (i, j) == (0, 5) else -1))
               for i, j in ((0, 3), (2, 5), (3, 5), (0, 4), (1, 4), (1, 5), (0, 2),
                            (1, 3), (2, 4), (0, 5), (1, 2), (3, 4)))
_REPORT_PAIRS = tuple(sorted(_PAIRS))


def _far_ends(i, j, adj):
    """The indices in V, A, W, C, E, B of the ends of adjacent arcs i and j
    away from their shared vertex adj (arc a runs from vertex a to a + 1)."""
    return (i + 1 if adj == i else i), ((j + 1) % 6 if adj == j else j)


# Margins of the sign filter of both oracles.  Take arcs i and j with unit
# normals n_i, n_j (NH), m = n_i x n_j, s = n_i.P for an endpoint P of arc j
# and t = n_j.P for one of arc i.  P lies on circle j, so |s| <= |m|; the
# circles meet at +-m/|m| at angle arcsin|m|, and the distance d along
# circle j from P to the nearer of them has sin d = |s| / |m| >= |s|.
#
# Rounding.  The products are exact to a few ulps, except through the normal
# of an arc of chord cn (CN): its cross product is exact to a few ulps, so
# its direction only to a few ulps / cn, and the circle _pair_hits measures
# the arc on (from its start along n x P) is tilted from n's by as much.
# With slop = _ROUND / (the row's smallest cn), every value of the row is
# good to slop and every crossing _pair_hits places is good to slop / |m|
# along its arc.  _ROUND, 64 ulps of 1, is over ten times the bound this
# needs, so it also covers the few ulps by which the kernels that form the
# products round apart: the batch's dots and rows_matmul, and is_simple's
# one (6, 3) @ (3, 6) gemm, in which BLAS may fuse a multiply and an add.
# The proof holds for either exact path.  is_simple's, arc_intersect,
# tests the same candidates against the same DEFAULT_TOL windows, and its
# ON_CIRCLE test and _near's extra 1e-15 can only drop a hit.  A GreatArc's
# normal is cross3(u, v) / norm3 of it, which rounds within the same few ulps
# as _cross and _norm, and is_simple takes the chord as sin(length), the
# |u x v| of _arcs to within the 5e-10 an anchor may be off the sphere.
#
# A non-adjacent pair is decided where the values clear
# _CLEAR + slop = tan(DEFAULT_TOL) + slop:
# - both ends of arc j on one side of circle i: s along arc j is a sinusoid,
#   of period 2 pi, over an arc shorter than pi - 2 DEFAULT_TOL (|s1 + s2| <=
#   |P_j + P_j+1| = 2 cos(L_j / 2)), so the arc and its DEFAULT_TOL windows
#   stay on that side, and both candidates +-m/|m| (on circle i) miss the
#   windows by (|s| - tan(DEFAULT_TOL) |m|) / |m| > slop / |m|.  The same
#   holds with i and j swapped.
# - both arcs straddling the other's circle: arc j crosses circle i at
#   -sign(s1) m/|m| and arc i crosses circle j at sign(t1) m/|m|, each at
#   least |s| / |m| or |t| / |m| inside its arc.  The arcs cross where the
#   two points agree (s1 t1 < 0) and miss where they are antipodal.
# A decided row has |m| >= |s| > DEFAULT_TOL + slop, so it is no coplanar
# row of _pair_hits either.
#
# Adjacent arcs share a vertex S and their circles meet only at +-S (to
# rounding).  Where the far end of each arc clears _CLEAR_ADJ + 4 slop /
# VERTEX_CHORD off the other arc's circle, neither candidate counts:
# - |m| >= |s| > 4 slop / VERTEX_CHORD, so the candidate near S lies within
#   2 slop / |m| < VERTEX_CHORD / 2 of S, plus the 5e-10 by which an anchor
#   may be off the unit sphere (as_points): inside VERTEX_CHORD;
# - arc i's far end lies at least |t| > DEFAULT_TOL + 2 VERTEX_CHORD from -S,
#   which is on circle j, so the window of arc i misses the candidate near
#   -S, which is within 1.6 VERTEX_CHORD of -S.
# Rows inside a margin go through the exact path, as do the pairs decided as
# crossing in is_simple, which reports their kind and witness.
_ROUND = 2.0 ** -46
_CLEAR = math.tan(DEFAULT_TOL)
_CLEAR_ADJ = DEFAULT_TOL + 2.0 * VERTEX_CHORD


def _pair_rule(s1, s2, t1, t2, clear):
    """(decided, crosses) of a non-adjacent pair from its products s = n_i.P
    at the ends of arc j and t = n_j.P at the ends of arc i (see the margins
    above).  Decided where both ends of one arc clear the other's circle on
    one side, or where each arc straddles the other's circle with all four
    ends clear; crosses where such straddling arcs meet.  Only comparisons,
    abs, & and |, so it runs on floats and arrays alike."""
    cs = (abs(s1) > clear) & (abs(s2) > clear)
    ct = (abs(t1) > clear) & (abs(t2) > clear)
    ps1, ps2, pt1, pt2 = s1 > 0.0, s2 > 0.0, t1 > 0.0, t2 > 0.0
    straddle = cs & ct & (ps1 != ps2) & (pt1 != pt2)
    decided = cs & (ps1 == ps2) | ct & (pt1 == pt2) | straddle
    return decided, straddle & (ps1 != pt1)


def _adjacent_rule(s, t, clear):
    """Whether an adjacent pair is decided from its products s = n_i.Q_j and
    t = n_j.Q_i with the ends Q away from the shared vertex: where both clear,
    the arcs meet only there (see the margins above).  Floats or arrays."""
    return (abs(s) > clear) & (abs(t) > clear)


def _arcs(n: int, V: np.ndarray, s):
    """The six boundary arcs of every anchor of a validated (N, 3) array.

    Returns (rows, P, NH, CN, live): rows indexes the anchors away from A
    and B; P holds the six vertices V, A, W, C, E, B on those rows (A, C, B
    broadcast), arc a runs from P[a] to P[a + 1] with unit normal NH[a] and
    chord |P[a] x P[a + 1]| CN[a]; live indexes the rows whose arcs are all
    constructible.
    """
    geo = charts.geometry(n)
    to_w, to_e = _rotations(n)
    with scratch(len(V)) as t:
        db = t.out(V.shape)
        far = _norm(np.subtract(V, geo.A, out=db), t) > _TOL_CHORD
        far &= _norm(np.subtract(V, geo.B, out=db), t) > _TOL_CHORD
    rows = np.flatnonzero(far)
    k = rows.size
    V = _take(V, rows, s)
    P = [V, np.broadcast_to(geo.A, (k, 3)), rows_matmul(V, to_w.T, s.out((k, 3))),
         np.broadcast_to(geo.C, (k, 3)), rows_matmul(V, to_e.T, s.out((k, 3))),
         np.broadcast_to(geo.B, (k, 3))]
    ok = np.ones(k, dtype=bool)
    NH, CN = [], []
    for a in range(6):
        u, v = P[a], P[(a + 1) % 6]
        cr = _cross(u, v, s)
        cn = _norm(cr, s)
        with scratch(k) as t:
            ok &= cn > DEGENERATE_EPS
            ok &= _norm(np.add(u, v, out=t.out((k, 3))), t) > ANTIPODAL_EPS
            # the normal cr / max(cn, _TINY), in place of the cross product
            NH.append(np.divide(cr, np.maximum(cn, _TINY, out=t.out(k))[:, None], out=cr))
        CN.append(cn)
    return rows, P, NH, CN, np.flatnonzero(ok)


def _frame(P, NH, CN, a, at, s):
    """Arc a on rows at: its start, the unit tangent there, its length."""
    u, v = _take(P[a], at, s), _take(P[(a + 1) % 6], at, s)
    return u, _cross(_take(NH[a], at, s), u, s), np.arctan2(CN[a].take(at), _rowdot(u, v))


def _pair_hits(i, j, adj, P, NH, CN, at, s):
    """Whether arcs i and j meet on the rows at of _arcs, as is_simple
    decides it: a candidate +-m/|m| within DEFAULT_TOL of both arcs and
    (adjacent arcs) beyond VERTEX_SLACK of the shared vertex, or one circle
    on which the arcs overlap by more than DEFAULT_TOL."""
    ui, e2i, li = _frame(P, NH, CN, i, at, s)
    uj, e2j, lj = _frame(P, NH, CN, j, at, s)
    m = _cross(_take(NH[i], at, s), _take(NH[j], at, s), s)
    nm = _norm(m, s)
    cop = nm < DEFAULT_TOL
    out = np.zeros(at.size, dtype=bool)
    tr = np.flatnonzero(~cop)
    if tr.size:
        # the candidates +-m/|m|, first on arc i, then on arc j, away
        # from the vertex the arcs share
        mh = m.take(tr, 0) / np.maximum(nm.take(tr), _TINY)[:, None]
        xi, yi = _rowdot(mh, _take(ui, tr, s)), _rowdot(mh, e2i.take(tr, 0))
        lt = li.take(tr)
        for sgn in (1.0, -1.0):
            ai = np.arctan2(sgn * yi, sgn * xi)
            h = np.flatnonzero((ai >= -DEFAULT_TOL) & (ai <= lt + DEFAULT_TOL))
            if not h.size:
                continue
            cand, ah = sgn * mh.take(h, 0), tr.take(h)
            aj = np.arctan2(_rowdot(cand, e2j.take(ah, 0)), _rowdot(cand, _take(uj, ah, s)))
            hit = (aj >= -DEFAULT_TOL) & (aj <= lj.take(ah) + DEFAULT_TOL)
            if adj >= 0:
                hit &= _norm(cand - _take(ui if adj == i else uj, ah, s), s) > VERTEX_CHORD
            out[ah] |= hit
    cp = np.flatnonzero(cop)
    if cp.size:
        # one circle: arc j's span in arc i's frame may overlap arc i by
        # at most DEFAULT_TOL
        u, e2, lc = _take(ui, cp, s), e2i.take(cp, 0), li.take(cp)
        a0 = np.arctan2(_rowdot(_take(uj, cp, s), e2), _rowdot(_take(uj, cp, s), u))
        vj = _take(P[(j + 1) % 6], at.take(cp), s)
        a1 = np.arctan2(_rowdot(vj, e2), _rowdot(vj, u))
        lo, hi = np.minimum(a0, a1), np.maximum(a0, a1)
        wrap = hi - lo > math.pi
        lo, hi = np.where(wrap, hi, lo), np.where(wrap, lo + 2.0 * math.pi, hi)
        ova = np.minimum(lc, hi) - np.maximum(0.0, lo)
        ovb = np.minimum(lc, hi - 2.0 * math.pi) - np.maximum(0.0, lo - 2.0 * math.pi)
        out[cp] = np.maximum(ova, ovb) > DEFAULT_TOL
    return out


def _dots(nh, p, s):
    """Row-wise nh.p, p possibly one point broadcast to (N, 3)."""
    out = s.out(len(nh))
    return rows_matmul(nh, p[0], out) if p.strides[0] == 0 else _rowdot(nh, p, out)


def oracle_in_moduli_batch(n: int, pts: np.ndarray) -> np.ndarray:
    """oracle_in_moduli over an (N, 3) array of unit vectors.

    Builds every anchor's six arcs at once and tests the arc pairs, each on
    the rows still live.  Signs decide a pair on the rows clear of the
    margins above; _pair_hits, with the tolerances of is_simple, decides the
    rest.
    """
    return map_rows(partial(_oracle, n), pts)


def _oracle(n: int, V: np.ndarray) -> np.ndarray:
    """oracle_in_moduli_batch for points already validated by as_points."""
    with scratch(len(V)) as s:
        rows, P, NH, CN, live = _arcs(n, V, s)
        k = rows.size
        # slop = _ROUND / max(the row's smallest chord, DEGENERATE_EPS)
        sb, cb = s.out(k), s.out(k)
        slop = np.minimum(CN[0], CN[1], out=sb)
        for cn in CN[2:]:
            slop = np.minimum(slop, cn, out=sb)
        slop = np.divide(_ROUND, np.maximum(slop, DEGENERATE_EPS, out=sb), out=sb)
        clear = np.add(_CLEAR, slop, out=s.out(k))
        clear_adj = np.add(_CLEAR_ADJ, np.multiply(4.0 / VERTEX_CHORD, slop, out=cb), out=cb)
        for i, j, adj in _PAIRS:
            if not live.size:
                break
            with scratch(live.size) as t:
                ni, nj = _take(NH[i], live, t), _take(NH[j], live, t)
                if adj < 0:
                    decided, out = _pair_rule(
                        _dots(ni, _take(P[j], live, t), t),
                        _dots(ni, _take(P[(j + 1) % 6], live, t), t),
                        _dots(nj, _take(P[i], live, t), t),
                        _dots(nj, _take(P[i + 1], live, t), t),
                        _take(clear, live, t))
                else:
                    fi, fj = _far_ends(i, j, adj)
                    decided = _adjacent_rule(
                        _dots(ni, _take(P[fj], live, t), t), _dots(nj, _take(P[fi], live, t), t),
                        _take(clear_adj, live, t))
                    out = np.zeros(live.size, dtype=bool)
                slow = np.flatnonzero(~decided)
                if slow.size:
                    with scratch(slow.size) as h:
                        out[slow] = _pair_hits(i, j, adj, P, NH, CN, live.take(slow), h)
            live = live[~out]
    simple = np.zeros(V.shape[0], dtype=bool)
    simple[rows.take(live)] = True
    return simple


def face_pentagons(n: int, V: np.ndarray) -> tuple[Pentagon, Pentagon, Pentagon]:
    """The three congruent pentagons subdividing one face, anchored at the
    rotations of V about the face center."""
    rot = _rotations(n)[0]
    p0 = anchor_pentagon(n, V)
    p1 = _rotate_pentagon(p0, rot)
    p2 = _rotate_pentagon(p1, rot)
    return (p0, p1, p2)


def _rotate_pentagon(p: Pentagon, rot: np.ndarray) -> Pentagon:
    def rarc(a: GreatArc) -> GreatArc:
        return GreatArc(u=rot @ a.u, v=rot @ a.v, normal=rot @ a.normal, length=a.length)

    return Pentagon(n=p.n, V=rot @ p.V, A=p.A, W=rot @ p.W, C=rot @ p.C,
                    E=rot @ p.E, B=rot @ p.B,
                    a1=rarc(p.a1), a2=rarc(p.a2), c1=rarc(p.c1),
                    c2=rarc(p.c2), b2=rarc(p.b2), b1=rarc(p.b1))
