"""Subdivision pentagon from an anchor point, and the simplicity oracle.

The anchor V determines the tile: a1 joins V to the face center A, a2 is a1
rotated about A (chart angle -2pi/3), c1 joins the rotated end W to the edge
midpoint C, and symmetrically b1 joins B to V with b2 its rotation about B
(chart angle +2pi/n) ending at E, c2 joining C to E.  The tile is admissible
iff the six-arc boundary V-A-W-C-E-B-V is a simple closed curve.

The oracle has two forms: is_simple (behind oracle_in_moduli), the reference
that reports every violation, and its vectorized form oracle_in_moduli_batch.
Both test the 12 arc pairs of _PAIRS, leaving out the three adjacent pairs
that cannot fail, through one sign filter, set out above _ROUND: the products
each pair reads (_SLOTS), one margin rule (_margins) and each pair's rule.
A pair the filter cannot clear goes through the exact path, arc_intersect in
is_simple, so that its report is the one the exhaustive 15-pair loop gives,
and _pair_hits in the batch.  The batch form keeps every anchor's arcs
component-major: _arcs holds V, W, E and each arc's unit normal as (3, k)
rows of x, y and z on the thread's sphere.scratch, and every cross product,
length and dot product, in the arcs, the filter and the exact path alike,
is a ufunc over whole contiguous rows (_cross, _length, _dot) summed in an
order written out in code.  Every row stays in place under one mask, the
rows still alive: arcs built on all rows, an anchor at A or B one more
dead row, then one pass over the pairs in which each pair's filter runs on
all rows and its alive undecided rows go at once to _pair_hits, which
decides them by masks alone.  An anchor's answer is the AND over the pairs
and each row is computed on its own, so neither the order of the pairs nor
which rows reach the exact path changes an answer.  W and E come from
sphere.rows_matmul and every other product is elementwise, so one anchor
gets the answer of its row in any batch, and sphere.map_rows takes a long
input in pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import itemgetter

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
    """Test the 12 arc pairs of _PAIRS, in (i, j) order; those the sign
    filter clears skip arc_intersect.

    Adjacent arcs may meet only at their shared vertex; non-adjacent arcs may
    not meet at all; coplanar overlaps of positive length are violations.  No
    early exit, so the violation list is complete.  A pair the sign filter
    (see _ROUND) decides as not crossing meets nowhere it would be reported,
    and is skipped; every other pair goes through arc_intersect for its kind
    and witness.  The three adjacent pairs _PAIRS leaves out never report one.
    """
    arcs = p.arcs
    P = (p.V, p.A, p.W, p.C, p.E, p.B)
    # dots[6 a + k] = n_a.P_k for the arc normals and the vertices
    dots = (np.array([a.normal for a in arcs]) @ np.array(P).T).ravel().tolist()
    # sin(length) is the chord |u x v| of _arcs
    margins = _margins(max(min(math.sin(a.length) for a in arcs), DEGENERATE_EPS))
    violations: list[Violation] = []
    # _near's VERTEX_SLACK is wider than DEFAULT_TOL, so a transversal
    # crossing within DEFAULT_TOL of the shared vertex is not re-reported
    for (i, j, adj), rule, products in _REPORT_PAIRS:
        decided, crosses = rule(products(dots), margins)
        if decided and not crosses:
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


# The sign filter of both oracles: each pair's rule in _SLOTS reads the
# products n_a.P_k that its slots name and compares them with the margins
# that _margins takes from the row's shortest chord.  The margins' proof:
#
# Take arcs i and j with unit normals n_i, n_j (NH), m = n_i x n_j, s = n_i.P
# for an endpoint P of arc j and t = n_j.P for one of arc i.  P lies on
# circle j, so |s| <= |m|; the circles meet at +-m/|m| at angle arcsin|m|,
# and the distance d along circle j from P to the nearer of them has
# sin d = |s| / |m| >= |s|.
#
# Rounding.  The products are exact to a few ulps, except through the normal
# of an arc of chord cn (CN): its cross product is exact to a few ulps, so
# its direction only to a few ulps / cn, and the circle _pair_hits measures
# the arc on (from its start along n x P) is tilted from n's by as much.
# With slop = _ROUND / (the row's smallest cn), every value of the row is
# good to slop and every crossing _pair_hits places is good to slop / |m|
# along its arc.  _ROUND, 64 ulps of 1, is over ten times the bound this
# needs, so it also covers the few ulps by which the forms of the products
# round apart: the batch's component multiply-adds (_dot: three products
# added as (x + z) + y, within a few ulps of 1 of the exact value for unit
# vectors) and is_simple's one (6, 3) @ (3, 6) gemm, in which BLAS may fuse
# a multiply and an add.
# The proof holds for either exact path.  is_simple's, arc_intersect,
# tests the same candidates against the same DEFAULT_TOL windows, and its
# ON_CIRCLE test and _near's extra 1e-15 can only drop a hit.  A GreatArc's
# normal is cross3(u, v) / norm3 of it, which rounds within the same few ulps
# as the component cross products and lengths of _arcs, and is_simple takes
# the chord as sin(length), the |u x v| of _arcs to within the 5e-10 an
# anchor may be off the sphere.
#
# A non-adjacent pair is decided where the values clear
# clear = _CLEAR + slop = tan(DEFAULT_TOL) + slop:
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
# rounding).  Where the far end of each arc clears
# clear_adj = _CLEAR_ADJ + 4 slop / VERTEX_CHORD off the other arc's circle,
# neither candidate counts:
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


def _margins(chord):
    """(clear, clear_adj) of a row whose shortest arc chord, floored at
    DEGENERATE_EPS, is chord (see above).  Floats or arrays."""
    slop = _ROUND / chord
    return _CLEAR + slop, _CLEAR_ADJ + (4.0 / VERTEX_CHORD) * slop


def _pair_rule(products, margins):
    """(decided, crosses) of a non-adjacent pair from its products s = n_i.P
    at the ends of arc j and t = n_j.P at the ends of arc i.  Decided where
    both ends of one arc clear the other's circle on one side, or where each
    arc straddles the other's circle with all four ends clear; crosses where
    such straddling arcs meet.  Only comparisons, abs, & and |, so it runs on
    floats and arrays alike."""
    s1, s2, t1, t2 = products
    clear = margins[0]
    cs = (abs(s1) > clear) & (abs(s2) > clear)
    ct = (abs(t1) > clear) & (abs(t2) > clear)
    ps1, ps2, pt1, pt2 = s1 > 0.0, s2 > 0.0, t1 > 0.0, t2 > 0.0
    straddle = cs & ct & (ps1 != ps2) & (pt1 != pt2)
    decided = cs & (ps1 == ps2) | ct & (pt1 == pt2) | straddle
    return decided, straddle & (ps1 != pt1)


def _adjacent_rule(products, margins):
    """(decided, crosses) of an adjacent pair from its products s = n_i.Q_j
    and t = n_j.Q_i with the ends Q away from the shared vertex: decided
    where both clear, and the arcs then meet only there, so crosses is all
    False (decided ^ decided: numpy's bool ops with a scalar operand take a
    slow loop).  Floats or arrays."""
    s, t = products
    clear = margins[1]
    decided = (abs(s) > clear) & (abs(t) > clear)
    return decided, decided ^ decided


# per pair of _PAIRS, its rule and its slots (a, k), the products n_a.P_k
# that the rule reads: n_i at both ends of arc j and n_j at both ends of arc
# i, or for adjacent arcs each normal at the end of the other arc that is
# not the shared vertex (arc a ends at a and a + 1, mod 6)
_SLOTS = tuple((_pair_rule, ((i, j), (i, (j + 1) % 6), (j, i), (j, i + 1))) if adj < 0 else
               (_adjacent_rule, ((i, j + (j + 1) % 6 - adj), (j, i + (i + 1) % 6 - adj)))
               for i, j, adj in _PAIRS)
# is_simple's walk over the table, in (i, j) order, each pair's slots as
# the getter of its products from the flat n_a.P_k at 6 a + k
_REPORT_PAIRS = tuple(sorted((pair, rule, itemgetter(*(6 * a + k for a, k in slots)))
                             for pair, (rule, slots) in zip(_PAIRS, _SLOTS)))


# The batch oracle's arithmetic, on (3, k) component rows: each row of
# components a whole contiguous ufunc operand.  _dot, _cross and _length
# write their results and temporaries into the arrays they are given, and
# numpy allocates those given as None.


def _dot(a, b, prod=None, out=None):
    """Row-wise a.b of component rows: the three products, into prod, added
    as (x + z) + y into out, the order of numpy's einsum row-dot, in which the
    pinned exact-path answers were first computed."""
    prod = np.multiply(a, b, out=prod)
    out = np.add(prod[0], prod[2], out=out)
    out += prod[1]
    return out


def _cross(a, b, out, tmp):
    """Row-wise a x b of component rows, into out: component c is
    a[c+1] b[c+2] - a[c+2] b[c+1], the products and differences of np.cross,
    the second product of each into tmp."""
    for c in range(3):
        c1, c2 = (c + 1) % 3, (c + 2) % 3
        np.multiply(a[c1], b[c2], out=out[c])
        out[c] -= np.multiply(a[c2], b[c1], out=tmp)
    return out


def _length(x, w=None, out=None):
    """Row-wise |x| of component rows: the squares, into w (which may be x),
    added left to right into out, the order of np.linalg.norm."""
    w = np.multiply(x, x, out=w)
    out = np.add(w[0], w[1], out=out)
    out += w[2]
    return np.sqrt(out, out=out)


def _gather(x, at, s):
    """Columns at (sorted and distinct) of component rows x: x itself, or a
    view of it, where at holds every column or x is a point broadcast along
    the rows, and otherwise a copy from the scratch frame s."""
    if at.size == x.shape[1] or x.strides[1] == 0:
        return x[:, :at.size]
    return x.take(at, 1, s.out((3, at.size)), "clip")


def _arcs(n: int, V: np.ndarray, s):
    """The six boundary arcs of every anchor of a validated (N, 3) array,
    component-major, on all N rows in place.

    Returns (P, NH, CN, live): P holds the six vertices V, A, W, C, E, B as
    (3, N) component rows, A, C and B broadcast along the rows; arc a runs
    from P[a] to P[a + 1] with unit normal NH[a], (3, N), and chord
    |P[a] x P[a + 1]| CN[a]; live marks the rows whose anchor lies beyond
    _TOL_CHORD of A and B and whose arcs are all constructible.  The arcs of
    the other rows are built alike and never read.
    """
    geo = charts.geometry(n)
    to_w, to_e = _rotations(n)
    k = len(V)
    VT, W, E = s.empty((3, k)), s.empty((3, k)), s.empty((3, k))
    np.copyto(VT, V.T)
    # six normals, not one (6, 3, k) block: the buffer doubles as it grows,
    # and that one request would take a 16384-row piece past its 6 MB
    NH, CN = [s.empty((3, k)) for _ in range(6)], s.empty((6, k))
    with scratch(k) as t:
        w, ab, tb = t.out((3, k)), t.out(k), t.out(k)
        live = np.ones(k, dtype=bool)
        for c in (geo.A, geo.B):
            live &= _length(np.subtract(VT, c[:, None], out=w), w, ab) > _TOL_CHORD
        # W and E from rows_matmul, so that each row rounds as in any batch
        wt = rows_matmul(V, to_w.T, t.out((k, 3)))
        np.copyto(W, wt.T)
        np.copyto(E, rows_matmul(V, to_e.T, wt).T)
        P = (VT, np.broadcast_to(geo.A[:, None], (3, k)), W,
             np.broadcast_to(geo.C[:, None], (3, k)), E, np.broadcast_to(geo.B[:, None], (3, k)))
        for a in range(6):
            u, v, nh, cn = P[a], P[(a + 1) % 6], NH[a], CN[a]
            _cross(u, v, nh, tb)
            live &= _length(nh, w, cn) > DEGENERATE_EPS
            live &= _length(np.add(u, v, out=w), w, ab) > ANTIPODAL_EPS
            # the normal cr / max(cn, _TINY), in place of the cross product
            np.divide(nh, np.maximum(cn, _TINY, out=ab), out=nh)
    return P, NH, CN, live


def _pair_hits(i, j, adj, P, NH, CN, at, s):
    """Whether arcs i and j meet on the rows at of _arcs, as is_simple
    decides it: a candidate +-m/|m| within DEFAULT_TOL of both arcs and
    (adjacent arcs) beyond VERTEX_SLACK of the shared vertex, or one circle
    on which the arcs overlap by more than DEFAULT_TOL.

    After gathering its operands on the rows at, from the scratch frame s,
    it decides every row by masks: one per sign of the candidate, which
    flips the sign of its dot products exactly, so each angle keeps its
    bits, and the overlap rule where |m| < DEFAULT_TOL.
    """
    ni, nj = _gather(NH[i], at, s), _gather(NH[j], at, s)
    ui, vi, uj, vj = (_gather(P[a % 6], at, s) for a in (i, i + 1, j, j + 1))
    # each arc's length, and its unit tangent at its start
    li, lj = np.arctan2(CN[i].take(at), _dot(ui, vi)), np.arctan2(CN[j].take(at), _dot(uj, vj))
    tb = s.out(at.size)
    e2i, e2j = _cross(ni, ui, s.empty(ni.shape), tb), _cross(nj, uj, s.empty(nj.shape), tb)
    m = _cross(ni, nj, s.empty(ni.shape), tb)
    nm = _length(m, s.out(m.shape), s.out(at.size))
    mh = np.divide(m, np.maximum(nm, _TINY, out=tb), out=m)
    # each candidate's angle along arc i and along arc j from its start; it
    # hits inside both windows and away from the vertex the arcs share
    xi, yi, xj, yj = (_dot(mh, q) for q in (ui, e2i, uj, e2j))
    hits = np.zeros(at.size, dtype=bool)
    for sgn in (1.0, -1.0):
        ai, aj = np.arctan2(sgn * yi, sgn * xi), np.arctan2(sgn * yj, sgn * xj)
        hit = (ai >= -DEFAULT_TOL) & (ai <= li + DEFAULT_TOL)
        hit &= (aj >= -DEFAULT_TOL) & (aj <= lj + DEFAULT_TOL)
        if adj >= 0:
            hit &= _length(sgn * mh - (ui if adj == i else uj)) > VERTEX_CHORD
        hits |= hit
    # one circle: arc j's span in arc i's frame may overlap arc i by at
    # most DEFAULT_TOL
    a0, a1 = (np.arctan2(_dot(q, e2i), _dot(q, ui)) for q in (uj, vj))
    lo, hi = np.minimum(a0, a1), np.maximum(a0, a1)
    wrap = hi - lo > math.pi
    lo, hi = np.where(wrap, hi, lo), np.where(wrap, lo + 2.0 * math.pi, hi)
    ova = np.minimum(li, hi) - np.maximum(0.0, lo)
    ovb = np.minimum(li, hi - 2.0 * math.pi) - np.maximum(0.0, lo - 2.0 * math.pi)
    return np.where(nm < DEFAULT_TOL, np.maximum(ova, ovb) > DEFAULT_TOL, hits)


def oracle_in_moduli_batch(n: int, pts: np.ndarray) -> np.ndarray:
    """oracle_in_moduli over an (N, 3) array of unit vectors.

    Builds every anchor's six arcs at once and runs the sign filter (see
    _ROUND) on every pair and row; _pair_hits, with the tolerances of
    is_simple, decides the rows the filter leaves undecided.
    """
    return map_rows(partial(_oracle, n), pts)


def _oracle(n: int, V: np.ndarray) -> np.ndarray:
    """oracle_in_moduli_batch for points already validated by as_points.

    Every row stays in place under one mask, alive: live in _arcs and not
    yet found crossing.  One pass over _PAIRS and _SLOTS runs each pair's
    filter rule on all rows, its products in four k-buffers; a crossing it
    decides clears the row, and the alive rows it leaves undecided go at
    once to the exact path, _pair_hits, whose hits clear them too.  The
    mask at the end is the answer.
    """
    k = len(V)
    with scratch(k) as s:
        P, NH, CN, alive = _arcs(n, V, s)
        chord = np.min(CN, axis=0, out=s.out(k))
        margins = _margins(np.maximum(chord, DEGENERATE_EPS, out=chord))
        prod, bufs, pend = s.out((3, k)), [s.out(k) for _ in range(4)], s.out(k, bool)
        for (i, j, adj), (rule, slots) in zip(_PAIRS, _SLOTS):
            if not np.count_nonzero(alive):
                break
            decided, crosses = rule([_dot(NH[a], P[v], prod, out)
                                     for (a, v), out in zip(slots, bufs)], margins)
            alive &= ~crosses
            at = np.flatnonzero(np.less(decided, alive, out=pend))
            if at.size:
                with scratch(at.size) as h:
                    alive[at] = ~_pair_hits(i, j, adj, P, NH, CN, at, h)
    return alive


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
