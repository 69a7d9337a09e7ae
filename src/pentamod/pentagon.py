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
A pair the filter leaves undecided goes through the exact path, arc_intersect
in is_simple and _pair_hits in the batch, and is_simple witnesses a pair the
filter decides as crossing from the two arc normals, with the bits
arc_intersect would give, so that its report is the one the exhaustive
15-pair loop gives.  is_simple reads the stacks of its Pentagon: the vertex
stack that anchor_pentagon builds in one pass with sphere.minor_arcs, the
unit normals and the lengths; the GreatArcs are built only for a pair that
reaches arc_intersect.  The batch form decides most rows before building
any arc: every slot product is, up to the positive factor |N_a|, a linear
or quadratic form in V, and one product of _forms' coefficient matrix with
the monomials of V gives each row's 14 non-zero forms and its six squared
chords.  A row whose forms all clear their margins takes its answer from
_forms' table of sign codes, which the pair rules themselves fill in on
+-1 signs; the other rows, and those whose code leaves a pair undecided, go
under one index through the pair pass, which keeps every anchor's arcs
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
which rows reach the exact path changes an answer.  In the pair pass W and
E come from sphere.rows_matmul and every other product is elementwise; the
forms' product may round a row by its batch, but only within the bound its
margins carry, and every row it decides the pair pass would decide alike.
So one anchor gets the answer of its row in any batch, and sphere.map_rows
takes a long input in pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from operator import itemgetter

import numpy as np

from . import charts
from .errors import AntipodalConstruction, AntipodalEndpoints, DegenerateAnchor, DegenerateArc
from .sphere import (ANTIPODAL_EPS, DEFAULT_TOL, DEGENERATE_EPS, VERTEX_CHORD, GreatArc,
                     arc_intersect, as_point, cross3, map_rows, minor_arcs, norm3, rows_matmul,
                     scratch)

EDGE_NAMES = ("a1", "a2", "c1", "c2", "b2", "b1")

_TINY = 1e-300

# chord of DEFAULT_TOL: an anchor within it of A or B counts as that point
_TOL_CHORD = 2.0 * math.sin(0.5 * DEFAULT_TOL)


def _vertex(k: int) -> property:
    return property(lambda p: p.vertices[k], doc=f"Vertex {'VAWCEB'[k]}, row {k} of vertices.")


def _edge(a: int) -> property:
    return property(lambda p: p.arcs[a], doc=f"Arc {EDGE_NAMES[a]}, item {a} of arcs.")


@dataclass(frozen=True)
class Pentagon:
    """The five-vertex subdivision tile, with C splitting the c-edge.

    vertices holds V, A, W, C, E, B as a (6, 3) stack, and boundary arc a
    (a1, a2, c1, c2, b2, b1) runs from vertex a to vertex a + 1 (mod 6),
    with unit normal normals[a] and length lengths[a].  Its GreatArcs are
    built from the stacks on first use.
    """

    n: int
    vertices: np.ndarray = field(repr=False)
    normals: np.ndarray = field(repr=False)
    lengths: tuple[float, ...]

    V, A, W, C, E, B = map(_vertex, range(6))
    a1, a2, c1, c2, b2, b1 = map(_edge, range(6))

    @cached_property
    def arcs(self) -> tuple[GreatArc, ...]:
        """Boundary arcs in traversal order a1, a2, c1, c2, b2, b1."""
        P = self.vertices
        return tuple(GreatArc(u=P[a], v=P[(a + 1) % 6], normal=self.normals[a],
                              length=self.lengths[a]) for a in range(6))


@dataclass(frozen=True)
class Violation:
    pair: tuple[str, str]
    kind: str              # crossing | overlap | endpoint-degenerate
    witness: np.ndarray


@dataclass(frozen=True)
class SimplicityReport:
    simple: bool
    violations: tuple[Violation, ...]


@lru_cache(maxsize=None, typed=True)
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
    to_w, to_e = _rotations(n)
    path = np.array([V, geo.A, to_w @ V, geo.C, to_e @ V, geo.B, V])
    ab = V - path[1::4]
    # the shorter of the chords |V - A| and |V - B|, with the bits of norm3
    if math.sqrt(min(np.vecdot(ab, ab).tolist())) <= _TOL_CHORD:
        raise DegenerateAnchor("anchor coincides with A or B")
    try:
        normals, lengths = minor_arcs(path)
    except AntipodalEndpoints as exc:
        raise AntipodalConstruction(str(exc)) from exc
    except DegenerateArc as exc:
        raise DegenerateAnchor(str(exc)) from exc
    return Pentagon(n, path[:6], normals, lengths)


def _near(p: np.ndarray, q: np.ndarray) -> bool:
    """p within VERTEX_SLACK of q."""
    return norm3(p - q) <= VERTEX_CHORD + 1e-15


def is_simple(p: Pentagon) -> SimplicityReport:
    """Test the 12 arc pairs of _PAIRS, in (i, j) order; only those the sign
    filter leaves undecided run arc_intersect.

    Adjacent arcs may meet only at their shared vertex; non-adjacent arcs may
    not meet at all; coplanar overlaps of positive length are violations.  No
    early exit, so the violation list is complete.  The products and margins
    of the sign filter (see _ROUND) come from the stacks of p.  A pair it
    decides as not crossing meets nowhere it would be reported, and is
    skipped; a pair it decides as crossing meets at -sign(s1) m/|m| for m the
    cross product of the two normals, its witness; every other pair goes
    through arc_intersect, on p.arcs, for its kind and witness.  The three
    adjacent pairs _PAIRS leaves out never report one.
    """
    P, N = p.vertices, p.normals
    # dots[6 a + k] = n_a.P_k for the arc normals and the vertices
    dots = (N @ P.T).ravel().tolist()
    # sin(length) is the chord |u x v| of _arcs
    margins = _margins(max(min(map(math.sin, p.lengths)), DEGENERATE_EPS))
    violations: list[Violation] = []
    # _near's VERTEX_SLACK is wider than DEFAULT_TOL, so a transversal
    # crossing within DEFAULT_TOL of the shared vertex is not re-reported
    for (i, j, adj), rule, products in _REPORT_PAIRS:
        s = products(dots)   # s1, s2, t1, t2 of _pair_rule, or s, t
        decided, crosses = rule(s, margins)
        if decided and not crosses:
            continue
        pair = (EDGE_NAMES[i], EDGE_NAMES[j])
        if decided:
            # arc j crosses circle i at -sign(s1) m/|m| (see _ROUND), the
            # candidate of arc_intersect, bit for bit
            m = cross3(N[i], N[j])
            q = m / norm3(m)
            points = (-q if s[0] > 0.0 else q,)
        else:
            arcs = p.arcs
            res = arc_intersect(arcs[i], arcs[j])
            if res.overlap:
                if res.shared and len(res.shared) == 2:
                    violations.append(Violation(pair, "overlap", res.shared[0]))
                elif res.points and adj < 0:
                    violations.append(Violation(pair, "crossing", res.points[0]))
                continue
            points = res.points
        for q in points:
            if adj >= 0 and _near(q, P[adj]):
                continue
            ends = (P[i], P[(i + 1) % 6], P[j], P[(j + 1) % 6])
            kind = "endpoint-degenerate" if any(_near(q, e) for e in ends) else "crossing"
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
# ON_CIRCLE test and _near's extra 1e-15 can only drop a hit.  The normals of
# sphere.minor_arcs (the products and differences of cross3, divided by the
# norm3 of the product) round within the same few ulps as the component cross
# products and lengths of _arcs, and is_simple takes the chord as
# sin(length), the |u x v| of _arcs to within the 5e-10 an anchor may be off
# the sphere.
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
# Rows inside a margin go through the exact path.  A pair decided as
# crossing meets at -sign(s1) m/|m| alone, the one candidate of arc_intersect
# inside both windows, so is_simple takes that point as its witness, from
# the bits arc_intersect computes it from (cross3 of the normals over its
# norm3), and only its kind from _near.
#
# The batch oracle's forms stage decides most rows before any arc is built.
# Each arc has one end constant (A, C, B) and one linear in V (V, W, E), so
# N_a = P_a x P_a+1 is linear in V, each slot N_a.P_k is a linear or
# quadratic form in V, and so is each squared chord |N_a|^2.  _forms writes
# them over the monomials x^2, y^2, z^2, xy, xz, yz, x, y, z; the 24
# distinct slots are 14 forms and the zero form det(W, C, E) (E is the
# half-turn of W about C).  A row is clear where its chord c, the root of
# its least squared chord, exceeds _CHORD_MIN and every form F beats
#   (1 + 1e-9) m + _FORM_ROUND,  m = _margins(c / 2)[0],
# or [1] for a form an adjacent pair reads.  On a clear row every slot of
# the pair pass, the filter and exact path above, clears its margin with
# the sign of its form:
# - _FORM_ROUND, 2^-40, bounds |F - N_a.P_k| for each slot of the form,
#   N_a.P_k exact on the pass's float W and E: the coefficients are sums of
#   at most three products of constants of modulus <= 1, the product adds
#   nine terms of total modulus below 4, the pass's W and E round by an ulp,
#   and one form stands for several slots through identities (the
#   half-turn) the constants hold to 1e-15.  That is a few hundred ulps of 1.
# - |N_a| <= |P_a| |P_a+1| <= 1 + 1e-9, an anchor being off the sphere by
#   at most 5e-10 (as_points), so |n_a.P_k| >= |N_a.P_k| / (1 + 1e-9).
# - With c^2 > _CHORD_MIN^2 = 2^-32 the squared chords' _FORM_ROUND makes c
#   at most a factor 1 + 2^-9 above the pass's shortest chord, so the slop
#   at c / 2 exceeds the pass's by over _ROUND / chord, ten times the
#   rounding of the pass's products.
# - The row is live in _arcs: |V - A| >= |V x A|, |V - B| >= |B x V| and,
#   for the ends of an arc, |u + v| >= |u x v| (to 1e-24), while
#   _CHORD_MIN is far above _TOL_CHORD, DEGENERATE_EPS and ANTIPODAL_EPS.
# So the pass would decide each pair of a clear row by its rule on the
# signs of the forms, the slots of the zero form never clear (its products
# are rounding, far inside the margin).  _forms tabulates that decision per
# sign code; only the rows that are not clear, or whose code leaves a pair
# undecided, take the pair pass.
_ROUND = 2.0 ** -46
_CLEAR = math.tan(DEFAULT_TOL)
_CLEAR_ADJ = DEFAULT_TOL + 2.0 * VERTEX_CHORD
_FORM_ROUND = 2.0 ** -40
_CHORD_MIN = 2.0 ** -16


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

# the forms stage's answer per sign code (int8): a pair decided as
# crossing, every pair decided as not crossing, or the pair pass
_OUT, _IN, _UNDECIDED = 0, 1, -1
# the weight of each form's sign in the uint16 code
_BITS = (1 << np.arange(16, dtype=np.uint16))[:, None]


@lru_cache(maxsize=None, typed=True)
def _forms(n: int) -> tuple[np.ndarray, int, np.ndarray]:
    """The forms stage's constants for n (see _ROUND): (coef, adj, table).

    coef is the (f + 6, 9) matrix of the f non-zero forms of the slots, then
    the six squared chords |N_a|^2, over the monomials x^2, y^2, z^2, xy, xz,
    yz, x, y, z of V; the forms from row adj on are those an adjacent pair
    reads.  table maps a sign code, bit t set where form t is positive, to
    the filter's answer on those signs.
    """
    geo = charts.geometry(n)
    to_w, to_e = _rotations(n)
    # V, A, W, C, E, B as their linear map of V, or as their point
    maps = (np.eye(3), None, to_w, None, to_e, None)
    points = (None, geo.A, None, geo.C, None, geo.B)
    # N_a = K_a V: c x (L V) for arc a from the point c to the image L V,
    # (L V) x c = -c x (L V) the other way
    K = []
    for a in range(6):
        b = (a + 1) % 6
        L, c, sign = (maps[b], points[a], 1.0) if maps[a] is None else (maps[a], points[b], -1.0)
        K.append(sign * np.array([cross3(c, col) for col in L.T]).T)

    def quadratic(S):
        """V^T S V over the monomials."""
        return np.array([S[0, 0], S[1, 1], S[2, 2], S[0, 1] + S[1, 0], S[0, 2] + S[2, 0],
                         S[1, 2] + S[2, 1], 0.0, 0.0, 0.0])

    # each slot N_a.P_k: (K_a^T P_k).V for a point, V^T K_a^T L_k V for an
    # image; rows of one form differ by the rounding of the constants (under
    # 1e-15) and rows of two forms by over 0.08, and the zero form is None
    rows, form = [], {}
    for a, k in (s for _, slots in _SLOTS for s in slots):
        r = (np.r_[np.zeros(6), K[a].T @ points[k]] if maps[k] is None
             else quadratic(K[a].T @ maps[k]))
        same = [t for t, q in enumerate(rows) if np.abs(q - r).max() <= 1e-12]
        if np.abs(r).max() <= 1e-12:
            form[a, k] = None
        elif same:
            form[a, k] = same[0]
        else:
            form[a, k] = len(rows)
            rows.append(r)
    # the forms an adjacent pair reads take its wider margin: put them last
    read_adj = {form[s] for rule, slots in _SLOTS if rule is _adjacent_rule for s in slots}
    order = sorted(range(len(rows)), key=read_adj.__contains__)
    coef = np.array([rows[t] for t in order] + [quadratic(Ka.T @ Ka) for Ka in K])
    # each rule on the signs +-1 of every code, the zero form's slots 0,
    # with zero margins
    codes = np.arange(1 << len(rows))
    signs = {t: np.where(codes >> order.index(t) & 1, 1, -1).astype(np.int8) for t in order}
    signs[None] = np.zeros(len(codes), np.int8)
    crosses, decided = np.zeros(len(codes), bool), np.ones(len(codes), bool)
    for rule, slots in _SLOTS:
        d, c = rule([signs[form[s]] for s in slots], (0, 0))
        crosses |= c
        decided &= d
    table = np.where(crosses, _OUT, np.where(decided, _IN, _UNDECIDED)).astype(np.int8)
    return coef, len(rows) - len(read_adj), table


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

    The forms stage (see _ROUND) answers every row whose forms all clear
    their margins from the table of sign codes; the other rows take the
    pair pass: every anchor's six arcs at once, the sign filter on every
    pair and row, and _pair_hits, with the tolerances of is_simple, on the
    rows the filter leaves undecided.
    """
    return map_rows(partial(_oracle, n), pts)


def _oracle(n: int, V: np.ndarray) -> np.ndarray:
    """oracle_in_moduli_batch for points already validated by as_points:
    the forms stage (see _ROUND) on every row, in one scratch frame, then
    _pair_pass on the rows it leaves, all of them under one index."""
    k = len(V)
    coef, adj, table = _forms(n)
    f = len(coef) - 6
    with scratch(k) as s:
        # the largest array first: the buffer doubles as it grows, and this
        # order keeps a full piece within what the pair pass takes
        F, X = s.empty((len(coef), k)), s.empty((9, k))
        np.copyto(X[6:], V.T)
        x, y, z = X[6:]
        for r, (a, b) in enumerate(((x, x), (y, y), (z, z), (x, y), (x, z), (y, z))):
            np.multiply(a, b, out=X[r])
        np.matmul(coef, X, out=F)
        # the sign code, bit t set where form t is positive, before |F|
        # replaces the forms in place
        bits = np.multiply(np.greater(F[:f], 0.0, out=s.out((f, k), bool)), _BITS[:f],
                           out=s.out((f, k), np.uint16))
        verdict = table.take(np.add.reduce(bits, axis=0, out=s.out(k, np.uint16)))
        # the least squared chord, then half the chord c, for the margins
        chord = np.minimum.reduce(F[f:], axis=0, out=s.out(k))
        unclear = np.less_equal(chord, _CHORD_MIN ** 2, out=s.out(k, bool))
        half = np.sqrt(np.maximum(chord, _CHORD_MIN ** 2, out=chord), out=chord)
        half *= 0.5
        forms, least = np.abs(F[:f], out=F[:f]), s.out(k)
        for rows, m in zip((forms[:adj], forms[adj:]), _margins(half)):
            unclear |= np.minimum.reduce(rows, axis=0, out=least) <= (1.0 + 1e-9) * m + _FORM_ROUND
        np.copyto(verdict, _UNDECIDED, where=unclear)
    simple = verdict == _IN
    at = np.flatnonzero(verdict == _UNDECIDED)
    if at.size:
        simple[at] = _pair_pass(n, V.take(at, 0))
    return simple


def _pair_pass(n: int, V: np.ndarray) -> np.ndarray:
    """The oracle by the pair pass on validated points: the answer of every
    row that the forms stage leaves to it.

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
            at = np.less(decided, alive, out=pend).nonzero()[0]
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
    return Pentagon(p.n, p.vertices @ rot.T, p.normals @ rot.T, p.lengths)
