"""Subdivision pentagon from an anchor point, and the simplicity oracle.

The anchor V determines the tile: a1 joins V to the face center A, a2 is a1
rotated about A (chart angle -2pi/3), c1 joins the rotated end W to the edge
midpoint C, and symmetrically b1 joins B to V with b2 its rotation about B
(chart angle +2pi/n) ending at E, c2 joining C to E.  The tile is admissible
iff the six-arc boundary V-A-W-C-E-B-V is a simple closed curve.

The oracle has two forms: is_simple (behind oracle_in_moduli), the reference
that reports every violation, and its vectorized form oracle_in_moduli_batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import charts
from .errors import AntipodalConstruction, AntipodalEndpoints, DegenerateAnchor, DegenerateArc
from .sphere import DEFAULT_TOL, GreatArc, arc_intersect, as_point, as_points, minor_arc

EDGE_NAMES = ("a1", "a2", "c1", "c2", "b2", "b1")

# boundary order of the arcs; consecutive entries share one vertex
_SHARED_VERTEX = {
    (0, 1): "A", (1, 2): "W", (2, 3): "C", (3, 4): "E", (4, 5): "B", (0, 5): "V",
}

_TINY = 1e-300


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

    def vertex(self, name: str) -> np.ndarray:
        return getattr(self, name)


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


def anchor_pentagon(n: int, V: np.ndarray, tol: float = DEFAULT_TOL) -> Pentagon:
    """Construct the subdivision pentagon anchored at V.

    Raises DegenerateAnchor when V (or a derived vertex) coincides with a
    construction point, and AntipodalConstruction when a connecting arc has
    antipodal endpoints.
    """
    geo = charts.geometry(n)
    V = as_point(V)
    A, B, C = geo.A, geo.B, geo.C
    chord = 2.0 * math.sin(0.5 * tol)
    if np.linalg.norm(V - A) <= chord or np.linalg.norm(V - B) <= chord:
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


def _near(p: np.ndarray, q: np.ndarray, tol: float) -> bool:
    return np.linalg.norm(p - q) <= 2.0 * math.sin(0.5 * tol) + 1e-15


def is_simple(p: Pentagon, tol: float = DEFAULT_TOL) -> SimplicityReport:
    """Test all 15 unordered arc pairs of the boundary.

    Adjacent arcs may meet only at their shared vertex; non-adjacent arcs may
    not meet at all; coplanar overlaps of positive length are violations.  No
    early exit, so the violation list is complete.
    """
    arcs = p.arcs
    violations: list[Violation] = []
    # the touch test below uses a slightly widened vertex neighbourhood so a
    # transversal crossing within tol of the shared vertex is not re-reported
    vertex_slack = max(tol, 1e-7)
    for i in range(6):
        for j in range(i + 1, 6):
            shared_name = _SHARED_VERTEX.get((i, j))
            res = arc_intersect(arcs[i], arcs[j], tol)
            if res.overlap:
                if res.shared and len(res.shared) == 2:
                    violations.append(Violation((EDGE_NAMES[i], EDGE_NAMES[j]),
                                                "overlap", res.shared[0]))
                elif res.points and shared_name is None:
                    violations.append(Violation((EDGE_NAMES[i], EDGE_NAMES[j]),
                                                "crossing", res.points[0]))
                continue
            for q in res.points:
                if shared_name is not None and _near(q, p.vertex(shared_name), vertex_slack):
                    continue
                kind = "crossing"
                for a in (arcs[i], arcs[j]):
                    if _near(q, a.u, vertex_slack) or _near(q, a.v, vertex_slack):
                        kind = "endpoint-degenerate"
                violations.append(Violation((EDGE_NAMES[i], EDGE_NAMES[j]), kind, q))
    return SimplicityReport(simple=not violations, violations=tuple(violations))


def oracle_in_moduli(n: int, V: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Ground-truth membership: the anchor yields a simple pentagon.

    Construction failures (degenerate or antipodal anchors) count as not in
    the moduli: such anchors cannot produce a tile.
    """
    try:
        pent = anchor_pentagon(n, V, tol)
    except (DegenerateAnchor, AntipodalConstruction):
        return False
    return is_simple(pent, tol).simple


def _rowdot(a, b):
    return np.einsum("ij,ij->i", a, b)


def oracle_in_moduli_batch(n: int, pts: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """oracle_in_moduli over an (N, 3) array of unit vectors.

    Builds every anchor's six arcs at once and tests the 15 arc pairs across
    the whole batch, with the same tolerances as is_simple.
    """
    V = as_points(pts)
    geo = charts.geometry(n)
    A, B, C = geo.A, geo.B, geo.C
    to_w, to_e = _rotations(n)
    N = V.shape[0]
    chord = 2.0 * math.sin(0.5 * tol)
    slack_chord = 2.0 * math.sin(0.5 * max(tol, 1e-7))
    P = [V, np.broadcast_to(A, (N, 3)), V @ to_w.T,
         np.broadcast_to(C, (N, 3)), V @ to_e.T, np.broadcast_to(B, (N, 3))]
    valid = (np.linalg.norm(V - A, axis=1) > chord) & (np.linalg.norm(V - B, axis=1) > chord)
    U, NH, E2, L = [], [], [], []
    for a in range(6):
        u, v = P[a], P[(a + 1) % 6]
        cr = np.cross(u, v)
        cn = np.linalg.norm(cr, axis=1)
        valid &= (cn > 1e-12) & (np.linalg.norm(u + v, axis=1) > 1e-9)
        nh = cr / np.maximum(cn, _TINY)[:, None]
        U.append(u)
        NH.append(nh)
        E2.append(np.cross(nh, u))
        L.append(np.arctan2(cn, _rowdot(u, v)))
    simple = valid.copy()
    for i in range(6):
        for j in range(i + 1, 6):
            adj = j if j == i + 1 else (0 if (i == 0 and j == 5) else -1)
            m = np.cross(NH[i], NH[j])
            nm = np.linalg.norm(m, axis=1)
            cop = valid & (nm < tol)
            tr = valid & ~cop & simple
            if tr.any():
                mh = m / np.maximum(nm, _TINY)[:, None]
                for sgn in (1.0, -1.0):
                    cand = sgn * mh
                    ai = np.arctan2(_rowdot(cand, E2[i]), _rowdot(cand, U[i]))
                    aj = np.arctan2(_rowdot(cand, E2[j]), _rowdot(cand, U[j]))
                    hit = tr & (ai >= -tol) & (ai <= L[i] + tol) & (aj >= -tol) & (aj <= L[j] + tol)
                    if adj >= 0:
                        hit &= np.linalg.norm(cand - P[adj], axis=1) > slack_chord
                    simple &= ~hit
            if cop.any():
                rows = np.flatnonzero(cop & simple)
                for r in rows:
                    a0 = math.atan2(float(U[j][r] @ E2[i][r]), float(U[j][r] @ U[i][r]))
                    pj = P[(j + 1) % 6][r]
                    a1 = math.atan2(float(pj @ E2[i][r]), float(pj @ U[i][r]))
                    lo, hi = min(a0, a1), max(a0, a1)
                    if hi - lo > math.pi:
                        lo, hi = hi, lo + 2.0 * math.pi
                    ova = min(float(L[i][r]), hi) - max(0.0, lo)
                    ovb = min(float(L[i][r]), hi - 2.0 * math.pi) - max(0.0, lo - 2.0 * math.pi)
                    if max(ova, ovb) > tol:
                        simple[r] = False
    return simple


def face_pentagons(n: int, V: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[Pentagon, Pentagon, Pentagon]:
    """The three congruent pentagons subdividing one face, anchored at the
    rotations of V about the face center."""
    rot = _rotations(n)[0]
    p0 = anchor_pentagon(n, V, tol)
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
